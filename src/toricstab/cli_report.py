"""The `report` command: moments, verdict and the invariants at each --v direction."""

from .cli import (SCOPE, dec_str, entries, gather_contexts, ivec_str, parse_direction, rat_str,
                  render_m2, vec_str)
from .stability import StabilityContext, verdict


def report_doc(ctx: StabilityContext, directions, digits: int):
    md = ctx.moments
    doc = {
        "name": ctx.name,
        "scope": SCOPE,
        "dim": ctx.dim,
        "vertices": [vec_str(u) for u in ctx.vpoly.vertices],
        "volume": rat_str(md.volume),
        "volume_decimal": dec_str(md.volume, digits),
        "barycenter": vec_str(md.barycenter),
        "covariance": [vec_str(row) for row in md.covariance],
        "verdict": verdict(ctx),
    }
    rendered = []
    for v in directions:
        from .invariants import _invariants
        a, s, l2, value = _invariants(ctx, v)
        rendered.append(
            {
                "v": ivec_str(v),
                "futaki": rat_str(a - s),  # A - S = Fut
                "min_norm": rat_str(s),
                "l2_norm_sq": rat_str(l2),
                "A": rat_str(a),
                "S": rat_str(s),
                "mu1": rat_str(value.mu1),
                "mu1_decimal": dec_str(value.mu1, digits),
                "mu2": render_m2(value.mu2_sign, value.mu2_sq, digits),
            }
        )
    if rendered:
        doc["directions"] = rendered
    return doc


def cmd_report(args):
    return entries([
        report_doc(ctx, [parse_direction(t, ctx.dim, ctx.name) for t in args.v or []], args.digits)
        for ctx in gather_contexts(args.inputs, args.corpus)
    ])
