"""Command-line interface: structured text reports over exact results.

Commands parse JSON input documents, run the exact library, and emit JSON
documents whose rational values are "p/q" strings; decimal fields are
display-only annotations.  Output is deterministic: byte-identical across
runs and --threads settings.  Exit codes: 0 success, 2 invalid input,
3 internal certificate failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction as Q
from typing import TYPE_CHECKING

# each command imports the library modules it runs where it runs them, so a
# fresh process compiles only those
from .exactgeom import CertificateError, as_direction

if TYPE_CHECKING:
    from .stability import StabilityContext, StabilityValue

SCOPE = "torus-equivariant"
# a decimal of a value below 10^300 then stays under CPython's 4300-digit
# limit on int-to-str conversion
MAX_DIGITS = 4000
# ASCII digits only: Fraction and int also read exponents, underscores and
# non-ASCII digits, and an exponent like 1e100000000 takes unbounded time
RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")
INTEGER = re.compile(r"[+-]?[0-9]+")


# ---------------------------------------------------------------------------
# rendering


def rat_str(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def dec_str(x, digits: int) -> str:
    """Fixed-point decimal of a rational, round half to even."""
    den = x.denominator
    n, rem = divmod(abs(x.numerator) * 10**digits, den)
    if 2 * rem > den or (2 * rem == den and n % 2 == 1):
        n += 1
    s = str(n).rjust(digits + 1, "0")
    return f"{'-' if x < 0 else ''}{s[:-digits]}.{s[-digits:]}"


def sqrt_dec_str(sign: int, square, digits: int) -> str:
    """Decimal of sign * sqrt(square) to the requested digits; sign is +-1."""
    num, den = square.numerator * 10 ** (2 * digits), square.denominator
    n = math.isqrt(num // den)
    if (n * n + (n + 1) * (n + 1)) * den <= 2 * num:  # past the mean of n^2 and (n+1)^2
        n += 1
    s = str(n).rjust(digits + 1, "0")
    body = f"{s[:-digits]}.{s[-digits:]}"
    return ("-" if sign < 0 else "") + body


def vec_str(v) -> str:
    return ",".join(rat_str(x) for x in v)


def ivec_str(v) -> str:
    return ",".join(str(int(x)) for x in v)


def render_m2(sign: int, square, digits: int):
    if sign == 0:
        return "0/1"
    return {
        "sign": sign,
        "square": rat_str(square),
        "decimal": sqrt_dec_str(sign, square, digits),
    }


def render_value(value: StabilityValue, digits: int):
    return [rat_str(value.mu1), render_m2(value.mu2_sign, value.mu2_sq, digits)]


# ---------------------------------------------------------------------------
# parsing


def parse_rational(s, field: str) -> Q:
    try:
        if isinstance(s, int) and not isinstance(s, bool):
            return Q(s)
        if isinstance(s, str) and RATIONAL.fullmatch(s.strip()):
            return Q(s)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"field {field}: expected a rational like 'p/q', got {s!r}")


def parse_int(x, field: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"field {field}: expected integers, got {x!r}")
    return x


def parse_list(xs, field: str) -> list:
    if not isinstance(xs, list) or not xs:
        raise ValueError(f"field {field}: expected a nonempty list")
    return xs


def parse_vectors(xs, field: str, entry) -> list:
    """A nonempty list of nonempty vectors of one common length, each entry read by `entry`."""
    rows = [tuple(entry(x, field) for x in parse_list(r, field)) for r in parse_list(xs, field)]
    if len({len(r) for r in rows}) > 1:
        raise ValueError(f"field {field}: expected vectors of one common length")
    return rows


def parse_direction(text: str, dim: int, entry=None):
    """--v as an integer direction of length dim; errors name --v and the entry."""
    parts = [p.strip() for p in text.split(",")]
    try:
        if not all(INTEGER.fullmatch(p) for p in parts):
            raise ValueError
        v = tuple(int(p) for p in parts)  # int() also fails past the digit limit
    except ValueError:
        raise ValueError("field v: expected comma-separated integers") from None
    try:
        as_direction(v, dim)
    except ValueError as exc:
        where = f" on {entry}" if entry else ""
        raise ValueError(f"--v {ivec_str(v)}{where}: {exc}") from None
    return v


def load_doc(path: str):
    def integer(text):
        try:
            return int(text)
        except ValueError:  # past the interpreter's limit on int-to-str digits
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"input {path}: integer literal longer than {limit} digits") from None

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=integer)
    except OSError as exc:
        raise ValueError(f"cannot read input {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"input {path} is not valid JSON: {exc}") from exc


def context_from_doc(doc) -> StabilityContext:
    from .stability import context_from_constraints, context_from_rays, context_from_vertices
    if not isinstance(doc, dict):
        raise ValueError("input document must be a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("field name: required nonempty string")
    if "rays" in doc:
        rays = parse_vectors(doc["rays"], "rays", parse_int)
        coeffs = None
        if doc.get("coeffs") is not None:
            coeffs = [parse_rational(c, "coeffs") for c in parse_list(doc["coeffs"], "coeffs")]
            if len(coeffs) != len(rays):
                raise ValueError("field coeffs: one coefficient per ray required")
        return context_from_rays(rays, coeffs, name=name)
    if "moment_polytope" in doc:
        body = doc["moment_polytope"]
        if not isinstance(body, dict):
            raise ValueError("field moment_polytope: expected an object")
        if "vertices" in body:
            pts = parse_vectors(body["vertices"], "vertices", parse_rational)
            return context_from_vertices(pts, name=name)
        if "constraints" in body:
            rows = parse_list(body["constraints"], "constraints")
            if not all(isinstance(row, dict) for row in rows):
                raise ValueError("field constraints: expected objects")
            normals = [row.get("normal") for row in rows]
            normals = parse_vectors(normals, "constraints.normal", parse_int)
            if not all(any(n) for n in normals):
                raise ValueError("field constraints.normal: expected a nonzero vector")
            offsets = [parse_rational(row.get("offset"), "constraints.offset") for row in rows]
            return context_from_constraints(list(zip(normals, offsets)), name=name)
        raise ValueError("field moment_polytope: needs vertices or constraints")
    raise ValueError("field rays or moment_polytope: required")


def weighted_point_from_doc(doc):
    from .limits import weighted_point
    if not isinstance(doc, dict):
        raise ValueError("input document must be a JSON object")
    ws = parse_vectors(doc.get("weights"), "weights", parse_int)
    support = doc.get("support")
    if support is not None:
        support = [parse_int(i, "support") for i in parse_list(support, "support")]
        if any(not 0 <= i < len(ws) for i in support):
            raise ValueError(f"field support: expected indices in 0..{len(ws) - 1}")
    return weighted_point(ws, support)


def gather_contexts(args) -> list[StabilityContext]:
    if args.corpus and args.inputs:
        raise ValueError("give input files or --corpus, not both")
    if args.corpus:
        from .corpus import corpus_contexts
        return corpus_contexts()
    if not args.inputs:
        raise ValueError("no inputs given (pass files or --corpus)")
    out = []
    errors = []
    for path in args.inputs:
        try:
            out.append(context_from_doc(load_doc(path)))
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
    if errors:
        raise ValueError("; ".join(errors))
    return out


# ---------------------------------------------------------------------------
# documents


def report_doc(ctx: StabilityContext, directions, digits: int):
    from .stability import l2_norm_sq, log_discrepancy_S, mu, verdict
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
        value = mu(ctx, v)
        a, s = log_discrepancy_S(ctx, v)
        rendered.append(
            {
                "v": ivec_str(v),
                "futaki": rat_str(a - s),  # A - S = Fut
                "min_norm": rat_str(s),
                "l2_norm_sq": rat_str(l2_norm_sq(ctx, v)),
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


def destab_doc(ctx: StabilityContext, digits: int):
    from .optimizer import optimal_destabilizer
    report = optimal_destabilizer(ctx)
    doc = {
        "name": ctx.name,
        "scope": SCOPE,
        "verdict": report.verdict,
        "delta": rat_str(report.delta),
        "delta_decimal": dec_str(report.delta, digits),
        "M_mu": render_value(report.m_mu, digits),
        "v_star_rational": None,
        "v_star_primitive": None,
    }
    if report.verdict == "unstable":
        doc["v_star_rational"] = vec_str(report.v_star_rational)
        doc["v_star_primitive"] = ivec_str(report.v_star_primitive)
        doc["sigma1"] = {
            "m1": rat_str(report.sigma1.m1),
            "normals": [ivec_str(a) for a in report.sigma1.cone.normals],
        }
        doc["stage1"] = {
            "witness_rays": [ivec_str(w) for w in report.stage1.witness_rays],
            "per_cone_minima": [
                {"vertex": vec_str(u), "min": rat_str(val)}
                for u, val in report.stage1.per_cone_minima
            ],
        }
    return doc


def stratum_table(contexts, digits: int):
    from .optimizer import optimal_destabilizer
    groups = {}
    for ctx in contexts:
        groups.setdefault(optimal_destabilizer(ctx).m_mu, []).append(ctx.name)
    strata = [
        {"M_mu": render_value(value, digits), "members": sorted(groups[value])}
        for value in sorted(groups, reverse=True)
    ]
    return {"scope": SCOPE, "count": len(contexts), "strata": strata}


def oracle_doc(ctx: StabilityContext, v, m_max: int, digits: int):
    from .lattice import extrapolate, lattice_series
    from .stability import futaki, l2_norm_sq
    try:
        series = lattice_series(ctx.vpoly, v, m_max)
    except ValueError as exc:
        raise ValueError(f"--mmax {m_max}: {exc}") from None
    except CertificateError as exc:
        raise CertificateError(f"{ctx.name}: {exc}") from exc
    result = extrapolate(series)
    f0_target = -futaki(ctx, v)
    q0_target = l2_norm_sq(ctx, v) + f0_target * f0_target
    rows = []
    for row in series.rows:
        f = Q(row.weight_sum, row.m * row.count)
        g = Q(row.weight_sq_sum, row.m * row.m * row.count)
        rows.append(
            {
                "m": row.m,
                "count": row.count,
                "weight_sum": row.weight_sum,
                "weight_sq_sum": row.weight_sq_sum,
                "weight_min": row.weight_min,
                "f": rat_str(f),
                "f_decimal": dec_str(f, digits),
                "g": rat_str(g),
                "g_decimal": dec_str(g, digits),
                "lambda_min_over_m": rat_str(Q(row.weight_min, row.m)),
            }
        )
    return {
        "name": ctx.name,
        "v": ivec_str(v),
        "r": series.r,
        "m_max": m_max,
        "rows": rows,
        "F0_est": rat_str(result.F0_est),
        "F0_est_decimal": dec_str(result.F0_est, digits),
        "F0_target": rat_str(f0_target),
        "Q0_est": rat_str(result.Q0_est),
        "Q0_est_decimal": dec_str(result.Q0_est, digits),
        "Q0_target": rat_str(q0_target),
        "residuals": [rat_str(x) for x in result.residuals],
        "q_residuals": [rat_str(x) for x in result.q_residuals],
    }


def oracle_dump_text(doc, digits: int) -> str:
    lines = ["# m count f g lambda_min_over_m"]
    for row in doc["rows"]:
        lines.append(
            " ".join(
                [
                    str(row["m"]),
                    str(row["count"]),
                    row["f_decimal"],
                    row["g_decimal"],
                    dec_str(Q(row["weight_min"], row["m"]), digits),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def limits_doc(point, v):
    from .limits import face_of_direction, normal_cone_of_face, weight_polytope
    q = weight_polytope(point)
    face = face_of_direction(q, v)
    cone = normal_cone_of_face(q, face)
    return {
        "weights": [ivec_str(w) for w in point.weights],
        "support": sorted(point.support),
        "v": ivec_str(v),
        "fixed": face == point.support,
        "limit_support": sorted(face),
        "faces": [sorted(f) for f in q.faces],
        "sigma_F": {"normals": [ivec_str(a) for a in cone.normals]},
    }


# ---------------------------------------------------------------------------
# commands


def write_text(path, text, flag):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {flag} {path}: {exc.strerror or exc}") from exc


def emit(doc, out_path):
    text = json.dumps(doc, indent=2) + "\n"
    if out_path:
        write_text(out_path, text, "--out")
    else:
        sys.stdout.write(text)


def entries(docs):
    """One document as it is, several under "entries"."""
    return docs[0] if len(docs) == 1 else {"entries": docs}


def cmd_report(args):
    return entries([
        report_doc(ctx, [parse_direction(t, ctx.dim, ctx.name) for t in args.v or []], args.digits)
        for ctx in gather_contexts(args)
    ])


def cmd_destabilize(args):
    return entries([destab_doc(ctx, args.digits) for ctx in gather_contexts(args)])


def cmd_stratify(args):
    # --threads is accepted and ignored: the exact arithmetic is pure Python,
    # so a thread pool gains nothing under the GIL
    return stratum_table(gather_contexts(args), args.digits)


def cmd_oracle(args):
    contexts = gather_contexts(args)
    if len(contexts) != 1:
        raise ValueError("oracle takes exactly one input")
    ctx = contexts[0]
    v = parse_direction(args.v, ctx.dim, ctx.name)
    doc = oracle_doc(ctx, v, args.mmax, args.digits)
    if args.dump:
        write_text(args.dump, oracle_dump_text(doc, args.digits), "--dump")
    return doc


def cmd_limits(args):
    point = weighted_point_from_doc(load_doc(args.input))
    return limits_doc(point, parse_direction(args.v, len(point.weights[0])))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricstab",
        description="Exact toric K-stability invariants and destabilizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, multi=True):
        if multi:
            p.add_argument("inputs", nargs="*", help="input JSON documents")
            p.add_argument("--corpus", action="store_true", help="run over bundled inputs")
        p.add_argument("--digits", type=int, default=12, help="decimal annotation digits")
        p.add_argument("--out", help="write the output document to this path")

    p = sub.add_parser("report", help="moments, verdict, invariants at directions")
    common(p)
    p.add_argument("--v", action="append", help="direction a,b,... (repeatable)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("destabilize", help="optimal destabilizing direction")
    common(p)
    p.set_defaults(func=cmd_destabilize)

    p = sub.add_parser("stratify", help="group inputs by exact optimal invariant value")
    common(p)
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    p.set_defaults(func=cmd_stratify)

    p = sub.add_parser("oracle", help="lattice-point series and extrapolation")
    common(p)
    p.add_argument("--v", required=True, help="direction a,b,...")
    p.add_argument("--mmax", type=int, required=True, help="largest dilation factor")
    p.add_argument("--dump", help="write a whitespace-separated columnar dump here")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("limits", help="limit support and face data of a weighted point")
    p.add_argument("input", help="weighted point JSON document")
    common(p, multi=False)
    p.add_argument("--v", required=True, help="direction a,b,...")
    p.set_defaults(func=cmd_limits)

    return parser


def _attach_directions(argv):
    # "--v -1,2" would read as an unknown option; "--v=-1,2" is one token
    out = []
    for arg in argv:
        if out and out[-1] == "--v" and re.match(r"-\d", arg):
            out[-1] = f"--v={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_directions(sys.argv[1:] if argv is None else argv))
    try:
        if not 1 <= args.digits <= MAX_DIGITS:
            raise ValueError(f"--digits must be between 1 and {MAX_DIGITS}")
        emit(args.func(args), args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"internal certificate failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
