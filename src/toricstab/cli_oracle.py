"""The `oracle` command: the lattice-point series of one input and its extrapolation; one pass
renders each row's f, g and lambda = weight_min / m into its document row and `--dump` line."""

from fractions import Fraction as Q

from .cli import (CertificateError, dec_str, gather_contexts, ivec_str, parse_direction, rat_str,
                  write_text)
from .exactgeom import dot
from .lattice import extrapolate, lattice_series
from .stability import StabilityContext


def oracle_doc(ctx: StabilityContext, v, m_max: int, digits: int):
    """The oracle document of ctx along v, and the text of its columnar dump."""
    try:
        series = lattice_series(ctx.vpoly, v, m_max)
    except ValueError as exc:
        raise ValueError(f"--mmax {m_max}: {exc}") from None
    except CertificateError as exc:
        raise CertificateError(f"{ctx.name}: {exc}") from exc
    result = extrapolate(series)
    # the moments the series estimates: <b, v> and v^T Cov v + <b, v>^2
    f0_target = dot(ctx.moments.barycenter, v)
    q0_target = dot(v, [dot(row, v) for row in ctx.moments.covariance]) + f0_target * f0_target
    rows, lines = [], ["# m count f g lambda_min_over_m"]
    for row in series.rows:
        f = Q(row.weight_sum, row.m * row.count)
        g = Q(row.weight_sq_sum, row.m * row.m * row.count)
        lam = Q(row.weight_min, row.m)
        f_dec, g_dec = dec_str(f, digits), dec_str(g, digits)
        rows.append(
            {
                "m": row.m,
                "count": row.count,
                "weight_sum": row.weight_sum,
                "weight_sq_sum": row.weight_sq_sum,
                "weight_min": row.weight_min,
                "f": rat_str(f),
                "f_decimal": f_dec,
                "g": rat_str(g),
                "g_decimal": g_dec,
                "lambda_min_over_m": rat_str(lam),
            }
        )
        lines.append(f"{row.m} {row.count} {f_dec} {g_dec} {dec_str(lam, digits)}")
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
    }, "\n".join(lines) + "\n"


def cmd_oracle(args):
    [ctx] = gather_contexts([args.input], False)
    doc, dump = oracle_doc(ctx, parse_direction(args.v, ctx.dim, ctx.name), args.mmax, args.digits)
    if args.dump:
        write_text(args.dump, dump, "--dump")
    return doc
