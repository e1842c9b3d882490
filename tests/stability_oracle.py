"""Reference invariants and limit supports in plain `Fraction` arithmetic.

Each invariant pairs the rational barycenter, covariance and vertices with
the rational direction as given, with no denominator cleared, no primitive
direction and no shared pairing step, so it checks the integer kernel of
`toricstab.stability` and `toricstab.limits.limit_point` independently.
"""

from toricstab.exactgeom import as_direction, dot
from toricstab.limits import WeightedPoint
from toricstab.stability import StabilityValue


def support_min(p, v):
    v = as_direction(v, p.ambient_dim)
    return min(dot(u, v) for u in p.vertices)


def futaki(ctx, v):
    return -dot(ctx.moments.barycenter, as_direction(v, ctx.dim))


def min_norm(ctx, v):
    return -futaki(ctx, v) - support_min(ctx.vpoly, v)


def l2_norm_sq(ctx, v):
    w = as_direction(v, ctx.dim)
    return dot(w, [dot(row, w) for row in ctx.moments.covariance])


def mu(ctx, v):
    f, mn, q = futaki(ctx, v), min_norm(ctx, v), l2_norm_sq(ctx, v)
    return StabilityValue(f / mn, (f > 0) - (f < 0), f * f / q)


def log_discrepancy_S(ctx, v):
    a = -support_min(ctx.vpoly, v)
    return a, a - futaki(ctx, v)


def mu_prime_trunc(ctx, v):
    f, mn, q = futaki(ctx, v), min_norm(ctx, v), l2_norm_sq(ctx, v)
    c0 = f / mn
    return StabilityValue(c0, (f < 0) - (f > 0), c0 * c0 * q / (mn * mn))


def limit_point(w, v):
    v = as_direction(v, len(w.weights[0]))
    vals = {i: dot(w.weights[i], v) for i in w.support}
    best = min(vals.values())
    return WeightedPoint(w.weights, frozenset(i for i, val in vals.items() if val == best))
