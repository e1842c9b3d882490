"""Stability invariants of a context at a direction v, which the optimizer never calls.

One evaluation serves every invariant, and `report` reads it once per direction:
it clears v, the barycenter b and the vertices u of their denominators by one
factor s and Cov by another, D, so each invariant is one `Fraction` of integers.
The square-root-valued second invariant is carried as a sign together with an
exact rational square so comparisons never round.
"""

from fractions import Fraction as Q

from .exactgeom import _scaled, as_direction, dot
from .stability import StabilityContext, StabilityValue


def _invariants(ctx: StabilityContext, v):
    """(A, S, v^T Cov v, mu) from the integers V = s v, B = s b, Z = s u (one factor s
    for v, b and the vertices u) and C = D Cov: <b, v> = <B, V> / s^2,
    min_P <u, v> = min <Z, V> / s^2 and v^T Cov v = V^T C V / (D s^2)."""
    points = [as_direction(v, ctx.dim), ctx.moments.barycenter, *ctx.vpoly.vertices]
    (vv, bb, *z), s = _scaled(points)
    c, dd = _scaled(ctx.moments.covariance)
    quad = sum(x * dot(row, vv) for x, row in zip(vv, c))
    bv, zv, s2 = dot(bb, vv), min(dot(u, vv) for u in z), s * s
    value = StabilityValue(Q(-bv, bv - zv), (bv < 0) - (bv > 0), Q(bv * bv * dd, s2 * quad))
    return Q(-zv, s2), Q(bv - zv, s2), Q(quad, dd * s2), value


def futaki(ctx: StabilityContext, v) -> Q:
    """Fut(v) = -<b, v> = A - S for the barycenter b; linear in v."""
    a, s, _, _ = _invariants(ctx, v)
    return a - s


def min_norm(ctx: StabilityContext, v) -> Q:
    """||v||_m = <b, v> - min_{u in P} <u, v>; positive for v != 0."""
    return _invariants(ctx, v)[1]


def l2_norm_sq(ctx: StabilityContext, v) -> Q:
    """||v||_2^2 = v^T Cov(P) v; positive definite for full-dimensional P."""
    return _invariants(ctx, v)[2]


def mu(ctx: StabilityContext, v) -> StabilityValue:
    """The invariant pair (Fut/||.||_m, Fut/||.||_2), second entry as signed square."""
    return _invariants(ctx, v)[3]


def log_discrepancy_S(ctx: StabilityContext, v):
    """(A, S) = (-min pairing, minimum norm); A - S = Fut identically."""
    return _invariants(ctx, v)[:2]


def mu_prime_trunc(ctx: StabilityContext, v) -> StabilityValue:
    """Order <= 1 coefficients (c0, c1) of Fut/(||.||_m + eps ||.||_2) around eps = 0.

    c0 = mu1(v) and c1 = -mu1(v) * ||v||_2 / ||v||_m; both are invariant
    under positive rescaling of v.  They are returned as the pair
    (mu1, mu2) = (c0, c1), c1 carried as a signed square.
    """
    m = mu(ctx, v)  # c1 = -mu1^2 / mu2, as mu2 = mu1 ||v||_m / ||v||_2
    return StabilityValue(m.mu1, -m.mu2_sign, m.mu1**4 / m.mu2_sq if m.mu2_sign else Q(0))
