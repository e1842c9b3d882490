"""Stability invariants of torus-invariant log Fano data.

The context bundles a full-dimensional moment polytope with its exact
moments and normal fan.  Every invariant is one `Fraction` of integers:
each call clears v, the barycenter b and the vertices u of their
denominators by one factor s and Cov by another, D, so <b, v> and
min <u, v> are integers over s^2 and v^T Cov v one over D s^2.  The
square-root-valued second invariant is carried as a sign together with an
exact rational square so comparisons never round.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import NamedTuple

from .exactgeom import (
    Fan,
    HPolytope,
    VPolytope,
    _scaled,
    as_direction,
    dot,
    dual_polytope,
    facets_from_vertices,
    normal_fan,
    primitive,
    qval,
    vertices_from_facets,
    vpolytope,
)
from .moments import MomentData, moment_data

SEMISTABLE = "semistable"
UNSTABLE = "unstable"


class StabilityValue(NamedTuple):
    """The pair (mu1, mu2) with mu2 = mu2_sign * sqrt(mu2_sq), ordered lexicographically.

    All six comparisons and the hash go through `_key`, (mu1, mu2_sign *
    mu2_sq), not through the raw fields as `tuple`'s would: sign * sqrt(sq)
    is increasing in sign * sq, so the key orders and identifies the exact
    values.
    """

    mu1: Q
    mu2_sign: int
    mu2_sq: Q

    def _key(self):
        return self.mu1, self.mu2_sign * self.mu2_sq

    def __eq__(self, other):
        return isinstance(other, StabilityValue) and self._key() == other._key()

    def __ne__(self, other):
        return not self == other

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def __gt__(self, other):
        return self._key() > other._key()

    def __ge__(self, other):
        return self._key() >= other._key()

    def __hash__(self):
        return hash(self._key())


class StabilityContext(NamedTuple):
    """Moment polytope, the facets, moments and normal fan derived from it, and its provenance."""

    vpoly: VPolytope
    hpoly: HPolytope
    moments: MomentData
    fan: Fan
    rays: tuple[tuple[int, ...], ...] | None = None
    coeffs: tuple[Q, ...] | None = None
    name: str | None = None

    @property
    def dim(self) -> int:
        return self.vpoly.ambient_dim

    @property
    def zero_interior(self) -> bool:
        return all(f.offset < 0 for f in self.vpoly.facets)


def _build(vp, rays=None, coeffs=None, name=None) -> StabilityContext:
    hp = facets_from_vertices(vp)
    return StabilityContext(vp, hp, moment_data(vp), normal_fan(vp), rays, coeffs, name)


def context_from_rays(rays, coeffs=None, name=None) -> StabilityContext:
    """Context of complete toric log Fano fan data (rays plus boundary coefficients)."""
    _, v = dual_polytope(rays, coeffs)
    rr = tuple(tuple(int(x) for x in r) for r in rays)
    cc = tuple(Q(c) for c in coeffs) if coeffs is not None else tuple(Q(0) for _ in rr)
    return _build(v, rr, cc, name)


def context_from_vertices(points, name=None) -> StabilityContext:
    """Context of a polytope given by (possibly redundant) rational points."""
    return _build(vpolytope(points), name=name)


def _primitive_constraint(n, c):
    # <n, u> >= c rescaled by the same positive factor that makes n primitive
    p = primitive(n)
    i = next(i for i, x in enumerate(p) if x)
    return p, qval(c, "offset") * p[i] / Q(n[i])


def context_from_constraints(constraints, name=None) -> StabilityContext:
    """Context of a polytope given by half-space constraints (normal, offset)."""
    cons = tuple(_primitive_constraint(n, c) for n, c in constraints)
    if len({len(n) for n, _ in cons}) != 1:
        raise ValueError("constraint normals need one common length")
    return _build(vertices_from_facets(HPolytope(cons)), name=name)


def _pairings(ctx: StabilityContext, v):
    """(<B, V>, min <Z, V>, V^T C V, s^2, D) on the integers V = s v, B = s b, Z = s u
    (one factor s for v, b and the vertices u) and C = D Cov: <b, v> = <B, V> / s^2,
    min_P <u, v> = min <Z, V> / s^2 and v^T Cov v = V^T C V / (D s^2)."""
    points = [as_direction(v, ctx.dim), ctx.moments.barycenter, *ctx.vpoly.vertices]
    (vv, bb, *z), s = _scaled(points)
    c, dd = _scaled(ctx.moments.covariance)
    quad = sum(x * dot(row, vv) for x, row in zip(vv, c))
    return dot(bb, vv), min(dot(u, vv) for u in z), quad, s * s, dd


def futaki(ctx: StabilityContext, v) -> Q:
    """Fut(v) = -<b, v> for the barycenter b; linear in v."""
    bv, _, _, s2, _ = _pairings(ctx, v)
    return Q(-bv, s2)


def min_norm(ctx: StabilityContext, v) -> Q:
    """||v||_m = <b, v> - min_{u in P} <u, v>; positive for v != 0."""
    return log_discrepancy_S(ctx, v)[1]


def l2_norm_sq(ctx: StabilityContext, v) -> Q:
    """||v||_2^2 = v^T Cov(P) v; positive definite for full-dimensional P."""
    _, _, quad, s2, dd = _pairings(ctx, v)
    return Q(quad, dd * s2)


def mu(ctx: StabilityContext, v) -> StabilityValue:
    """The invariant pair (Fut/||.||_m, Fut/||.||_2), second entry as signed square."""
    bv, zv, quad, s2, dd = _pairings(ctx, v)
    sign = (bv < 0) - (bv > 0)
    return StabilityValue(Q(-bv, bv - zv), sign, Q(bv * bv * dd, s2 * quad))


def log_discrepancy_S(ctx: StabilityContext, v):
    """(A, S) = (-min pairing, minimum norm); A - S = Fut identically."""
    bv, zv, _, s2, _ = _pairings(ctx, v)
    return Q(-zv, s2), Q(bv - zv, s2)


def verdict(ctx: StabilityContext) -> str:
    """Torus-equivariant verdict: semistable exactly when the barycenter vanishes."""
    return SEMISTABLE if all(x == 0 for x in ctx.moments.barycenter) else UNSTABLE


def mu_prime_trunc(ctx: StabilityContext, v) -> StabilityValue:
    """Order <= 1 coefficients (c0, c1) of Fut/(||.||_m + eps ||.||_2) around eps = 0.

    c0 = mu1(v) and c1 = -mu1(v) * ||v||_2 / ||v||_m; both are invariant
    under positive rescaling of v.  They are returned as the pair
    (mu1, mu2) = (c0, c1), c1 carried as a signed square.
    """
    m = mu(ctx, v)  # c1 = -mu1^2 / mu2, as mu2 = mu1 ||v||_m / ||v||_2
    return StabilityValue(m.mu1, -m.mu2_sign, m.mu1**4 / m.mu2_sq if m.mu2_sign else Q(0))
