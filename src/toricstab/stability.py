"""Stability contexts of torus-invariant log Fano data, and the verdict.

A context bundles a full-dimensional moment polytope with its exact moments
and normal fan; the invariants at a direction are `toricstab.invariants`.
"""

from fractions import Fraction as Q
from typing import NamedTuple

from .exactgeom import (
    Fan,
    HPolytope,
    VPolytope,
    _dual,
    _facet_vertices,
    _normal_fan,
    _scaled,
    facets_from_vertices,
    primitive,
    qval,
)
from .moments import CertificateError, MomentData, _moment_data

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


def _build(vp, rays=None, coeffs=None, name=None) -> StabilityContext:
    hp = facets_from_vertices(vp)
    z, r = _scaled(vp.vertices)  # the two readers of the vertices share one clearing
    try:
        md = _moment_data(vp, z, r)
    except CertificateError as exc:
        raise CertificateError(str(exc) if name is None else f"{name}: {exc}") from exc
    return StabilityContext(vp, hp, md, _normal_fan(vp, z), rays, coeffs, name)


def context_from_rays(rays, coeffs=None, name=None) -> StabilityContext:
    """Context of complete toric log Fano fan data (rays plus boundary coefficients)."""
    rr, cc, v, _ = _dual(rays, coeffs)
    return _build(v, rr, cc, name)


def context_from_vertices(points, name=None) -> StabilityContext:
    """Context of a polytope given by (possibly redundant) rational points."""
    from .polytopes import vpolytope
    return _build(vpolytope(points), name=name)


def _primitive_constraint(n, c):
    # <n, u> >= c rescaled by the same positive factor that makes n primitive
    p = primitive(n)
    i = next(i for i, x in enumerate(p) if x)
    return p, qval(c, "offset") * p[i] / Q(n[i])


def context_from_constraints(constraints, name=None) -> StabilityContext:
    """Context of a polytope given by half-space constraints (normal, offset)."""
    cons = sorted({_primitive_constraint(n, c) for n, c in constraints})
    if len({len(n) for n, _ in cons}) > 1:
        raise ValueError("constraint normals need one common length")
    return _build(_facet_vertices(cons, HPolytope(cons).ambient_dim), name=name)


def verdict(ctx: StabilityContext) -> str:
    """Torus-equivariant verdict: semistable exactly when the barycenter vanishes."""
    return SEMISTABLE if all(x == 0 for x in ctx.moments.barycenter) else UNSTABLE
