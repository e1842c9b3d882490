"""Two-stage lexicographic minimization of the stability invariant.

Everything is read off the facets of the moment polytope P.  The normal
cone at a vertex is generated by the primitive inward normals of the facets
through it, and on each such cone the first invariant is linear-fractional
with positive denominator, so stage 1 is a minimum over the facet normals.
The cone where that minimum m1 is attained is the normal cone of the face
of P through c = (1 + 1/m1) b, generated by the normals of the facets tight
at c.  Stage 2 slices that cone by <b, v> = 1 (the first invariant is
constant there) and minimizes the positive definite quadratic form
v^T Cov v over nonnegative combinations of its generators, by exhaustive
active-set enumeration with exact KKT solves.  Strict convexity makes the
optimum unique; every certificate below is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as Q

from .exactgeom import ConeH, IntVec, dot, normal_cone, primitive, solve_unique, vscale
from .moments import is_positive_definite
from .stability import SEMISTABLE, StabilityContext, StabilityValue, futaki, min_norm, mu, verdict


class CertificateError(RuntimeError):
    """An exact internal consistency check failed; results must not be trusted."""


@dataclass(frozen=True)
class Stage1Result:
    m1: Q
    witness_rays: tuple[tuple[int, ...], ...]
    per_cone_minima: tuple[tuple[tuple[Q, ...], Q], ...]


@dataclass(frozen=True)
class SigmaOne:
    """The minimizer cone of stage 1 in H-form, with its generating rays."""

    cone: ConeH
    m1: Q
    rays: tuple[IntVec, ...]


@dataclass(frozen=True)
class DestabReport:
    verdict: str
    m1: Q
    m2_sign: int
    m2_sq: Q
    delta: Q
    v_star_rational: tuple[Q, ...] | None = None
    v_star_primitive: tuple[int, ...] | None = None
    sigma1: SigmaOne | None = None
    stage1: Stage1Result | None = None

    @property
    def m_mu(self) -> StabilityValue:
        return StabilityValue(self.m1, self.m2_sign, self.m2_sq)


def minimize_mu1(ctx: StabilityContext) -> Stage1Result:
    """Global minimum of the first invariant over all nonzero one-parameter subgroups.

    The maximal cones of the normal fan are the normal cones at the vertices,
    each generated by the inward normals of the facets through its vertex;
    the invariant is linear-fractional with positive denominator on each
    cone, so the facet normals are an exhaustive candidate set.
    """
    if verdict(ctx) == SEMISTABLE:
        raise ValueError("semistable")
    facets = ctx.vpoly.facets
    vals = [futaki(ctx, f.normal) / min_norm(ctx, f.normal) for f in facets]
    per_cone = []
    for i, vertex in enumerate(ctx.vpoly.vertices):
        through = [val for f, val in zip(facets, vals) if f.members >> i & 1]
        if len(through) < ctx.dim:
            raise CertificateError(f"vertex {vertex} lies on fewer than {ctx.dim} facets")
        per_cone.append((vertex, min(through)))
    best = min(vals)
    if best >= 0:
        raise CertificateError("stage 1 found no destabilizing direction")
    if ctx.zero_interior and best <= -1:
        raise CertificateError("stage 1 minimum out of range")
    witnesses = sorted({f.normal for f, val in zip(facets, vals) if val == best})
    return Stage1Result(best, tuple(witnesses), tuple(sorted(per_cone)))


def build_sigma1(ctx: StabilityContext, m1: Q) -> SigmaOne:
    """Cone where the first invariant attains its minimum m1.

    With g(v) = Fut(v) - m1 ||v||_m = max_j [-(1+m1)<b,v> + m1 <u_j,v>] over
    vertices u_j (m1 < 0 turns the scaled minimum into a maximum), the cone
    is {v : (1+m1)<b,v> - m1 <u_j,v> >= 0 for all j}, and g vanishes exactly
    on it.  Dividing by -m1, that is {v : <u_j - c, v> >= 0} with
    c = (1 + 1/m1) b, the normal cone of the face of P through c when c lies
    on the boundary of P; its rays are the normals of the facets tight at c.
    """
    m1 = Q(m1)
    if m1 >= 0:
        raise ValueError("stage-1 minimum must be negative")
    c = vscale(1 + 1 / m1, ctx.moments.barycenter)
    cone = normal_cone([c], ctx.vpoly.vertices)
    slack = [(dot(f.normal, c) - f.offset, f.normal) for f in ctx.vpoly.facets]
    if min(s for s, _ in slack) < 0:
        raise CertificateError("inconsistent M1: (1 + 1/m1) b lies outside P")
    rays = tuple(sorted(n for s, n in slack if s == 0))
    if not rays:
        raise CertificateError("inconsistent M1: (1 + 1/m1) b lies inside P")
    return SigmaOne(cone, m1, rays)


def minimize_mu2_on_cone(ctx: StabilityContext, sigma1: SigmaOne):
    """Unique minimizer of v^T Cov v on {v in sigma1 : <b, v> = 1}.

    Active-set enumeration over v = sum of lambda_g g for the rays g of
    sigma1: every linearly independent subset S of at most d rays yields one
    exact solve of [Gram_S, -b_S; b_S^T, 0] (Gram_S = S^T Cov S, b_S the
    pairings <b, g>).  A solve with lambda >= 0 whose y = Cov v - (v^T Cov v) b
    pairs nonnegatively with every ray is the optimum of the strictly convex
    program.  All candidates found must agree.
    """
    cov = ctx.moments.covariance
    if not is_positive_definite(cov):
        raise CertificateError("covariance not positive definite")
    b = ctx.moments.barycenter
    d = ctx.dim
    rays = sigma1.rays
    cov_rays = [tuple(dot(row, g) for row in cov) for g in rays]
    gram = [[dot(g, cg) for cg in cov_rays] for g in rays]
    b_rays = [dot(b, g) for g in rays]
    found = []
    for size in range(1, min(d, len(rays)) + 1):
        for subset in itertools.combinations(range(len(rays)), size):
            rows = [[gram[i][j] for j in subset] + [-b_rays[i]] for i in subset]
            rows.append([b_rays[j] for j in subset] + [Q(0)])
            sol = solve_unique(rows, [Q(0)] * size + [Q(1)])
            if sol is None or any(lam < 0 for lam in sol[:size]):
                continue
            lam = dict(zip(subset, sol))
            # <y, g> for y = Cov v - (v^T Cov v) b, in the ray coordinates of v
            cov_v_g = [sum(lam[i] * gram[k][i] for i in subset) for k in range(len(rays))]
            quad = sum(lam[i] * cov_v_g[i] for i in subset)
            if any(cv < quad * bg for cv, bg in zip(cov_v_g, b_rays)):
                continue
            found.append(tuple(sum(lam[i] * rays[i][k] for i in subset) for k in range(d)))
    if not found:
        raise CertificateError("infeasible slice")
    if any(v != found[0] for v in found[1:]):
        raise CertificateError("stage 2 optimum not unique")
    v_star = found[0]
    if not sigma1.cone.contains(v_star):
        raise CertificateError("stage 2 optimum outside the H-form of sigma1")
    value = mu(ctx, v_star)
    if value.mu1 != sigma1.m1:
        raise CertificateError("stage 2 left the stage-1 level set")
    return v_star, value


def optimal_destabilizer(ctx: StabilityContext) -> DestabReport:
    """Verdict plus, when unstable, the unique optimal destabilizing direction."""
    if verdict(ctx) == SEMISTABLE:
        return DestabReport(SEMISTABLE, Q(0), 0, Q(0), Q(1))
    stage1 = minimize_mu1(ctx)
    sigma1 = build_sigma1(ctx, stage1.m1)
    for w in stage1.witness_rays:
        if not sigma1.cone.contains(w):
            raise CertificateError("witness ray outside sigma1")
    if set(stage1.witness_rays) != set(sigma1.rays):
        raise CertificateError("stage-1 witness rays differ from the rays of sigma1")
    v_star, value = minimize_mu2_on_cone(ctx, sigma1)
    if value.mu2_sign != -1:
        raise CertificateError("optimal direction is not destabilizing")
    return DestabReport(
        "unstable",
        stage1.m1,
        value.mu2_sign,
        value.mu2_sq,
        stage1.m1 + 1,
        v_star,
        primitive(v_star),
        sigma1,
        stage1,
    )
