"""Reference optimizer for the tests: the normal fan, cone by cone, and the H-form.

`stage1_by_fan` takes the extreme rays of every maximal cone of the normal
fan as stage-1 candidates; `sigma1_by_vertices` writes the minimizer cone
with one constraint per vertex and rejects it when it is {0};
`stage2_by_constraints` enumerates active sets of those constraints
together with the slice <b, v> = 1, one exact KKT solve each.  All three
are slow and independent of the facet incidence the library reads.
`stage2_by_ray_subsets` is the library's former stage 2: one exact KKT
solve on every linearly independent subset of at most d rays of sigma1.
`cone_is_trivial` asks the extreme rays of a cone whether it is {0}.
"""

import itertools
from fractions import Fraction as Q

from linalg_oracle import rank, solve_unique, vscale
from toricstab.exactgeom import (
    ConeH,
    dot,
    extreme_rays,
    is_zero,
    primitive,
    vneg,
    vsub,
)
from toricstab.moments import is_positive_definite
from toricstab.optimizer import CertificateError, SigmaOne, Stage1Result
from toricstab.stability import futaki, min_norm, mu


def cone_is_trivial(c: ConeH) -> bool:
    gens = extreme_rays(c)
    return not gens.rays and not gens.lineality


def stage1_by_fan(ctx) -> Stage1Result:
    per_cone = []
    best = None
    witnesses = set()
    for vertex, cone in ctx.fan.cones:
        gens = extreme_rays(cone)
        dirs = list(gens.rays)
        for l in gens.lineality:
            dirs.extend((l, vneg(l)))
        assert dirs, "normal-fan cone without directions"
        vals = [(futaki(ctx, w) / min_norm(ctx, w), w) for w in dirs]
        per_cone.append((vertex, min(v for v, _ in vals)))
        for val, w in vals:
            if best is None or val < best:
                best = val
                witnesses = {w}
            elif val == best:
                witnesses.add(w)
    return Stage1Result(best, tuple(sorted(witnesses)), tuple(sorted(per_cone)))


def sigma1_by_vertices(ctx, m1) -> ConeH:
    b = ctx.moments.barycenter
    normals = set()
    for u in ctx.vpoly.vertices:
        w = vsub(vscale(1 + m1, b), vscale(m1, u))
        if not is_zero(w):
            normals.add(primitive(vneg(w)))
    cone = ConeH(tuple(sorted(normals)), ctx.dim)
    assert not cone_is_trivial(cone), "inconsistent M1"
    return cone


def _kkt_candidate(cov2, b, active, d):
    # unknowns: v (d), lambda, mu_w (len(active)); rows: stationarity, slice, active
    na = len(active)
    rows = []
    for i in range(d):
        rows.append(list(cov2[i]) + [b[i]] + [Q(a[i]) for a in active])
    rows.append(list(b) + [Q(0)] * (1 + na))
    for a in active:
        rows.append([Q(x) for x in a] + [Q(0)] * (1 + na))
    sol = solve_unique(rows, [Q(0)] * d + [Q(1)] + [Q(0)] * na)
    if sol is None:
        return None
    return sol[:d], sol[d + 1 :]


def stage2_by_constraints(ctx, cone: ConeH):
    """Unique minimizer of v^T Cov v on {v in cone : <b, v> = 1} and its invariant."""
    b = ctx.moments.barycenter
    d = ctx.dim
    cov2 = [[2 * x for x in row] for row in ctx.moments.covariance]
    found = set()
    for size in range(d):
        for subset in itertools.combinations(cone.normals, size):
            if rank([list(b)] + [list(a) for a in subset]) != size + 1:
                continue
            cand = _kkt_candidate(cov2, b, subset, d)
            if cand is None:
                continue
            v, mults = cand
            if all(m >= 0 for m in mults) and cone.contains(v):
                found.add(v)
    assert len(found) == 1, f"{len(found)} stage-2 optima"
    v_star = found.pop()
    return v_star, mu(ctx, v_star)


def stage2_by_ray_subsets(ctx, sigma1: SigmaOne):
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
