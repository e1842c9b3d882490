"""Two-stage minimization: ray candidates, minimizer cone, exact QP."""

import collections
import itertools
import math
import re
from fractions import Fraction as Q

import pytest

import toricstab.exactgeom as eg
import toricstab.moments as moments
import toricstab.optimizer as opt
import toricstab.stability as stability
from conftest import fresh_rng, rand_nonzero_ivec, sample_relint_point
from linalg_oracle import solve_unique as oracle_solve
from optimizer_oracle import (
    sigma1_by_vertices,
    stage1_by_fan,
    stage2_by_constraints,
    stage2_by_ray_subsets,
)
from toricstab.corpus import corpus_context
from test_moments import LADDER as LADDER_FANS
from toricstab.exactgeom import ConeH, VPolytope, dot, primitive
from toricstab.polytopes import normal_fan, vpolytope
from toricstab.moments import moment_data
from toricstab.optimizer import (
    CertificateError,
    DestabReport,
    SigmaOne,
    build_sigma1,
    minimize_mu1,
    minimize_mu2_on_cone,
    optimal_destabilizer,
)
from toricstab.invariants import (
    futaki,
    log_discrepancy_S,
    min_norm,
    mu,
)
from toricstab.stability import (
    context_from_constraints,
    context_from_rays,
    context_from_vertices,
    verdict,
)

# every entry was pinned by an exhaustive sweep over primitive directions
# (infinity-norm bound 20 in the plane, 8 in space) with exact comparisons
FROZEN = {
    "bl1-p2": (Q(-1, 7), Q(1, 11), (0, -1), ((-5, 4), (-1, 0), (1, 0), (1, 4))),
    "bl2-p2": (Q(-4, 25), Q(32, 409), (-1, -1), ((-1, 1), (-1, 3), (1, -1), (1, 1), (3, -1))),
    "p112": (Q(-1, 4), Q(1, 2), (0, -1), ((-2, 1), (0, 1))),
    "p113": (Q(-2, 5), Q(32, 25), (0, -1), ((-3, 1), (0, 1))),
    "p114": (Q(-1, 2), Q(2), (0, -1), ((-4, 1), (0, 1))),
    "p115": (Q(-4, 7), Q(128, 49), (0, -1), ((-5, 1), (0, 1))),
    "p116": (Q(-5, 8), Q(25, 8), (0, -1), ((-6, 1), (0, 1))),
    "p123": (Q(-1, 2), Q(1, 2), (-2, -3), ((-3, 2), (3, -2), (3, 4))),
    "p1112": (Q(-1, 5), Q(3, 5), (0, 0, -1), ((-2, 0, 1), (0, -2, 1), (0, 0, 1))),
    "p1122": (Q(-1, 3), Q(5, 9), (0, -1, -1), ((-4, 1, 1), (0, -1, 1), (0, 1, -1), (0, 1, 1))),
    "p2-halfline": (Q(-2, 5), Q(8, 25), (-1, -1), ((-1, 1), (1, -1), (1, 1))),
}


# ---------------------------------------------------------------------------
# stage 1


def test_stage1_weighted_triangle():
    ctx = corpus_context("p112")
    res = minimize_mu1(ctx)
    assert res.m1 == Q(-1, 4)
    assert res.witness_rays == ((-1, -2), (1, 0))
    assert len(res.per_cone_minima) == 3
    assert min(val for _, val in res.per_cone_minima) == res.m1
    # a direction outside the candidate rays can still attain the minimum
    assert mu(ctx, (0, -1)).mu1 == res.m1


def test_stage1_steeper_triangle():
    assert minimize_mu1(corpus_context("p113")).m1 == Q(-2, 5)


def test_stage1_rejects_vertex_on_too_few_facets():
    ctx = corpus_context("p112")
    vp = ctx.vpoly
    broken = ctx._replace(vpoly=VPolytope(vp.vertices, vp.dim, vp.facets[1:]))
    with pytest.raises(CertificateError, match="fewer than 2 facets"):
        minimize_mu1(broken)


def test_polytope_without_stored_facets(contexts):
    # the hull of a context's vertices alone is its polytope, facets included
    for ctx in contexts.values():
        rebuilt = ctx._replace(vpoly=vpolytope(ctx.vpoly.vertices))
        assert rebuilt.vpoly == ctx.vpoly, ctx.name
        assert rebuilt.vpoly.facets == ctx.vpoly.facets, ctx.name
        assert optimal_destabilizer(rebuilt) == optimal_destabilizer(ctx), ctx.name


def test_stage1_rejects_semistable():
    with pytest.raises(ValueError, match="semistable"):
        minimize_mu1(corpus_context("p2"))


def test_stage1_delta_identity(unstable_names, contexts):
    # 1 + minimum equals the best A/S quotient over the witness rays
    for name in unstable_names:
        ctx = contexts[name]
        res = minimize_mu1(ctx)
        quotients = []
        for w in res.witness_rays:
            a, s = log_discrepancy_S(ctx, w)
            quotients.append(a / s)
        assert res.m1 + 1 == min(quotients)


# ---------------------------------------------------------------------------
# minimizer cone


def test_sigma1_weighted_triangle():
    ctx = corpus_context("p112")
    sigma = build_sigma1(ctx, Q(-1, 4))
    assert sigma.cone.normals == ((-2, 1), (0, 1))
    assert sigma.cone.contains((0, -1))
    assert sigma.cone.contains((1, 0))
    assert not sigma.cone.contains((0, 1))


def test_sigma1_rejects_nonnegative_level():
    with pytest.raises(ValueError, match="^stage-1 minimum must be negative$"):
        build_sigma1(corpus_context("p112"), Q(0))
    for bad in (None, [1], (), -math.inf, "x"):
        with pytest.raises(ValueError, match=f"^m1 {re.escape(repr(bad))} is not a rational$"):
            build_sigma1(corpus_context("p112"), bad)


def test_sigma1_rejects_inconsistent_level():
    # m1 = -1/4 puts c = (1 + 1/m1) b at the vertex (-1, 1) of P; any other
    # level moves c off the boundary
    ctx = corpus_context("p112")
    assert build_sigma1(ctx, Q(-1, 4)).rays == ((-1, -2), (1, 0))
    with pytest.raises(ValueError, match="inconsistent M1.*outside P"):
        build_sigma1(ctx, Q(-1, 5))
    with pytest.raises(ValueError, match="inconsistent M1.*inside P"):
        build_sigma1(ctx, Q(-1, 2))


def test_sigma1_level_set_characterization(unstable_names, contexts):
    # the defect futaki - m1 * min_norm vanishes exactly on the cone and is
    # positive off it
    for name in unstable_names:
        ctx = contexts[name]
        res = minimize_mu1(ctx)
        sigma = build_sigma1(ctx, res.m1)
        rng = fresh_rng(f"sigma1-{name}")
        inside = 0
        while inside < 100:
            v = sample_relint_point(sigma.cone, rng)
            assert v is not None
            assert futaki(ctx, v) - res.m1 * min_norm(ctx, v) == 0
            inside += 1
        outside = 0
        while outside < 100:
            v = rand_nonzero_ivec(rng, ctx.dim, 12)
            if sigma.cone.contains(v):
                continue
            assert futaki(ctx, v) - res.m1 * min_norm(ctx, v) > 0
            outside += 1


# ---------------------------------------------------------------------------
# stage 2


def test_stage2_weighted_triangle():
    ctx = corpus_context("p112")
    sigma = build_sigma1(ctx, minimize_mu1(ctx).m1)
    v_star, value = minimize_mu2_on_cone(ctx, sigma)
    assert v_star == (Q(0), Q(-3))
    assert value == mu(ctx, (0, -1))
    assert dot(ctx.moments.barycenter, v_star) == 1


def test_stage2_grid_sweep_agrees():
    # the slice of the cone is the segment v = (y+3, y), y in [-6, 0]; sweep
    # it at denominator 200 and verify no grid point beats the QP optimum
    ctx = corpus_context("p112")
    cov = ctx.moments.covariance
    sigma = build_sigma1(ctx, Q(-1, 4))
    v_star, _ = minimize_mu2_on_cone(ctx, sigma)
    best = dot(v_star, [dot(row, v_star) for row in cov])
    for k in range(-6 * 200, 1):
        y = Q(k, 200)
        v = (y + 3, y)
        assert sigma.cone.contains(v)
        val = dot(v, [dot(row, v) for row in cov])
        assert val >= best
        if v != v_star:
            assert val > best


def test_stage2_single_ray_cone():
    # cone pinched to the ray through (1,0): the slice has one point b-paired
    # to 1, so the optimum must be that point
    ctx = corpus_context("p112")
    ray_cone = ConeH(((0, 1), (0, -1), (-1, 0)), 2)
    v_star, value = minimize_mu2_on_cone(ctx, SigmaOne(ray_cone, Q(-1, 4), ((1, 0),)))
    assert v_star == (Q(3), Q(0))
    assert value.mu1 == Q(-1, 4)


def test_stage2_rejects_rays_outside_the_cone():
    # the ray (0, -1) reaches the stage-1 level set but leaves the H-form
    ctx = corpus_context("p112")
    ray_cone = ConeH(((0, 1), (0, -1), (-1, 0)), 2)
    with pytest.raises(CertificateError, match="H-form"):
        minimize_mu2_on_cone(ctx, SigmaOne(ray_cone, Q(-1, 4), ((0, -1),)))


def test_stage2_constraint_order_irrelevant():
    ctx = corpus_context("p112")
    sigma = build_sigma1(ctx, Q(-1, 4))
    base, _ = minimize_mu2_on_cone(ctx, sigma)
    flipped = SigmaOne(
        ConeH(tuple(reversed(sigma.cone.normals)), 2), sigma.m1, tuple(reversed(sigma.rays))
    )
    again, _ = minimize_mu2_on_cone(ctx, flipped)
    assert again == base


def test_stage2_rejects_ray_pairing_nonpositively_with_b():
    # <b, (0, 1)> = -1/3: the slice <b, v> = 1 misses that ray
    ctx = corpus_context("p112")
    sigma = build_sigma1(ctx, Q(-1, 4))
    with pytest.raises(CertificateError, match="a ray of sigma1 pairs non-positively"):
        minimize_mu2_on_cone(ctx, sigma._replace(rays=((0, 1),)))


def test_stage2_rejects_a_ray_orthogonal_to_b():
    # <b, (1, 1)> = 0 for b = (1/3, -1/3): the boundary of the check, which must end
    # in the certificate and not in a division by zero
    ctx = corpus_context("p112")
    assert ctx.moments.barycenter == (Q(1, 3), Q(-1, 3))
    sigma = build_sigma1(ctx, Q(-1, 4))
    with pytest.raises(CertificateError, match="^a ray of sigma1 pairs non-positively with b$"):
        minimize_mu2_on_cone(ctx, sigma._replace(rays=((1, 1),)))


def test_stage2_rejects_singular_corral(monkeypatch):
    # the optimum of p112 is interior to its two-ray slice, so a corral solve happens
    ctx = corpus_context("p112")
    sigma = build_sigma1(ctx, Q(-1, 4))
    monkeypatch.setattr(opt, "_corral", lambda gram, corral: None)
    with pytest.raises(CertificateError, match="singular corral"):
        minimize_mu2_on_cone(ctx, sigma)


def _random_metric(rng, d):
    a = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
    return [[dot(a[i], a[j]) + (i == j) for j in range(d)] for i in range(d)]


def test_corral_matches_kkt_oracle():
    # the affine minimizer's KKT system, Gram_S alpha = lambda 1 and sum(alpha) = 1,
    # solved on Fractions: `_corral` gives alpha as integer weights over their least
    # positive denominator, and None exactly when the system has no unique solution,
    # that is, when the corral is affinely dependent.  lambda = <x, x> is 0 when the
    # minimizer is the origin; each of the three kinds occurs
    rng = fresh_rng("corral-kkt")
    kinds = collections.Counter()
    for _ in range(600):
        d = rng.randint(1, 5)
        metric = _random_metric(rng, d)
        n = rng.randint(1, d + 2)
        pts = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            # move an affine combination of the points to the origin
            beta = [rng.randint(-2, 2) for _ in range(n - 1)]
            beta.append(1 - sum(beta))
            centre = [sum(b * p[j] for b, p in zip(beta, pts)) for j in range(d)]
            pts = [[x - c for x, c in zip(p, centre)] for p in pts]
        if n > 1 and rng.random() < 0.15:
            pts[-1] = pts[0]
        mpts = [[dot(row, p) for row in metric] for p in pts]
        gram = [[dot(p, mq) for mq in mpts] for p in pts]
        corral = sorted(rng.sample(range(n), rng.randint(1, n)))
        c = len(corral)
        kkt = [[gram[i][l] for l in corral] + [-1] for i in corral] + [[1] * c + [0]]
        want = oracle_solve(kkt, [0] * c + [1])
        got = opt._corral(gram, corral)
        if want is None:
            assert got is None, (gram, corral)
            kinds["dependent"] += 1
            continue
        assert got is not None, (gram, corral)
        ws, den = got
        assert den > 0 and math.gcd(den, *ws.values()) == 1
        assert {i: Q(w, den) for i, w in ws.items()} == dict(zip(corral, want))
        kinds["origin" if want[-1] == 0 else "independent"] += 1
    assert set(kinds) == {"dependent", "origin", "independent"}
    assert min(kinds.values()) >= 30, kinds


def _nearest_by_subsets(gram, d):
    """Every nearest point, as its pairings with the points: affine minimizers of
    the subsets of at most d + 1 points that lie in their hull and pass the certificate."""
    n = len(gram)
    found = set()
    for size in range(1, min(n, d + 1) + 1):
        for subset in itertools.combinations(range(n), size):
            rows = [[gram[i][j] for j in subset] + [-1] for i in subset] + [[1] * size + [0]]
            sol = oracle_solve(rows, [0] * size + [1])
            if sol is None or any(a < 0 for a in sol[:size]):
                continue
            gx = tuple(sum(a * gram[k][i] for a, i in zip(sol, subset)) for k in range(n))
            if all(x >= sol[size] for x in gx):
                found.add(gx)
    return found


def test_nearest_matches_subset_enumeration(monkeypatch):
    # random rational points in 2-5D, shifted off the origin, under random
    # positive definite metrics; Wolfe's walk must agree with brute force, visit
    # corrals of strictly falling norm, and drop points on the way often enough
    # that the minor cycle is exercised.  The whole set is solved first: its
    # affine minimizer is the start when its weights are positive, and the
    # walk starts from the nearest point when they are not or when the points
    # are affinely dependent; each of the three occurs
    real = opt._corral
    solves = []

    def recording(gram, corral):
        # a corral solve: its size, and its weights over their denominator or None
        solve = real(gram, corral)
        solves.append((len(corral), solve))
        assert len(solves) <= limit, "walk does not terminate"
        return solve

    def norm_sq(gram, solve):
        """<x, x> of the affine minimizer x, from its weights and the Gram matrix."""
        ws, den = solve
        return Q(sum(w * v * gram[i][j] for i, w in ws.items() for j, v in ws.items()), den**2)

    monkeypatch.setattr(opt, "_corral", recording)
    rng = fresh_rng("nearest")
    cases = drops = 0
    starts = collections.Counter()
    for d in range(2, 6):
        for _ in range(20):
            n = rng.randint(2, d + 4)
            metric = _random_metric(rng, d)
            shift = (rng.randint(2, 6),) + (0,) * (d - 1)
            pts = [
                tuple(Q(rng.randint(-6, 6), rng.randint(1, 3)) + x for x in shift) for _ in range(n)
            ]
            mpts = [[dot(row, p) for row in metric] for p in pts]
            # the Gram matrix cleared of its denominators: a positive factor
            # leaves the weights unchanged
            gram = [[dot(p, mq) for mq in mpts] for p in pts]
            r = math.lcm(*(x.denominator for row in gram for x in row))
            gram = [[x.numerator * (r // x.denominator) for x in row] for row in gram]
            solves.clear()
            limit = n * 2**n + 1
            ws, den = opt._nearest(gram)
            size, whole = solves[0]
            assert size == n, "the whole set is solved first"
            if whole is not None and all(a > 0 for a in whole[0].values()):
                starts["whole set"] += 1
                assert len(solves) == 1, "the whole set's minimizer is the nearest point"
            else:
                starts["minimizer not interior" if whole is not None else "affinely dependent"] += 1
                del solves[0]  # not a corral of the walk
            weights = {i: Q(w, den) for i, w in ws.items()}
            assert all(w > 0 for w in weights.values()) and sum(weights.values()) == 1
            gx = tuple(sum(w * gram[k][i] for i, w in weights.items()) for k in range(n))
            assert _nearest_by_subsets(gram, d) == {gx}
            # a solve with all weights positive is the next corral's minimizer
            norms = [norm_sq(gram, sol) for _, sol in solves if all(a > 0 for a in sol[0].values())]
            assert all(b < a for a, b in zip(norms, norms[1:]))
            # without drops each solve has one more point than the one before
            sizes = [size for size, _ in solves]
            drops += any(b <= a for a, b in zip(sizes, sizes[1:]))
            cases += 1
    assert drops >= cases // 10
    assert set(starts) == {"whole set", "minimizer not interior", "affinely dependent"}


# ---------------------------------------------------------------------------
# full reports


def test_destabilizer_semistable_report():
    report = optimal_destabilizer(corpus_context("p2"))
    assert report.verdict == "semistable"
    assert report.delta == 1
    assert (report.m1, report.m2_sign, report.m2_sq) == (0, 0, 0)
    assert report.v_star_rational is None
    assert report.v_star_primitive is None


def test_destabilizer_frozen_corpus_values(contexts):
    for name, (m1, m2_sq, v_prim, normals) in FROZEN.items():
        report = optimal_destabilizer(contexts[name])
        assert report.verdict == "unstable", name
        assert report.m1 == m1, name
        assert report.m2_sign == -1, name
        assert report.m2_sq == m2_sq, name
        assert report.delta == m1 + 1, name
        assert report.v_star_primitive == v_prim, name
        assert report.sigma1.cone.normals == normals, name
        assert primitive(report.v_star_rational) == v_prim, name
        assert dot(contexts[name].moments.barycenter, report.v_star_rational) == 1, name
        assert mu(contexts[name], report.v_star_primitive) == report.m_mu, name


def test_destabilizer_rejects_witnesses_off_sigma1_rays(monkeypatch):
    import toricstab.optimizer as opt

    real = opt._sigma1

    def one_ray_short(*view):
        sigma = real(*view)
        return sigma._replace(rays=sigma.rays[1:])

    monkeypatch.setattr(opt, "_sigma1", one_ray_short)
    with pytest.raises(CertificateError, match="witness rays differ"):
        optimal_destabilizer(corpus_context("p112"))


def test_destabilizer_rejects_witnesses_out_of_facet_order(monkeypatch):
    # stage 1 and sigma1 both take the facet normals in facet order, so the
    # same rays in another order are a fault too
    real = opt._stage1

    def reversed_witnesses(*view):
        stage1 = real(*view)
        return stage1._replace(witness_rays=stage1.witness_rays[::-1])

    monkeypatch.setattr(opt, "_stage1", reversed_witnesses)
    with pytest.raises(CertificateError, match="^p112: stage-1 witness rays differ"):
        optimal_destabilizer(corpus_context("p112"))


# each certificate of the destabilizer below is reached by corrupting one
# intermediate value; a correct run never trips it


def test_stage1_certifies_a_destabilizing_direction(monkeypatch):
    # with b cleared to 0, every facet normal has mu1 = 0
    real = opt._view

    def no_barycenter(ctx):
        bb, offsets, z, s = real(ctx)
        return [0] * len(bb), offsets, z, s

    monkeypatch.setattr(opt, "_view", no_barycenter)
    with pytest.raises(CertificateError, match="^p112: stage 1 found no destabilizing direction$"):
        optimal_destabilizer(corpus_context("p112"))


def test_stage1_certifies_the_barycenter_interior_to_p(monkeypatch):
    # 100 b lies outside P: <100 b, (0, 1)> is below that facet's negative
    # offset, so ||(0, 1)||_m, the denominator of mu1 there, is negative
    real = opt._view

    def far_barycenter(ctx):
        bb, offsets, z, s = real(ctx)
        return [100 * x for x in bb], offsets, z, s

    monkeypatch.setattr(opt, "_view", far_barycenter)
    with pytest.raises(CertificateError, match="^p112: barycenter not interior to P$"):
        optimal_destabilizer(corpus_context("p112"))


def test_stage1_certifies_a_barycenter_on_a_facet(monkeypatch):
    # B moved onto a vertex of facet 0 makes that facet's ||n||_m zero: the boundary
    # of the check, which must end in the certificate and not in a division by zero
    real = opt._view

    def on_facet(ctx):
        bb, offsets, z, s = real(ctx)
        facet = ctx.vpoly.facets[0]
        u = next(u for i, u in enumerate(z) if facet.members >> i & 1)
        assert dot(u, facet.normal) == offsets[0]
        return list(u), offsets, z, s

    monkeypatch.setattr(opt, "_view", on_facet)
    with pytest.raises(CertificateError, match="^p112: barycenter not interior to P$"):
        optimal_destabilizer(corpus_context("p112"))


def test_stage2_certifies_a_positive_definite_covariance(monkeypatch):
    # the context is built with -Cov; nothing before stage 2 reads Cov
    real = stability._moment_data

    def negated(*args):
        md = real(*args)
        return md._replace(covariance=tuple(tuple(-x for x in row) for row in md.covariance))

    monkeypatch.setattr(stability, "_moment_data", negated)
    ctx = context_from_rays(((1, 0), (0, 1), (-1, -2)), name="p112")
    with pytest.raises(CertificateError, match="^p112: covariance not positive definite$"):
        optimal_destabilizer(ctx)


def test_stage2_certifies_the_stage1_level_set(monkeypatch):
    # sigma1 carries m1 - 1: its cone and rays pass, and mu1 at v* is m1
    real = opt._sigma1

    def shifted(ctx, m1, *view):
        sigma = real(ctx, m1, *view)
        return sigma._replace(m1=sigma.m1 - 1)

    monkeypatch.setattr(opt, "_sigma1", shifted)
    with pytest.raises(CertificateError, match="^p112: stage 2 left the stage-1 level set$"):
        optimal_destabilizer(corpus_context("p112"))


def test_destabilizer_certifies_the_witnesses_in_sigma1(monkeypatch):
    # -w is outside the pointed cone sigma1 for every witness w in it
    real = opt._stage1

    def negated(*args):
        stage1 = real(*args)
        return stage1._replace(witness_rays=tuple(eg.vneg(w) for w in stage1.witness_rays))

    monkeypatch.setattr(opt, "_stage1", negated)
    with pytest.raises(CertificateError, match="^p112: witness ray outside sigma1$"):
        optimal_destabilizer(corpus_context("p112"))


def test_destabilizer_certifies_a_destabilizing_optimum(monkeypatch):
    real = opt._stage2

    def positive(*args):
        v_star, p, value = real(*args)
        return v_star, p, value._replace(mu2_sign=1)

    monkeypatch.setattr(opt, "_stage2", positive)
    with pytest.raises(CertificateError, match="^p112: optimal direction is not destabilizing$"):
        optimal_destabilizer(corpus_context("p112"))
    # an unnamed context's failure carries no name, not "None"
    with pytest.raises(CertificateError, match="^optimal direction is not destabilizing$"):
        optimal_destabilizer(context_from_rays([(1, 0), (0, 1), (-1, -2)]))


def test_destabilizer_witnesses_live_in_sigma1(unstable_names, contexts):
    for name in unstable_names:
        report = optimal_destabilizer(contexts[name])
        for w in report.stage1.witness_rays:
            assert report.sigma1.cone.contains(w)
            assert mu(contexts[name], w).mu1 == report.m1


# ---------------------------------------------------------------------------
# agreement with the normal-fan / H-form reference optimizer


def _unit(d, i, s=1):
    return tuple(s if j == i else 0 for j in range(d))


# the unstable entries of the benchmark's scaling ladder whose reference run is cheap
LADDER = {
    **{f"p11m{m}": ((1, 0), (0, 1), (-1, -m)) for m in (2, 3, 5, 8, 13, 21)},
    "p1^3+110": tuple(_unit(3, i, s) for i in range(3) for s in (1, -1)) + ((1, 1, 0),),
    "p1^3+111": tuple(_unit(3, i, s) for i in range(3) for s in (1, -1)) + ((1, 1, 1),),
    "p11112": tuple(_unit(4, i) for i in range(4)) + ((-1, -1, -1, -2),),
    "bl-p4-1100": tuple(_unit(4, i) for i in range(4)) + ((-1, -1, -1, -1), (1, 1, 0, 0)),
}


def _seeded_vertex_contexts(count=40):
    rng = fresh_rng("optimizer-oracle")
    out = []
    while len(out) < count:
        d = 2 + len(out) % 3
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + rng.randint(2, 4))]
        try:
            ctx = context_from_vertices(pts, name=f"seeded-{len(out)}")
        except ValueError:
            continue
        if verdict(ctx) == "unstable":
            out.append(ctx)
    return out


def _seeded_rational_contexts(count=24):
    """Unstable 2-4D contexts off the integer lattice: vertices with denominator 2
    or 3, then constraints with fractional offsets."""
    rng = fresh_rng("optimizer-oracle-rational")
    out = []
    while len(out) < count:
        d = 2 + len(out) % 3
        den = 2 + len(out) // 3 % 2
        try:
            if len(out) < count // 2:
                k = d + rng.randint(2, 4)
                pts = [tuple(Q(rng.randint(-3, 3), den) for _ in range(d)) for _ in range(k)]
                ctx = context_from_vertices(pts, name=f"seeded-v{len(out)}")
            else:
                normals = [rand_nonzero_ivec(rng, d, 1) for _ in range(d + rng.randint(1, 2))]
                cons = [(n, Q(-rng.randint(1, 4), den)) for n in normals]
                ctx = context_from_constraints(cons, name=f"seeded-h{len(out)}")
        except ValueError:
            continue
        if verdict(ctx) == "unstable":
            out.append(ctx)
    return out


def _assert_matches_oracle(ctx):
    report = optimal_destabilizer(ctx)
    stage1 = stage1_by_fan(ctx)
    assert report.stage1 == stage1, ctx.name
    cone = sigma1_by_vertices(ctx, stage1.m1)
    assert report.sigma1.cone == cone, ctx.name
    v_star, value = stage2_by_constraints(ctx, cone)
    assert report.v_star_rational == v_star, ctx.name
    assert report.m_mu == value, ctx.name
    assert stage2_by_ray_subsets(ctx, report.sigma1) == (v_star, value), ctx.name
    assert report.stage1.witness_rays == report.sigma1.rays, ctx.name


def test_matches_oracle_on_corpus(unstable_names, contexts):
    for name in unstable_names:
        _assert_matches_oracle(contexts[name])


@pytest.mark.parametrize("name", sorted(LADDER))
def test_matches_oracle_on_ladder(name):
    _assert_matches_oracle(context_from_rays(LADDER[name], name=name))


def test_matches_oracle_on_seeded_polytopes():
    contexts = _seeded_vertex_contexts()
    assert {ctx.dim for ctx in contexts} == {2, 3, 4}
    rational = _seeded_rational_contexts()
    assert {ctx.dim for ctx in rational} == {2, 3, 4}
    # off the lattice: a vertex of each, and a facet offset of each constraint context
    assert all(any(x.denominator > 1 for u in c.vpoly.vertices for x in u) for c in rational)
    by_constraints = [c for c in rational if c.name.startswith("seeded-h")]
    assert all(any(f.offset.denominator > 1 for f in c.vpoly.facets) for c in by_constraints)
    for ctx in contexts + rational:
        _assert_matches_oracle(ctx)


def test_stage2_on_p11112_is_one_corral_solve(monkeypatch):
    # the affine minimizer of sigma1's four rays has positive weights, so the
    # walk starts there and its certificate holds at once
    ctx = context_from_rays(LADDER["p11112"], name="p11112")
    real, solves = opt._corral, []

    def counting(gram, corral):
        solves.append(len(corral))
        return real(gram, corral)

    monkeypatch.setattr(opt, "_corral", counting)
    report = optimal_destabilizer(ctx)
    assert len(report.sigma1.rays) == 4
    assert solves == [4]


def _public_stages(ctx):
    """The report of the public stages, chained as the benchmark replays them."""
    stage1 = minimize_mu1(ctx)
    sigma1 = build_sigma1(ctx, stage1.m1)
    v_star, value = minimize_mu2_on_cone(ctx, sigma1)
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


def _seeded_fan_contexts(d, count=6):
    """Unstable contexts of seeded d-dimensional fans with coefficients of denominators 1-5."""
    rng = fresh_rng(f"optimizer-fans-{d}")
    out = []
    while len(out) < count:
        rays = {tuple(int(i == j) for j in range(d)) for i in range(d)}
        rays.add(primitive([-rng.randint(1, 3) for _ in range(d)]))
        while len(rays) < d + 2 + rng.randint(0, 2):
            rays.add(primitive(rand_nonzero_ivec(rng, d, 2)))
        coeffs = [Q(rng.randint(0, den - 1), den) for den in rng.choices((1, 2, 3, 5), k=len(rays))]
        ctx = context_from_rays(sorted(rays), coeffs, name=f"fan-{d}-{len(out)}")
        if verdict(ctx) == "unstable":
            out.append(ctx)
    return out


def test_one_optimizer_behind_two_entry_points(contexts):
    # optimal_destabilizer clears the context once and runs the stage kernels;
    # the public stages each clear what they read.  Both give one report, whose
    # value at primitive(v*), read off the kernels' integers, is the public mu;
    # the context's moments and fan are those of their public readers
    ladder = [context_from_rays(rays, name=name) for name, rays in LADDER_FANS.items()]
    fans = [ctx for d in (2, 3, 4) for ctx in _seeded_fan_contexts(d)]
    assert len(ladder) == 16
    assert any(c.denominator > 1 for ctx in fans for c in ctx.coeffs)
    unstable = 0
    for ctx in [*contexts.values(), *ladder, *fans]:
        assert moment_data(ctx.vpoly) == ctx.moments, ctx.name
        assert normal_fan(ctx.vpoly) == ctx.fan, ctx.name
        if verdict(ctx) == "unstable":
            report = optimal_destabilizer(ctx)
            assert report == _public_stages(ctx), ctx.name
            assert report.stage1.witness_rays == report.sigma1.rays, ctx.name
            assert report.m_mu == mu(ctx, report.v_star_primitive), ctx.name
            unstable += 1
    assert unstable >= len(fans) + 10


def test_each_destabilizer_call_clears_the_context_once(monkeypatch):
    # the context build clears the vertices once for the moments and the fan;
    # the optimizer clears b, the offsets and the vertices once and Cov once,
    # and its mu certificate and positive-definiteness check read those integers
    real, calls = eg._scaled, collections.Counter()
    for module in (eg, moments, stability, opt):

        def counting(points, name=module.__name__.rpartition(".")[2]):
            calls[name] += 1
            return real(points)

        monkeypatch.setattr(module, "_scaled", counting)
    optimal_destabilizer(context_from_rays(LADDER["p11112"], name="p11112"))
    assert dict(calls) == {"stability": 1, "optimizer": 2}


def test_each_report_direction_clears_the_context_once(monkeypatch):
    # one evaluation per direction serves every invariant report prints: it
    # clears v, b and the vertices once and Cov once
    import toricstab.cli_report as cli_report
    import toricstab.invariants as invariants

    real, calls = invariants._scaled, []
    monkeypatch.setattr(invariants, "_scaled", lambda points: calls.append(1) or real(points))
    directions = [(1, 1, 1), (0, 0, -1), (1, -2, 0)]
    doc = cli_report.report_doc(corpus_context("p1112"), directions, 6)
    assert len(doc["directions"]) == 3
    assert len(calls) == 6


# ---------------------------------------------------------------------------
# a pyramid over a lattice ball: sigma1 is the normal cone at the apex, with
# one ray per facet of the ball, which once cost sum_{k <= 4} C(#rays, k) solves


def _ball_pyramid(r2):
    r = range(-3, 4)
    base = [(x, y, z, -1) for x in r for y in r for z in r if x * x + y * y + z * z <= r2]
    return base + [(0, 0, 0, 2)]


def test_pyramid_over_ball_of_radius_3():
    ctx = context_from_vertices(_ball_pyramid(9), name="ball-pyramid-9")
    assert len(ctx.vpoly.vertices) == 31
    report = optimal_destabilizer(ctx)
    assert len(report.sigma1.rays) == 56
    # the symmetries of the base fix only the axis
    assert report.v_star_primitive == (0, 0, 0, -1)


def test_pyramid_over_ball_of_radius_sqrt6_matches_oracle():
    ctx = context_from_vertices(_ball_pyramid(6), name="ball-pyramid-6")
    report = optimal_destabilizer(ctx)
    assert len(report.sigma1.rays) == 26
    v_star, value = stage2_by_constraints(ctx, report.sigma1.cone)
    assert (report.v_star_rational, report.m_mu) == (v_star, value)
