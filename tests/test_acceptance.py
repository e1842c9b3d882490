"""Acceptance gate: one test per headline guarantee, at stated tolerances.

Each test prints a single PASS line on success so a verbose run reads as a
checklist.  Everything here is exact rational arithmetic unless a tolerance
is stated inline.
"""

import json
from fractions import Fraction as Q

from conftest import (
    fresh_rng,
    mat_t_vec,
    mat_vec,
    rand_nonzero_ivec,
    run_quasi_convexity,
    sample_relint_point,
    unimodular_matrix,
)
from hull_oracle import extreme_rays_by_subsets
from moments_oracle import denominator_lcm
from stability_oracle import support_min
from toricstab.cli import main
from toricstab.corpus import corpus_names
from toricstab.exactgeom import dot, primitive
from toricstab.limits import face_limit, limit_point, normal_cone_of_face, weight_polytope, weighted_point
from toricstab.lattice import extrapolate, lattice_series
from toricstab.optimizer import optimal_destabilizer
from toricstab.invariants import (
    futaki,
    l2_norm_sq,
    log_discrepancy_S,
    mu,
    mu_prime_trunc,
)
from toricstab.stability import (
    StabilityValue,
    context_from_constraints,
    context_from_rays,
    context_from_vertices,
    verdict,
)

TOL = Q(1, 1000)


def within_rel(value, target, tol=TOL):
    if target == 0:
        return abs(value) <= tol
    return abs(value - target) <= tol * abs(target)


def test_delta_family_exact(contexts):
    for m in range(2, 10):
        if 2 <= m <= 6:
            ctx = contexts[f"p11{m}"]
        else:
            ctx = context_from_rays([(1, 0), (0, 1), (-1, -m)], name=f"p11{m}")
        report = optimal_destabilizer(ctx)
        assert report.verdict == "unstable", m
        assert report.delta == Q(3, m + 2), m
    print("PASS delta family: delta(P(1,1,m)) = 3/(m+2) exactly for m=2..9")


def test_semistable_identities(contexts):
    for name in ("p2", "p1xp1"):
        ctx = contexts[name]
        assert all(x == 0 for x in ctx.moments.barycenter), name
        assert verdict(ctx) == "semistable", name
        report = optimal_destabilizer(ctx)
        assert report.m_mu == StabilityValue(Q(0), 0, Q(0)), name
        assert report.delta == 1, name
    print("PASS semistable identities: zero barycenter, value pair (0,0)")


def test_range_law(contexts, unstable_names):
    for name in unstable_names:
        report = optimal_destabilizer(contexts[name])
        assert Q(-1) < report.m1 < Q(0), name
    print(f"PASS range law: first invariant in (-1,0) for all {len(unstable_names)} unstable entries")


def test_oracle_convergence(contexts):
    for name, ctx in sorted(contexts.items()):
        p = ctx.vpoly
        b = ctx.moments.barycenter
        r = denominator_lcm(p)
        rng = fresh_rng(f"accept-oracle-{name}")
        for _ in range(5):
            v = rand_nonzero_ivec(rng, ctx.dim, 3)
            res = extrapolate(lattice_series(p, v, 60 * r))
            f_target = dot(b, v)
            q_target = l2_norm_sq(ctx, v) + f_target * f_target
            assert within_rel(res.F0_est, f_target), (name, v)
            assert within_rel(res.Q0_est, q_target), (name, v)
    print("PASS oracle convergence: extrapolated series within 1e-3 of exact moments")


def test_lambda_min_exact(contexts):
    for name, ctx in sorted(contexts.items()):
        p = ctx.vpoly
        r = denominator_lcm(p)
        rng = fresh_rng(f"accept-lmin-{name}")
        for _ in range(3):
            v = rand_nonzero_ivec(rng, ctx.dim, 5)
            target = support_min(p, v)
            for row in lattice_series(p, v, 15 * r).rows:
                assert row.m % r == 0
                assert Q(row.weight_min, row.m) == target, (name, v, row.m)
    print("PASS lambda_min exactness: row minima equal the support minimum at every dilate")


def test_pairing_decomposition_identity(contexts):
    for name, ctx in sorted(contexts.items()):
        rng = fresh_rng(f"accept-ams-{name}")
        for _ in range(1000):
            v = rand_nonzero_ivec(rng, ctx.dim)
            a, s = log_discrepancy_S(ctx, v)
            assert a - s == futaki(ctx, v), (name, v)
    print("PASS decomposition identity: A - S equals the linear invariant on 1000 directions per entry")


def test_uniqueness_suite(contexts, unstable_names):
    for name in unstable_names:
        ctx = contexts[name]
        base = optimal_destabilizer(ctx)
        rng = fresh_rng(f"accept-unique-{name}")

        # constraint order must not matter
        cons = list(ctx.hpoly.constraints)
        rng.shuffle(cons)
        permuted = optimal_destabilizer(context_from_constraints(cons))
        assert permuted.v_star_rational == base.v_star_rational, name
        assert permuted.m_mu == base.m_mu, name

        # dilation rescales the slice point but not the ray
        for k in (1, 2, 3):
            scaled = context_from_vertices(
                [tuple(k * x for x in u) for u in ctx.vpoly.vertices]
            )
            rep = optimal_destabilizer(scaled)
            assert rep.v_star_primitive == base.v_star_primitive, (name, k)
            assert rep.v_star_rational == tuple(x / k for x in base.v_star_rational), (name, k)
            assert rep.m_mu == base.m_mu, (name, k)

        # unimodular coordinate change transports the minimizer contravariantly
        for _ in range(5):
            u_mat, u_inv = unimodular_matrix(rng, ctx.dim)
            moved = context_from_vertices([mat_vec(u_mat, u) for u in ctx.vpoly.vertices])
            rep = optimal_destabilizer(moved)
            expected = mat_t_vec(u_inv, base.v_star_rational)
            assert rep.v_star_rational == expected, name
            assert rep.v_star_primitive == primitive(expected), name
            assert rep.m_mu == base.m_mu, name
    print("PASS uniqueness suite: optimum invariant under permutation, dilation, lattice change")


def test_global_minimum(contexts, unstable_names):
    for name in unstable_names:
        ctx = contexts[name]
        report = optimal_destabilizer(ctx)
        m_mu = report.m_mu
        cone = report.sigma1.cone
        bound = 40 if ctx.dim == 2 else 12
        rng = fresh_rng(f"accept-global-{name}")
        ties = 0
        for _ in range(10**4):
            v = primitive(rand_nonzero_ivec(rng, ctx.dim, bound))
            value = mu(ctx, v)
            assert value >= m_mu, (name, v)
            if value.mu1 == m_mu.mu1:
                ties += 1
                assert cone.contains(v), (name, v)
            else:
                assert not cone.contains(v), (name, v)
            if value == m_mu:
                assert v == report.v_star_primitive, (name, v)
        assert ties > 0 or ctx.dim == 3, name
    print("PASS global minimum: 10^4 sampled directions per entry never beat the reported value")


def test_quasi_convexity(contexts, unstable_names):
    for name in unstable_names:
        rng = fresh_rng(f"accept-quasi-{name}")
        strict = run_quasi_convexity(contexts[name], rng, 1000)
        assert strict > 0, name
    print("PASS quasi-convexity: blends never exceed endpoints, strictly better off-parallel")


def test_truncated_invariant_equivalence(contexts, unstable_names):
    for name in unstable_names:
        ctx = contexts[name]
        report = optimal_destabilizer(ctx)
        t_star = mu_prime_trunc(ctx, report.v_star_primitive)
        assert t_star.mu1 == report.m1, name
        # on the slice the square of the first-order term is m1^4 Q(v)
        assert t_star.mu2_sq == report.m1**4 * l2_norm_sq(ctx, report.v_star_rational), name
        candidates = set()
        for _, cone in ctx.fan.cones:
            candidates.update(extreme_rays_by_subsets(cone).rays)
        rng = fresh_rng(f"accept-trunc-{name}")
        bound = 40 if ctx.dim == 2 else 12
        for _ in range(2000):
            candidates.add(primitive(rand_nonzero_ivec(rng, ctx.dim, bound)))
        for v in sorted(candidates):
            t = mu_prime_trunc(ctx, v)
            if v == report.v_star_primitive:
                assert t == t_star, name
            else:
                assert t > t_star, (name, v)
    print("PASS truncated equivalence: the first-order pair has the same unique minimizer ray")


def test_stratification_bookkeeping(tmp_path, capsys, contexts):
    blobs = []
    for run, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        target = tmp_path / f"strata-{run}.json"
        code = main(["stratify", "--corpus", "--threads", threads, "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        blobs.append(target.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    doc = json.loads(blobs[0])
    assert doc["count"] == len(corpus_names())
    members = [m for s in doc["strata"] for m in s["members"]]
    assert sorted(members) == sorted(corpus_names())
    assert len(members) == len(set(members))

    def decode(stratum):
        m1 = Q(stratum["M_mu"][0])
        second = stratum["M_mu"][1]
        if isinstance(second, str):
            return StabilityValue(m1, 0, Q(0))
        return StabilityValue(m1, second["sign"], Q(second["square"]))

    values = [decode(s) for s in doc["strata"]]
    assert all(a > b for a, b in zip(values, values[1:]))
    semistable = sorted(n for n, c in contexts.items() if verdict(c) == "semistable")
    assert doc["strata"][0]["members"] == semistable
    print("PASS stratification: deterministic, ordered, partitioning, thread-count invisible")


def test_limit_combinatorics():
    rng = fresh_rng("accept-limits")
    interior_checked = 0
    two_step_eligible = 0
    two_step_checked = 0
    for _ in range(500):
        d = rng.choice((2, 3))
        count = rng.randint(3, 7)
        # at least two distinct active weights, so a nested face pair exists
        while True:
            weights = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(count)]
            support = rng.sample(range(count), rng.randint(2, count))
            if len({weights[i] for i in support}) >= 2:
                break
        w = weighted_point(weights, support)
        q = weight_polytope(w)

        # interior agreement on some face of every instance; the only cones
        # the sampler cannot certify a nonzero point in are zero cones
        faces = list(q.faces)
        rng.shuffle(faces)
        for face in faces:
            v = sample_relint_point(normal_cone_of_face(q, face), rng)
            if v is not None:
                assert limit_point(w, v) == face_limit(w, q, face)
                interior_checked += 1
                break

        # two-step degeneration through a nested pair of every instance
        nested = [(f, g) for f in q.faces for g in q.faces if f < g]
        assert nested
        two_step_eligible += 1
        rng.shuffle(nested)
        for f, g in nested:
            v_mid = sample_relint_point(normal_cone_of_face(q, g), rng)
            v_fine = sample_relint_point(normal_cone_of_face(q, f), rng)
            if v_mid is None or v_fine is None:
                continue
            halfway = limit_point(w, v_mid)
            assert halfway == face_limit(w, q, g)
            assert limit_point(halfway, v_fine) == face_limit(w, q, f)
            two_step_checked += 1
            break
    assert interior_checked == 500
    assert two_step_checked == two_step_eligible == 500
    print(
        "PASS limit combinatorics: interior agreement and two-step degeneration "
        "on all 500 randomized instances"
    )
