"""Closed-form invariants on torus directions and their exact comparators."""

import math
import re
from fractions import Fraction as Q

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stability_oracle
from conftest import fresh_rng, rand_nonzero_ivec, rand_rational, run_quasi_convexity
from moments_oracle import denominator_lcm
from stability_oracle import support_min
from test_moments import LADDER
from toricstab.corpus import CORPUS, corpus_context
from toricstab.exactgeom import dual_polytope, facets_from_vertices
from toricstab.polytopes import normal_fan, vertices_from_facets
from toricstab.moments import moment_data
from toricstab.optimizer import optimal_destabilizer
from toricstab.invariants import (
    futaki,
    l2_norm_sq,
    log_discrepancy_S,
    min_norm,
    mu,
    mu_prime_trunc,
)
from toricstab.stability import (
    SEMISTABLE,
    UNSTABLE,
    StabilityContext,
    StabilityValue,
    context_from_constraints,
    context_from_rays,
    context_from_vertices,
    verdict,
)

P112 = context_from_rays([(1, 0), (0, 1), (-1, -2)], name="p112")
P2 = context_from_rays([(1, 0), (0, 1), (-1, -1)], name="p2")
SQUARE = context_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)], name="square")


# ---------------------------------------------------------------------------
# construction


def test_context_builders_agree():
    by_verts = context_from_vertices([(-1, -1), (-1, 1), (3, -1)])
    by_cons = context_from_constraints(
        [((1, 0), Q(-1)), ((0, 1), Q(-1)), ((-1, -2), Q(-1))]
    )
    assert by_verts.vpoly == P112.vpoly == by_cons.vpoly
    assert by_verts.moments == P112.moments == by_cons.moments


# Hirzebruch surfaces F_2 and F_3: weak Fano, the ray (0, 1) gives a redundant constraint
HIRZEBRUCH = {f"F{a}": [(1, 0), (0, 1), (-1, a), (0, -1)] for a in (2, 3)}


def test_every_description_of_a_body_gives_one_context():
    bodies = {
        **CORPUS,
        **{name: (rays, None) for name, rays in {**LADDER, **HIRZEBRUCH}.items()},
    }
    assert len(bodies) == 17 + 16 + 2
    for name, (rays, coeffs) in bodies.items():
        by_rays = context_from_rays(rays, coeffs, name=name)
        by_verts = context_from_vertices(by_rays.vpoly.vertices)
        by_cons = context_from_constraints(dual_polytope(rays, coeffs)[0].constraints)
        for ctx in (by_rays, by_verts, by_cons):
            assert ctx.hpoly == facets_from_vertices(ctx.vpoly), name
        # the provenance fields are the only ones that differ
        assert by_rays._replace(rays=None, coeffs=None, name=None) == by_verts == by_cons, name
        report = optimal_destabilizer(by_rays)
        assert optimal_destabilizer(by_verts) == report == optimal_destabilizer(by_cons), name
    for name, rays in HIRZEBRUCH.items():
        assert len(dual_polytope(rays, None)[0].constraints) == 4
        assert len(context_from_rays(rays).hpoly.constraints) == 3, name


def test_traced_ladder_replay_builds_the_library_context():
    # the benchmark's ladder replay assembles each context from the public calls
    for name, rays in LADDER.items():
        h, v = dual_polytope(rays, None)
        ints = tuple(tuple(int(x) for x in r) for r in rays)
        zeros = tuple(Q(0) for _ in ints)
        replay = StabilityContext(v, h, moment_data(v), normal_fan(v), ints, zeros, name)
        assert replay == context_from_rays(rays, name=name), name


def test_non_primitive_constraint_keeps_its_half_space():
    # (-2, 0) with offset -2 is x <= 1, the same half-space as (-1, 0) with offset -1
    square = [((1, 0), Q(0)), ((0, 1), Q(0)), ((0, -1), Q(-1))]
    scaled = context_from_constraints(square + [((-2, 0), Q(-2))])
    plain = context_from_constraints(square + [((-1, 0), Q(-1))])
    assert scaled.vpoly == plain.vpoly == SQUARE.vpoly
    assert scaled.moments == plain.moments == SQUARE.moments
    assert scaled.hpoly == plain.hpoly
    # each corpus constraint rescaled by seeded positive rationals, some of it
    # repeated: the normals turn non-primitive or rational, the hull stays the
    # one of the primitive form
    rng = fresh_rng("non-primitive-constraints")
    for name, (rays, coeffs) in sorted(CORPUS.items()):
        h = dual_polytope(rays, coeffs)[0]
        cons = [
            (tuple(k * x for x in n), k * c)
            for n, c in h.constraints
            for k in (Q(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 2)))
        ]
        rng.shuffle(cons)
        assert context_from_constraints(cons).vpoly == vertices_from_facets(h), name


def test_constraints_of_mixed_length_are_rejected():
    with pytest.raises(ValueError, match="one common length"):
        context_from_constraints([((1,), Q(0)), ((-1, 0), Q(-1))])


def test_an_empty_constraint_list_is_rejected_as_empty():
    with pytest.raises(ValueError, match="^empty constraint list: a polytope needs at least one"):
        context_from_constraints([])


def test_context_entries_that_are_not_rational_are_refused_by_value():
    for bad in (None, math.inf):
        message = f"^\\(1, {bad}\\) is not a vector of rationals$"
        with pytest.raises(ValueError, match=message):
            context_from_vertices([(0, 0), (1, bad), (0, 1)])
        with pytest.raises(ValueError, match=message):
            context_from_constraints([((1, bad), Q(0)), ((0, 1), Q(0)), ((-1, -1), Q(-1))])
    for bad in ("x", "1/0"):
        message = f"^\\(1, {re.escape(repr(bad))}\\) is not a vector of rationals$"
        with pytest.raises(ValueError, match=message):
            context_from_vertices([(0, 0), (1, bad), (0, 1)])
        with pytest.raises(ValueError, match=message):
            context_from_constraints([((1, bad), Q(0)), ((0, 1), Q(0)), ((-1, -1), Q(-1))])
        message = f"^\\[0, {re.escape(repr(bad))}, 0\\] is not a vector of rationals$"
        with pytest.raises(ValueError, match=message):
            context_from_rays([(1, 0), (0, 1), (-1, -1)], [0, bad, 0])
    with pytest.raises(ValueError, match="^None is not a vector of rationals$"):
        context_from_vertices([(0, 0), None, (0, 1)])
    for bad in (None, [1], (), math.inf, "x"):
        message = f"^offset {re.escape(repr(bad))} is not a rational$"
        with pytest.raises(ValueError, match=message):
            context_from_constraints([((1, 0), bad), ((0, 1), Q(0)), ((-1, -1), Q(-1))])


def test_a_string_is_not_a_vector_but_may_be_an_entry():
    # iterated, a str or bytes would read as the vector of its characters
    for bad in ("01", b"01"):
        message = f"^{re.escape(repr(bad))} is not a vector of rationals$"
        with pytest.raises(ValueError, match=message):
            futaki(P112, bad)
        with pytest.raises(ValueError, match=message):
            context_from_vertices([bad, (1, 0), (0, 1)])
        with pytest.raises(ValueError, match=message):
            context_from_rays([(1, 0), (0, 1), (-1, -1)], bad)
    halves = context_from_vertices([("0", "0"), ("1/2", "0"), ("0", "1/2")])
    assert halves == context_from_vertices([(0, 0), (Q(1, 2), 0), (0, Q(1, 2))])
    assert futaki(P112, ("0", "-1")) == futaki(P112, (0, -1))
    assert futaki(P112, (" 2 ", "1.25")) == futaki(P112, (2, Q(5, 4)))


def test_unknown_corpus_entry_is_refused():
    with pytest.raises(ValueError, match="^unknown corpus entry: p4$"):
        corpus_context("p4")


def test_context_requires_full_dimension():
    with pytest.raises(ValueError, match="not full-dimensional"):
        context_from_vertices([(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="not full-dimensional"):
        context_from_constraints([((1, 1), Q(0)), ((-1, -1), Q(0)), ((1, 0), Q(-1)), ((-1, 0), Q(-1))])


def test_context_fields_in_order():
    ctx = context_from_rays([(1, 0), (0, 1), (-1, -2)], name="p112")
    again = StabilityContext(
        ctx.vpoly, ctx.hpoly, ctx.moments, ctx.fan, ((1, 0), (0, 1), (-1, -2)), (Q(0),) * 3, "p112"
    )
    assert again == ctx


def test_result_records_keep_their_fields():
    # positional construction relies on these names, this order and these defaults
    import toricstab.exactgeom as g
    import toricstab.lattice as lat
    import toricstab.limits as lim
    import toricstab.moments as m
    import toricstab.optimizer as opt

    fields = {
        g.VPolytope: ("vertices", "dim", "facets"),
        g.HPolytope: ("constraints",),
        g.ConeH: ("normals", "dim"),
        g.Fan: ("cones",),
        lim.WeightedPoint: ("weights", "support"),
        lim.WeightPolytope: ("point", "polytope", "faces"),
        m.MomentData: ("volume", "barycenter", "covariance"),
        lat.LatticeSeries: ("r", "rows"),
        lat.ExtrapolationResult: ("F0_est", "Q0_est", "residuals", "q_residuals"),
        opt.Stage1Result: ("m1", "witness_rays", "per_cone_minima"),
        opt.SigmaOne: ("cone", "m1", "rays"),
        opt.DestabReport: (
            "verdict", "m1", "m2_sign", "m2_sq", "delta",
            "v_star_rational", "v_star_primitive", "sigma1", "stage1",
        ),
        StabilityValue: ("mu1", "mu2_sign", "mu2_sq"),
        StabilityContext: ("vpoly", "hpoly", "moments", "fan", "rays", "coeffs", "name"),
    }
    optional = {
        opt.DestabReport: ("v_star_rational", "v_star_primitive", "sigma1", "stage1"),
        StabilityContext: ("rays", "coeffs", "name"),
    }
    for cls, names in fields.items():
        assert cls._fields == names, cls
        assert cls._field_defaults == dict.fromkeys(optional.get(cls, ())), cls


def _zero_interior(ctx):
    """Whether 0 is interior to P: every facet offset is negative."""
    return all(f.offset < 0 for f in ctx.vpoly.facets)


def test_zero_interior_flag():
    # 0 is interior to P112 and P2, so a stage-1 minimum exceeds -1 there;
    # 0 is a vertex of the square, whose minimum is -1
    assert _zero_interior(P112) and optimal_destabilizer(P112).m1 == Q(-1, 4)
    assert _zero_interior(P2) and verdict(P2) == SEMISTABLE
    assert not _zero_interior(SQUARE) and optimal_destabilizer(SQUARE).m1 == -1


def test_zero_interior_reads_the_facets_as_the_constraints(contexts):
    """Every valid inequality of P has a negative offset when 0 is interior,
    so the irredundant facets answer as the stored constraints do.  A facet
    with offset c >= 0 has mu1 = -<b, n> / (<b, n> - c) <= -1 at its normal,
    so the stage-1 minimum exceeds -1 exactly when 0 is interior."""
    rng = fresh_rng("zero-interior")
    shifted = []
    for ctx in _seeded_rational_contexts(per_dim=3):
        t = [rand_rational(rng, 2, 3) for _ in range(ctx.dim)]
        pts = [[x + y for x, y in zip(u, t)] for u in ctx.vpoly.vertices]
        shifted.append(context_from_vertices(pts))
    built = [context_from_rays(rays, name=name) for name, rays in LADDER.items()]
    flags = []
    seeded = [*_seeded_rational_contexts(), *shifted, SQUARE]
    for ctx in [*contexts.values(), *built, *seeded]:
        flags.append(all(c < 0 for _, c in ctx.hpoly.constraints))
        assert _zero_interior(ctx) == flags[-1], ctx.name
        if verdict(ctx) == UNSTABLE:
            assert (optimal_destabilizer(ctx).m1 > -1) == flags[-1], ctx.name
    assert set(flags) == {True, False}


# ---------------------------------------------------------------------------
# closed forms


def test_futaki_examples():
    rng = fresh_rng("futaki-p2")
    for _ in range(20):
        assert futaki(P2, rand_nonzero_ivec(rng, 2)) == 0
    assert futaki(P112, (0, -1)) == Q(-1, 3)
    assert futaki(P112, (2, -2)) == Q(-4, 3)


def test_futaki_linear():
    rng = fresh_rng("futaki-linear")
    for _ in range(60):
        v = rand_nonzero_ivec(rng, 2)
        w = rand_nonzero_ivec(rng, 2)
        a = Q(rng.randint(-8, 8), rng.randint(1, 5))
        b = Q(rng.randint(-8, 8), rng.randint(1, 5))
        combo = tuple(a * x + b * y for x, y in zip(v, w))
        if all(x == 0 for x in combo):
            continue
        assert futaki(P112, combo) == a * futaki(P112, v) + b * futaki(P112, w)


def test_min_norm_examples():
    assert min_norm(P112, (0, -1)) == Q(4, 3)
    assert min_norm(P112, (1, 0)) == Q(4, 3)
    assert min_norm(P2, (1, 0)) == 1
    assert support_min(P112.vpoly, (0, -1)) == -1


def test_min_norm_positive_and_convex():
    rng = fresh_rng("mn-convex")
    for ctx in (P112, P2, SQUARE):
        for _ in range(40):
            v = rand_nonzero_ivec(rng, 2)
            w = rand_nonzero_ivec(rng, 2)
            assert min_norm(ctx, v) > 0
            assert l2_norm_sq(ctx, v) > 0
            t = Q(rng.randint(1, 7), 8)
            z = tuple(t * Q(x) + (1 - t) * Q(y) for x, y in zip(v, w))
            if all(x == 0 for x in z):
                continue
            assert min_norm(ctx, z) <= t * min_norm(ctx, v) + (1 - t) * min_norm(ctx, w)


def test_l2_norm_examples():
    assert l2_norm_sq(SQUARE, (1, 0)) == Q(1, 12)
    assert l2_norm_sq(SQUARE, (1, 1)) == Q(1, 6)
    assert l2_norm_sq(P112, (0, -1)) == Q(2, 9)


def test_mu_examples():
    value = mu(P112, (0, -1))
    assert value == StabilityValue(Q(-1, 4), -1, Q(1, 2))
    assert mu(P112, (1, 0)).mu1 == Q(-1, 4)
    rng = fresh_rng("mu-p2")
    for _ in range(10):
        v = rand_nonzero_ivec(rng, 2)
        assert mu(P2, v) == StabilityValue(Q(0), 0, Q(0))


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda v: any(v)),
    st.fractions(min_value=Q(1, 12), max_value=12),
)
def test_mu_scaling_invariant(v, c):
    scaled = tuple(c * x for x in v)
    assert mu(P112, scaled) == mu(P112, v)
    assert mu_prime_trunc(P112, scaled) == mu_prime_trunc(P112, v)


def test_log_discrepancy_examples():
    assert log_discrepancy_S(P112, (0, -1)) == (1, Q(4, 3))
    a, s = log_discrepancy_S(P112, (0, -1))
    assert a / s == Q(3, 4)
    assert log_discrepancy_S(P2, (1, 0)) == (1, 1)


def test_a_minus_s_is_futaki():
    rng = fresh_rng("ams")
    for ctx in (P112, P2, SQUARE):
        for _ in range(200):
            v = rand_nonzero_ivec(rng, 2)
            a, s = log_discrepancy_S(ctx, v)
            assert a - s == futaki(ctx, v)


def test_verdicts():
    assert verdict(P2) == SEMISTABLE
    for m in range(2, 7):
        assert verdict(context_from_rays([(1, 0), (0, 1), (-1, -m)])) == UNSTABLE
    assert verdict(SQUARE) == UNSTABLE  # barycenter (1/2, 1/2) != 0


def test_zero_direction_rejected():
    for fn in (futaki, min_norm, l2_norm_sq, mu, mu_prime_trunc):
        with pytest.raises(ValueError, match="zero direction"):
            fn(P112, (0, 0))


def test_direction_length_checked(contexts):
    ctx = contexts["p1112"]

    def pairing_min(c, v):
        return support_min(c.vpoly, v)

    for fn in (futaki, min_norm, l2_norm_sq, mu, mu_prime_trunc, pairing_min):
        with pytest.raises(ValueError, match="direction has length 2, expected 3"):
            fn(ctx, (1, 0))
        with pytest.raises(ValueError, match="direction has length 4, expected 3"):
            fn(ctx, (1, 0, 0, 0))


def _seeded_rational_contexts(per_dim=6):
    """Seeded 2-5D polytopes with rational vertices, each with r > 1 and E > 1."""
    rng = fresh_rng("integer-kernel")
    out = []
    for d in range(2, 6):
        found = 0
        while found < per_dim:
            pts = [tuple(rand_rational(rng, 4, 7) for _ in range(d)) for _ in range(d + 2)]
            try:
                ctx = context_from_vertices(pts)
            except ValueError:
                continue
            e = max(x.denominator for x in ctx.moments.barycenter)
            if denominator_lcm(ctx.vpoly) > 1 and e > 1:
                out.append(ctx)
                found += 1
    return out


def test_invariants_match_fraction_oracle():
    # every invariant of the integer pairing step against the plain Fraction
    # formulas, at rational non-primitive directions and positive multiples
    rng = fresh_rng("integer-kernel-directions")
    contexts = _seeded_rational_contexts()
    assert {ctx.dim for ctx in contexts} == {2, 3, 4, 5}
    fns = (futaki, min_norm, l2_norm_sq, mu, mu_prime_trunc, log_discrepancy_S)
    for ctx in contexts:
        for _ in range(4):
            v = tuple(rand_rational(rng, 5, 9) for _ in range(ctx.dim))
            if not any(v):
                continue
            for w in (v, tuple(Q(3, 2) * x for x in v), tuple(6 * x for x in v)):
                for fn in fns:
                    assert fn(ctx, w) == getattr(stability_oracle, fn.__name__)(ctx, w), fn.__name__
            assert mu(ctx, tuple(Q(3, 2) * x for x in v)) == mu(ctx, v)
            assert futaki(ctx, tuple(Q(3, 2) * x for x in v)) == Q(3, 2) * futaki(ctx, v)


# ---------------------------------------------------------------------------
# ordering


def _mu2(sign, square):
    return StabilityValue(Q(0), sign, square)


def test_signed_square_comparator_cases():
    # sign dominates; among negatives a larger square is smaller
    assert _mu2(-1, Q(4)) < _mu2(-1, Q(1))
    assert _mu2(-1, Q(1)) > _mu2(-1, Q(4))
    assert _mu2(1, Q(1)) < _mu2(1, Q(4))
    assert _mu2(-1, Q(9)) < _mu2(0, Q(0))
    assert _mu2(0, Q(0)) < _mu2(1, Q(9))
    assert _mu2(-1, Q(2)) == _mu2(-1, Q(2))


def test_signed_zero_square_is_the_zero_value():
    # sign * sqrt(0) is 0 whatever the sign, so the three values are one
    for mu1 in (Q(-1, 3), Q(0)):
        zero = StabilityValue(mu1, 0, Q(0))
        for sign in (-1, 1):
            value = StabilityValue(mu1, sign, Q(0))
            assert value == zero and hash(value) == hash(zero), (mu1, sign)
            assert value <= zero <= value and not value < zero


def test_stability_value_lexicographic():
    a = StabilityValue(Q(-1, 2), -1, Q(1))
    b = StabilityValue(Q(-1, 4), -1, Q(100))
    c = StabilityValue(Q(-1, 4), -1, Q(1))
    assert a < b < c
    assert sorted([c, a, b]) == [a, b, c]
    assert StabilityValue(Q(0), 0, Q(0)) > c


def _random_value(rng):
    # few mu1 values and squares, so ties in mu1 and equal squares of both signs recur
    mu1 = Q(rng.randint(-2, 0), rng.randint(1, 2))
    sign = rng.choice((-1, 0, 1))
    return StabilityValue(mu1, sign, Q(rng.randint(1, 4), rng.randint(1, 2)))


def test_stability_value_order_matches_exact_reals():
    # sign * sqrt(sq) is increasing in sign * sq, so (mu1, sign * sq) orders the pairs
    rng = fresh_rng("stability-value-order")
    values = [_random_value(rng) for _ in range(40)]
    for a in values:
        for b in values:
            ka = (a.mu1, a.mu2_sign * a.mu2_sq)
            kb = (b.mu1, b.mu2_sign * b.mu2_sq)
            assert (a == b, a != b) == (ka == kb, ka != kb), (a, b)
            assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb), (a, b)
    assert sorted(values) == sorted(values, key=lambda x: (x.mu1, x.mu2_sign * x.mu2_sq))


def test_stability_value_hash_follows_equality():
    a, b = StabilityValue(Q(0), 0, Q(5)), StabilityValue(Q(0), 0, Q(0))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    rng = fresh_rng("stability-value-hash")
    values = [_random_value(rng) for _ in range(40)]
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    assert StabilityValue(Q(0), 1, Q(1)) != StabilityValue(Q(0), -1, Q(1))


def test_comparator_matches_high_precision_floats():
    mpmath.mp.dps = 50
    rng = fresh_rng("mp-cmp")
    pool = []
    for _ in range(400):
        v = rand_nonzero_ivec(rng, 2, 30)
        f = futaki(P112, v)
        if f >= 0:
            continue
        pool.append((f, l2_norm_sq(P112, v)))
    assert len(pool) > 100
    for _ in range(1000):
        f1, q1 = rng.choice(pool)
        f2, q2 = rng.choice(pool)
        a, b = _mu2(-1, f1 * f1 / q1), _mu2(-1, f2 * f2 / q2)
        x1 = mpmath.mpf(f1.numerator) / f1.denominator / mpmath.sqrt(
            mpmath.mpf(q1.numerator) / q1.denominator
        )
        x2 = mpmath.mpf(f2.numerator) / f2.denominator / mpmath.sqrt(
            mpmath.mpf(q2.numerator) / q2.denominator
        )
        if a == b:
            assert abs(x1 - x2) < mpmath.mpf("1e-40")
        else:
            assert abs(x1 - x2) > mpmath.mpf("1e-45")
            assert (x1 < x2) == (a < b)


def test_quasi_convexity_sampled():
    rng = fresh_rng("quasiconvex-unit")
    strict = run_quasi_convexity(P112, rng, 150)
    assert strict > 0


# ---------------------------------------------------------------------------
# truncated invariant


def test_truncated_invariant_examples():
    rng = fresh_rng("trunc-p2")
    for _ in range(10):
        v = rand_nonzero_ivec(rng, 2)
        assert mu_prime_trunc(P2, v) == StabilityValue(Q(0), 0, Q(0))
    t = mu_prime_trunc(P112, (0, -1))
    assert t.mu1 == Q(-1, 4)
    assert t.mu2_sign == 1
    assert t.mu2_sq == Q(1, 128)  # (1/4 * sqrt(2/9) / (4/3))^2
    assert mu_prime_trunc(P112, (0, -3)) == t


def test_truncated_invariant_ordering():
    lo = StabilityValue(Q(-1, 2), 1, Q(1, 8))
    hi = StabilityValue(Q(-1, 4), 1, Q(1, 128))
    assert lo < hi
    assert StabilityValue(Q(-1, 4), 1, Q(1, 64)) > hi
