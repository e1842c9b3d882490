"""Continuous moments and the discrete lattice-point series they bound."""

import itertools
import math
import re
from fractions import Fraction as Q

import numpy as np
import pytest

import linalg_oracle
import moments_oracle
from conftest import fresh_rng, from_apex, rand_nonzero_ivec, rand_rational
from moments_oracle import denominator_lcm
from stability_oracle import support_min
from toricstab.exactgeom import dot, facets_from_vertices
from toricstab.polytopes import vpolytope
from toricstab.lattice import LatticeSeries, SeriesRow, extrapolate, lattice_series
from toricstab import moments
from toricstab.moments import is_positive_definite, moment_data
from toricstab.optimizer import optimal_destabilizer
from toricstab.stability import context_from_constraints, context_from_rays, context_from_vertices

SQUARE = vpolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
P2 = vpolytope([(-1, -1), (2, -1), (-1, 2)])
P112 = vpolytope([(-1, -1), (-1, 1), (3, -1)])


def test_volume_examples():
    assert moment_data(SQUARE).volume == 1
    assert moment_data(P112).volume == 4
    assert moment_data(P2).volume == Q(9, 2)


def test_barycenter_examples():
    assert moment_data(P2).barycenter == (0, 0)
    assert moment_data(P112).barycenter == (Q(1, 3), Q(-1, 3))
    assert moment_data(SQUARE).barycenter == (Q(1, 2), Q(1, 2))


def test_covariance_square():
    assert moment_data(SQUARE).covariance == ((Q(1, 12), Q(0)), (Q(0), Q(1, 12)))


def test_covariance_interval():
    # raw second moment of [0,1] is 1/3; recentering leaves 1/3 - 1/4 = 1/12
    seg = vpolytope([(Q(0),), (Q(1),)])
    md = moment_data(seg)
    assert md.covariance == ((Q(1, 12),),)
    raw = md.covariance[0][0] + md.barycenter[0] ** 2
    assert raw == Q(1, 3)


def test_a_point_has_the_moments_of_its_counting_measure():
    # the one polytope of ambient dimension 0 is a point: volume 1, and an
    # empty barycenter and covariance, which make its context semistable
    assert moment_data(vpolytope([()])) == (Q(1), (), ())
    ctx = context_from_vertices([()], name="point")
    assert ctx.moments == (Q(1), (), ()) and is_positive_definite(ctx.moments.covariance)
    assert optimal_destabilizer(ctx).verdict == "semistable"


def test_moment_data_certifies_each_simplex_volume(monkeypatch):
    # the scaled vertices collapsed to one point: the first simplex is flat
    import toricstab.moments as moments_mod
    import toricstab.stability as stability_mod

    real = moments_mod._moment_data

    def collapsed(p, z, r):
        return real(p, [z[0]] * len(z), r)

    flat = "moment_data: simplex 0x7 has zero volume"
    monkeypatch.setattr(moments_mod, "_moment_data", collapsed)
    with pytest.raises(moments_mod.CertificateError, match=f"^{flat}$"):
        moment_data(P112)
    # the context build names the context it was building
    monkeypatch.setattr(stability_mod, "_moment_data", collapsed)
    with pytest.raises(moments_mod.CertificateError, match=f"^p112: {flat}$"):
        context_from_rays([(1, 0), (0, 1), (-1, -2)], name="p112")
    # and an unnamed one no name, not "None"
    with pytest.raises(moments_mod.CertificateError, match=f"^{flat}$"):
        context_from_rays([(1, 0), (0, 1), (-1, -2)])


def test_moment_data_certifies_a_simplex_of_rank_d_minus_one(monkeypatch):
    # a facet's four coplanar vertices, put first as one simplex of the cube: its
    # edges have rank d - 1, the boundary of the check
    real = moments._triangulation
    cube = vpolytope(itertools.product((0, 1), repeat=3))
    facet = cube.facets[0].members
    assert facet.bit_count() == 4
    monkeypatch.setattr(moments, "_triangulation", lambda p: [facet, *real(p)])
    flat = f"moment_data: simplex {facet:#x} has zero volume"
    with pytest.raises(moments.CertificateError, match=f"^{flat}$"):
        moment_data(cube)


def test_covariance_weighted_triangle_exact():
    assert moment_data(P112).covariance == ((Q(8, 9), Q(-2, 9)), (Q(-2, 9), Q(2, 9)))


def test_covariance_weighted_triangle_monte_carlo():
    # independent stochastic check: uniform samples in the bounding box,
    # kept when under the hypotenuse x + 2y <= 1
    rng = np.random.default_rng(20230817)
    pts = rng.uniform((-1, -1), (3, 1), size=(10**7, 2))
    sel = pts[pts[:, 0] + 2 * pts[:, 1] <= 1]
    vol = 8 * sel.shape[0] / pts.shape[0]
    mean = sel.mean(axis=0)
    cov = np.cov(sel.T, bias=True)
    assert abs(vol - 4) < 4e-3
    assert np.allclose(mean, [1 / 3, -1 / 3], atol=1e-3)
    assert np.allclose(cov, [[8 / 9, -2 / 9], [-2 / 9, 2 / 9]], atol=2e-3)


def test_moments_triangulation_independent():
    for p in (P2, P112, SQUARE):
        base = moment_data(p)
        for apex in range(1, len(p.vertices)):
            other = moment_data(from_apex(p, apex))
            assert other.barycenter == base.barycenter
            assert other.covariance == base.covariance
            assert other.volume == base.volume


def _unit(d, i, s=1):
    return tuple(s if j == i else 0 for j in range(d))


APEX_FANS = {
    "p1^4+1100": [_unit(4, i, s) for i in range(4) for s in (1, -1)] + [(1, 1, 0, 0)],
    "p1xp11112": [_unit(5, 0), _unit(5, 0, -1)]
    + [_unit(5, i) for i in range(1, 5)]
    + [(0, -1, -1, -1, -2)],
}


@pytest.mark.parametrize("name", sorted(APEX_FANS))
def test_moment_data_same_for_every_apex(name):
    ctx = context_from_rays(APEX_FANS[name], name=name)
    for apex in range(len(ctx.vpoly.vertices)):
        assert moment_data(from_apex(ctx.vpoly, apex)) == ctx.moments
    # the hull built from the vertices alone gives the same moments
    assert context_from_vertices(ctx.vpoly.vertices).moments == ctx.moments


def _cube(d):
    return [_unit(d, i, s) for i in range(d) for s in (1, -1)]


# the benchmark's scaling ladder
LADDER = {
    **{f"p11m{m}": [(1, 0), (0, 1), (-1, -m)] for m in (2, 3, 5, 8, 13, 21)},
    **{f"p1^{d}": _cube(d) for d in (2, 3, 4)},
    "p1^3+110": _cube(3) + [(1, 1, 0)],
    "p1^3+111": _cube(3) + [(1, 1, 1)],
    "p11112": [_unit(4, i) for i in range(4)] + [(-1, -1, -1, -2)],
    "bl-p4-1100": [_unit(4, i) for i in range(4)] + [(-1, -1, -1, -1), (1, 1, 0, 0)],
    "p1xp3+0110": [_unit(4, 0), _unit(4, 0, -1), _unit(4, 1), _unit(4, 2), _unit(4, 3)]
    + [(0, -1, -1, -1), (0, 1, 1, 0)],
    **APEX_FANS,
}


def _rational_polytope(rng, d):
    # one or two vertex denominators in 2..6 per polytope, so r varies
    dens = rng.sample(range(2, 7), rng.randint(1, 2))
    while True:
        npts = d + 1 + rng.randint(0, 3)
        pts = [
            tuple(Q(rng.randint(-9, 9), rng.choice(dens)) for _ in range(d)) for _ in range(npts)
        ]
        p = vpolytope(pts)
        if p.dim == d:
            return p


@pytest.mark.parametrize("d,count", [(1, 30), (2, 60), (3, 40), (4, 30), (5, 15)])
def test_moment_data_matches_oracle(d, count):
    rng = fresh_rng(f"moments-oracle-{d}")
    lcms = set()
    for _ in range(count):
        p = _rational_polytope(rng, d)
        lcms.add(denominator_lcm(p))
        for apex in range(len(p.vertices)):
            q = from_apex(p, apex)
            assert moment_data(q) == moments_oracle.moment_data(q)
    # the scale r = denominator_lcm takes several values besides 1
    assert len(lcms - {1}) >= 3


def test_moment_data_matches_oracle_on_ladder_and_corpus(contexts):
    ladder = {name: context_from_rays(rays, name=name) for name, rays in LADDER.items()}
    assert len(ladder) == 16
    for ctx in [*ladder.values(), *contexts.values()]:
        assert ctx.moments == moments_oracle.moment_data(ctx.vpoly), ctx.name


def _leading_difference(column, order):
    """The first entry of the differences of the given order of column."""
    for _ in range(order):
        column = [b - a for a, b in zip(column, column[1:])]
    return column[0]


@pytest.mark.parametrize("d,count,low,high,dens", [
    (2, 20, -4, 4, (1, 2, 3)),
    (3, 12, -2, 2, (1, 2, 3)),
    (4, 8, -1, 1, (1, 2)),
])
def test_lattice_series_certifies_moment_data(d, count, low, high, dens):
    # over t r P the count, weight sum and weight square sum are polynomials in
    # t of degree d, d+1 and d+2 with leading coefficients r^d vol,
    # r^(d+1) vol <b, v> and r^(d+2) vol (v^T Cov v + <b, v>^2) (Brion-Vergne),
    # and the differences of order k of a polynomial of degree k are k! times
    # its leading coefficient.  No triangulation is read, so a simplex lost or
    # doubled in moment_data shows.
    rng = fresh_rng(f"moments-by-series-{d}")
    for _ in range(count):
        while True:
            pts = [
                tuple(Q(rng.randint(low, high), rng.choice(dens)) for _ in range(d))
                for _ in range(d + 1 + rng.randint(0, 2))
            ]
            p = vpolytope(pts)
            if p.dim == d:
                break
        v = rand_nonzero_ivec(rng, d, 3)
        m, r = moment_data(p), denominator_lcm(p)
        s = lattice_series(p, v, (d + 3) * r)
        bv = dot(m.barycenter, v)
        vcv = sum(x * dot(row, v) for x, row in zip(v, m.covariance))
        columns = zip(*((row.count, row.weight_sum, row.weight_sq_sum) for row in s.rows))
        expected = (m.volume, m.volume * bv, m.volume * (vcv + bv * bv))
        for j, (column, lead) in enumerate(zip(columns, expected)):
            top = _leading_difference(list(column), d + j)
            assert Q(top, math.factorial(d + j)) == r ** (d + j) * lead, (pts, v, j)


def test_redundant_half_space_drops_out():
    # the box [0,1] x [0,2] x [0,3]; x + y >= 0 touches it only on the edge x = y = 0
    box = [(_unit(3, i), 0) for i in range(3)] + [(_unit(3, i, -1), -(i + 1)) for i in range(3)]
    ctx = context_from_constraints(box + [((1, 1, 0), 0)])
    assert ctx.hpoly == context_from_constraints(box).hpoly
    assert len(ctx.hpoly.constraints) == len(ctx.vpoly.facets) == 6
    assert ctx.moments.volume == 6
    assert ctx.moments.barycenter == (Q(1, 2), 1, Q(3, 2))
    for apex in range(len(ctx.vpoly.vertices)):
        assert moment_data(from_apex(ctx.vpoly, apex)) == ctx.moments


def test_covariance_positive_definite_on_corpus(contexts):
    for ctx in contexts.values():
        cov = ctx.moments.covariance
        assert is_positive_definite(cov)
        assert all(cov[i][j] == cov[j][i] for i in range(ctx.dim) for j in range(ctx.dim))
        # leading principal minors, spelled out
        minor = cov[0][0]
        assert minor > 0
        if ctx.dim >= 2:
            assert cov[0][0] * cov[1][1] - cov[0][1] * cov[1][0] > 0


def _congruent(a, diag):
    """A^T diag(diag) A, A given as rows."""
    n = len(a[0])
    return [[sum(dk * r[i] * r[j] for dk, r in zip(diag, a)) for j in range(n)] for i in range(n)]


def _random_rows(rng, k, n):
    return [[rand_rational(rng, 3, 4) for _ in range(n)] for _ in range(k)]


def _sylvester(m):
    return all(linalg_oracle.det([row[:k] for row in m[:k]]) > 0 for k in range(1, len(m) + 1))


@pytest.mark.parametrize(
    "kind", ["definite", "singular", "negative", "indefinite", "zero-corner", "symmetric"]
)
def test_positive_definite_matches_sylvester(kind):
    # seeded symmetric rational 1-5D matrices; every kind but the last has a
    # known answer: A^T D A with A invertible and D > 0 diagonal is definite,
    # with A of rank < n singular semidefinite, with D < 0 negative definite
    # and with D of both signs indefinite; a zero (1,1) entry is never definite
    rng = fresh_rng(f"positive-definite-{kind}")
    answers = set()
    for _ in range(60):
        n = rng.randint(2 if kind == "indefinite" else 1, 5)
        a = _random_rows(rng, n, n)
        while linalg_oracle.rank(a) < n:
            a = _random_rows(rng, n, n)
        diag = [Q(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(n)]
        if kind == "definite":
            m = _congruent(a, diag)
        elif kind == "singular":
            k = rng.randint(0, n - 1)
            m = _congruent(_random_rows(rng, k, n), diag) if k else [[Q(0)] * n] * n
        elif kind == "negative":
            m = _congruent(a, [-x for x in diag])
        elif kind == "indefinite":
            i = rng.randrange(n)
            m = _congruent(a, [-x if j == i else x for j, x in enumerate(diag)])
        else:
            m = _random_rows(rng, n, n)
            m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            if kind == "zero-corner" or rng.random() < 0.5:
                # diagonally dominant, so definite but for the corner
                m = [[x + (i == j) * 5 * n for j, x in enumerate(row)] for i, row in enumerate(m)]
            if kind == "zero-corner":
                m[0][0] = Q(0)
        expected = _sylvester(m)
        if kind != "symmetric":
            assert expected == (kind == "definite"), m
        assert is_positive_definite(m) == expected, m
        answers.add(expected)
    assert answers == ({True, False} if kind == "symmetric" else {kind == "definite"})


def test_positive_definite_refuses_a_non_symmetric_matrix():
    # Sylvester's criterion holds only for symmetric matrices: both leading minors
    # of [[1, 4], [0, 1]] are 1, yet x = (1, -1) gives x^T A x = -2
    for m in ([[1, 4], [0, 1]], [[2, Q(1, 2)], [Q(1, 3), 2]], [[1, 0, 0], [0, 1, 0], [1, 0, 1]]):
        with pytest.raises(ValueError, match="^matrix is not symmetric$"):
            is_positive_definite(m)
    assert is_positive_definite([[1, Q(1, 2)], [Q(1, 2), 1]])


def test_sylvester_pivots_are_the_leading_minors():
    # seeded symmetric integer 1-6D matrices: A^T D A with D > 0 diagonal, singular when A
    # has fewer than n rows, or random symmetric entries, half diagonally dominant.  With
    # no row swaps pivot k is the leading principal minor of order k + 1, so `_sylvester`
    # returns rows pivoting on those minors when all are positive, and None when one is not
    rng = fresh_rng("sylvester-pivots")
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 6)
        if rng.random() < 0.4:
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
            m = _congruent(a, [rng.randint(1, 4) for _ in a]) if a else [[0] * n] * n
        else:
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            if rng.random() < 0.5:
                m = [[x + (i == j) * 4 * n for j, x in enumerate(row)] for i, row in enumerate(m)]
        minors = [linalg_oracle.det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
        reduced = moments._sylvester(m)
        if min(minors) > 0:
            assert [(k, x[k]) for k, x in reduced] == list(enumerate(minors)), m
        else:
            assert reduced is None, m
        seen.add((min(minors) > 0) - (min(minors) < 0))  # the sign of the least minor
    assert seen == {1, 0, -1}


def test_support_min_examples():
    assert support_min(P112, (0, -1)) == -1
    assert support_min(P2, (1, 0)) == -1
    with pytest.raises(ValueError, match="zero direction"):
        support_min(P2, (0, 0))


# ---------------------------------------------------------------------------
# lattice series


def brute_points(p, m, interior=False):
    """Integer points of m * P, or of its interior, by direct box enumeration
    against the facet description: <n, u> >= ceil(m c), or > m c."""
    ranges = [range(math.floor(min(x) * m), math.ceil(max(x) * m) + 1) for x in zip(*p.vertices)]
    bounds = [
        (n, math.floor(m * c) + 1 if interior else math.ceil(m * c))
        for n, c in facets_from_vertices(p).constraints
    ]
    return [u for u in itertools.product(*ranges) if all(dot(n, u) >= b for n, b in bounds)]


def brute_sums(p, v, m, interior=False):
    vals = [dot(u, v) for u in brute_points(p, m, interior)]
    return len(vals), sum(vals), sum(x * x for x in vals)


def brute_rows(p, v, ms):
    """Direct box enumeration against the facet description."""
    out = []
    for m in ms:
        vals = [dot(u, v) for u in brute_points(p, m)]
        out.append((m, len(vals), sum(vals), sum(x * x for x in vals), min(vals)))
    return out


def test_series_plane_triangle_counts():
    s = lattice_series(P2, (1, 0), 4)
    got = [(r.m, r.count, r.weight_sum) for r in s.rows]
    assert got == [(1, 10, 0), (2, 28, 0), (3, 55, 0), (4, 91, 0)]


def test_series_square_corners():
    s = lattice_series(SQUARE, (1, 1), 3)
    assert s.rows[0] == (1, 4, 4, 6, 0)


def test_series_weighted_triangle_skew_direction():
    s = lattice_series(P112, (2, -3), 3)
    assert [tuple(r) for r in s.rows] == [
        (1, 9, 20, 198, -5),
        (2, 25, 100, 1650, -10),
        (3, 49, 280, 6468, -15),
    ]
    assert [tuple(r) for r in s.rows] == brute_rows(P112, (2, -3), [1, 2, 3])


def test_series_matches_brute_force_random():
    rng = fresh_rng("series-brute")
    for _ in range(12):
        while True:
            pts = [
                tuple(Q(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(2))
                for _ in range(5)
            ]
            p = vpolytope(pts)
            if p.dim == 2:
                break
        v = rand_nonzero_ivec(rng, 2, 4)
        r = denominator_lcm(p)
        s = lattice_series(p, v, 4 * r)
        assert [tuple(row) for row in s.rows] == brute_rows(p, v, [r, 2 * r, 3 * r, 4 * r])


@pytest.mark.parametrize("d,low,high", [(2, -3, 3), (3, -1, 1), (4, 0, 1)])
def test_series_rows_past_the_counted_dilates_match_brute_force(d, low, high):
    # only the dilates t <= (d+4)//2 and their interiors are counted and every
    # later row comes from the difference tables, so compare up to (d+8) r; the
    # vertex numerators stay small because the brute force visits the whole box
    rng = fresh_rng(f"series-extended-{d}")
    for den in (1, 2, 3):
        while True:
            pts = [tuple(Q(rng.randint(low, high), den) for _ in range(d)) for _ in range(d + 2)]
            p = vpolytope(pts)
            if p.dim == d:
                break
        r = denominator_lcm(p)
        ms = [t * r for t in range(1, d + 9)]
        v = rand_nonzero_ivec(rng, d, 4)
        if den == 2:
            v = tuple(x * 10**12 + rng.randint(-9, 9) for x in v)
        s = lattice_series(p, v, ms[-1])
        assert [tuple(row) for row in s.rows] == brute_rows(p, v, ms), (pts, v)


def test_series_counts_k_closed_and_k_interior_dilates(monkeypatch, contexts):
    import toricstab.lattice as lattice_mod

    scan = lattice_mod._dilate_sums
    seen = []

    def record(box, cons, t, axis, vi, interior=False):
        seen.append((t, interior))
        return scan(box, cons, t, axis, vi, interior)

    monkeypatch.setattr(lattice_mod, "_dilate_sums", record)
    p1112 = contexts["p1112"].vpoly
    # k = (d+4)//2 closed dilates, and their interiors only when rows past k
    # are extended
    for p, v, m_max, closed, interior in (
        (P112, (2, -3), 40, [1, 2, 3], [1, 2, 3]),
        (P112, (2, -3), 5, [1, 2, 3], [1, 2, 3]),
        (P112, (2, -3), 3, [1, 2, 3], []),
        (p1112, (1, 1, 1), 60, [1, 2, 3], [1, 2, 3]),
    ):
        seen.clear()
        assert len(lattice_series(p, v, m_max).rows) == m_max // denominator_lcm(p)
        assert seen == [(t, False) for t in closed] + [(t, True) for t in interior]


def lagrange(xs, ys, x):
    """Value at x of the polynomial through the points (xs, ys)."""
    total = Q(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = Q(yi)
        for j, xj in enumerate(xs):
            if j != i:
                term *= Q(x - xj, xi - xj)
        total += term
    return total


@pytest.mark.parametrize(
    "d,low,high,n", [(1, -5, 5, 3), (2, -3, 3, 4), (3, -1, 1, 5), (4, -1, 1, 6), (5, 0, 1, 16)]
)
def test_series_reciprocity_matches_brute_force(monkeypatch, d, low, high, n):
    # Ehrhart-Macdonald reciprocity: the polynomial S_j through the closed sums
    # at t = 0..d+2 takes at -t the interior sum at t times (-1)^(d+j); the scan's
    # closed and interior sums at t = 1..k and the rows it certifies from them
    # are compared with box enumeration, for r up to 3 and weights near 10^12;
    # n vertices, many in 5D, so that the interiors of small dilates hold points
    import toricstab.lattice as lattice_mod

    scan = lattice_mod._dilate_sums
    seen = {}

    def record(box, cons, t, axis, vi, interior=False):
        seen[t, interior] = scan(box, cons, t, axis, vi, interior)
        return seen[t, interior]

    monkeypatch.setattr(lattice_mod, "_dilate_sums", record)
    rng = fresh_rng(f"series-reciprocity-{d}")
    k = (d + 4) // 2
    for den in (1, 2, 3):
        while True:
            pts = [tuple(Q(rng.randint(low, high), den) for _ in range(d)) for _ in range(n)]
            p = vpolytope(pts)
            if p.dim == d:
                break
        r = denominator_lcm(p)
        v = rand_nonzero_ivec(rng, d, 4)
        if den == 2:
            v = tuple(x * 10**12 + rng.randint(-9, 9) for x in v)
        ts = range(d + 3)
        closed = [brute_sums(p, v, t * r) for t in ts]
        assert closed[0] == (1, 0, 0)
        for t in (1, 2, 3):
            inner = brute_sums(p, v, t * r, interior=True)
            for j, column in enumerate(zip(*closed)):
                assert lagrange(ts, column, -t) == (-1) ** (d + j) * inner[j], (pts, v, t, j)
        seen.clear()
        rows = lattice_series(p, v, (d + 2) * r).rows
        assert [(x.count, x.weight_sum, x.weight_sq_sum) for x in rows] == closed[1:], (pts, v)
        assert sorted(seen) == [(t, i) for t in range(1, k + 1) for i in (False, True)]
        for (t, interior), sums in seen.items():
            assert sums == brute_sums(p, v, t * r, interior), (pts, v, t, interior)


def test_series_corrupt_dilate_fails_the_certificate(monkeypatch):
    import toricstab.lattice as lattice_mod

    scan = lattice_mod._dilate_sums

    def one_point_short(box, cons, m, axis, vi, interior=False):
        n, w, q = scan(box, cons, m, axis, vi, interior)
        return (n - 1, w, q) if m == 3 and not interior else (n, w, q)

    monkeypatch.setattr(lattice_mod, "_dilate_sums", one_point_short)
    # up to k = (d+4)//2 = 3 dilates every row is counted and nothing is extended
    assert lattice_series(P2, (1, 0), 3).rows[2].count == 54
    with pytest.raises(
        lattice_mod.CertificateError,
        match="^lattice series: differences of order 3 of count are not zero$",
    ):
        lattice_series(P2, (1, 0), 4)


def test_series_corrupt_interior_dilate_fails_the_certificate(monkeypatch):
    import toricstab.lattice as lattice_mod

    scan = lattice_mod._dilate_sums

    def one_square_off(box, cons, m, axis, vi, interior=False):
        n, w, q = scan(box, cons, m, axis, vi, interior)
        return (n, w, q + 1) if m == 2 and interior else (n, w, q)

    monkeypatch.setattr(lattice_mod, "_dilate_sums", one_square_off)
    # up to k dilates no interior is walked, so nothing is corrupted
    rows = lattice_series(P2, (1, 0), 3).rows
    assert [tuple(x) for x in rows] == brute_rows(P2, (1, 0), [1, 2, 3])
    with pytest.raises(
        lattice_mod.CertificateError,
        match="^lattice series: differences of order 5 of weight_sq_sum are not zero$",
    ):
        lattice_series(P2, (1, 0), 4)


def test_series_big_direction_uses_exact_integers():
    # huge components force the arbitrary-precision path; results must scale
    big = 10**12
    small = lattice_series(P112, (2, -3), 5)
    scaled = lattice_series(P112, (2 * big, -3 * big), 5)
    for a, b in zip(small.rows, scaled.rows):
        assert b.count == a.count
        assert b.weight_sum == a.weight_sum * big
        assert b.weight_sq_sum == a.weight_sq_sum * big * big
        assert b.weight_min == a.weight_min * big


def test_series_rows_at_denominator_multiples(contexts):
    p113 = contexts["p113"].vpoly
    assert denominator_lcm(p113) == 3
    s = lattice_series(p113, (0, -1), 12)
    assert [r.m for r in s.rows] == [3, 6, 9, 12]
    half = contexts["p2-halfline"].vpoly
    assert denominator_lcm(half) == 2
    assert [r.m for r in s.rows][0] == 3


def test_series_input_validation():
    with pytest.raises(ValueError, match="zero direction"):
        lattice_series(P2, (0, 0), 9)
    with pytest.raises(ValueError, match=r"^direction entry Fraction\(1, 2\) is not an integer$"):
        lattice_series(P2, (Q(1, 2), Q(0)), 9)
    with pytest.raises(ValueError, match="insufficient series length"):
        lattice_series(P2, (1, 0), 2)
    with pytest.raises(ValueError, match="^not full-dimensional$"):
        lattice_series(vpolytope([(0, 0), (1, 1)]), (1, 0), 9)
    for bad in (None, "x", [1], (), math.inf, math.nan, 9.5, Q(19, 2)):
        with pytest.raises(ValueError, match=f"^m_max {re.escape(repr(bad))} is not an integer$"):
            lattice_series(P2, (1, 0), bad)
    # m_max equal to its int reads as that int
    same = lattice_series(P2, (1, 0), 9)
    assert lattice_series(P2, (1, 0), 9.0) == lattice_series(P2, (1, 0), Q(9)) == same


def test_series_names_a_direction_entry_as_given():
    # the entries are checked as integers before they become Fractions
    for v, named in [((0.5, 0), "0.5"), ((0, "x"), "'x'"), ((1, 2.5, 0), "2.5")]:
        with pytest.raises(ValueError, match=f"^direction entry {named} is not an integer$"):
            lattice_series(P2, v, 9)
    assert lattice_series(P2, (2.0, Q(-1)), 9) == lattice_series(P2, (2, -1), 9)
    # a str, bytes or int is no vector, not one of its characters, bytes or digits
    for v in (b"\x01\x00", "10", 10):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(v))} is not a vector of rationals$"):
            lattice_series(P2, v, 9)


def test_series_refusal_shortens_a_count_str_cannot_convert():
    # a count that str() converts is named verbatim, a longer one (10^5000 rows)
    # by a power of ten below it
    with pytest.raises(ValueError, match="^20001 rows exceed the limit of 20000 rows$"):
        lattice_series(P2, (1, 0), 20001)
    message = "^more than 10\\^4999 rows exceed the limit of 20000 rows$"
    with pytest.raises(ValueError, match=message):
        lattice_series(P2, (1, 0), 10**5000)


def test_lambda_min_rows_exact():
    for p, v in ((P112, (0, -1)), (P112, (1, 0)), (P2, (1, 0)), (SQUARE, (2, 1))):
        target = support_min(p, v)
        for row in lattice_series(p, v, 6).rows:
            assert Q(row.weight_min, row.m) == target


def test_series_error_envelope(contexts):
    # |w_m/(m N_m) - <b, v>| <= C/m with C calibrated on the first half of
    # the rows and holding on the second half; same shape for the second
    # moments against v' Cov v + <b, v>^2
    for ctx in contexts.values():
        p = ctx.vpoly
        b = ctx.moments.barycenter
        cov = ctx.moments.covariance
        r = denominator_lcm(p)
        rng = fresh_rng(f"envelope-{ctx.name}")
        for _ in range(20):
            v = rand_nonzero_ivec(rng, ctx.dim, 3)
            f_target = dot(b, v)
            q_target = dot(v, [dot(row, v) for row in cov]) + f_target * f_target
            rows = lattice_series(p, v, 12 * r).rows
            f_err = [abs(Q(row.weight_sum, row.m * row.count) - f_target) * row.m for row in rows]
            q_err = [
                abs(Q(row.weight_sq_sum, row.m**2 * row.count) - q_target) * row.m
                for row in rows
            ]
            for errs in (f_err, q_err):
                cal, hold = errs[:6], errs[6:]
                bound = 2 * max(cal)
                if bound == 0:
                    assert all(e == 0 for e in hold)
                else:
                    assert all(e <= bound for e in hold)


# ---------------------------------------------------------------------------
# extrapolation


def test_extrapolate_balanced_triangle_is_exact_zero():
    res = extrapolate(lattice_series(P2, (1, 0), 12))
    assert res.F0_est == 0
    assert all(x == 0 for x in res.residuals)


def test_extrapolate_weighted_triangle():
    res = extrapolate(lattice_series(P112, (0, -1), 60))
    assert abs(res.F0_est - Q(1, 3)) <= Q(1, 1000)
    q_target = Q(2, 9) + Q(1, 9)
    assert abs(res.Q0_est - q_target) / q_target <= Q(1, 1000)


def test_extrapolate_centered_square():
    centered = vpolytope(
        [(Q(-1, 2), Q(-1, 2)), (Q(1, 2), Q(-1, 2)), (Q(-1, 2), Q(1, 2)), (Q(1, 2), Q(1, 2))]
    )
    res = extrapolate(lattice_series(centered, (1, 0), 60))
    assert abs(res.F0_est) <= Q(1, 1000)
    assert abs(res.Q0_est - Q(1, 12)) <= Q(1, 1000)


def test_extrapolate_matches_pairwise_fractions():
    # one Fraction per residual from integer pair numerators, against per-row
    # Fractions, on counted series of rational polytopes and on random rows
    rng = fresh_rng("extrapolate-oracle")
    series = []
    for d in (2, 3):
        for _ in range(6):
            pts = [tuple(rand_rational(rng, 3, 4) for _ in range(d)) for _ in range(d + 2)]
            try:
                p = vpolytope(pts)
            except ValueError:
                continue
            if p.dim == d:
                r = denominator_lcm(p)
                series.append(lattice_series(p, rand_nonzero_ivec(rng, d, 3), 12 * r))
    assert any(s.r > 1 for s in series)
    for _ in range(30):
        rows = [
            SeriesRow(
                m, rng.randint(1, 10**6), rng.randint(-(10**9), 10**9), rng.randint(0, 10**12), 0
            )
            for m in range(3, 3 * rng.randint(3, 12) + 1, 3)
        ]
        series.append(LatticeSeries(3, tuple(rows)))
    for s in series:
        assert extrapolate(s) == moments_oracle.extrapolate(s)


def test_extrapolate_needs_rows():
    full = lattice_series(P2, (1, 0), 4)
    with pytest.raises(ValueError, match="insufficient series length"):
        extrapolate(LatticeSeries(full.r, full.rows[:2]))


def test_extrapolate_refuses_what_is_not_a_series():
    full = lattice_series(P2, (1, 0), 9)
    for bad in (None, 5, (1, 2), full.rows, tuple(full)):
        with pytest.raises(ValueError, match=re.escape(f"series {bad!r} is not a LatticeSeries")):
            extrapolate(bad)
    assert extrapolate(LatticeSeries(*full)) == extrapolate(full)
