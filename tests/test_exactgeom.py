"""Exact geometry kernel: duality, enumeration, fans, cones, triangulation."""

import itertools
import math
import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle
import toricstab.exactgeom as eg
from conftest import fresh_rng, from_apex, rand_nonzero_ivec, rand_rational
from hull_oracle import (
    cone_relint_contains,
    extreme_rays_by_subsets,
    faces_by_subsets,
    facets_by_subsets,
    hull_vertices,
    vertices_by_subsets,
)
from linalg_oracle import rank, vadd
from moments_oracle import simplex_volume
from toricstab.exactgeom import (
    ConeH,
    HPolytope,
    VPolytope,
    affine_dim,
    dot,
    dual_polytope,
    facets_from_vertices,
    normal_cone,
    primitive,
    vneg,
    vsub,
)
from toricstab.polytopes import (
    extreme_rays,
    normal_fan,
    triangulate,
    vertices_from_facets,
    vpolytope,
)
from toricstab.limits import weight_polytope, weighted_point
from toricstab.moments import moment_data
from toricstab.stability import (
    context_from_constraints,
    context_from_rays,
    context_from_vertices,
)

P2_VERTS = ((-1, -1), (-1, 2), (2, -1))
P112_VERTS = ((-1, -1), (-1, 1), (3, -1))


def qtuple(*xs):
    return tuple(Q(x) for x in xs)


# ---------------------------------------------------------------------------
# primitive vectors


def test_primitive_examples():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((Q(1, 3), Q(-1, 3))) == (1, -1)
    assert primitive((0, Q(-5, 2))) == (0, -1)
    with pytest.raises(ValueError):
        primitive((0, 0))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-30, 30), min_size=2, max_size=4),
    st.integers(1, 12),
)
def test_primitive_scale_invariance(vec, c):
    if not any(vec):
        return
    assert primitive(vec) == primitive([c * x for x in vec])
    assert primitive(vec) == primitive([Q(x, c) for x in vec])


# ---------------------------------------------------------------------------
# linear algebra kernel


def random_matrix(rng):
    """Rows and width of an m x n rational matrix, m and n in 0..6, mixing ints and Fractions;
    a third of them rank-deficient (rows combined from fewer base rows), some
    with a zero column."""
    m, n = rng.randint(0, 6), rng.randint(0, 6)

    def entry():
        return rng.randint(-5, 5) if rng.random() < 0.3 else rand_rational(rng)

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m and rng.random() < 0.35:
        base = rows[: rng.randint(1, m)]
        rows = [
            [sum(rng.randint(-2, 2) * b[j] for b in base) for j in range(n)] for _ in range(m)
        ]
    if n and rng.random() < 0.2:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    return rows, n


def test_kernel_matches_fraction_oracle():
    # `_reduce`'s rank and the chart's pivot columns, against elimination on Fractions
    rng = fresh_rng("linalg-kernel")
    kinds = set()
    for _ in range(3000):
        a, n = random_matrix(rng)
        m = len(a)
        reduced = eg._reduce(eg._scaled(a)[0], [])
        r = len(reduced)
        kinds.add((m == 0, m == n, r < min(m, n)))
        assert r == linalg_oracle.rank(a)
        # the echelon pivot columns: those that raise the rank of the columns before them
        ranks = [linalg_oracle.rank([row[:c] for row in a]) for c in range(n + 1)]
        assert sorted(c for c, _ in reduced) == [c for c in range(n) if ranks[c + 1] > ranks[c]]
    # empty, square and rectangular matrices occur, the nonempty ones of deficient rank too
    assert kinds == {(True, True, False), (True, False, False)} | {
        (False, sq, low) for sq in (True, False) for low in (True, False)
    }


def test_reduce_stops_once_every_column_has_a_pivot(monkeypatch):
    # the 3-cube's chart reduces its seven edge rows from the first vertex; the fourth
    # gives the third pivot, so the last three rows are never eliminated
    rows, eliminate = [], eg._eliminate

    def counted(x, reduced):
        rows.append(x)
        return eliminate(x, reduced)

    monkeypatch.setattr(eg, "_eliminate", counted)
    cube = vpolytope(itertools.product((0, 1), repeat=3))
    assert len(cube.vertices) == 8 and cube.dim == 3
    assert rows == [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)]


def test_shown_is_repr_until_str_refuses_an_int():
    # refusals name values through `_shown`: repr, with an int past CPython's
    # 4300-digit str() limit read as a bound, also inside a list, tuple or Fraction
    big = 10**5000
    for x in [(), (2,), (1, 2), [], [(1,), [Q(1, 3)]], Q(-2, 3), "x", None, 10**4000, -7]:
        assert eg._shown(x) == repr(x)
    assert eg._shown(big) == "more than 10^4999"
    assert eg._shown((-big,)) == "(less than -10^4999,)"
    assert eg._shown([Q(big, 3), 0]) == "[Fraction(more than 10^4999, 3), 0]"
    # the bound holds and is within a factor 100: 10^k < x < 10^(k + 2)
    for x in (10**4400, big - 1, 2**20000, 3**10000):
        shown, _, k = eg._shown(x).rpartition("^")
        assert shown == "more than 10" and 10 ** int(k) < x < 10 ** (int(k) + 2)
    with pytest.raises(ValueError):  # no int to name: the interpreter's own refusal stands
        eg._shown({big})


# ---------------------------------------------------------------------------
# fan input duality


def random_vector_set(rng, d):
    """Small integer vectors, sometimes with the origin among them; about a
    quarter of the sets lie in a hyperplane through the origin."""
    vs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, d + 4))]
    if d > 1 and rng.random() < 0.25:
        form = [rng.randint(-1, 1) for _ in range(d - 1)]
        vs = [v[:-1] + (sum(a * x for a, x in zip(form, v)),) for v in vs]
    return vs


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_unbounded_exactly_when_polar_cone_nontrivial(d):
    # offsets -1 put the origin inside, so unboundedness is the only failure
    rng = fresh_rng(f"positively-spanning-{d}")
    seen = set()
    for _ in range(60 if d < 5 else 30):
        vs = [v for v in random_vector_set(rng, d) if any(v)]
        if not vs:
            continue
        polar = ConeH(tuple(sorted({primitive([-x for x in v]) for v in vs})), d)
        recession = extreme_rays_by_subsets(polar)
        bounded = not (recession.rays or recession.lineality)
        h = HPolytope(tuple(sorted({(primitive(v), Q(-1)) for v in vs})))
        if bounded:
            assert vertices_from_facets(h).dim == d, vs
        else:
            with pytest.raises(ValueError, match="^unbounded polytope$"):
                vertices_from_facets(h)
        seen.add(bounded)
    assert seen == {True, False}


def test_dual_polytope_plane():
    _, v = dual_polytope([(1, 0), (0, 1), (-1, -1)], None)
    assert set(v.vertices) == {qtuple(-1, -1), qtuple(2, -1), qtuple(-1, 2)}


def test_dual_polytope_weighted():
    _, v = dual_polytope([(1, 0), (0, 1), (-1, -2)], None)
    assert set(v.vertices) == {qtuple(-1, -1), qtuple(-1, 1), qtuple(3, -1)}


def test_dual_polytope_boundary_coefficients():
    # a coefficient c on a ray moves its constraint to <u, ray> >= c - 1
    h, v = dual_polytope([(1, 0), (0, 1), (-1, -1)], [0, 0, Q(1, 2)])
    assert ((-1, -1), Q(-1, 2)) in h.constraints
    assert qtuple(-1, Q(3, 2)) in v.vertices


def test_dual_polytope_rejects_bad_input():
    with pytest.raises(ValueError, match="degenerate fan"):
        dual_polytope([(1, 0), (-1, 0)], None)
    with pytest.raises(ValueError, match="coefficient must be < 1"):
        dual_polytope([(1, 0), (0, 1), (-1, -1)], [0, 0, 1])
    with pytest.raises(ValueError, match="coefficient must be >= 0"):
        dual_polytope([(1, 0), (0, 1), (-1, -1)], [0, 0, Q(-1, 2)])
    with pytest.raises(ValueError, match="duplicate ray"):
        dual_polytope([(1, 0), (1, 0), (0, 1), (-1, -1)], None)
    with pytest.raises(ValueError, match="primitive"):
        dual_polytope([(2, 0), (0, 1), (-1, -1)], None)
    with pytest.raises(ValueError, match="^degenerate fan$"):
        dual_polytope([], None)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        dual_polytope([(1, 0), (0, 1, 0), (-1, -1)], None)
    with pytest.raises(ValueError, match="^one coefficient per ray required$"):
        dual_polytope([(1, 0), (0, 1), (-1, -1)], [0, 0])


def test_dual_polytope_reads_integral_fractions_as_integers():
    ints = dual_polytope([(1, 0), (0, 1), (-2, -3)], None)
    fracs = dual_polytope([(Q(1), 0), (0, 1), (Q(-2, 1), Q(-3))], None)
    assert fracs == ints and fracs[1].facets == ints[1].facets
    assert all(type(x) is int for n, _ in fracs[0].constraints for x in n)
    # an entry that is not an integer is named; an integer ray that is not primitive is
    for bad, message in [
        ((Q(1, 2), 0), r"ray entry Fraction\(1, 2\) is not an integer"),
        ((2, 0), r"ray \(2, 0\) is not a primitive nonzero lattice vector"),
        ((0, 0), r"ray \(0, 0\) is not a primitive nonzero lattice vector"),
        ((None, 1), "ray entry None is not an integer"),
        ((math.inf, 1), "ray entry inf is not an integer"),
        (("x", 1), "ray entry 'x' is not an integer"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            dual_polytope([bad, (0, 1), (-1, -1)], None)
    for bad in (None, "x", "1/0"):
        message = f"^\\[0, {re.escape(repr(bad))}, 0\\] is not a vector of rationals$"
        with pytest.raises(ValueError, match=message):
            dual_polytope([(1, 0), (0, 1), (-1, -1)], [0, bad, 0])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_dual_polytope_and_vertices_from_facets_read_one_hull(d):
    # seeded fans with coefficients of mixed denominators: the offsets c - 1
    # then have several denominators, and so do the vertices, so the hull's
    # integer rows (normals and offsets times the lcm of the offset
    # denominators) and its vertex order (over the lcm of the vertex
    # denominators) are both exercised away from 1
    rng = fresh_rng(f"dual-one-hull-{d}")
    offset_lcms, vertex_lcms = set(), set()
    for _ in range(10):
        rays = {tuple(int(i == j) for j in range(d)) for i in range(d)}
        rays.add(primitive([-rng.randint(1, 3) for _ in range(d)]))
        while len(rays) < d + 2 + rng.randint(0, 2):
            rays.add(primitive(rand_nonzero_ivec(rng, d, 2)))
        rays = sorted(rays)
        dens = [rng.choice((1, 2, 3, 5)) for _ in rays]
        coeffs = [Q(rng.randint(0, den - 1), den) for den in dens]
        h, v = dual_polytope(rays, coeffs)
        assert v == vertices_from_facets(h) == vertices_by_subsets(h), (rays, coeffs)
        offset_lcms.add(math.lcm(*(c.denominator for _, c in h.constraints)))
        vertex_lcms.add(math.lcm(*(x.denominator for u in v.vertices for x in u)))
    assert len(offset_lcms - {1}) >= 2 and len(vertex_lcms - {1}) >= 2


# ---------------------------------------------------------------------------
# vertex / facet enumeration


def test_vertices_from_facets_simplex():
    h = HPolytope((((1, 0), Q(0)), ((0, 1), Q(0)), ((-1, -1), Q(-1))))
    v = vertices_from_facets(h)
    assert set(v.vertices) == {qtuple(0, 0), qtuple(1, 0), qtuple(0, 1)}


def test_vertices_from_facets_weighted_triangle():
    h = HPolytope((((1, 0), Q(-1)), ((0, 1), Q(-1)), ((-1, -2), Q(-1))))
    v = vertices_from_facets(h)
    assert set(v.vertices) == {qtuple(-1, -1), qtuple(-1, 1), qtuple(3, -1)}


def test_vertices_from_facets_degenerate():
    with pytest.raises(ValueError, match="infeasible"):
        vertices_from_facets(HPolytope((((1,), Q(0)), ((-1,), Q(1)))))
    with pytest.raises(ValueError, match="infeasible"):
        vertices_from_facets(
            HPolytope((((1, 0), Q(0)), ((0, 1), Q(0)), ((-1, -1), Q(1))))
        )
    with pytest.raises(ValueError, match="unbounded"):
        vertices_from_facets(HPolytope((((1, 0), Q(0)), ((0, 1), Q(0)))))
    # a segment in the plane: 0 <= x <= 1 and y = 0
    segment = (((1, 0), Q(0)), ((-1, 0), Q(-1)), ((0, 1), Q(0)), ((0, -1), Q(0)))
    with pytest.raises(ValueError, match="not full-dimensional"):
        vertices_from_facets(HPolytope(segment))


def test_vertices_from_facets_rejects_empty_constraints():
    with pytest.raises(ValueError, match="empty constraint list"):
        vertices_from_facets(HPolytope(()))


def test_vpolytope_requires_its_facets():
    p = vpolytope([(0, 0), (1, 0), (0, 1), (1, 1), (1, 0)])
    with pytest.raises(TypeError):
        VPolytope(p.vertices, p.dim)


def test_vpolytope_refuses_empty_and_ragged_point_sets():
    with pytest.raises(ValueError, match="^empty point set$"):
        vpolytope([])
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        vpolytope([(0, 0), (1, 0, 0), (0, 1)])


def test_affine_dim_refuses_ragged_point_sets():
    for pts in ([(0,), (1, 5), (2, 7)], [(0, 0), (1,)]):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            affine_dim(pts)
    assert affine_dim([(0, 0), (1, 5), (2, 10)]) == 1


def test_affine_dim_of_no_points_is_minus_one():
    # the empty set's affine dimension, below a single point's 0
    assert affine_dim([]) == -1
    assert affine_dim([(3, 4)]) == 0


def test_vpolytope_equality_and_hash_include_facets():
    p = vpolytope(P112_VERTS)
    stale = VPolytope(p.vertices, p.dim, p.facets[1:])
    assert stale != p and not stale == p
    assert hash(stale) != hash(p) and len({stale, p}) == 2
    bare = p._replace(facets=())
    assert bare != p and hash(bare) != hash(p)
    assert vpolytope(P2_VERTS) != p
    assert p == tuple(p) and hash(p) == hash(tuple(p))


def _point_set(rng, d):
    """Seeded rational points in Q^d: a lattice of rank at most k <= d through a
    random base, scaled by 1/den, with repeated points and their centroid."""
    k = d if rng.random() < 0.6 else rng.randint(0, d - 1)
    gens = [rand_nonzero_ivec(rng, d, 3) for _ in range(k)]
    base = [rng.randint(-3, 3) for _ in range(d)]
    den = rng.choice((1, 1, 2, 3))
    pts = []
    for _ in range(rng.randint(2, d + 5)):
        cs = [rng.randint(-2, 2) for _ in gens]
        u = [b + sum(c * g[i] for c, g in zip(cs, gens)) for i, b in enumerate(base)]
        pts.append(tuple(Q(x, den) for x in u))
    pts += rng.choices(pts, k=rng.randint(1, 3))
    pts.append(tuple(sum(xs) / len(pts) for xs in zip(*pts)))
    rng.shuffle(pts)
    return pts


def test_polytope_facets_are_canonical():
    """Facets are part of a VPolytope's value, so every construction of one
    body gives the same sorted facets: the hull of its vertices alone, in any
    order, and for a full-dimensional body the vertices of its facet
    description.  Seeded 1-5D point sets with repeated points, a centroid that
    is rarely a vertex, and affine hulls of every dimension up to d."""
    rng = fresh_rng("facets-canonical")
    seen = {"lower": 0, "full": 0, "not a vertex": 0}
    for case in range(200):
        d = 1 + case % 5
        pts = _point_set(rng, d)
        p = vpolytope(pts)
        seen["not a vertex"] += len(set(pts)) > len(p.vertices)
        assert vpolytope(p.vertices) == p, pts
        assert vpolytope(rng.sample(p.vertices, len(p.vertices))) == p, pts
        if p.dim == d:
            seen["full"] += 1
            assert vertices_from_facets(facets_from_vertices(p)) == p, pts
        else:
            seen["lower"] += 1
    assert min(seen.values()) >= 60, seen


def _increasing(normals) -> bool:
    return all(a < b for a, b in zip(normals, normals[1:]))


def test_every_hull_returns_its_facet_normals_strictly_increasing():
    """One facet per normal, sorted by normal, through every hull entry point:
    stage 1 and sigma1 take the facet normals in this order as their rays.
    Seeded 1-5D fans with mixed coefficient denominators, shuffled constraint
    lists with looser duplicates of a normal, point sets of every affine
    dimension and weighted points."""
    rng = fresh_rng("facet-order")
    seen = {"lower": 0, "looser duplicate": 0}
    for case in range(150):
        d = 1 + case % 5
        rays = {tuple(int(i == j) for j in range(d)) for i in range(d)}
        rays.add(primitive([-rng.randint(1, 3) for _ in range(d)]))
        while len(rays) < d + 1 + rng.randint(0, 3) * (d > 1):  # 1D has two rays
            rays.add(primitive(rand_nonzero_ivec(rng, d, 2)))
        rays = rng.sample(sorted(rays), len(rays))
        coeffs = [Q(rng.randint(0, den - 1), den) for den in rng.choices((1, 2, 3), k=len(rays))]
        h, v = dual_polytope(rays, coeffs)
        ctx = context_from_rays(rays, coeffs)
        cons = [(f.normal, f.offset) for f in v.facets]
        looser = [(n, c - rng.randint(1, 3)) for n, c in rng.sample(cons, rng.randint(0, 2))]
        seen["looser duplicate"] += bool(looser)
        shuffled = HPolytope(tuple(rng.sample(cons + looser, len(cons + looser))))
        hull = vpolytope(_point_set(rng, d))
        seen["lower"] += hull.dim < d
        weights = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 3)]
        polytopes = [
            v,
            vertices_from_facets(shuffled),
            hull,
            weight_polytope(weighted_point(weights)).polytope,
            ctx.vpoly,
            context_from_vertices(v.vertices).vpoly,
            context_from_constraints(shuffled.constraints).vpoly,
        ]
        assert _increasing([n for n, _ in h.constraints]), rays
        for p in polytopes:
            assert _increasing([f.normal for f in p.facets]), (rays, hull, weights)
    assert min(seen.values()) >= 30, seen


def test_vertices_from_facets_refuses_ragged_and_non_primitive_normals():
    ragged = (((1, 0), Q(-1)), ((-1,), Q(-1)), ((0, 1), Q(-1)), ((0, -1), Q(-1)))
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        vertices_from_facets(HPolytope(ragged))
    square = [((1, 0), Q(-1)), ((-1, 0), Q(-1)), ((0, 1), Q(-1)), ((0, -1), Q(-1))]
    for bad, message in [
        ((2, 0), r"normal \(2, 0\) is not a primitive nonzero lattice vector"),
        ((0, 0), r"normal \(0, 0\) is not a primitive nonzero lattice vector"),
        ((Q(1, 2), 0), r"normal entry Fraction\(1, 2\) is not an integer"),
        ((1.5, 0), r"normal entry 1\.5 is not an integer"),
        (("1", 0), "normal entry '1' is not an integer"),
        (("x", 0), "normal entry 'x' is not an integer"),
        ((None, 0), "normal entry None is not an integer"),
        ((math.inf, 0), "normal entry inf is not an integer"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            vertices_from_facets(HPolytope((*square, (bad, Q(-2)))))
    # normals equal to their ints describe the same square
    same = vertices_from_facets(HPolytope((((Q(1), 0.0), Q(-1)), *square[1:])))
    assert same == vertices_from_facets(HPolytope(tuple(square)))
    # offsets are read as Fractions, a float exactly
    floats = vertices_from_facets(HPolytope((((1, 0), -1.0), ((-1, 0), -1), *square[2:])))
    assert floats == same and all(type(f.offset) is Q for f in floats.facets)
    for bad in (None, [1], (), math.inf, math.nan, "x", "1/0"):
        message = f"^offset {re.escape(repr(bad))} is not a rational$"
        with pytest.raises(ValueError, match=message):
            vertices_from_facets(HPolytope(((square[0][0], bad), *square[1:])))


def test_facets_from_vertices_square():
    h = facets_from_vertices(vpolytope([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert len(h.constraints) == 4
    assert set(h.constraints) == {
        ((1, 0), Q(0)),
        ((0, 1), Q(0)),
        ((-1, 0), Q(-1)),
        ((0, -1), Q(-1)),
    }


def test_facets_from_vertices_triangle():
    h = facets_from_vertices(vpolytope(P2_VERTS))
    assert set(h.constraints) == {
        ((1, 0), Q(-1)),
        ((0, 1), Q(-1)),
        ((-1, -1), Q(-1)),
    }


def test_facets_from_vertices_needs_full_dimension():
    with pytest.raises(ValueError, match="not full-dimensional"):
        facets_from_vertices(vpolytope([(0, 0), (1, 1)]))


def test_lower_dimensional_polytopes_are_refused_where_full_dimension_is_needed():
    for pts in ([(0, 0), (1, 1)], [(0, 0, 0), (1, 0, 0), (0, 1, 0)]):
        p = vpolytope(pts)
        for reader in (normal_fan, triangulate, moment_data):
            with pytest.raises(ValueError, match="^not full-dimensional$"):
                reader(p)


def test_cone_contains_refuses_a_vector_of_another_length():
    cone = ConeH(((1, 0), (0, 1)), 2)
    assert cone.contains((-1, 0))
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        cone.contains((-1, 0, 0))


def test_polygon_with_many_edges_round_trips():
    # 111 points on a parabola: 111 irredundant constraints, one hull through the origin
    verts = tuple(sorted(qtuple(i, i * i) for i in range(-55, 56)))
    h = facets_from_vertices(vpolytope(verts))
    assert len(h.constraints) == 111
    assert vertices_from_facets(h).vertices == verts


def test_fan_with_many_rays_builds():
    # 30 of the 32 roots of B4: 30 constraints in 4D, 26 vertices
    rays = [
        r
        for r in itertools.product((-1, 0, 1), repeat=4)
        if 1 <= sum(map(abs, r)) <= 2 and r not in ((0, 0, 1, 1), (0, 0, -1, -1))
    ]
    h, v = dual_polytope(rays, None)
    assert len(h.constraints) == 30 and v.dim == 4
    assert facets_from_vertices(vpolytope(v.vertices)).constraints == tuple(
        (f.normal, f.offset) for f in v.facets
    )


def random_polytope(rng, d, npts):
    while True:
        pts = [tuple(rand_rational(rng, den_max=4, num_max=6) for _ in range(d))
               for _ in range(npts)]
        p = vpolytope(pts)
        if p.dim == d:
            return p


@pytest.mark.parametrize("d,npts,count", [(2, 7, 100), (3, 7, 60), (4, 6, 40)])
def test_enumeration_round_trip(d, npts, count):
    rng = fresh_rng(f"roundtrip-{d}")
    for _ in range(count):
        p = random_polytope(rng, d, npts)
        again = vertices_from_facets(facets_from_vertices(p))
        assert set(again.vertices) == set(p.vertices)


def random_hpolytope(rng, d):
    """Constraints around a random point p with slacks 0..2 (so p may be a
    vertex and the origin inside, on or outside P) or with random offsets,
    then redundant, repeated, contradicting or equality-pair constraints."""
    normals = [primitive(rand_nonzero_ivec(rng, d, 2)) for _ in range(rng.randint(1, d + 1))]
    p = rng.choice([(0,) * d, tuple(rng.randint(-2, 2) for _ in range(d))])
    if rng.random() < 0.2:
        cons = [(n, Q(rng.randint(-6, 6), rng.randint(1, 2))) for n in normals]
    else:
        cons = [(n, dot(n, p) - Q(rng.randint(0, 4), 2)) for n in normals]
    # a simplex around p, u_i >= p_i - 2 and sum(u) <= sum(p) + 2, bounds most sets
    if rng.random() < 0.8:
        cons += [(tuple(int(j == i) for j in range(d)), Q(p[i] - 2)) for i in range(d)]
        cons.append(((-1,) * d, Q(-sum(p) - 2)))
    for _ in range(rng.randint(0, 2)):
        (n1, c1), (n2, c2) = rng.choice(cons), rng.choice(cons)
        kind = rng.choice(["sum", "looser", "repeat", "cut", "equality"])
        s = vadd(n1, n2)
        if kind == "sum" and any(s):
            g = math.gcd(*s)
            cons.append((primitive(s), (c1 + c2) / g))
        elif kind == "looser":
            cons.append((n1, c1 - 1))
        elif kind == "repeat":
            cons.append((n1, c1))
        elif kind == "cut":
            cons.append((vneg(n1), -c1 - Q(rng.randint(-1, 1), 2)))
        elif kind == "equality":
            cons.append((vneg(n1), -c1))
    rng.shuffle(cons)
    return HPolytope(tuple(cons))


def outcome(f, *args):
    try:
        return f(*args), None
    except ValueError as exc:
        return None, str(exc)


@pytest.mark.parametrize("d,count", [(1, 300), (2, 300), (3, 250), (4, 150)])
def test_vertices_from_facets_matches_oracle(d, count):
    rng = fresh_rng(f"hpolytope-oracle-{d}")
    seen = set()
    for _ in range(count):
        h = random_hpolytope(rng, d)
        want, want_err = outcome(vertices_by_subsets, h)
        got, err = outcome(vertices_from_facets, h)
        if want is not None and want.dim < d:
            # lower-dimensional, e.g. cut by an equality pair
            want_err = "not full-dimensional"
        if want_err is not None:
            assert (got, err) == (None, want_err), h
            seen.add(want_err)
            continue
        assert err is None, h
        assert got.vertices == want.vertices and got.dim == d, h
        assert got.facets == want.facets, h
        origin = min(-c for _, c in h.constraints)
        seen.add("origin " + ("inside" if origin > 0 else "on" if origin == 0 else "outside"))
    assert seen == {
        "unbounded polytope",
        "infeasible",
        "not full-dimensional",
        "origin inside",
        "origin on",
        "origin outside",
    }


def random_point_set(rng, d):
    """Integer points with duplicates and points inside the hull; about a
    quarter of the sets lie on one line, another quarter on one hyperplane."""
    n = rng.randint(1, min(d + 4, 7))
    pts = [tuple(2 * rng.randint(-3, 3) for _ in range(d)) for _ in range(n)]
    shape = rng.choice(["generic", "generic", "collinear", "coplanar"])
    if shape == "collinear":
        step = tuple(rng.randint(-2, 2) for _ in range(d))
        pts = [tuple(x + 2 * t * y for x, y in zip(pts[0], step)) for t in range(-2, n - 2)]
    elif shape == "coplanar" and d >= 2:
        form = [rng.randint(-1, 1) for _ in range(d - 1)]
        pts = [p[:-1] + (sum(a * x for a, x in zip(form, p)),) for p in pts]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(pts), rng.choice(pts)
        pts.append(tuple((x + y) // 2 for x, y in zip(a, b)))
    pts += rng.sample(pts, rng.randint(0, min(2, len(pts))))
    rng.shuffle(pts)
    return pts


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hull_matches_reference_oracles(d):
    rng = fresh_rng(f"hull-oracle-{d}")
    dims = set()
    for _ in range(40 if d < 4 else 20):
        pts = random_point_set(rng, d)
        den = rng.randint(1, 3)
        qpts = [tuple(Q(x, den) for x in u) for u in pts]
        p = vpolytope(qpts)
        assert p.vertices == hull_vertices(qpts)
        assert p.dim == affine_dim(qpts)
        dims.add(p.dim)
        if p.dim == d:
            assert set(facets_from_vertices(p).constraints) == facets_by_subsets(p.vertices)
        support = rng.sample(range(len(pts)), rng.randint(1, len(pts)))
        faces = weight_polytope(weighted_point(pts, support)).faces
        assert len(set(faces)) == len(faces)
        assert set(faces) == faces_by_subsets(pts, support)
    # points, segments, and every lower-dimensional hull occur
    assert dims == set(range(d + 1))


def gale_facets(n, d):
    """Facets of the cyclic polytope C(n, d) by Gale's evenness condition: the
    d-subsets S of 0..n-1 with an even number of members between any two
    non-members (Ziegler, Lectures on Polytopes, section 0)."""
    out = set()
    for s in itertools.combinations(range(n), d):
        gaps = [i for i in range(n) if i not in s]
        if all(sum(i < x < j for x in s) % 2 == 0 for i, j in zip(gaps, gaps[1:])):
            out.add(frozenset(s))
    return out


@pytest.mark.parametrize("n,d", [(12, 4), (16, 5), (20, 6)])
def test_cyclic_polytope_facets_obey_gale_evenness(n, d):
    # points on the moment curve, vertex i at t = i; C(20, 6) has 800 facets
    p = vpolytope([[t**k for k in range(1, d + 1)] for t in range(n)])
    assert p.dim == d and p.vertices == tuple(qtuple(*(t**k for k in range(1, d + 1)))
                                             for t in range(n))
    members = {frozenset(i for i in range(n) if f.members >> i & 1) for f in p.facets}
    assert len(members) == len(p.facets)
    assert members == gale_facets(n, d)
    if n < 20:
        again = vertices_from_facets(facets_from_vertices(p))
        assert again.vertices == p.vertices and again.facets == p.facets


# ---------------------------------------------------------------------------
# normal fan


def test_normal_fan_square():
    fan = normal_fan(vpolytope([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert len(fan.cones) == 4
    by_vertex = dict(fan.cones)
    origin = by_vertex[qtuple(0, 0)]
    assert origin.contains((1, 0)) and origin.contains((0, 1))
    assert cone_relint_contains(origin, (1, 2))
    assert not origin.contains((-1, 0))


def test_normal_fan_triangle():
    fan = normal_fan(vpolytope([(0, 0), (1, 0), (0, 1)]))
    assert len(fan.cones) == 3
    origin = dict(fan.cones)[qtuple(0, 0)]
    assert origin.contains((1, 0)) and origin.contains((0, 1))


def test_normal_fan_weighted_triangle_membership():
    # pairing with (0,-1) over the vertices takes values 1, -1, 1, so the
    # minimum sits at (-1,1) alone
    fan = normal_fan(vpolytope(P112_VERTS))
    by_vertex = dict(fan.cones)
    vals = {u: dot(u, (0, -1)) for u in by_vertex}
    assert min(vals.values()) == vals[qtuple(-1, 1)] == -1
    assert by_vertex[qtuple(-1, 1)].contains((0, -1))
    assert not by_vertex[qtuple(-1, -1)].contains((0, -1))
    assert not by_vertex[qtuple(3, -1)].contains((0, -1))


def _cross_polytope(d):
    return [tuple(s * (i == j) for j in range(d)) for i in range(d) for s in (1, -1)]


def _pyramid(base, height):
    apex = tuple(Q(1, 2) for _ in base[0]) + (height,)
    return [(*u, 0) for u in base] + [apex]


# non-simple polytopes: vertices on more than d facets, and vertex pairs that
# share a facet without spanning an edge (the diagonals of the square base and
# of the cube's faces)
NON_SIMPLE = {
    "octahedron": _cross_polytope(3),
    "cross-polytope-4d": _cross_polytope(4),
    "square-pyramid": _pyramid(list(itertools.product((0, 1), repeat=2)), 2),
    "cube-pyramid": _pyramid(list(itertools.product((0, 1), repeat=3)), 3),
}


def _seeded_polytopes():
    rng = fresh_rng("normal-fan-incidence")
    out = list(NON_SIMPLE.values())
    for d in range(2, 6):
        while len(out) < 4 + 6 * (d - 1):
            pts = [tuple(rand_rational(rng, 3, 4) for _ in range(d)) for _ in range(d + 4)]
            if affine_dim(pts) == d:
                out.append(pts)
    return out


def test_normal_fan_cones_are_cut_by_edges():
    # the edge oracle is independent of the incidence: {u, w} is an edge exactly
    # when the facet normals tight at both, from subset enumeration, have rank d - 1
    for pts in _seeded_polytopes():
        p = vpolytope(pts)
        d = p.dim
        facets = facets_by_subsets(p.vertices)
        fan = normal_fan(p)
        z, _ = eg._scaled(p.vertices)
        assert [u for u, _ in fan.cones] == list(p.vertices)
        for (u, cone), zu in zip(fan.cones, z):
            edges = set()
            for w in p.vertices:
                tight = [n for n, c in facets if dot(n, u) == c == dot(n, w)]
                if w != u and linalg_oracle.rank(tight) == d - 1:
                    edges.add(primitive(vsub(u, w)))
            assert cone.dim == d
            assert sorted(cone.normals) == sorted(edges), (pts, u)
            assert extreme_rays_by_subsets(cone) == extreme_rays_by_subsets(normal_cone([zu], z, d))


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_normal_cone_matches_primitive_differences(kind):
    rng = fresh_rng(f"normal-cone-{kind}")

    def coord():
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(-8, 8)
        return rand_rational(rng)

    for _ in range(200):
        d = rng.randint(1, 4)
        pool = [tuple(coord() for _ in range(d)) for _ in range(rng.randint(1, 6))]
        # points and face drawn with repetition from a small pool
        points = [rng.choice(pool) for _ in range(rng.randint(1, 9))]
        face = [rng.choice(points) for _ in range(rng.randint(1, 3))]
        expected = {primitive(vsub(u, w)) for u in face for w in points if u != w}
        # one positive factor clears every denominator and leaves the cone as it is
        z, _ = eg._scaled([*face, *points])
        cone = normal_cone(z[: len(face)], z[len(face) :], d)
        assert cone == ConeH(tuple(sorted(expected)), d)
        assert all(type(x) is int for a in cone.normals for x in a)
        assert normal_cone([], z[len(face) :], d) == ConeH((), d)


def test_normal_fan_of_a_segment_is_its_one_edge():
    # in 1D no facet holds both vertices: the edge is the polytope itself
    fan = normal_fan(vpolytope([(3,), (0,), (1,)]))
    assert fan.cones == ((qtuple(0), ConeH(((-1,),), 1)), (qtuple(3), ConeH(((1,),), 1)))


def test_primitive_int_returns_a_tuple():
    assert eg._primitive_int([3, 5]) == (3, 5) and type(eg._primitive_int([3, 5])) is tuple
    assert eg._primitive_int([4, -6]) == (2, -3)


@pytest.mark.parametrize("verts", [P2_VERTS, P112_VERTS, ((0, 0), (1, 0), (0, 1), (1, 1))])
def test_fan_covering(verts):
    fan = normal_fan(vpolytope(verts))
    rng = fresh_rng(f"fan-cover-{verts}")
    for _ in range(1000):
        v = tuple(rand_rational(rng) for _ in range(2))
        if all(x == 0 for x in v):
            continue
        holders = [c for _, c in fan.cones if c.contains(v)]
        assert holders, "complete fan must cover every direction"
        interior = [c for c in holders if cone_relint_contains(c, v)]
        if interior:
            assert len(interior) == 1
        else:
            assert len(holders) >= 2, "boundary directions sit on shared faces"


# ---------------------------------------------------------------------------
# extreme rays


def cross(a, b):
    return Q(a[0]) * Q(b[1]) - Q(a[1]) * Q(b[0])


def angular_extremes(cone, bound=25):
    """Independent oracle for pointed 2d cones: the boundary rays are the
    members whose cross product against every other member has one sign."""
    members = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if math.gcd(x, y) == 1 and cone.contains((x, y)):
                members.append((x, y))
    out = set()
    for v in members:
        signs = {1 if cross(v, w) > 0 else -1 for w in members if cross(v, w) != 0}
        if len(signs) <= 1:
            out.add(v)
    return out


def test_extreme_rays_quadrant():
    gens = extreme_rays(ConeH(((1, 0), (0, 1)), 2))
    assert set(gens.rays) == {(-1, 0), (0, -1)}
    assert gens.lineality == ()


def test_extreme_rays_skew_cone_against_sweep():
    cone = ConeH(((0, 1), (-2, 1)), 2)  # v2 <= 0 and -2 v1 + v2 <= 0
    gens = extreme_rays(cone)
    assert set(gens.rays) == angular_extremes(cone) == {(1, 0), (-1, -2)}
    # (1,-2) satisfies both constraints but is interior: 2*(1,0) + (-1,-2)
    assert cone.contains((1, -2))
    assert (1, -2) not in gens.rays


def test_extreme_rays_full_plane():
    gens = extreme_rays(ConeH((), 2))
    assert gens.rays == ()
    assert rank([list(l) for l in gens.lineality]) == 2


def test_extreme_rays_halfplane():
    gens = extreme_rays(ConeH(((0, 1),), 2))
    assert len(gens.lineality) == 1
    assert primitive(gens.lineality[0]) in {(1, 0), (-1, 0)}
    assert set(gens.rays) == {(0, -1)}


def random_cone(rng, d):
    """Up to 7 small normals; in about half of the cones they span a proper
    subspace, so the cone has lineality, and some hold a pair a, -a."""
    span = rng.randint(1, d - 1) if rng.random() < 0.5 else d
    base = [rand_nonzero_ivec(rng, d, 2) for _ in range(span)]
    normals = set()
    for _ in range(rng.randint(0, 7)):
        v = tuple(sum(rng.randint(-2, 2) * b[j] for b in base) for j in range(d))
        if any(v):
            normals.add(primitive(v))
            if rng.random() < 0.1:
                normals.add(vneg(primitive(v)))
    return ConeH(tuple(sorted(normals)), d)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_extreme_rays_match_subset_oracle(d):
    rng = fresh_rng(f"extreme-rays-oracle-{d}")
    seen = set()
    for _ in range(60):
        cone = random_cone(rng, d)
        got, want = extreme_rays(cone), extreme_rays_by_subsets(cone)
        lin = [list(l) for l in got.lineality]
        seen.add((bool(lin), bool(got.rays)))
        if not lin:
            assert got == want, cone
            continue
        # the same lineality space, and the same rays modulo it
        assert len(lin) == len(want.lineality) == rank(lin + [list(l) for l in want.lineality])
        assert all(dot(a, l) == 0 for a in cone.normals for l in got.lineality)
        assert len(got.rays) == len(want.rays), cone
        for ray in got.rays:
            assert cone.contains(ray)
            same = [
                w for w in want.rays
                if rank(lin + [list(ray), list(w)]) == len(lin) + 1
                and any(dot(a, ray) < 0 and dot(a, w) < 0 for a in cone.normals)
            ]
            assert len(same) == 1, cone
    # pointed cones, and cones with lineality with and without rays, occur
    assert seen >= {(False, True), (True, True), (True, False)}


def conic_member(target, gens, d):
    """Exact feasibility of target = sum c_i gens_i with c_i >= 0."""
    for size in range(1, d + 1):
        for subset in itertools.combinations(gens, size):
            cols = [list(g) for g in subset]
            if rank(cols) != size:
                continue
            for rows_idx in itertools.combinations(range(d), size):
                mat = [[Q(cols[j][i]) for j in range(size)] for i in rows_idx]
                if rank(mat) != size:
                    continue
                coeffs = _solve_square(mat, [Q(target[i]) for i in rows_idx])
                if coeffs is None or any(c < 0 for c in coeffs):
                    break
                ok = all(
                    sum(Q(cols[j][i]) * coeffs[j] for j in range(size)) == Q(target[i])
                    for i in range(d)
                )
                if ok:
                    return True
                break
    return False


def _solve_square(mat, rhs):
    n = len(mat)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        s = aug[col][col]
        aug[col] = [x / s for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


@pytest.mark.parametrize("verts", [P2_VERTS, P112_VERTS, ((0, 0), (1, 0), (0, 1), (1, 1))])
def test_extreme_rays_are_irredundant(verts):
    for _, cone in normal_fan(vpolytope(verts)).cones:
        gens = extreme_rays(cone)
        assert gens.lineality == ()
        for ray in gens.rays:
            assert cone.contains(ray)
            others = [r for r in gens.rays if r != ray]
            assert not conic_member(ray, others, cone.dim)


# ---------------------------------------------------------------------------
# triangulation


def shoelace(ordered):
    total = Q(0)
    n = len(ordered)
    for i in range(n):
        x1, y1 = ordered[i]
        x2, y2 = ordered[(i + 1) % n]
        total += Q(x1) * Q(y2) - Q(x2) * Q(y1)
    return abs(total) / 2


def test_triangulate_triangle_is_identity():
    p = vpolytope(P2_VERTS)
    tris = triangulate(p)
    assert len(tris) == 1
    assert set(tris[0]) == set(p.vertices)


def test_triangulate_square_halves():
    tris = triangulate(vpolytope([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert len(tris) == 2
    assert all(simplex_volume(t) == Q(1, 2) for t in tris)


def test_triangulate_hexagon_matches_shoelace():
    ordered = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    p = vpolytope(ordered)
    tris = triangulate(p)
    assert len(tris) == 4
    assert sum(simplex_volume(t) for t in tris) == shoelace(ordered) == moment_data(p).volume == 3


def test_triangulate_cube_from_every_apex():
    # pulling a 0/1 cube from any vertex gives d! unimodular simplices
    cube = vpolytope(itertools.product((0, 1), repeat=4))
    for apex in range(len(cube.vertices)):
        simplices = triangulate(from_apex(cube, apex))
        assert len(simplices) == 24
        assert all(simplex_volume(t) == Q(1, 24) for t in simplices)


def test_triangulate_lattice_polytopes_5d():
    # in 5D two facets of a 4-face can meet in a lower face with five
    # vertices; only the maximal cuts are ridges, or a degenerate simplex
    # would join the triangulation
    rng = fresh_rng("tri-5d")
    for _ in range(20):
        p = vpolytope([tuple(rng.randint(-2, 2) for _ in range(5)) for _ in range(9)])
        if p.dim < 5:
            continue
        vol = moment_data(p).volume
        for apex in range(len(p.vertices)):
            simplices = triangulate(from_apex(p, apex))
            assert all(simplex_volume(t) > 0 for t in simplices)
            assert sum(simplex_volume(t) for t in simplices) == vol


@pytest.mark.parametrize("d", [2, 3, 4])
def test_triangulation_volume_additivity(d):
    rng = fresh_rng(f"triadd-{d}")
    for _ in range(25):
        p = random_polytope(rng, d, 7)
        vol = moment_data(p).volume
        assert sum(simplex_volume(t) for t in triangulate(p)) == vol
        # every apex gives full-dimensional simplices through it with the same total
        for apex, u in enumerate(p.vertices):
            simplices = triangulate(from_apex(p, apex))
            assert all(u in t and simplex_volume(t) > 0 for t in simplices)
            assert sum(simplex_volume(t) for t in simplices) == vol


def test_simplex_volume_unit():
    assert simplex_volume((qtuple(0, 0), qtuple(1, 0), qtuple(0, 1))) == Q(1, 2)
    assert simplex_volume(
        (qtuple(0, 0, 0), qtuple(1, 0, 0), qtuple(0, 1, 0), qtuple(0, 0, 1))
    ) == Q(1, 6)
