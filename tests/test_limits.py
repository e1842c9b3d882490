"""Degeneration combinatorics of weighted points."""

import hashlib
import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

import stability_oracle
from conftest import fresh_rng, rand_nonzero_ivec, rand_rational, sample_relint_point
from hull_oracle import cone_relint_contains
from optimizer_oracle import cone_is_trivial
from toricstab.exactgeom import ConeH, extreme_rays, primitive, vsub
from toricstab.limits import (
    WeightedPoint,
    face_limit,
    face_of_direction,
    is_fixed,
    limit_point,
    normal_cone_of_face,
    weight_polytope,
    weighted_point,
)

TRIANGLE = weighted_point([(0, 0), (1, 0), (0, 1)])


def test_weighted_point_validation():
    with pytest.raises(ValueError, match="at least one weight"):
        weighted_point([])
    with pytest.raises(ValueError, match="dimension mismatch"):
        weighted_point([(0, 0), (1,)])
    with pytest.raises(ValueError, match="support must be nonempty"):
        weighted_point([(0, 0)], support=[])
    with pytest.raises(ValueError, match="out of range"):
        weighted_point([(0, 0)], support=[1])
    # an entry or index not equal to its int is refused, never truncated
    for weights, support, named in [
        ([[1.5, 0], [0, 1], [0, 0]], None, "weight 0 entry 1.5"),
        ([[0, 0], [Q(1, 2), 1]], None, r"weight 1 entry Fraction\(1, 2\)"),
        ([[0, "3"]], None, "weight 0 entry '3'"),
        ([[0, 0], [1, 1]], [1, 0.9], "support index 0.9"),
    ]:
        with pytest.raises(ValueError, match=f"^{named} is not an integer$"):
            weighted_point(weights, support)
    w = weighted_point([[Q(2, 1), 2.0], [0, 1]], [1.0])
    assert w == WeightedPoint(((2, 2), (0, 1)), frozenset({1}))
    assert all(type(x) is int for u in w.weights for x in u) and type(min(w.support)) is int


def test_limit_point_triangle():
    assert limit_point(TRIANGLE, (1, 2)).support == {0}
    assert limit_point(TRIANGLE, (-1, 0)).support == {1}
    assert limit_point(TRIANGLE, (1, 1)).support == {0}
    assert limit_point(TRIANGLE, (0, 1)).support == {0, 1}
    with pytest.raises(ValueError, match="zero direction"):
        limit_point(TRIANGLE, (0, 0))


def test_limit_point_respects_support():
    partial = weighted_point([(0, 0), (1, 0), (0, 1)], support=[1, 2])
    assert limit_point(partial, (1, 1)).support == {1, 2}
    assert limit_point(partial, (1, 0)).support == {2}


def test_is_fixed():
    pair = weighted_point([(0, 0), (1, 0)])
    assert is_fixed(pair, (0, 1))
    assert not is_fixed(pair, (1, 0))
    single = weighted_point([(3, 5), (0, 0)], support=[0])
    assert is_fixed(single, (1, 1))


def test_weight_polytope_triangle_faces():
    q = weight_polytope(TRIANGLE)
    face_sets = set(q.faces)
    assert face_sets == {
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    }


def test_weight_polytope_handles_ties():
    w = weighted_point([(0, 0), (0, 0), (1, 0)])
    q = weight_polytope(w)
    assert frozenset({0, 1}) in set(q.faces)
    assert limit_point(w, (1, 0)).support == {0, 1}


def test_weight_polytope_lower_dimensional():
    w = weighted_point([(0, 0), (1, 1), (2, 2)])
    q = weight_polytope(w)
    assert set(q.faces) == {frozenset({0}), frozenset({2}), frozenset({0, 1, 2})}
    full_cone = normal_cone_of_face(q, {0, 1, 2})
    assert cone_relint_contains(full_cone, (1, -1))
    assert is_fixed(face_limit(w, q, {0, 1, 2}), (1, -1))


def test_normal_cone_edge():
    q = weight_polytope(TRIANGLE)
    cone = normal_cone_of_face(q, {0, 1})
    assert cone.contains((0, 1))
    assert not cone.contains((1, 1))
    assert not cone.contains((0, -1))
    gens = extreme_rays(cone)
    assert gens.rays == ((0, 1),)
    assert gens.lineality == ()


def test_normal_cone_vertex():
    q = weight_polytope(TRIANGLE)
    cone = normal_cone_of_face(q, {0})
    assert cone.contains((1, 0)) and cone.contains((0, 1))
    assert cone_relint_contains(cone, (1, 1))
    assert not cone.contains((-1, 0))


def test_normal_cone_full_face_trivial():
    q = weight_polytope(TRIANGLE)
    assert cone_is_trivial(normal_cone_of_face(q, {0, 1, 2}))


def test_face_limit_and_errors():
    q = weight_polytope(TRIANGLE)
    assert face_limit(TRIANGLE, q, {0, 1}) == limit_point(TRIANGLE, (0, 1))
    assert face_limit(TRIANGLE, q, {0, 1, 2}) == TRIANGLE
    assert face_limit(TRIANGLE, q, {0}).support == {0}
    with pytest.raises(ValueError, match="not a face"):
        face_limit(TRIANGLE, q, {5})
    with pytest.raises(ValueError, match="not a face"):
        normal_cone_of_face(q, {0, 5})


def test_face_indices_are_refused_not_truncated():
    q = weight_polytope(TRIANGLE)
    with pytest.raises(ValueError, match="^face index 0.9 is not an integer$"):
        face_limit(TRIANGLE, q, [0.9])
    with pytest.raises(ValueError, match=r"^face index Fraction\(1, 2\) is not an integer$"):
        normal_cone_of_face(q, [Q(1, 2), 1.7])
    with pytest.raises(ValueError, match="^face index '0' is not an integer$"):
        face_limit(TRIANGLE, q, ["0"])
    assert face_limit(TRIANGLE, q, [Q(2, 1), 2.0]).support == {2}
    assert normal_cone_of_face(q, [Q(2, 1), 2.0]) == normal_cone_of_face(q, {2})


def test_face_limit_refuses_the_polytope_of_another_point():
    q = weight_polytope(weighted_point([(0, 0), (5, 5), (7, 0), (1, 1)]))
    w = weighted_point([(0, 0), (1, 0), (0, 1)])
    message = "^weight polytope is not the polytope of this weighted point$"
    with pytest.raises(ValueError, match=message):
        face_limit(w, q, [0, 1, 3])
    assert face_limit(q.point, q, [0, 1, 3]).support == {0, 1, 3}


def test_face_lookup_agrees_with_membership():
    """`face_limit` finds faces by bisection in the sorted q.faces: it accepts
    exactly the members of q.faces, here every face of seeded 3-6D points,
    random index sets, the empty set and indices past the weights."""
    rng = fresh_rng("face-lookup")
    refused = 0
    for d in (3, 4, 5, 6):
        n = d + rng.randint(2, 4)
        w = weighted_point([tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n)])
        q = weight_polytope(w)
        for f in q.faces:
            assert face_limit(w, q, f).support == f
        candidates = [set(), {n}, {0, n + 1}, set(range(n + 1))]
        candidates += [set(rng.sample(range(n), rng.randint(1, n))) for _ in range(40)]
        for f in candidates:
            if frozenset(f) in q.faces:
                assert face_limit(w, q, f).support == f
            else:
                refused += 1
                with pytest.raises(ValueError, match="not a face"):
                    face_limit(w, q, f)
    assert refused >= 40


def random_weighted_point(rng, d):
    count = rng.randint(3, 7)
    weights = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(count)]
    k = rng.randint(1, count)
    support = rng.sample(range(count), k)
    return weighted_point(weights, support)


def _tied_direction(rng, w):
    """A rational direction pairing two weights equally: normal to their difference."""
    i, j = rng.sample(range(len(w.weights)), 2)
    e = [a - b for a, b in zip(w.weights[i], w.weights[j])]
    if len(e) == 2:
        return (-e[1], e[0])
    f = [rng.randint(-3, 3) for _ in e]  # e x f is normal to e
    return (e[1] * f[2] - e[2] * f[1], e[2] * f[0] - e[0] * f[2], e[0] * f[1] - e[1] * f[0])


def test_limit_point_matches_fraction_oracle():
    # integer weights against an integer primitive(v), checked against the
    # Fraction pairing at rational non-primitive directions, ties included
    rng = fresh_rng("limit-point-oracle")
    ties = 0
    for case in range(60):
        d = 2 + case % 3
        w = random_weighted_point(rng, d)
        dirs = [tuple(rand_rational(rng, 5, 9) for _ in range(d)) for _ in range(4)]
        if d < 4:
            dirs.append(_tied_direction(rng, w))
        for v in dirs:
            if not any(v):
                continue
            for u in (v, tuple(Q(3, 2) * x for x in v), tuple(Q(x, 7) for x in v)):
                got = limit_point(w, u)
                assert got == stability_oracle.limit_point(w, u)
                ties += len(got.support) > 1
    assert ties >= 20


def test_direction_lands_in_exactly_one_open_cone():
    rng = fresh_rng("limits-fan")
    for case in range(20):
        w = random_weighted_point(rng, 2 if case % 2 else 3)
        q = weight_polytope(w)
        cones = [(f, normal_cone_of_face(q, f)) for f in q.faces]
        for _ in range(50):
            v = rand_nonzero_ivec(rng, len(w.weights[0]), 6)
            open_hits = [f for f, c in cones if cone_relint_contains(c, v)]
            assert len(open_hits) == 1
            assert face_of_direction(q, v) == open_hits[0]
            assert limit_point(w, v).support == open_hits[0]


def test_fixed_on_span_of_face_cone():
    rng = fresh_rng("limits-span")
    for case in range(30):
        w = random_weighted_point(rng, 2 if case % 2 else 3)
        q = weight_polytope(w)
        for face in q.faces:
            gens = extreme_rays(normal_cone_of_face(q, face))
            span = list(gens.rays) + list(gens.lineality)
            if not span:
                continue
            limit = face_limit(w, q, face)
            for _ in range(5):
                coeffs = [rng.randint(-3, 3) for _ in span]
                v = tuple(
                    sum(c * g[i] for c, g in zip(coeffs, span))
                    for i in range(len(w.weights[0]))
                )
                if any(v):
                    assert is_fixed(limit, v)


def test_interior_agreement_sampled():
    rng = fresh_rng("limits-interior")
    checked = 0
    while checked < 60:
        w = random_weighted_point(rng, rng.choice((2, 3)))
        q = weight_polytope(w)
        face = rng.choice(q.faces)
        v = sample_relint_point(normal_cone_of_face(q, face), rng)
        if v is None:
            continue
        assert limit_point(w, v) == face_limit(w, q, face)
        checked += 1


def test_two_step_degeneration_sampled():
    rng = fresh_rng("limits-twostep")
    checked = 0
    while checked < 60:
        w = random_weighted_point(rng, rng.choice((2, 3)))
        q = weight_polytope(w)
        nested = [
            (f, g)
            for f in q.faces
            for g in q.faces
            if f < g
        ]
        if not nested:
            continue
        f, g = rng.choice(nested)
        v_mid = sample_relint_point(normal_cone_of_face(q, g), rng)
        v_fine = sample_relint_point(normal_cone_of_face(q, f), rng)
        if v_mid is None or v_fine is None:
            continue
        halfway = limit_point(w, v_mid)
        assert halfway == face_limit(w, q, g)
        assert limit_point(halfway, v_fine) == face_limit(w, q, f)
        checked += 1


def test_normal_cone_of_face_is_the_primitive_differences():
    """Every face of seeded weighted points in 1-4D with repeated weights and
    partial supports: the normals are {primitive(u - w)} over u on the face and
    w in the support, u != w, each an int vector."""
    rng = fresh_rng("normal-cone-of-face")
    repeats = 0
    for case in range(120):
        d = 1 + case % 4
        pool = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 6))]
        weights = [rng.choice(pool) for _ in range(rng.randint(1, 9))]
        support = rng.sample(range(len(weights)), rng.randint(1, len(weights)))
        q = weight_polytope(weighted_point(weights, support))
        for f in q.faces:
            want = {
                primitive(vsub(weights[i], weights[j]))
                for i in f
                for j in support
                if weights[i] != weights[j]
            }
            cone = normal_cone_of_face(q, f)
            assert cone == ConeH(tuple(sorted(want)), d), (weights, support, f)
            assert all(type(x) is int for a in cone.normals for x in a)
            repeats += len({weights[i] for i in f}) < len(f)
    assert repeats >= 50


def test_normal_cones_of_faces_build_no_fractions(monkeypatch):
    rng = fresh_rng("normal-cone-no-fractions")
    w = weighted_point([tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(9)])
    q = weight_polytope(w)
    calls = []
    new = Q.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", staticmethod(counting_new))
    assert Q(1, 2) == Q(2, 4) and len(calls) == 2  # the count sees every Fraction
    calls.clear()
    cones = [normal_cone_of_face(q, f) for f in q.faces]
    monkeypatch.undo()
    assert len(cones) == len(q.faces) > 10
    assert calls == []


# the limits-faces references of the benchmark, hashed as
# perfbench/workloads.py:digest hashes them, so that a change failing the
# benchmark's check fails here first
LIMITS_REFS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "limits.json").read_text()
)


def digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(LIMITS_REFS["points"]))
def test_limits_benchmark_references(key):
    entry = LIMITS_REFS["points"][key]
    q = weight_polytope(weighted_point(entry["weights"]))
    assert digest([sorted(f) for f in q.faces]) == entry["faces_sha256"]
    cones = [normal_cone_of_face(q, f) for f in q.faces]
    assert digest([[list(a) for a in c.normals] for c in cones]) == entry["cones_sha256"]
    assert len(entry["directions"]) == 40
    got = [sorted(face_of_direction(q, v)) for v in entry["directions"]]
    assert got == entry["face_of_direction"]
