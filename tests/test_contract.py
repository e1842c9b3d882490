"""The library's input contract, over every public call shape.

A value a function cannot read is a ValueError naming the argument, by name
or by its repr (an int too long for str() reads "more than 10^k"); a TypeError is allowed only for a non-sequence where a
sequence is required; a record argument (a context, polytope, weighted point,
weight polytope, series or stage result) is not validated.  Each table row is
one call with one plain argument: every position in a valid value of it, the
value itself and each entry at any depth, takes each of the values below in
turn.
"""

import math
from fractions import Fraction as Q

import pytest

from toricstab import (
    HPolytope,
    build_sigma1,
    context_from_constraints,
    context_from_rays,
    context_from_vertices,
    dual_polytope,
    face_limit,
    face_of_direction,
    futaki,
    is_fixed,
    is_positive_definite,
    l2_norm_sq,
    lattice_series,
    limit_point,
    log_discrepancy_S,
    min_norm,
    mu,
    mu_prime_trunc,
    normal_cone_of_face,
    primitive,
    vertices_from_facets,
    vpolytope,
    weight_polytope,
    weighted_point,
)

BIG = 10**5000
VALUES = (None, math.inf, math.nan, "x", 1.5, True, [1], (), BIG, -BIG, Q(1, 3))

P112 = context_from_rays([(1, 0), (0, 1), (-1, -2)])
RAYS = [(1, 0), (0, 1), (-1, -1)]
TRIANGLE = [((1, 0), -1), ((0, 1), -1), ((-1, -1), -1)]
W = weighted_point([(0, 0), (1, 0), (0, 1)])
WP = weight_polytope(W)

# (call, valid argument, entry type, words that name the argument)
SHAPES = {
    "primitive": (primitive, (1, 2), Q, ()),
    "vpolytope": (vpolytope, [(0, 0), (1, 0), (0, 1)], Q, ()),
    "dual_polytope.rays": (dual_polytope, RAYS, int, ("ray",)),
    "dual_polytope.coeffs": (lambda c: dual_polytope(RAYS, c), [0, 0, Q(1, 2)], Q, ()),
    "lattice_series.v": (lambda v: lattice_series(P112.vpoly, v, 9), (1, 0), int, ("direction",)),
    "lattice_series.m_max": (lambda m: lattice_series(P112.vpoly, (1, 0), m), 9, int, ("m_max",)),
    "weighted_point.weights": (weighted_point, [(0, 0), (1, 0), (0, 1)], int, ("weight",)),
    "weighted_point.support": (lambda s: weighted_point(W.weights, s), [0, 1], int, ("support",)),
    "limit_point": (lambda v: limit_point(W, v), (1, 0), Q, ("direction",)),
    "is_fixed": (lambda v: is_fixed(W, v), (1, 0), Q, ("direction",)),
    "normal_cone_of_face": (lambda f: normal_cone_of_face(WP, f), [0, 1], int, ("face",)),
    "face_limit": (lambda f: face_limit(W, WP, f), [0, 1], int, ("face",)),
    "face_of_direction": (lambda v: face_of_direction(WP, v), (1, 0), Q, ("direction",)),
    "is_positive_definite": (is_positive_definite, [[2, 1], [1, 2]], Q, ("matrix",)),
    "context_from_rays.rays": (context_from_rays, RAYS, int, ("ray",)),
    "context_from_rays.coeffs": (lambda c: context_from_rays(RAYS, c), [0, 0, Q(1, 2)], Q, ()),
    "context_from_vertices": (context_from_vertices, [(0, 0), (1, 0), (0, 1)], Q, ()),
    "context_from_constraints": (context_from_constraints, TRIANGLE, Q, ("offset",)),
    "vertices_from_facets.normal": (
        lambda n: vertices_from_facets(HPolytope(((n, -1), *TRIANGLE[1:]))), (1, 0), int,
        ("normal",),
    ),
    "build_sigma1.m1": (lambda m: build_sigma1(P112, m), Q(-1, 4), Q, ("m1",)),
    "futaki": (lambda v: futaki(P112, v), (1, 0), Q, ("direction",)),
    "min_norm": (lambda v: min_norm(P112, v), (1, 0), Q, ("direction",)),
    "l2_norm_sq": (lambda v: l2_norm_sq(P112, v), (1, 0), Q, ("direction",)),
    "mu": (lambda v: mu(P112, v), (1, 0), Q, ("direction",)),
    "log_discrepancy_S": (lambda v: log_discrepancy_S(P112, v), (1, 0), Q, ("direction",)),
    "mu_prime_trunc": (lambda v: mu_prime_trunc(P112, v), (1, 0), Q, ("direction",)),
}


def is_seq(x) -> bool:
    return isinstance(x, (list, tuple))


def positions(x, path=()):
    """(path, entry) for x itself, then for each entry at any depth."""
    yield path, x
    if is_seq(x):
        for i, y in enumerate(x):
            yield from positions(y, (*path, i))


def put(x, path, value):
    """x with the entry at path replaced by value."""
    if not path:
        return value
    entries = list(x)
    entries[path[0]] = put(x[path[0]], path[1:], value)
    return type(x)(entries)


def lacks(value, template) -> bool:
    """Whether value holds a non-sequence where template holds a sequence."""
    if not is_seq(template):
        return False
    return not is_seq(value) or any(lacks(v, template[0]) for v in value)


def readable(x, kind) -> bool:
    try:
        q = Q(x)
    except (TypeError, ValueError, OverflowError):
        return False
    return kind is Q or q.denominator == 1


def label(x) -> str:
    return ("-" if x < 0 else "+") + "10^5000" if x in (BIG, -BIG) else repr(x)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_value_ends_in_a_result_or_the_contracted_error(shape):
    call, valid, kind, words = SHAPES[shape]
    broken = []
    for path, template in positions(valid):
        for value in VALUES:
            try:
                call(put(valid, path, value))
                outcome = None
            except Exception as exc:  # the contract is about which types leave
                outcome = exc
            where = f"{shape} at {path} = {label(value)}"
            if isinstance(outcome, TypeError) and lacks(value, template):
                continue
            if outcome is not None and type(outcome) is not ValueError:
                broken.append(f"{where}: {type(outcome).__name__}: {outcome}")
            elif "set_int_max_str_digits" in str(outcome):
                broken.append(f"{where}: CPython's digit limit names no argument")
            elif not is_seq(template) and not readable(value, kind):
                message = "" if outcome is None else str(outcome)
                if not any(w in message for w in (*words, repr(value))):
                    broken.append(f"{where}: {message or 'returned'} names no argument")
    assert not broken, "\n".join(broken)
