"""Limit combinatorics of weighted points under one-parameter degenerations.

A weighted point is a list of lattice weights with a nonempty support; only
the support matters for limits.  Its weight polytope is the hull of the
supported weights; faces are identified by the index sets of the weights
lying on them, and each face carries the cone of directions whose limit
lands on it.
"""

import bisect
from typing import NamedTuple

from .exactgeom import (
    HULL_BUDGET,
    ConeH,
    VPolytope,
    _ints,
    _limit,
    _scaled,
    as_direction,
    dot,
    normal_cone,
)
from .polytopes import _hull


class WeightedPoint(NamedTuple):
    weights: tuple[tuple[int, ...], ...]
    support: frozenset[int]


def weighted_point(weights, support=None) -> WeightedPoint:
    """Validated weighted point; support defaults to all indices.

    Every weight entry and support index must equal its int: 2 and
    Fraction(2, 1) read as 2, while 1.5, Fraction(1, 2) and "3" are refused.
    """
    ws = tuple(_ints(w, f"weight {i} entry") for i, w in enumerate(weights))
    if not ws:
        raise ValueError("at least one weight required")
    d = len(ws[0])
    if any(len(w) != d for w in ws):
        raise ValueError("dimension mismatch")
    if support is None:
        support = range(len(ws))
    sup = frozenset(_ints(support, "support index"))
    if not sup:
        raise ValueError("support must be nonempty")
    if any(i < 0 or i >= len(ws) for i in sup):
        raise ValueError("support index out of range")
    return WeightedPoint(ws, sup)


class WeightPolytope(NamedTuple):
    """Hull of the supported weights with the full face lattice by member indices."""

    point: WeightedPoint
    polytope: VPolytope
    faces: tuple[frozenset[int], ...]


def weight_polytope(w: WeightedPoint) -> WeightPolytope:
    """Weight polytope and its faces, each face given by its member index set.

    Every face is the meet of the facets through it, so the faces are the
    distinct supported weights closed under meets with each facet in turn,
    as bitmasks of the points on each facet, which the hull returns.  More
    than `HULL_BUDGET` meets (about 2 s) is a ValueError naming the count.
    """
    sup = sorted(w.support)  # each face's members are added, and so print, in index order
    pts = sorted({w.weights[i] for i in sup})
    poly, masks = _hull(pts)
    faces, meets = {(1 << len(pts)) - 1}, 0
    for g in masks:
        meets += len(faces)
        _limit(meets, HULL_BUDGET, "face lattice needs at least {} meets, exceeds budget of {}")
        faces |= {m & g for m in faces if m & g}
    at = {u: k for k, u in enumerate(pts)}
    members = [frozenset(i for i in sup if m >> at[w.weights[i]] & 1) for m in faces]
    return WeightPolytope(w, poly, tuple(sorted(members, key=lambda f: (len(f), sorted(f)))))


def limit_point(w: WeightedPoint, v) -> WeightedPoint:
    """Support of the limit under t -> 0 along v: the argmin of <u_i, v> on the support."""
    (v,), _ = _scaled([as_direction(v, len(w.weights[0]))])  # the argmin is scale-invariant
    vals = {i: dot(w.weights[i], v) for i in w.support}
    best = min(vals.values())
    return WeightedPoint(w.weights, frozenset(i for i, val in vals.items() if val == best))


def is_fixed(w: WeightedPoint, v) -> bool:
    """True when the pairing is constant on the support: every index attains the minimum."""
    return limit_point(w, v).support == w.support


def _require_face(q: WeightPolytope, face) -> frozenset[int]:
    """The face as a frozenset, found by bisection: q.faces is sorted by size, and
    the faces of one size by their sorted members."""
    f = frozenset(_ints(face, "face index"))
    lo = bisect.bisect_left(q.faces, len(f), key=len)
    hi = bisect.bisect_right(q.faces, len(f), lo, key=len)
    i = bisect.bisect_left(q.faces, sorted(f), lo, hi, key=sorted)
    if i == hi or q.faces[i] != f:
        raise ValueError("not a face")
    return f


def normal_cone_of_face(q: WeightPolytope, face) -> ConeH:
    """Cone of directions v with <u, v> <= <u', v> for u on the face, u' in the polytope."""
    ws = q.point.weights
    f = _require_face(q, face)
    return normal_cone([ws[i] for i in f], [ws[j] for j in q.point.support], len(ws[0]))


def face_limit(w: WeightedPoint, q: WeightPolytope, face) -> WeightedPoint:
    """The degeneration of w with support cut down to the face members; q is w's polytope."""
    if q.point != w:
        raise ValueError("weight polytope is not the polytope of this weighted point")
    f = _require_face(q, face)
    return WeightedPoint(w.weights, f)


def face_of_direction(q: WeightPolytope, v) -> frozenset[int]:
    """Member set of the face where <., v> is minimized; always one of q.faces."""
    return _require_face(q, limit_point(q.point, v).support)
