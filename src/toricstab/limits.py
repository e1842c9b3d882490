"""Limit combinatorics of weighted points under one-parameter degenerations.

A weighted point is a list of lattice weights with a nonempty support; only
the support matters for limits.  Its weight polytope is the hull of the
supported weights; faces are the index sets of the weights on them, each
with the cone of directions whose limit lands on it, whose normals a
one-slot memo keeps, point by point, for the last polytope asked.
"""

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

_last = None, frozenset(), {}  # the last polytope asked, its faces, its points' normals


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
    sup = frozenset(range(len(ws)) if support is None else _ints(support, "support index"))
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


def _require_face(q: WeightPolytope, face) -> tuple[frozenset[int], dict]:
    """The face as a frozenset, and q's normals by point so far: the slot is read once,
    so that threads cannot mix polytopes, and matches q by identity."""
    global _last
    if (last := _last)[0] is not q:
        _last = last = q, frozenset(q.faces), {}
    if (f := frozenset(_ints(face, "face index"))) not in last[1]:
        raise ValueError("not a face")
    return f, last[2]


def normal_cone_of_face(q: WeightPolytope, face) -> ConeH:
    """Cone of directions v with <u, v> <= <u', v> for u on the face, u' in the polytope;
    its normals are the union of its members' normals, computed once per polytope object."""
    (ws, sup), (f, rows) = q.point, _require_face(q, face)
    for i in f - rows.keys():  # point i's normals prim(u_i - u_j) over the support
        rows[i] = normal_cone([ws[i]], [ws[j] for j in sup], len(ws[0])).normals
    return ConeH(tuple(sorted(set().union(*map(rows.get, f)))), len(ws[0]))


def face_limit(w: WeightedPoint, q: WeightPolytope, face) -> WeightedPoint:
    """The degeneration of w with support cut down to the face members; q is w's polytope."""
    if q.point != w:
        raise ValueError("weight polytope is not the polytope of this weighted point")
    return WeightedPoint(w.weights, _require_face(q, face)[0])


def face_of_direction(q: WeightPolytope, v) -> frozenset[int]:
    """Member set of the face where <., v> is minimized; always one of q.faces."""
    return _require_face(q, limit_point(q.point, v).support)[0]
