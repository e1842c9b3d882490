"""Limit combinatorics of weighted points under one-parameter degenerations.

A weighted point is a list of lattice weights with a nonempty support; only the support
matters for limits.  Its weight polytope is the hull of the supported weights; faces are
the index sets of the weights on them.  Each face's cone of the directions whose limit
lands on it is read off one table, kept by a one-slot memo for the last polytope asked:
the sorted union of the points' normals and each point's as a bitmask over that order.
"""

from functools import reduce
from itertools import compress
from operator import mul, or_
from typing import NamedTuple

from .exactgeom import (
    HULL_BUDGET,
    ConeH,
    VPolytope,
    _ints,
    _limit,
    _scaled,
    as_direction,
    normal_cone,
)
from .polytopes import _hull

_last = None, {}, [], {}  # the last polytope asked, its faces, its normals, masks by point
_BITS = bytes.maketrans(b"01", b"\0\1")  # a mask's binary digits as compress selectors


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
    at = {u: 1 << k for k, u in enumerate(pts)}
    bits = [(i, at[w.weights[i]]) for i in sup]  # each supported index's bit in the masks
    rows = sorted([(len(f), f) for f in ([i for i, b in bits if m & b] for m in faces)])
    return WeightPolytope(w, poly, tuple([frozenset(f) for _, f in rows]))


def _argmin(w: WeightedPoint, v) -> frozenset[int]:
    """The support indices where <u_i, v> is least; v is scaled to ints if need be."""
    d = len(w.weights[0])
    if not (type(v) is tuple and len(v) == d and all(type(x) is int for x in v) and any(v)):
        (v,), _ = _scaled([as_direction(v, d)])
    vals = {i: sum(map(mul, w.weights[i], v)) for i in w.support}
    best = min(vals.values())
    return frozenset(i for i, val in vals.items() if val == best)


def limit_point(w: WeightedPoint, v) -> WeightedPoint:
    """Support of the limit under t -> 0 along v: the argmin of <u_i, v> on the support."""
    return WeightedPoint(w.weights, _argmin(w, v))


def is_fixed(w: WeightedPoint, v) -> bool:
    """True when the pairing is constant on the support: every index attains the minimum."""
    return _argmin(w, v) == w.support


def _face(q: WeightPolytope, face) -> tuple[frozenset[int], tuple]:
    """The member of q.faces equal to face, and q's slot, matched by identity, read once and
    filled by one assignment, so that a thread never sees half a table or two polytopes'."""
    global _last
    if (last := _last)[0] is not q:
        (ws, sup), d = q.point, len(q.point.weights[0])
        rows = {i: normal_cone([ws[i]], [ws[j] for j in sup], d).normals for i in sup}
        bit = {a: 1 << k for k, a in enumerate(sorted(set().union(*rows.values())))}
        masks = {i: sum(map(bit.get, row)) for i, row in rows.items()}
        _last = last = q, {f: f for f in q.faces}, list(bit), masks
    f = last[1].get(face) if type(face) is frozenset else None
    if f is None and (f := last[1].get(frozenset(_ints(face, "face index")))) is None:
        raise ValueError("not a face")
    return f, last


def normal_cone_of_face(q: WeightPolytope, face) -> ConeH:
    """Cone of directions v with <u, v> <= <u', v> for u on the face, u' in the polytope: the
    union of its members' normals prim(u_i - u_j), the OR of their masks in q's table."""
    f, (_, _, names, masks) = _face(q, face)
    bits = bin(reduce(or_, map(masks.get, f)))[:1:-1].encode().translate(_BITS)  # low bit first
    return ConeH(tuple(compress(names, bits)), len(q.point.weights[0]))


def face_limit(w: WeightedPoint, q: WeightPolytope, face) -> WeightedPoint:
    """The degeneration of w with support cut down to the face members; q is w's polytope."""
    if q.point != w:
        raise ValueError("weight polytope is not the polytope of this weighted point")
    return WeightedPoint(w.weights, _face(q, face)[0])


def face_of_direction(q: WeightPolytope, v) -> frozenset[int]:
    """Member set of the face where <., v> is minimized; always one of q.faces."""
    return _face(q, _argmin(q.point, v))[0]
