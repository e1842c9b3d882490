"""Exact rational linear algebra and desk-scale polyhedral geometry.

Everything in this module is pure and exact: coordinates are
`fractions.Fraction` (integers inside the hull kernels), inputs are never
mutated, and no floating point is used anywhere.  The intended ambient
dimension is small (<= 8).

One elimination kernel does the linear algebra: `_reduce` is fraction-free
Gauss-Jordan elimination (Bareiss) on Python ints, and `solve_unique`,
`rank`, `nullspace` and `det` clear each row's denominators once and read
their answers off its reduced rows.  The hull's chart coordinates and facet
normals come from the same kernel.

One hull carries the combinatorics: a `VPolytope` holds its irredundant
vertices together with its facets, each facet a supporting half-space and
the bitmask of the vertices on it.  Built from points, the facets are found
once in affine-hull coordinates and the vertices are the points that are
the only common point of the facets through them.  Built from constraints
<n_i, u> >= c_i, the same hull runs in one more dimension, on the origin,
e_t and the points (n_i, -c_i): by polarity its facets through the origin
are the vertices of the polytope, their members the constraints tight
there, and the facets are the maximal tight sets; boundedness, feasibility
and full dimension are read off the same facets.  The H-form, the pulling
triangulation and the face lattice of a weight polytope are all read off
this incidence.  The hull refuses inputs whose subset count is over
`HULL_BUDGET`; from constraints it scans only the subsets through the
origin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from typing import NamedTuple

VecQ = tuple[Q, ...]
IntVec = tuple[int, ...]

MAX_DIM = 8
# most subsets one hull may enumerate: about 25 s at the 0.1 ms per 6D subset
# measured on one core of a 2-vCPU x86-64 host, CPython 3.11
HULL_BUDGET = 200_000


# ---------------------------------------------------------------------------
# vectors and matrices


def qvec(xs) -> VecQ:
    return tuple(Q(x) for x in xs)


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(a * b for a, b in zip(u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


def vneg(u):
    return tuple(-a for a in u)


def is_zero(u) -> bool:
    return all(a == 0 for a in u)


def as_direction(v, d) -> VecQ:
    """v as a rational direction in Q^d; ValueError when it is zero or of another length."""
    w = qvec(v)
    if len(w) != d:
        raise ValueError(f"direction has length {len(w)}, expected {d}")
    if is_zero(w):
        raise ValueError("zero direction")
    return w


def primitive(v) -> IntVec:
    """Positive rescaling of a nonzero rational vector to a primitive lattice vector."""
    w = qvec(v)
    if is_zero(w):
        raise ValueError("zero vector has no primitive form")
    (ints,), _ = _scaled([w])
    g = math.gcd(*ints)
    return tuple(i // g for i in ints)


def is_primitive_lattice(v) -> bool:
    w = qvec(v)
    if is_zero(w) or any(x.denominator != 1 for x in w):
        return False
    return math.gcd(*(abs(int(x)) for x in w)) == 1


def _reduce(rows, stop=None):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows, in place.

    Columns are scanned left to right up to `stop` (all by default); a pivot
    is the first nonzero entry at or below the current row, swapped up.  Each
    step replaces every other row by (pivot * row - entry * pivot row) / the
    previous pivot.  Every entry is then a minor of the input, so the division
    is exact and the entries stay integers.  On return rows[i] has the common
    pivot D in column pivots[i] and zero in the other pivot columns, and the
    rows past the pivots vanish on the scanned columns.  Returns (pivots, D,
    sign), sign being the parity of the swaps: a square matrix of full rank
    has determinant sign * D.
    """
    m = len(rows)
    n = (len(rows[0]) if rows else 0) if stop is None else stop
    pivots, prev, sign = [], 1, 1
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        pv = top[c]
        for i in range(m):
            if i != r:
                f = rows[i][c]
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(rows[i], top)]
        pivots.append(c)
        prev = pv
    return pivots, prev, sign


def _scaled(points):
    """Integer points: rational or int points times the lcm r of all their denominators, and r."""
    r = math.lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (r // x.denominator) for x in p) for p in points], r


def solve_unique(a, b):
    """Solve A x = b exactly; None unless a solution exists and is unique."""
    n = len(a[0]) if a else 0
    rows = _scaled([(*row, bi) for row, bi in zip(a, b)])[0]
    pivots, dd, _ = _reduce(rows, n)
    if len(pivots) < n or any(row[n] for row in rows[n:]):
        return None
    return tuple(Q(row[n], dd) for row in rows[:n])


def rank(rows) -> int:
    return len(_reduce(_scaled(rows)[0])[0])


def nullspace(rows, n):
    """Basis of {x in Q^n : A x = 0}."""
    work = _scaled(rows)[0]
    pivots, dd, _ = _reduce(work, n)
    basis = []
    for fc in range(n):
        if fc not in pivots:
            vec = [Q(0)] * n
            vec[fc] = Q(1)
            for row, pc in zip(work, pivots):
                vec[pc] = Q(-row[fc], dd)
            basis.append(tuple(vec))
    return basis


def det(rows) -> Q:
    """Exact determinant of a square matrix A: det(r A) / r^n, with r A integral."""
    ints, r = _scaled(rows)
    pivots, dd, sign = _reduce(ints)
    return Q(sign * dd, r ** len(ints)) if len(pivots) == len(ints) else Q(0)


def affine_dim(points) -> int:
    pts = [qvec(p) for p in points]
    if len(pts) <= 1:
        return 0
    return rank([vsub(p, pts[0]) for p in pts[1:]])


# ---------------------------------------------------------------------------
# polytopes


class Facet(NamedTuple):
    """Supporting half-space <normal, u> >= offset and the bitmask of the points on it."""

    normal: IntVec
    offset: Q
    members: int


@dataclass(frozen=True)
class VPolytope:
    """Polytope as an irredundant, lexicographically sorted vertex tuple.

    `facets` is the hull incidence from the construction that made the
    polytope (bit i of `members` stands for vertices[i]), sorted by normal
    and offset; when it is not given it is computed from the vertices.  A
    lower-dimensional polytope has the facets of its affine hull, with
    normals supported on coordinates that chart that hull.  The field takes
    no part in equality or hashing.
    """

    vertices: tuple[VecQ, ...]
    dim: int
    facets: tuple[Facet, ...] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.facets is None:
            object.__setattr__(self, "facets", _point_facets(list(self.vertices))[1])

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])


@dataclass(frozen=True)
class HPolytope:
    """Intersection of half-spaces <u, normal> >= offset with primitive integral normals."""

    constraints: tuple[tuple[IntVec, Q], ...]

    @property
    def ambient_dim(self) -> int:
        return len(self.constraints[0][0])


@dataclass(frozen=True)
class ConeH:
    """Closed convex cone {v : <a, v> <= 0 for each normal a}; contains 0."""

    normals: tuple[IntVec, ...]
    dim: int

    def contains(self, v) -> bool:
        return all(dot(a, v) <= 0 for a in self.normals)


class ConeGenerators(NamedTuple):
    rays: tuple[IntVec, ...]
    lineality: tuple[IntVec, ...]


@dataclass(frozen=True)
class Fan:
    """Maximal cones of a normal fan, each tagged by its generating vertex."""

    cones: tuple[tuple[VecQ, ConeH], ...]


def _point_facets(pts, through_first=False):
    """Affine dimension and facets of distinct rational points, with point incidence.

    The points are projected onto k coordinates that map their affine hull
    isomorphically onto Q^k and scaled to integers.  Every k points span a
    hyperplane (its normal is the vector of signed maximal minors of their
    differences); it is a facet when no point lies strictly on one side, and
    subsets already inside a found facet are skipped.  Normals are lifted
    back with zeros on the other coordinates, so <normal, u> >= offset holds
    on the polytope in ambient coordinates.  With `through_first` only the
    subsets holding pts[0] are scanned, which finds exactly the facets
    through it.  More than `HULL_BUDGET` subsets to scan is a ValueError.
    """
    d = len(pts[0])
    cols = _reduce(_scaled([vsub(p, pts[0]) for p in pts[1:]])[0], d)[0]
    k = len(cols)
    if k == 0:
        return 0, ()
    head = (0,) if through_first else ()
    count = math.comb(len(pts) - len(head), k - len(head))
    if count > HULL_BUDGET:
        raise ValueError(f"hull needs {count} subsets, exceeds budget of {HULL_BUDGET}")
    z, scale = _scaled([[p[c] for c in cols] for p in pts])
    found = {}
    for rest in itertools.combinations(range(len(head), len(z)), k - len(head)):
        subset = head + rest
        bits = sum(1 << i for i in subset)
        if any(bits & m == bits for m in found.values()):
            continue
        base = z[subset[0]]
        rows = [[x - y for x, y in zip(z[i], base)] for i in subset[1:]]
        pivots, dd, _ = _reduce(rows)
        if len(pivots) < k - 1:
            continue
        # the kernel of the k-1 difference rows, in integers
        free = next(j for j in range(k) if j not in pivots)
        n = [0] * k
        n[free] = dd
        for r, j in zip(rows, pivots):
            n[j] = -r[free]
        c = sum(a * b for a, b in zip(n, base))
        sides = [sum(a * b for a, b in zip(n, u)) - c for u in z]
        if min(sides) < 0 < max(sides):
            continue
        g = math.gcd(*n) * (-1 if min(sides) < 0 else 1)
        lift = [0] * d
        for col, a in zip(cols, n):
            lift[col] = a // g
        members = sum(1 << i for i, s in enumerate(sides) if s == 0)
        found[(tuple(lift), Q(c // g, scale))] = members
    return k, tuple(Facet(n, c, m) for (n, c), m in sorted(found.items()))


def _is_vertex(i, facets) -> bool:
    # the smallest face through point i is the meet of the facets through it
    meet = -1
    for f in facets:
        if f.members >> i & 1:
            meet &= f.members
    return meet == 1 << i


def _select_bits(mask, keep) -> int:
    return sum(1 << j for j, i in enumerate(keep) if mask >> i & 1)


def vpolytope(points) -> VPolytope:
    """Convex hull of a finite rational point set, reduced to its extreme points."""
    pts = sorted({qvec(p) for p in points})
    if not pts:
        raise ValueError("empty point set")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("dimension mismatch")
    k, facets = _point_facets(pts)
    keep = [i for i in range(len(pts)) if _is_vertex(i, facets)] if k else [0]
    facets = tuple(f._replace(members=_select_bits(f.members, keep)) for f in facets)
    return VPolytope(tuple(pts[i] for i in keep), k, facets)


def vertices_from_facets(h: HPolytope) -> VPolytope:
    """Vertices and facets of a bounded, full-dimensional H-polytope, off one hull.

    P = {u : <n_i, u> >= c_i} is the slice t = 1 of the cone
    C = {(u, t) : <n_i, u> >= c_i t, t >= 0}, whose extreme rays are the
    primitive inward normals (x, s) of the facets through 0 of the hull of 0,
    e_t and the points (n_i, -c_i).  A ray with s = 0, or a hull that is not
    full-dimensional, is a direction of recession; no facet through 0 means
    C = {0}; 0 not a vertex means C, and so P, is lower-dimensional.
    Otherwise the vertices of P are the points x/s, and the constraints
    tight at each are the members of its facet.
    """
    d = h.ambient_dim
    if d > MAX_DIM:
        raise ValueError("ambient dimension too large")
    cons = sorted(set(h.constraints))
    m = len(cons)
    pts = [(0,) * (d + 1), (0,) * d + (1,)] + [(*n, -c) for n, c in cons]
    k, rays = _point_facets(pts, through_first=True)
    if k <= d or any(f.normal[d] == 0 for f in rays):
        raise ValueError("unbounded polytope")
    if not rays:
        raise ValueError("infeasible")
    if not _is_vertex(0, rays):
        raise ValueError("not full-dimensional")
    incidence = sorted(
        (tuple(Q(x, f.normal[d]) for x in f.normal[:d]), f.members >> 2) for f in rays
    )
    verts = tuple(u for u, _ in incidence)
    # a redundant constraint is tight on a proper subset of some facet's vertices
    tight = [sum(1 << i for i, (_, t) in enumerate(incidence) if t >> j & 1) for j in range(m)]
    facets = tuple(
        Facet(n, c, t) for (n, c), t in zip(cons, tight) if not any(t & o == t != o for o in tight)
    )
    return VPolytope(verts, d, facets)


def facets_from_vertices(p: VPolytope) -> HPolytope:
    """Irredundant facet description of a full-dimensional polytope."""
    if p.dim != p.ambient_dim:
        raise ValueError("not full-dimensional")
    return HPolytope(tuple((f.normal, f.offset) for f in p.facets))


def normal_cone(face, points) -> ConeH:
    """Cone {v : <u, v> <= <w, v> for u in face, w in points}, face nonempty.

    For a face of the hull of the points it is the face's normal cone.  The
    points are scaled to integers once; each normal is then an integer
    difference divided by its gcd.
    """
    z = _scaled([*face, *points])[0]
    diffs = {vsub(u, w) for u in z[: len(face)] for w in z[len(face) :]}
    diffs.discard((0,) * len(z[0]))
    normals = {tuple(x // g for x in v) for v in diffs for g in [math.gcd(*v)]}
    return ConeH(tuple(sorted(normals)), len(z[0]))


def normal_fan(p: VPolytope) -> Fan:
    """Maximal cones sigma_u = {v : <u, v> <= <u', v> for all vertices u'}."""
    if p.dim != p.ambient_dim:
        raise ValueError("not full-dimensional")
    return Fan(tuple((u, normal_cone([u], p.vertices)) for u in p.vertices))


@lru_cache(maxsize=256)
def extreme_rays(c: ConeH) -> ConeGenerators:
    """Primitive extreme-ray generators of a cone, plus a lineality basis.

    The cone is {v : <a, v> <= 0}.  The lineality space is quotiented out
    first, extreme rays of the pointed quotient are found by enumerating
    (k-1)-subsets of constraints, and the result is lifted back.  For the
    full space (no constraints) the answer is no rays and the standard basis
    as lineality.
    """
    d = c.dim
    lin = nullspace(c.normals, d)
    lin_prims = tuple(sorted(primitive(l) for l in lin))
    # complement of the lineality inside the standard basis
    comp = []
    base = [list(l) for l in lin]
    for j in range(d):
        e = [Q(0)] * d
        e[j] = Q(1)
        if rank(base + [e]) > len(base):
            base.append(e)
            comp.append(tuple(e))
    k = len(comp)
    if k == 0:
        return ConeGenerators((), lin_prims)
    # nonzero normals stay nonzero in quotient coordinates: they kill lin already
    reduced = sorted({tuple(dot(a, e) for e in comp) for a in c.normals} - {tuple([Q(0)] * k)})
    rays = set()
    for subset in itertools.combinations(reduced, k - 1):
        ns = nullspace(list(subset), k)
        if len(ns) != 1:
            continue
        w = ns[0]
        for cand in (w, vneg(w)):
            if all(dot(row, cand) <= 0 for row in reduced):
                lift = [Q(0)] * d
                for coef, e in zip(cand, comp):
                    lift = [x + coef * y for x, y in zip(lift, e)]
                rays.add(primitive(lift))
    return ConeGenerators(tuple(sorted(rays)), lin_prims)


def cone_relint_contains(c: ConeH, v) -> bool:
    """Exact membership of v in the relative interior of the cone."""
    if not c.contains(v):
        return False
    gens = extreme_rays(c)
    pts = list(gens.rays) + [g for l in gens.lineality for g in (l, vneg(l))]
    for a in c.normals:
        implicit = all(dot(a, g) == 0 for g in pts)
        if implicit:
            if dot(a, v) != 0:
                return False
        elif dot(a, v) >= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Fano dual polytopes and triangulation


def dual_polytope(rays, coeffs=None):
    """Polytope {u : <u, ray_i> >= coeff_i - 1} of complete toric log Fano data.

    Rays must be primitive nonzero lattice vectors positively spanning the
    ambient space; coefficients are rationals in [0, 1).  Returns the
    (HPolytope, VPolytope) pair.
    """
    rays = [tuple(r) for r in rays]
    if not rays:
        raise ValueError("degenerate fan")
    d = len(rays[0])
    if d > MAX_DIM:
        raise ValueError("ambient dimension too large")
    for r in rays:
        if len(r) != d:
            raise ValueError("dimension mismatch")
        if not is_primitive_lattice(r):
            raise ValueError("ray must be a primitive nonzero lattice vector")
    if len(set(rays)) != len(rays):
        raise ValueError("duplicate ray")
    if coeffs is None:
        coeffs = [Q(0)] * len(rays)
    coeffs = [Q(c) for c in coeffs]
    if len(coeffs) != len(rays):
        raise ValueError("one coefficient per ray required")
    for c in coeffs:
        if c < 0:
            raise ValueError("coefficient must be >= 0")
        if c >= 1:
            raise ValueError("coefficient must be < 1")
    ints = [tuple(int(x) for x in r) for r in rays]
    h = HPolytope(tuple(sorted((n, c - 1) for n, c in zip(ints, coeffs))))
    # every offset is negative, so the origin is interior: P is nonempty and
    # full-dimensional, and unbounded exactly when the rays do not positively span
    try:
        return h, vertices_from_facets(h)
    except ValueError as exc:
        if str(exc) != "unbounded polytope":
            raise
        raise ValueError("degenerate fan") from exc


def _pull(face, k, apex, facet_sets):
    """Pulling triangulation of a k-dimensional face (vertex bitmask) from apex.

    The facets of a face K are the maximal proper nonempty sets K & G over
    the polytope's facets G, so the recursion needs no hull of its own.
    """
    if face.bit_count() == k + 1:
        return [face]
    cuts = {face & g for g in facet_sets} - {0, face}
    out = []
    for r in sorted(cuts):
        if r >> apex & 1 or any(r & o == r != o for o in cuts):
            continue
        sub_apex = (r & -r).bit_length() - 1
        out += [s | 1 << apex for s in _pull(r, k - 1, sub_apex, facet_sets)]
    return out


def _triangulation(p: VPolytope, apex_index):
    """The simplices of `triangulate` as vertex bitmasks."""
    if p.dim != p.ambient_dim:
        raise ValueError("not full-dimensional")
    n = len(p.vertices)
    if apex_index is None:
        apex_index = min(range(n), key=p.vertices.__getitem__)
    apex_index = range(n)[apex_index]
    return _pull((1 << n) - 1, p.dim, apex_index, [f.members for f in p.facets])


def triangulate(p: VPolytope, apex_index=None):
    """Pulling triangulation coned from the lexicographically smallest vertex.

    Returns a list of d-simplices (vertex tuples) whose interiors are
    disjoint and whose union is the polytope: the apex is coned over the
    facets not containing it, each triangulated in turn from its own first
    vertex.  A different top-level apex may be selected by index; the default
    is deterministic.
    """
    verts = p.vertices
    simplices = _triangulation(p, apex_index)
    return [tuple(u for i, u in enumerate(verts) if s >> i & 1) for s in simplices]
