"""Exact rational linear algebra and desk-scale polyhedral geometry.

Everything in this module is pure and exact: coordinates are
`fractions.Fraction` (integers inside the hull kernels), inputs are never
mutated, and no floating point is used anywhere.  Every hull, of facets or
of points, refuses an ambient dimension above `MAX_DIM` (8).  Every
refusal of work over a bound, here and in `polytopes`, `limits` and
`lattice`, is one `_limit` call.

One elimination kernel does the linear algebra: `_eliminate`, Bareiss's
fraction-free update of one integer row against reduced rows.  `_reduce` drives
it pivoting on each row's first nonzero entry, for `affine_dim`, the hull's
chart and the simplex volumes; `moments._sylvester` drives it unpivoted, for
Sylvester's test and the corrals of stage 2.

One enumeration carries the combinatorics: `_cone_rays`, the double
description method, gives the extreme rays of a cone {x : A x >= 0}, each
with the bitmask of the rows tight on it, and its lineality.  The facets of
conv(p_j) are the rays (a, b) of {<a, p_j> + b >= 0} in coordinates of the
affine hull, their members the points on them.  The vertices of
{<n_i, u> >= c_i} are the rays (x, s) of {<n_i, x> >= c_i s, s >= 0}, read
as x/s, with the constraints tight at each; boundedness, feasibility and
full dimension are read off the same rays.  A `VPolytope` carries the
vertex-facet incidence, off which the H-form, the pulling triangulation, the
edges of the normal fan and, over all points, a weight polytope's faces are
read; `_is_face` tells a vertex or an edge as a set that the facets through
it meet in.  One kernel, `normal_cone`, builds every cone (the normal fan's,
sigma1 and the face cones of `limits`) from integer differences divided by
their gcd.  More than `HULL_BUDGET` candidate ray pairs in all is refused.
"""

import functools
import math
import operator
import re
from fractions import Fraction as Q
from typing import NamedTuple

VecQ = tuple[Q, ...]
IntVec = tuple[int, ...]

MAX_DIM = 8
# most candidate ray pairs one hull may test, summed over its rows, and most
# facet meets one weight polytope's face lattice may take: about 2 s at the
# 4-5 million pairs and 6-12 million meets per second measured on one core of
# a 2-vCPU x86-64 host, CPython 3.11
HULL_BUDGET = 10_000_000
# most simplices one pulling triangulation may produce: about 0.7 s of
# `moment_data` at the 14 800 7D simplices per second measured on the same host
SIMPLEX_BUDGET = 10_000
# a str is read as a rational only in ASCII digits: Fraction also reads exponents,
# underscores and non-ASCII digits, and an exponent like 1e100000000 takes unbounded time
RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


class CertificateError(RuntimeError):
    """An exact internal consistency check failed; results must not be trusted."""


def _shown(x) -> str:
    """repr(x), with an int too long for str(), alone or in a list, tuple or Fraction, as
    "more than 10^k"."""
    if type(x) in (list, tuple):
        inner = ", ".join(map(_shown, x)) + "," * (len(x) == 1 and type(x) is tuple)
        return f"[{inner}]" if type(x) is list else f"({inner})"
    try:
        return repr(x)
    except ValueError:  # str() refuses an int of more than 4300 digits
        if isinstance(x, Q):
            return f"Fraction({_shown(x.numerator)}, {_shown(x.denominator)})"
        if not isinstance(x, int):
            raise
        k = (abs(x).bit_length() - 1) * 30102 // 100000  # log10(2) > 0.30102
        return f"more than 10^{k}" if x > 0 else f"less than -10^{k}"


def _limit(n, limit, message):
    """ValueError(message.format(n, limit)) if n > limit, with n `_shown`."""
    if n > limit:
        raise ValueError(message.format(_shown(n), limit))


# ---------------------------------------------------------------------------
# vectors and matrices


def qvec(xs) -> VecQ:
    """xs as a tuple of Fractions; a ValueError naming xs when an entry is not a rational."""
    try:
        if isinstance(xs, (str, bytes)):  # not a vector of its characters
            raise TypeError
        return tuple(qval(x, "entry") for x in xs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{_shown(xs)} is not a vector of rationals") from exc


def qval(x, what) -> Q:
    """x as a Fraction, a str by `RATIONAL`; a ValueError naming `what` and x when it is not."""
    try:
        if isinstance(x, str) and not RATIONAL.fullmatch(x.strip()):
            raise ValueError
        return Q(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"{what} {_shown(x)} is not a rational") from exc


def _ints(xs, what) -> tuple[int, ...]:
    """The entries of xs as ints; a ValueError naming `what` and the entry not equal to its int."""
    if isinstance(xs, (str, bytes)) or not hasattr(xs, "__iter__"):  # no vector, as qvec says
        raise ValueError(f"{_shown(xs)} is not a vector of rationals")
    out = []
    for x in xs:
        try:
            n = int(x)
        except (TypeError, ValueError, OverflowError):
            n = None
        if n is None or n != x:
            raise ValueError(f"{what} {_shown(x)} is not an integer")
        out.append(n)
    return tuple(out)


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(map(operator.mul, u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


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
    return _primitive_int(_scaled([w])[0][0])


def _eliminate(x, reduced):
    """The integer row x reduced against `reduced`, in order, by Bareiss's fraction-free update.

    `reduced` holds (pivot column c, row) pairs, each row so reduced against the
    rows before it.  A step sets x to (row[c] x - x[c] row) / the previous pivot
    (1 at first), clearing x[c]; every entry stays a minor of the input, an integer.
    """
    prev = 1
    for c, row in reduced:
        pv, f = row[c], x[c]
        x, prev = [(pv * a - f * b) // prev for a, b in zip(x, row)], pv
    return x


def _reduce(rows, reduced):
    """`reduced` extended by the integer rows, each put through `_eliminate` against those
    before it and kept, as (pivot column, row) on its first nonzero entry, unless it is zero."""
    for x in rows:
        if len(reduced) == len(x):  # a pivot in every column: every further row reduces to zero
            break
        if any(x := _eliminate(x, reduced)):
            reduced.append((next(c for c, a in enumerate(x) if a), x))
    return reduced


def _scaled(points):
    """Integer points: rational or int points times the lcm r of all their denominators, and r."""
    r = math.lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (r // x.denominator) for x in p) for p in points], r


def affine_dim(points) -> int:
    z = _scaled([qvec(p) for p in points])[0]
    if any(len(u) != len(z[0]) for u in z):
        raise ValueError("dimension mismatch")
    return len(_reduce([vsub(u, z[0]) for u in z[1:]], [])) if z else -1


# ---------------------------------------------------------------------------
# polytopes


class Facet(NamedTuple):
    """Supporting half-space <normal, u> >= offset and the bitmask of the points on it."""

    normal: IntVec
    offset: Q
    members: int


class VPolytope(NamedTuple):
    """Polytope as an irredundant, lexicographically sorted vertex tuple.

    `facets` is the hull incidence read off the construction (bit i of
    `members` stands for vertices[i]), one facet per normal, sorted by normal; a
    lower-dimensional polytope has the facets of its affine hull, with normals
    supported on coordinates that chart that hull.  Facets are canonical, so
    they are part of the value.
    """

    vertices: tuple[VecQ, ...]
    dim: int
    facets: tuple[Facet, ...]

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])


class HPolytope(NamedTuple):
    """Intersection of half-spaces <u, normal> >= offset with primitive integral normals."""

    constraints: tuple[tuple[IntVec, Q], ...]

    @property
    def ambient_dim(self) -> int:
        if not self.constraints:
            raise ValueError("empty constraint list: a polytope needs at least one constraint")
        return len(self.constraints[0][0])


class ConeH(NamedTuple):
    """Closed convex cone {v : <a, v> <= 0 for each normal a}; contains 0."""

    normals: tuple[IntVec, ...]
    dim: int

    def contains(self, v) -> bool:
        return all(dot(a, v) <= 0 for a in self.normals)


class Fan(NamedTuple):
    """Maximal cones of a normal fan, each tagged by its generating vertex."""

    cones: tuple[tuple[VecQ, ConeH], ...]


def _primitive_int(v) -> IntVec:
    g = math.gcd(*v)
    return tuple(v) if g == 1 else tuple(x // g for x in v)


def _lattice(v, d, what) -> IntVec:
    """v as a tuple of d ints; a ValueError for another length, an entry `_ints` refuses,
    or a gcd other than 1, naming `what`."""
    if len(v) != d:
        raise ValueError("dimension mismatch")
    z = _ints(v, f"{what} entry")
    if math.gcd(*z) != 1:
        raise ValueError(f"{what} {_shown(z)} is not a primitive nonzero lattice vector")
    return z


def _cone_rays(rows, n):
    """Extreme rays and lineality basis of {x in Q^n : <r, x> >= 0 for r in rows}.

    Double description (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda
    and Prodon 1996) from the n unit lines, one row at a time in the given
    order (callers sort; reversed and shuffled orders measured no better).
    A row nonzero on a line makes that line, oriented into the half-space, a
    ray and moves the other lines and the rays onto the row's hyperplane
    along it.  Otherwise the rays on the wrong side go, and each adjacent
    pair across the hyperplane leaves its positive combination on it.  Two
    rays are adjacent when no third ray is tight on all rows tight on both;
    those rows then number at least n - #lines - 2, which filters most pairs
    first.  Rays are primitive integer vectors, unique modulo the lineality,
    each with the bitmask of its tight rows (bit i for rows[i]).  Over
    `HULL_BUDGET` candidate pairs in all is a ValueError.
    """
    lines = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays, pairs = [], 0
    for i, r in enumerate(rows):
        bit = 1 << i
        vals = [sum(map(operator.mul, r, x)) for x in lines]
        j = next((j for j, v in enumerate(vals) if v), None)
        if j is not None:
            # a line leaves the lineality: it becomes the one ray off the hyperplane
            a, line = vals.pop(j), lines.pop(j)
            if a < 0:
                a, line = -a, vneg(line)
            lines = [_primitive_int([a * x - v * y for x, y in zip(l, line)]) if v else l
                     for l, v in zip(lines, vals)]  # primitive already when v = 0
            rays = [(_primitive_int([a * x - v * y for x, y in zip(ray, line)]) if v else ray,
                     t | bit) for ray, t in rays for v in [sum(map(operator.mul, r, ray))]]
            rays.append((line, bit - 1))  # tight on every earlier row, as lines are
            continue
        pos, neg, keep = [], [], []
        for ray, t in rays:
            v = sum(map(operator.mul, r, ray))
            if v > 0:
                pos.append((ray, t, v))
                keep.append((ray, t))
            elif v < 0:
                neg.append((ray, t, v))
            else:
                keep.append((ray, t | bit))
        pairs += len(pos) * len(neg)
        _limit(pairs, HULL_BUDGET, "hull needs at least {} ray pairs, exceeds budget of {}")
        need = n - len(lines) - 2
        tights = [t for _, t in rays]
        for p, tp, vp in pos:
            cands = [(q, tq, vq) for q, tq, vq in neg if (tp & tq).bit_count() >= need]
            if not cands:
                continue
            # a third ray tight on all rows common to p and q shares at least `need` with p
            near = [t for t in tights if (t & tp).bit_count() >= need]
            for q, tq, vq in cands:
                z = tp & tq
                if sum(z & t == z for t in near) == 2:
                    w = [vp * y - vq * x for x, y in zip(p, q)]
                    keep.append((_primitive_int(w), z | bit))
        rays = keep
    return rays, lines


def _is_face(s, masks) -> bool:
    """Whether the point set s (a bitmask) is a face: the meet of the masks through s is s."""
    meet = -1
    for m in masks:
        if m & s == s:
            meet &= m
    return meet == s


def _facet_vertices(cons, d, unbounded="unbounded polytope") -> VPolytope:
    """P = {u : <n_i, u> >= c_i} of sorted, checked pairs (n_i, c_i), off one cone.

    P is the slice t = 1 of C = {(u, t) : <n_i, u> >= c_i t, t >= 0}, in the
    integer rows (r n_i, -r c_i), r the lcm of the offset denominators.  A
    line of C or an extreme ray (x, s) with s = 0 is a direction of recession
    (the ValueError `unbounded`); no ray at all means C = {0}; a constraint
    tight on every ray is an implicit equality, so P is lower-dimensional.
    Else the vertices are the points x/s, ordered as the integers x L/s for
    the lcm L of the s, and the constraints tight at each are its ray's.
    """
    _limit(d, MAX_DIM, "ambient dimension {} exceeds the limit of {}")
    r = math.lcm(*(c.denominator for _, c in cons))
    rows = [(*(r * a for a in n), -c.numerator * (r // c.denominator)) for n, c in cons]
    rays, lines = _cone_rays(rows + [(0,) * d + (1,)], d + 1)
    if lines or any(x[d] == 0 for x, _ in rays):
        raise ValueError(unbounded)
    if not rays:
        raise ValueError("infeasible")
    if functools.reduce(operator.and_, (t for _, t in rays)):
        raise ValueError("not full-dimensional")
    lcm = math.lcm(*(x[d] for x, _ in rays))
    rays.sort(key=lambda ray: [a * (lcm // ray[0][d]) for a in ray[0][:d]])
    verts = tuple(tuple(Q(a, x[d]) for a in x[:d]) for x, _ in rays)
    # a redundant constraint is tight on a proper subset of some facet's vertices
    tight = [sum(1 << i for i, (_, t) in enumerate(rays) if t >> j & 1) for j in range(len(cons))]
    facets = tuple(
        Facet(n, c, t) for (n, c), t in zip(cons, tight) if not any(t & o == t != o for o in tight)
    )
    return VPolytope(verts, d, facets)


def facets_from_vertices(p: VPolytope) -> HPolytope:
    """Irredundant facet description of a full-dimensional polytope."""
    if p.dim != p.ambient_dim:
        raise ValueError("not full-dimensional")
    return HPolytope(tuple((f.normal, f.offset) for f in p.facets))


def normal_cone(face, points, d) -> ConeH:
    """Cone {v : <u, v> <= <w, v> for u in face, w in points} of integer points in Z^d.

    Its normals are the differences u - w, each divided by its gcd.  For a face of the
    hull of the points it is the face's normal cone; an empty face gives the whole space.
    """
    normals = set()
    for u in face:
        for w in points:
            v = tuple(map(operator.sub, u, w))
            g = math.gcd(*v)
            if g == 1:
                normals.add(v)
            elif g:
                normals.add(tuple(x // g for x in v))
    return ConeH(tuple(sorted(normals)), d)


def _normal_fan(p: VPolytope, z) -> Fan:
    n, cones = len(p.vertices), []
    for i, u in enumerate(p.vertices):
        # the polytope itself heads the faces through u: in 1D it is the one edge
        through = [(1 << n) - 1, *(f.members for f in p.facets if f.members >> i & 1)]
        near = [z[j] for j in range(n) if j != i and _is_face(1 << i | 1 << j, through)]
        cones.append((u, normal_cone([z[i]], near, p.dim)))
    return Fan(tuple(cones))


# ---------------------------------------------------------------------------
# Fano dual polytopes and triangulation


def dual_polytope(rays, coeffs):
    """Polytope {u : <u, ray_i> >= coeff_i - 1} of complete toric log Fano data.

    Rays must be primitive nonzero lattice vectors positively spanning the
    ambient space; coefficients are rationals in [0, 1), or None for all 0.
    Returns the (HPolytope, VPolytope) pair.
    """
    _, _, v, cons = _dual(rays, coeffs)
    return HPolytope(tuple(cons)), v


def _dual(rays, coeffs):
    """`dual_polytope`'s checked rays as ints, its coefficients as Fractions, the VPolytope,
    and the constraints (ray, coefficient - 1) sorted by ray."""
    if not rays:
        raise ValueError("degenerate fan")
    d = len(rays[0])
    ints = [_lattice(r, d, "ray") for r in rays]
    if len(set(ints)) != len(ints):
        raise ValueError("duplicate ray")
    coeffs = (Q(0),) * len(rays) if coeffs is None else qvec(coeffs)
    if len(coeffs) != len(rays):
        raise ValueError("one coefficient per ray required")
    for c in coeffs:
        if c.numerator < 0:
            raise ValueError("coefficient must be >= 0")
        if c.numerator >= c.denominator:
            raise ValueError("coefficient must be < 1")
    cons = sorted((n, Q(c.numerator - c.denominator, c.denominator)) for n, c in zip(ints, coeffs))
    # every offset is negative, so the origin is interior: P is nonempty and
    # full-dimensional, and unbounded exactly when the rays do not positively span
    return tuple(ints), coeffs, _facet_vertices(cons, d, "degenerate fan"), cons


def _pull(face, k, facet_sets):
    """Pulling triangulation of a k-dimensional face (vertex bitmask) from its first vertex.

    The apex, the face's lowest bit, is coned over the facets of the face
    without it, each pulled from its own first vertex.  The facets of a face K
    are the maximal proper nonempty sets K & G over the polytope's facets G,
    so the recursion needs no hull of its own.  More than `SIMPLEX_BUDGET`
    simplices is a ValueError.
    """
    if face.bit_count() == k + 1:
        return [face]
    apex = face & -face
    cuts = {face & g for g in facet_sets} - {0, face}
    out = []
    for r in sorted(cuts):
        if r & apex or any(r & o == r != o for o in cuts):
            continue
        out += [s | apex for s in _pull(r, k - 1, facet_sets)]
        _limit(len(out), SIMPLEX_BUDGET,
               "triangulation needs at least {} simplices, exceeds budget of {}")
    return out


def _triangulation(p: VPolytope):
    """The simplices of `triangulate` as vertex bitmasks."""
    if p.dim != p.ambient_dim:
        raise ValueError("not full-dimensional")
    return _pull((1 << len(p.vertices)) - 1, p.dim, [f.members for f in p.facets])
