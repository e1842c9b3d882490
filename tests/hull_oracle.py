"""Reference hull routines for the tests: slow, independent subset enumeration.

`in_convex_hull` is Caratheodory's test, one exact solve for each subset of
at most d+1 points; `facets_by_subsets` tries every d-subset of vertices as
a facet hyperplane; `faces_by_subsets` builds a weight polytope's face
lattice from the two in exact coordinates on the affine hull;
`vertices_by_subsets` solves every d-subset of constraints and keeps the
feasible solutions, boundedness asked of the recession cone's extreme rays;
`extreme_rays_by_subsets` finds those rays on the quotient by the lineality
space, one kernel per (k-1)-subset of normals.  `cone_relint_contains` tests
relative-interior membership against the implicit equalities, which it
reads off the cone's `extreme_rays`.
"""

import itertools
from fractions import Fraction as Q

from linalg_oracle import nullspace, rank, solve_unique
from toricstab.exactgeom import (
    ConeGenerators,
    ConeH,
    Facet,
    VPolytope,
    dot,
    extreme_rays,
    is_zero,
    primitive,
    qvec,
    vneg,
    vsub,
)


def in_convex_hull(p, points) -> bool:
    """p lies in the hull iff some affinely independent subset of size <= d+1
    carries it with nonnegative barycentric weights."""
    pts = [qvec(x) for x in points]
    p = qvec(p)
    d = len(p)
    for k in range(1, min(len(pts), d + 1) + 1):
        for subset in itertools.combinations(pts, k):
            rows = [[subset[j][i] for j in range(k)] for i in range(d)]
            rows.append([Q(1)] * k)
            lam = solve_unique(rows, list(p) + [Q(1)])
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


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


def hull_vertices(points):
    """Sorted extreme points: the distinct points outside the hull of the others."""
    pts = sorted({qvec(p) for p in points})
    return tuple(p for p in pts if not in_convex_hull(p, [q for q in pts if q != p]))


def facets_by_subsets(verts):
    """Set of (primitive inward normal, offset) of a full-dimensional vertex set."""
    d = len(verts[0])
    facets = set()
    for subset in itertools.combinations(verts, d):
        ns = nullspace([vsub(u, subset[0]) for u in subset[1:]], d)
        if len(ns) != 1:
            continue
        n = primitive(ns[0])
        c = dot(n, subset[0])
        sides = [dot(n, u) - c for u in verts]
        if all(s >= 0 for s in sides):
            facets.add((n, c))
        elif all(s <= 0 for s in sides):
            facets.add((vneg(n), -c))
    return facets


def affine_coordinates(points, frame):
    """Coordinates of points in a basis of the affine hull of frame, based at frame[0]."""
    o = qvec(frame[0])
    basis = []
    for u in frame[1:]:
        dvec = vsub(qvec(u), o)
        if not is_zero(dvec) and rank(basis + [list(dvec)]) > len(basis):
            basis.append(list(dvec))
    cols = [[b[i] for b in basis] for i in range(len(o))]
    return [solve_unique(cols, list(vsub(qvec(p), o))) for p in points]


def faces_by_subsets(weights, support):
    """Member sets of all faces of the hull of the supported weights."""
    sup = sorted(support)
    verts = hull_vertices([weights[i] for i in sup])
    faces = {frozenset(sup)}
    if len(verts) < 2:
        return faces
    coords = dict(zip(sup, affine_coordinates([weights[i] for i in sup], verts)))
    for n, c in facets_by_subsets(affine_coordinates(verts, verts)):
        facet = frozenset(i for i in sup if dot(n, coords[i]) == c)
        faces |= {g & facet for g in faces}
    return faces - {frozenset()}


def vertices_by_subsets(h):
    """Vertices and facets of an H-polytope; a lower-dimensional one comes back
    with its dimension and no facets."""
    cons = h.constraints
    d = h.ambient_dim
    recession = extreme_rays_by_subsets(ConeH(tuple(sorted({vneg(n) for n, _ in cons})), d))
    if recession.rays or recession.lineality:
        raise ValueError("unbounded polytope")
    cands = set()
    for subset in itertools.combinations(cons, d):
        sol = solve_unique([list(n) for n, _ in subset], [c for _, c in subset])
        if sol is not None and all(dot(n, sol) >= c for n, c in cons):
            cands.add(sol)
    if not cands:
        raise ValueError("infeasible")
    verts = tuple(sorted(cands))
    dim = rank([vsub(u, verts[0]) for u in verts[1:]]) if len(verts) > 1 else 0
    if dim < d:
        return VPolytope(verts, dim, ())
    tight = {(n, c): sum(1 << i for i, u in enumerate(verts) if dot(n, u) == c) for n, c in cons}
    facets = tuple(
        Facet(n, c, t)
        for (n, c), t in sorted(tight.items())
        if not any(t & o == t != o for o in tight.values())
    )
    return VPolytope(verts, dim, facets)


def extreme_rays_by_subsets(c: ConeH) -> ConeGenerators:
    """Primitive extreme rays and a lineality basis of {v : <a, v> <= 0}.

    The lineality space is the kernel of the normals; unit vectors complete
    a basis of it, and the cone is the lineality plus its part on their
    span.  There every ray spans the kernel of some k-1 of the normals, in
    the k complement coordinates, and satisfies all of them.
    """
    d = c.dim
    lin = nullspace(c.normals, d)
    comp, base = [], [list(l) for l in lin]
    for j in range(d):
        e = [Q(int(i == j)) for i in range(d)]
        if rank(base + [e]) > len(base):
            base.append(e)
            comp.append(j)
    lin_prims = tuple(sorted(primitive(l) for l in lin))
    if not comp:
        return ConeGenerators((), lin_prims)
    reduced = sorted({tuple(a[j] for j in comp) for a in c.normals} - {(0,) * len(comp)})
    rays = set()
    for subset in itertools.combinations(reduced, len(comp) - 1):
        ns = nullspace(list(subset), len(comp))
        if len(ns) != 1:
            continue
        for cand in (ns[0], vneg(ns[0])):
            if all(dot(row, cand) <= 0 for row in reduced):
                lift = [Q(0)] * d
                for j, x in zip(comp, cand):
                    lift[j] = x
                rays.add(primitive(lift))
    return ConeGenerators(tuple(sorted(rays)), lin_prims)
