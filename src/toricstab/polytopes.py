"""The point hull, the H-form reader, and the public cone, fan and triangulation wrappers.

The point hull also returns the mask of the points on each facet, off which `limits`
reads the faces of a weight polytope.  `extreme_rays` of a `ConeH` are its rays modulo
its lineality.  No command on a fan or constraint document compiles it.
"""

import functools
import math
from fractions import Fraction as Q
from typing import NamedTuple

from .exactgeom import (MAX_DIM, ConeH, Facet, Fan, HPolytope, IntVec, VPolytope, _cone_rays,
                        _facet_vertices, _is_face, _lattice, _limit, _normal_fan, _reduce,
                        _scaled, _triangulation, qval, qvec, vneg, vsub)


class ConeGenerators(NamedTuple):
    rays: tuple[IntVec, ...]
    lineality: tuple[IntVec, ...]


def _hull(pts) -> tuple[VPolytope, list[int]]:
    """`vpolytope` of sorted distinct int or rational points, and each facet's mask over pts.

    The points are scaled to integers z_j once and projected onto k
    coordinates that map their affine hull isomorphically onto Q^k.  The
    chart and the cone both read z.  The facets are the extreme rays (a, b)
    of the pointed cone {(a, b) : <a, z_j> + b >= 0}, with the points on
    each as the rows tight on it; the vertices are the points that are
    faces.  Normals are lifted back with zeros on the other coordinates, so
    <normal, u> >= offset holds on the polytope in ambient coordinates.
    Only the vertices kept and the offsets become `Fraction`s.
    """
    if not pts:
        raise ValueError("empty point set")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("dimension mismatch")
    _limit(d, MAX_DIM, "ambient dimension {} exceeds the limit of {}")
    z, scale = _scaled(pts)
    cols = sorted(c for c, _ in _reduce([vsub(u, z[0]) for u in z[1:]], []))
    if not cols:
        return VPolytope((tuple(map(Q, pts[0])),), 0, ()), []
    rays, _ = _cone_rays([(*(u[c] for c in cols), 1) for u in z], len(cols) + 1)
    facets = []
    for (*a, b), members in rays:
        g = math.gcd(*a)
        lift = [0] * d
        for col, x in zip(cols, a):
            lift[col] = x // g
        facets.append(Facet(tuple(lift), Q(-b, g * scale), members))
    facets.sort()
    masks = [f.members for f in facets]
    keep = [i for i in range(len(pts)) if _is_face(1 << i, masks)]
    facets = [f._replace(members=sum(1 << j for j, i in enumerate(keep) if f.members >> i & 1))
              for f in facets] if len(keep) < len(pts) else facets  # re-masked if a point went
    return VPolytope(tuple(tuple(map(Q, pts[i])) for i in keep), len(cols), tuple(facets)), masks


def vpolytope(points) -> VPolytope:
    """Convex hull of a finite rational point set, reduced to its extreme points."""
    return _hull(sorted({qvec(p) for p in points}))[0]


def vertices_from_facets(h: HPolytope) -> VPolytope:
    """Vertices and facets of a bounded, full-dimensional H-polytope with primitive normals."""
    d = h.ambient_dim
    cons = sorted({(_lattice(n, d, "normal"), qval(c, "offset")) for n, c in h.constraints})
    return _facet_vertices(cons, d)


def normal_fan(p: VPolytope) -> Fan:
    """Maximal cones sigma_u = {v : <u, v> <= <u', v> for all vertices u'}.

    sigma_u is cut out, irredundantly, by the edges at u: u and w span an
    edge when {u, w} is a face, the meet of the facets through both.  Each
    cone is the `normal_cone` of u over its neighbours.
    """
    if p.dim != p.ambient_dim:
        raise ValueError("not full-dimensional")
    return _normal_fan(p, _scaled(p.vertices)[0])


@functools.lru_cache(maxsize=256)
def extreme_rays(c: ConeH) -> ConeGenerators:
    """Primitive extreme-ray generators of the cone {v : <a, v> <= 0}, plus a lineality basis.

    Both come from one double description.  The rays are unique modulo the
    lineality space; on a cone with lineality a ray's representative is the
    one the elimination left, not a canonical choice.  For the full space
    (no constraints) the answer is no rays and the standard basis as
    lineality.
    """
    rays, lines = _cone_rays(_scaled([vneg(a) for a in c.normals])[0], c.dim)
    return ConeGenerators(tuple(sorted(x for x, _ in rays)), tuple(sorted(lines)))


def triangulate(p: VPolytope):
    """Pulling triangulation: every face, the polytope first, is coned from its first vertex.

    Returns d-simplices (vertex tuples) with disjoint interiors whose union is
    the polytope; its first vertex is the lexicographically smallest.
    """
    verts = p.vertices
    return [tuple(u for i, u in enumerate(verts) if s >> i & 1) for s in _triangulation(p)]
