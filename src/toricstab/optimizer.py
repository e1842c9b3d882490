"""Two-stage lexicographic minimization of the stability invariant.

Everything is read off the facets of the moment polytope P.  The normal
cone at a vertex is generated by the primitive inward normals of the facets
through it, and on each such cone the first invariant is linear-fractional
with positive denominator, so stage 1 is a minimum over the facet normals,
each read off its facet's offset.  The cone where that minimum m1 is
attained is the normal cone of the face of P through c = (1 + 1/m1) b,
generated by the normals g of the facets tight at c.  Its slice by
<b, v> = 1 is conv(g / <b, g>), and stage 2 is its point nearest to 0 in
the Cov norm, found by Wolfe's walk.  `optimal_destabilizer` clears b,
the facet offsets and the vertices to integers once, by one factor s, and
Cov by another, D; the three stages are kernels on that view, which the
public stages read too.  Every later step reads those integers: stage 1
compares its values as numerators over one lcm, and Sylvester's test on
D Cov, sigma1's H-form and mu at primitive(v*) clear nothing again, so a
`Fraction` is formed only for a reported value.  Strict convexity makes
the optimum unique.
"""

import math
from fractions import Fraction as Q
from typing import NamedTuple

from .exactgeom import (
    CertificateError,
    ConeH,
    _eliminate,
    _primitive_int,
    _scaled,
    dot,
    normal_cone,
    qval,
)
from .moments import _sylvester
from .stability import SEMISTABLE, UNSTABLE, StabilityContext, StabilityValue, verdict


class Stage1Result(NamedTuple):
    m1: Q
    witness_rays: tuple[tuple[int, ...], ...]
    per_cone_minima: tuple[tuple[tuple[Q, ...], Q], ...]


class SigmaOne(NamedTuple):
    """The minimizer cone of stage 1 in H-form, with its generating rays."""

    cone: ConeH
    m1: Q
    rays: tuple[tuple[int, ...], ...]


class DestabReport(NamedTuple):
    verdict: str
    m1: Q
    m2_sign: int
    m2_sq: Q
    delta: Q
    v_star_rational: tuple[Q, ...] | None = None
    v_star_primitive: tuple[int, ...] | None = None
    sigma1: SigmaOne | None = None
    stage1: Stage1Result | None = None

    @property
    def m_mu(self) -> StabilityValue:
        return StabilityValue(self.m1, self.m2_sign, self.m2_sq)


def _view(ctx: StabilityContext):
    """(B, O, Z, s): b, the facet offsets and the vertices cleared by one factor s."""
    points = [ctx.moments.barycenter, [f.offset for f in ctx.vpoly.facets], *ctx.vpoly.vertices]
    (bb, offsets, *z), s = _scaled(points)
    return bb, offsets, z, s


def minimize_mu1(ctx: StabilityContext) -> Stage1Result:
    """Global minimum of the first invariant over all nonzero one-parameter subgroups.

    The maximal cones of the normal fan are the normal cones at the vertices,
    each generated by the inward normals of the facets through its vertex;
    the invariant is linear-fractional with positive denominator on each
    cone, so the facet normals are an exhaustive candidate set.  At a facet
    normal n, Fut(n) = -<b, n> and ||n||_m = <b, n> - offset.
    """
    if verdict(ctx) == SEMISTABLE:
        raise ValueError("semistable")
    return _stage1(ctx, *_view(ctx)[:2])


def _stage1(ctx, bb, offsets) -> Stage1Result:
    """`minimize_mu1` on B = s b and the offsets O = s c, compared as integers."""
    facets = ctx.vpoly.facets
    # mu1(n) = -<B, n> / (<B, n> - O), each denominator positive just when b is interior:
    # the values compare as their numerators over the lcm L of the denominators
    bns = [dot(bb, f.normal) for f in facets]
    dens = [bn - o for bn, o in zip(bns, offsets)]
    if min(dens) <= 0:
        raise CertificateError("barycenter not interior to P")
    lcm = math.lcm(*dens)
    vals = [-bn * (lcm // den) for bn, den in zip(bns, dens)]
    per_cone = []
    for i, vertex in enumerate(ctx.vpoly.vertices):
        through = [val for f, val in zip(facets, vals) if f.members >> i & 1]
        if len(through) < ctx.dim:
            raise CertificateError(f"vertex {vertex} lies on fewer than {ctx.dim} facets")
        per_cone.append((vertex, min(through)))
    best = min(vals)
    if best >= 0:
        raise CertificateError("stage 1 found no destabilizing direction")
    witnesses = tuple(f.normal for f, val in zip(facets, vals) if val == best)
    # the vertices are sorted, so per_cone is too; one Fraction per distinct value
    q = {v: Q(v, lcm) for v in {best, *(v for _, v in per_cone)}}
    return Stage1Result(q[best], witnesses, tuple((u, q[v]) for u, v in per_cone))


def build_sigma1(ctx: StabilityContext, m1: Q) -> SigmaOne:
    """Cone where the first invariant attains its minimum m1.

    With g(v) = Fut(v) - m1 ||v||_m = max_j [-(1+m1)<b,v> + m1 <u_j,v>] over
    vertices u_j (m1 < 0 turns the scaled minimum into a maximum), the cone
    is {v : (1+m1)<b,v> - m1 <u_j,v> >= 0 for all j}, and g vanishes exactly
    on it.  Dividing by -m1, that is {v : <u_j - c, v> >= 0} with
    c = (1 + 1/m1) b, the normal cone of the face of P through c when c lies
    on the boundary of P; its rays are the normals of the facets tight at c.
    An m1 that puts c elsewhere is not the context's minimum: a ValueError.
    """
    m1 = qval(m1, "m1")
    if m1 >= 0:
        raise ValueError("stage-1 minimum must be negative")
    try:
        return _sigma1(ctx, m1, *_view(ctx)[:3])
    except CertificateError as exc:  # the caller's m1, not an internal fault
        raise ValueError(str(exc)) from None


def _sigma1(ctx, m1, bb, offsets, z) -> SigmaOne:
    # c = (1 + 1/m1) b = (p + q) b / p for m1 = p / q < 0; times -p s > 0 it is -(p + q) B,
    # and with the offsets -p O and vertices -p Z each slack has the sign of <n, c> - offset
    p, q = m1.as_integer_ratio()
    cc = [-(p + q) * x for x in bb]
    cone = normal_cone([cc], [[-p * x for x in u] for u in z], len(cc))
    slack = [(dot(f.normal, cc) + p * o, f.normal) for f, o in zip(ctx.vpoly.facets, offsets)]
    if min(s for s, _ in slack) < 0:
        raise CertificateError("inconsistent M1: (1 + 1/m1) b lies outside P")
    rays = tuple(n for s, n in slack if s == 0)
    if not rays:
        raise CertificateError("inconsistent M1: (1 + 1/m1) b lies inside P")
    return SigmaOne(cone, m1, rays)


def _corral(gram, corral):
    """The affine minimizer of the points `corral` as integer weights over one positive
    denominator; None when the points are affinely dependent.

    Wolfe's test of affine independence is Sylvester's criterion: the edges
    p_i - p_0 are independent just when their Gram matrix is positive definite,
    so `_sylvester` of their Gram rows, then p_0's row reduced against them,
    ends as det Gram(p_i - p_0) > 0 times the affine minimizer, even at 0.
    """
    i0, *rest = corral
    # <p_i, q> for q = p_l - p_0 (l in rest) and q = p_0, then p_i's coefficients
    row = {i: [*(gram[i][l] - gram[i][i0] for l in rest), gram[i][i0],
               *(int(l == i) for l in corral)] for i in corral}
    reduced = _sylvester([[a - b for a, b in zip(row[j], row[i0])] for j in rest])
    if reduced is None:
        return None
    weights = _eliminate(row[i0], reduced)[len(rest) + 1:]
    g = math.gcd(*weights)  # it divides their sum, det Gram(p_i - p_0): the least denominator
    return {i: w // g for i, w in zip(corral, weights)}, sum(weights) // g


def _nearest(gram) -> tuple[dict[int, int], int]:
    """Weights of the point x of conv(p_i) nearest to 0, from gram[i][j] = <p_i, p_j>.

    Wolfe's walk (Math. Programming 11, 1976): a point with <x, p_j> < <x, x>
    joins the corral, x moves toward the corral's affine minimizer, and a
    point whose weight reaches 0 is dropped.  <x, x> falls with each corral,
    so the walk ends, on the certificate <x, p_j> >= <x, x> for every j.
    The walk starts from the whole set when it is a corral, its affine
    minimizer having positive weights (then that is x), and else from the
    nearest point.  The weights are carried, and returned, as integers over
    one positive denominator k.
    """
    n = len(gram)
    weights, k = _corral(gram, range(n)) or ({0: 0}, 1)  # a zero weight: no start
    if min(weights.values()) <= 0:
        weights, k = {min(range(n), key=lambda i: gram[i][i]): 1}, 1
    while True:
        gx = [sum(w * row[i] for i, w in weights.items()) for row in gram]  # k <x, p_j>
        xx = sum(w * gx[i] for i, w in weights.items())  # k^2 <x, x>
        j = min(range(n), key=gx.__getitem__)
        if gx[j] * k >= xx:
            return weights, k
        weights[j] = 0
        while True:
            alpha, ka = _corral(gram, sorted(weights)) or (None, 1)
            if alpha is None:
                raise CertificateError("singular corral in stage 2")
            if min(alpha.values()) > 0:
                weights, k = alpha, ka
                break
            # step t to the first weight (1 - t) w + t alpha that reaches 0
            t = min(Q(w * ka, w * ka - alpha[i] * k) for i, w in weights.items() if alpha[i] <= 0)
            tn, td = t.as_integer_ratio()
            step = {i: (td - tn) * ka * w + tn * k * alpha[i] for i, w in weights.items()}
            weights, k = {i: w for i, w in step.items() if w > 0}, td * k * ka


def minimize_mu2_on_cone(ctx: StabilityContext, sigma1: SigmaOne):
    """Unique minimizer of v^T Cov v on {v in sigma1 : <b, v> = 1}, and mu there.

    Every ray g of sigma1 pairs positively with b, so the slice is the
    polytope conv(g / <b, g>) and the minimizer is its point nearest to 0
    in the Cov norm.  With C = D Cov and B = E b integral (E is the factor
    s of the view, which mu at the optimum reads too) and L the lcm of the
    <B, g>, each such point is E / L times the integer p_g = L g / <B, g>;
    the Gram matrix of the p_g under C is the true one times D L^2 / E^2 > 0,
    which leaves the weights of the walk unchanged.
    """
    bb, _, z, e = _view(ctx)
    v_star, _, value = _stage2(ctx, sigma1, bb, z, e)
    return v_star, value


def _stage2(ctx, sigma1, bb, z, e):
    """`minimize_mu2_on_cone` on B = E b and the vertices Z = E u, with C = D Cov cleared
    once for Sylvester's test, the walk and mu: (v*, primitive(v*), mu there)."""
    c, dd = _scaled(ctx.moments.covariance)
    if _sylvester(c) is None:
        raise CertificateError("covariance not positive definite")
    beta = [dot(bb, g) for g in sigma1.rays]
    if min(beta) <= 0:
        raise CertificateError("a ray of sigma1 pairs non-positively with b")
    lcm = math.lcm(*beta)
    points = [[lcm // bg * x for x in g] for g, bg in zip(sigma1.rays, beta)]
    cov_points = [tuple(dot(row, p) for row in c) for p in points]
    weights, k = _nearest([[dot(p, cq) for cq in cov_points] for p in points])
    # v* = E / (L k) x for the integer weights over their denominator k
    x = [sum(w * col[i] for i, w in weights.items()) for col in zip(*points)]
    # the certificates run on the integer primitive(v*)
    v_star, p = tuple(Q(e * xi, lcm * k) for xi in x), _primitive_int(x)
    if not sigma1.cone.contains(p):
        raise CertificateError("stage 2 optimum outside the H-form of sigma1")
    # invariants.mu(ctx, p) on the same integers: <b, p> = <B, p> / E, min <u, p> = min <Z, p> / E
    # and p^T Cov p = p^T C p / D
    bp, zp, quad = dot(bb, p), min(dot(u, p) for u in z), sum(a * dot(r, p) for a, r in zip(p, c))
    value = StabilityValue(Q(-bp, bp - zp), (bp < 0) - (bp > 0), Q(bp * bp * dd, e * e * quad))
    if value.mu1 != sigma1.m1:
        raise CertificateError("stage 2 left the stage-1 level set")
    return v_star, p, value


def optimal_destabilizer(ctx: StabilityContext) -> DestabReport:
    """Verdict plus, when unstable, the unique optimal destabilizing direction."""
    if verdict(ctx) == SEMISTABLE:
        return DestabReport(SEMISTABLE, Q(0), 0, Q(0), Q(1))
    try:
        bb, offsets, z, s = _view(ctx)
        stage1 = _stage1(ctx, bb, offsets)
        sigma1 = _sigma1(ctx, stage1.m1, bb, offsets, z)
        for w in stage1.witness_rays:
            if not sigma1.cone.contains(w):
                raise CertificateError("witness ray outside sigma1")
        if stage1.witness_rays != sigma1.rays:
            raise CertificateError("stage-1 witness rays differ from the rays of sigma1")
        v_star, p, value = _stage2(ctx, sigma1, bb, z, s)
        if value.mu2_sign != -1:
            raise CertificateError("optimal direction is not destabilizing")
    except CertificateError as exc:
        raise CertificateError(str(exc) if ctx.name is None else f"{ctx.name}: {exc}") from exc
    return DestabReport(
        UNSTABLE,
        stage1.m1,
        value.mu2_sign,
        value.mu2_sq,
        stage1.m1 + 1,
        v_star,
        p,
        sigma1,
        stage1,
    )
