"""Reference continuous moments for the tests: simplex integrals in `Fraction`.

Each simplex of the pulling triangulation (as vertex tuples) contributes its
volume, its first moment and its raw second moment, each summed as an exact
rational; the determinant is the `Fraction` elimination of `linalg_oracle`,
so none of the integer sums in `toricstab.moments` is shared.  The scale
r of the lattice series is the lcm of the vertex denominators, and
`extrapolate` takes the Richardson step with one `Fraction` per row and pair.
"""

import math
from fractions import Fraction as Q

import linalg_oracle
from linalg_oracle import vadd
from toricstab.exactgeom import triangulate, vsub
from toricstab.moments import ExtrapolationResult, MomentData


def denominator_lcm(p) -> int:
    """Smallest r >= 1 with r * P a lattice polytope."""
    return math.lcm(*(x.denominator for u in p.vertices for x in u))


def simplex_volume(simplex) -> Q:
    d = len(simplex[0])
    m = [vsub(v, simplex[0]) for v in simplex[1:]]
    return abs(linalg_oracle.det(m)) / math.factorial(d)


def simplex_raw_moments(simplex):
    # integral of u over a simplex: vol * centroid;
    # integral of u u^T:  vol / ((d+1)(d+2)) * (sum_i v_i v_i^T + s s^T), s = sum_i v_i
    d = len(simplex[0])
    vol = simplex_volume(simplex)
    s = simplex[0]
    for v in simplex[1:]:
        s = vadd(s, v)
    first = tuple(vol * x / (d + 1) for x in s)
    scale = vol / ((d + 1) * (d + 2))
    second = [[Q(0)] * d for _ in range(d)]
    for v in simplex:
        for i in range(d):
            for j in range(d):
                second[i][j] += v[i] * v[j]
    for i in range(d):
        for j in range(d):
            second[i][j] = scale * (second[i][j] + s[i] * s[j])
    return vol, first, second


def moment_data(p) -> MomentData:
    """Volume, barycenter and covariance summed over one pulling triangulation."""
    d = p.ambient_dim
    vol = Q(0)
    first = tuple(Q(0) for _ in range(d))
    second = [[Q(0)] * d for _ in range(d)]
    for simplex in triangulate(p):
        sv, sf, ss = simplex_raw_moments(simplex)
        vol += sv
        first = vadd(first, sf)
        for i in range(d):
            for j in range(d):
                second[i][j] += ss[i][j]
    b = tuple(x / vol for x in first)
    cov = tuple(tuple(second[i][j] / vol - b[i] * b[j] for j in range(d)) for i in range(d))
    return MomentData(vol, b, cov)


def extrapolate(series):
    """Richardson pair estimates as one `Fraction` each, residuals as their differences."""
    rows, r = series.rows, series.r
    pairs = list(zip(rows, rows[1:]))
    ef = [(b.weight_sum / Q(b.count) - a.weight_sum / Q(a.count)) / r for a, b in pairs]
    eg = [
        (b.weight_sq_sum / Q(b.m * b.count) - a.weight_sq_sum / Q(a.m * a.count)) / r
        for a, b in pairs
    ]
    res_f = tuple(y - x for x, y in zip(ef, ef[1:]))
    res_g = tuple(y - x for x, y in zip(eg, eg[1:]))
    return ExtrapolationResult(ef[-1], eg[-1], res_f, res_g)
