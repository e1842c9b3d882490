"""Exact continuous moments of a rational polytope and lattice-point series.

Continuous moments (volume, barycenter, covariance) come from the pulling
triangulation and closed-form simplex integrals.  The vertices are scaled
once by the lcm r of their denominators, so r P is a lattice polytope and
every simplex adds integer sums (its determinant, its vertex sum and its
second-moment matrix); one `Fraction` per output entry divides at the end.
The lattice series counts integer points of dilates and accumulates
pairing sums in exact integer arithmetic; the scan runs over a bounding box
of all axes but one, with the last axis summed in closed form.  numpy is
imported only when this lattice-point counter runs (`lattice_series`), so
importing the package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import NamedTuple

from .exactgeom import (
    HPolytope,
    VPolytope,
    _reduce,
    _scaled,
    _triangulation,
    as_direction,
    det,
    dot,
    facets_from_vertices,
)


@dataclass(frozen=True)
class MomentData:
    """Volume, barycenter and recentred second moment of a full-dimensional polytope."""

    volume: Q
    barycenter: tuple[Q, ...]
    covariance: tuple[tuple[Q, ...], ...]


class SeriesRow(NamedTuple):
    m: int
    count: int
    weight_sum: int
    weight_sq_sum: int
    weight_min: int


@dataclass(frozen=True)
class LatticeSeries:
    r: int
    rows: tuple[SeriesRow, ...]


@dataclass(frozen=True)
class ExtrapolationResult:
    F0_est: Q
    Q0_est: Q
    residuals: tuple[Q, ...]
    q_residuals: tuple[Q, ...]


def moment_data(p: VPolytope, apex_index=None) -> MomentData:
    """Volume, barycenter and covariance summed over one pulling triangulation.

    With r = `denominator_lcm(p)` the scaled vertices z = r u are integers.  A
    simplex with D = |det| of its edge vectors and vertex sum s adds D to
    vol, D s to first and D (sum of z z^T + s s^T) to the upper triangle of
    second; then the volume is vol / (d! r^d), b = first / ((d+1) r vol) and
    Cov = second / ((d+1)(d+2) r^2 vol) - b b^T.
    """
    d = p.ambient_dim
    z, r = _scaled(p.vertices)
    vol, first = 0, [0] * d
    second = [[0] * d for _ in range(d)]
    for mask in _triangulation(p, apex_index):
        simplex = [u for i, u in enumerate(z) if mask >> i & 1]
        base = simplex[0]
        dd = abs(_reduce([[x - y for x, y in zip(u, base)] for u in simplex[1:]])[1])
        s = [sum(col) for col in zip(*simplex)]
        vol += dd
        for i in range(d):
            first[i] += dd * s[i]
            for j in range(i, d):
                second[i][j] += dd * (sum(u[i] * u[j] for u in simplex) + s[i] * s[j])
    b = tuple(Q(x, (d + 1) * r * vol) for x in first)
    den = (d + 1) * (d + 2) * r * r * vol
    cov = tuple(
        tuple(Q(second[min(i, j)][max(i, j)], den) - b[i] * b[j] for j in range(d))
        for i in range(d)
    )
    return MomentData(Q(vol, math.factorial(d) * r**d), b, cov)


def volume(p: VPolytope) -> Q:
    """Exact Lebesgue volume of a full-dimensional polytope."""
    return moment_data(p).volume


def barycenter(p: VPolytope) -> tuple[Q, ...]:
    """Volume-normalized first moment."""
    return moment_data(p).barycenter


def covariance(p: VPolytope):
    """Recentred second moment matrix (integral of (u-b)(u-b)^T, volume-normalized)."""
    return moment_data(p).covariance


def is_positive_definite(matrix) -> bool:
    """Leading-principal-minor test for a symmetric rational matrix."""
    n = len(matrix)
    for k in range(1, n + 1):
        if det([row[:k] for row in matrix[:k]]) <= 0:
            return False
    return True


def support_min(p: VPolytope, v) -> Q:
    """min_{u in P} <u, v>, attained at a vertex."""
    v = as_direction(v, p.ambient_dim)
    return min(dot(u, v) for u in p.vertices)


def denominator_lcm(p: VPolytope) -> int:
    """Smallest r >= 1 with r * P a lattice polytope."""
    return math.lcm(*(x.denominator for u in p.vertices for x in u))


def _int_ceil_div(a, b):
    # b > 0
    return -((-a) // b)


def _cells_for_dilate(h: HPolytope, verts, m, scan, vi):
    """Integer interval [lo, hi] of the scan axis over the prefix box of m * P.

    Returns (axes, prefix_columns, lo, hi) as numpy arrays; cells with empty
    intervals are already removed.  Arithmetic is integer-exact: int64 when a
    conservative magnitude bound fits, Python ints otherwise.
    """
    import numpy as np

    d = h.ambient_dim
    cons = []
    for n, c in h.constraints:
        q = c.denominator
        cons.append((tuple(int(x) * q for x in n), m * c.numerator))
    lo_box, hi_box = [], []
    for k in range(d):
        vals = [m * u[k] for u in verts]
        lo_box.append(math.ceil(min(vals)))
        hi_box.append(math.floor(max(vals)))
    axes = [k for k in range(d) if k != scan]
    cmax = max(1, *(max(abs(lo_box[k]), abs(hi_box[k])) for k in range(d)))
    vbound = sum(abs(x) for x in vi) * cmax + 1
    conbound = max(sum(abs(x) for x in n) * cmax + abs(rhs) for n, rhs in cons)
    box_cells = 1
    for k in axes:
        box_cells *= max(1, hi_box[k] - lo_box[k] + 1)
    percell = 8 * (2 * cmax + 2) * (vbound * vbound + 1)
    big = max(conbound * 4, box_cells * percell)
    obj = big >= 2**62
    dt = object if obj else np.int64
    if axes:
        if obj:
            axis_arrays = [
                np.array(list(range(lo_box[k], hi_box[k] + 1)), dtype=object) for k in axes
            ]
        else:
            axis_arrays = [np.arange(lo_box[k], hi_box[k] + 1, dtype=np.int64) for k in axes]
        grids = np.meshgrid(*axis_arrays, indexing="ij")
        prefix = [g.ravel() for g in grids]
        ncells = prefix[0].size
    else:
        prefix = []
        ncells = 1
    lo = np.full(ncells, lo_box[scan], dtype=dt)
    hi = np.full(ncells, hi_box[scan], dtype=dt)
    ok = np.ones(ncells, dtype=bool)
    for n, rhs in cons:
        s = n[scan]
        pre = np.zeros(ncells, dtype=dt)
        for coef, col in zip((n[k] for k in axes), prefix):
            if coef:
                pre = pre + coef * col
        resid = rhs - pre
        if s > 0:
            lo = np.maximum(lo, -((-resid) // s))
        elif s < 0:
            hi = np.minimum(hi, resid // s)
        else:
            ok &= pre >= rhs
    ok &= lo <= hi
    if not ok.all():
        prefix = [col[ok] for col in prefix]
        lo = lo[ok]
        hi = hi[ok]
    return axes, prefix, lo, hi


def lattice_series(p: VPolytope, v, m_max: int) -> LatticeSeries:
    """Exact lattice-point sums of the dilates m * P for m in {r, 2r, ..., m_max}.

    Per dilate: the point count, the sum and the sum of squares of <u, v>
    over integer points u, and the minimum of <u, v>.  The direction v must
    be a nonzero integer vector; m_max must be at least 3r.
    """
    import numpy as np

    if p.dim != p.ambient_dim:
        raise ValueError("not full-dimensional")
    v = as_direction(v, p.ambient_dim)
    if any(x.denominator != 1 for x in v):
        raise ValueError("direction must be an integer vector")
    vi = tuple(int(x) for x in v)
    r = denominator_lcm(p)
    if m_max < 3 * r:
        raise ValueError(f"insufficient series length: m_max must be at least 3r = {3 * r}")
    h = facets_from_vertices(p)
    d = p.ambient_dim
    # scan along the axis with the largest vertex-coordinate range
    ranges = []
    for k in range(d):
        vals = [u[k] for u in p.vertices]
        ranges.append(max(vals) - min(vals))
    scan = max(range(d), key=lambda k: ranges[k])
    rows = []
    for m in range(r, m_max + 1, r):
        axes, prefix, lo, hi = _cells_for_dilate(h, p.vertices, m, scan, vi)
        if lo.size == 0:
            raise ValueError("empty dilate")
        count = hi - lo + 1
        s1 = (lo + hi) * count // 2
        hi2 = hi * (hi + 1) * (2 * hi + 1) // 6
        lom = lo - 1
        lo2 = lom * (lom + 1) * (2 * lom + 1) // 6
        s2 = hi2 - lo2
        cpre = np.zeros(lo.shape, dtype=lo.dtype)
        for coef, col in zip((vi[k] for k in axes), prefix):
            if coef:
                cpre = cpre + coef * col
        vs = vi[scan]
        n_pts = int(count.sum())
        w = int((count * cpre).sum()) + vs * int(s1.sum())
        q = int((count * cpre * cpre).sum()) + 2 * vs * int((cpre * s1).sum()) + vs * vs * int(s2.sum())
        if vs > 0:
            lam_cells = cpre + vs * lo
        elif vs < 0:
            lam_cells = cpre + vs * hi
        else:
            lam_cells = cpre
        lam = int(lam_cells.min())
        rows.append(SeriesRow(m, n_pts, w, q, lam))
    return LatticeSeries(r, tuple(rows))


def extrapolate(series: LatticeSeries) -> ExtrapolationResult:
    """Two-point Richardson extrapolation of the normalized series.

    F0 is estimated from w_m / (m N_m) and Q0 from q_m / (m^2 N_m); each
    consecutive row pair eliminates the 1/m term, the last pair gives the
    estimate, and successive estimate differences are reported as residuals.
    """
    rows = series.rows
    if len(rows) < 3:
        raise ValueError("insufficient series length")
    f = [Q(row.weight_sum, row.m * row.count) for row in rows]
    g = [Q(row.weight_sq_sum, row.m * row.m * row.count) for row in rows]
    ms = [row.m for row in rows]

    def richardson(vals):
        return [
            (ms[i] * vals[i] - ms[i - 1] * vals[i - 1]) / (ms[i] - ms[i - 1])
            for i in range(1, len(vals))
        ]

    ef = richardson(f)
    eg = richardson(g)
    res_f = tuple(ef[i] - ef[i - 1] for i in range(1, len(ef)))
    res_g = tuple(eg[i] - eg[i - 1] for i in range(1, len(eg)))
    return ExtrapolationResult(ef[-1], eg[-1], res_f, res_g)
