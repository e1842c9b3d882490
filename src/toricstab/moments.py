"""Exact continuous moments of a rational polytope and lattice-point series.

Continuous moments (volume, barycenter, covariance) come from the pulling
triangulation and closed-form simplex integrals.  The vertices are scaled
once by the lcm r of their denominators, so r P is a lattice polytope and
every simplex adds integer sums (its determinant, its vertex sum and its
second-moment matrix); one `Fraction` per output entry divides at the end.
The lattice series sums 1, <u, v> and <u, v>^2 over the integer points of
the dilates t r P.  By the weighted Ehrhart theorem these sums are
polynomials in t of degrees d, d+1 and d+2, so only the first d+4 dilates
are counted: a scan over a bounding box of all axes but one, with the last
axis summed in closed form.  A zero difference of one order above each
degree certifies the polynomials, and integer additions along the last
diagonal of each difference table give every later row.  numpy is imported
only by that scan, so importing the package does not load it.
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


# Bounds on a lattice series, checked before anything is allocated: its rows
# (m_max // r) and the prefix-box cells of its scanned dilates.
MAX_SERIES_ROWS = 20_000
MAX_SCAN_CELLS = 1_000_000


class CertificateError(RuntimeError):
    """An exact internal consistency check failed; results must not be trusted."""


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


def _vertex_box(verts, m):
    """Integer bounds [lo, hi] of every coordinate over m * conv(verts)."""
    lo_box, hi_box = [], []
    for k in range(len(verts[0])):
        vals = [m * u[k] for u in verts]
        lo_box.append(math.ceil(min(vals)))
        hi_box.append(math.floor(max(vals)))
    return lo_box, hi_box


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
    lo_box, hi_box = _vertex_box(verts, m)
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
    over integer points u, and the minimum of <u, v>, which is m times the
    support minimum.  The three sums are counted on the first min(T, d+4)
    dilates, T = m_max // r; past those each continues its difference table
    as a polynomial in m / r of degree d, d+1 or d+2, certified by a zero
    difference of the next order (else `CertificateError`).  The direction
    v must be a nonzero integer vector; m_max must be at least 3r.
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
    d = p.ambient_dim
    t_max = m_max // r
    if t_max > MAX_SERIES_ROWS:
        raise ValueError(f"{t_max} rows exceed the limit of {MAX_SERIES_ROWS} rows")
    scanned = min(t_max, d + 4)
    # scan along the axis with the largest vertex-coordinate range
    ranges = []
    for k in range(d):
        vals = [u[k] for u in p.vertices]
        ranges.append(max(vals) - min(vals))
    scan = max(range(d), key=lambda k: ranges[k])
    cells = 0
    for t in range(1, scanned + 1):
        lo_box, hi_box = _vertex_box(p.vertices, t * r)
        cells += math.prod(hi_box[k] - lo_box[k] + 1 for k in range(d) if k != scan)
    if cells > MAX_SCAN_CELLS:
        raise ValueError(f"scan needs {cells} prefix cells, over the limit of {MAX_SCAN_CELLS}")
    h = facets_from_vertices(p)
    sums = []
    for t in range(1, scanned + 1):
        axes, prefix, lo, hi = _cells_for_dilate(h, p.vertices, t * r, scan, vi)
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
        sums.append((n_pts, w, q))
    columns = [
        _polynomial_column(column, degree, t_max, name)
        for column, degree, name in zip(
            zip(*sums), (d, d + 1, d + 2), ("count", "weight_sum", "weight_sq_sum")
        )
    ]
    lam = support_min(p, v)
    rows = [
        SeriesRow(t * r, n_pts, w, q, int(t * r * lam))
        for t, n_pts, w, q in zip(range(1, t_max + 1), *columns)
    ]
    return LatticeSeries(r, tuple(rows))


def _polynomial_column(column, degree, length, name):
    """column continued to length entries as a polynomial of the given degree.

    The counted entries must have zero differences of order degree + 1; each
    new entry adds along the last diagonal of the difference table.
    """
    out = list(column)
    if len(out) == length:
        return out
    table = [out]
    for _ in range(degree + 1):
        table.append([b - a for a, b in zip(table[-1], table[-1][1:])])
    if any(table[-1]):
        raise CertificateError(
            f"lattice series: differences of order {degree + 1} of {name} are not zero"
        )
    diag = [row[-1] for row in table[:-1]]
    while len(out) < length:
        for j in reversed(range(degree)):
            diag[j] += diag[j + 1]
        out.append(diag[0])
    return out


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
