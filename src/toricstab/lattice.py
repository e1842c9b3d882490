"""Exact lattice-point series of the dilates of a rational polytope.

The series sums 1, <u, v> and <u, v>^2 over the integer points of the
dilates t Z of the lattice polytope Z = r P, r the lcm of the vertex
denominators of P.  The scan reads Z's facets as they are, the integer
pairs (n, r c), at dilate t: t Z is <n, u> >= t r c, and its box, facet
offsets and minimum weight are t times those of Z, all integers.  By the
weighted Ehrhart theorem the sums S_j are polynomials in t of degree d+j,
and by Ehrhart-Macdonald reciprocity S_j(-t) is (-1)^(d+j) times the sum
over the interior of t Z.  So only t Z and its interior for
t <= k = (d+4)//2 are counted, on Python ints over the box of all axes but
one, the last axis summed in closed form.  The 2k+1 >= d+4 values at
t = -k..k certify each polynomial by a zero difference of one order above
its degree; running sums extend it.  `extrapolate` estimates the leading
moments from the last rows by Richardson extrapolation.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction as Q
from typing import NamedTuple

from .exactgeom import CertificateError, VPolytope, _ints, _limit, _scaled, as_direction

# Bounds on a lattice series, checked before any point is counted: its rows
# (m_max // r), the prefix cells of its walked dilates and interiors, and those
# cells times the facets, one column each.  On one core of a 2-vCPU x86-64 host,
# at m_max 8, [-8, 8]^4 (866 248 cells, 8 facets) takes 2.3-2.5 s and [-4, 5]^4
# 0.5 s, at 15 MiB peak RSS; a 260-facet ball at 3.8 million columns takes 0.4 s.
MAX_SERIES_ROWS = 20_000
MAX_SCAN_CELLS = 1_000_000
MAX_SCAN_COLUMNS = 8_000_000


class SeriesRow(NamedTuple):
    m: int
    count: int
    weight_sum: int
    weight_sq_sum: int
    weight_min: int


class LatticeSeries(NamedTuple):
    r: int
    rows: tuple[SeriesRow, ...]


class ExtrapolationResult(NamedTuple):
    F0_est: Q
    Q0_est: Q
    residuals: tuple[Q, ...]
    q_residuals: tuple[Q, ...]


def _dilate_sums(box, cons, t, scan, vi, interior=False):
    """Count, sum and square sum of <u, vi> over the integer points u of t * Z.

    `box` holds the integer range of every axis over t * Z, and `cons` each
    facet of the lattice polytope Z = r P as it is, the integer pair (n, r c)
    of <n, u> >= r c: t * Z is <n, u> >= t r c, its interior <n, u> > t r c,
    or >= t r c + 1 in integers.  The prefix box (every axis but `scan`) is
    walked with its last axis innermost: for each cell of the other axes,
    every constraint gives one column of scan-axis bounds along that axis,
    and the columns' max and min cut each prefix cell's interval [lo, hi] of
    the scan axis, summed in closed form.  Python ints cannot overflow.
    """
    axes = [k for k in range(len(vi)) if k != scan]
    ranges = [box[k] for k in axes]
    # in one dimension the prefix is empty: a single inner step at 0
    inner, last = (ranges.pop(), axes.pop()) if axes else (range(1), scan)
    cons = [(n[scan], n[last], [n[k] for k in axes], t * o + interior) for n, o in cons]
    bottom, top = box[scan][0], box[scan][-1]
    vs, vl, vo = vi[scan], vi[last], [vi[k] for k in axes]
    count = w = q = 0
    for x in itertools.product(*ranges):
        # at inner value y a constraint reads s * (scan value) >= res - a y
        los, his = [[bottom] * len(inner)], [[top] * len(inner)]
        for s, a, no, rhs in cons:
            res = rhs - sum(map(operator.mul, no, x))
            if s > 0:
                los.append([-((a * y - res) // s) for y in inner])
            elif s < 0:
                his.append([(res - a * y) // s for y in inner])
            else:  # parallel to the scan axis: empties the cells it cuts off
                his.append([top if a * y >= res else bottom - 1 for y in inner])
        c0 = sum(map(operator.mul, vo, x))
        for y, lo, hi in zip(inner, map(max, *los), map(min, *his)):
            if lo <= hi:
                c, k = c0 + vl * y, hi - lo + 1
                s1 = (lo + hi) * k // 2
                s2 = (hi * (hi + 1) * (2 * hi + 1) - (lo - 1) * lo * (2 * lo - 1)) // 6
                count += k
                w += k * c + vs * s1
                q += k * c * c + 2 * vs * c * s1 + vs * vs * s2
    return count, w, q


def lattice_series(p: VPolytope, v, m_max: int) -> LatticeSeries:
    """Exact lattice-point sums of the dilates m * P for m in {r, 2r, ..., m_max}.

    Per dilate: the point count, the sum and the sum of squares of <u, v>
    over integer points u, and the minimum of <u, v>, which is m times the
    support minimum.  All of it reads the lattice polytope Z = r P with
    integer vertices z and facets (n, r c): the dilate m = t r is t Z, read
    as <n, u> >= t r c at dilate t, whose vertex box is t times that of Z
    and whose minimum weight is t min <z, v>.  The three
    sums are counted on the first k = min(T, (d+4)//2) dilates, T = m_max // r;
    past those each is a polynomial in t of degree d, d+1 or d+2 through the
    closed sums at t = 1..k, (1, 0, 0) at 0 and the interior sums at 1..k,
    signed by reciprocity, at -1..-k, certified by a zero difference of the
    next order (else `CertificateError`).  The direction v must be a nonzero
    integer vector; m_max an integer of at least 3r.
    """
    if p.dim != p.ambient_dim:
        raise ValueError("not full-dimensional")
    v = as_direction(v, p.ambient_dim)
    if any(x.denominator != 1 for x in v):
        raise ValueError("direction must be an integer vector")
    vi = tuple(int(x) for x in v)
    (m_max,) = _ints([m_max], "m_max")
    z, r = _scaled(p.vertices)
    if m_max < 3 * r:
        raise ValueError(f"insufficient series length: m_max must be at least 3r = {3 * r}")
    d = p.ambient_dim
    t_max = m_max // r
    _limit(t_max, MAX_SERIES_ROWS, "{} rows exceed the limit of {} rows")
    k = min(t_max, (d + 4) // 2)  # 2k + 1 >= d + 4 values certify every column
    lo, hi = [min(col) for col in zip(*z)], [max(col) for col in zip(*z)]
    # scan along the axis with the largest vertex-coordinate range
    scan = max(range(d), key=lambda i: hi[i] - lo[i])
    boxes = [[range(t * a, t * b + 1) for a, b in zip(lo, hi)] for t in range(1, k + 1)]
    # counted by products: len() of a range fails past sys.maxsize
    spans = [b - a for i, (a, b) in enumerate(zip(lo, hi)) if i != scan]
    cells = sum(math.prod(t * s + 1 for s in spans) for t in range(1, k + 1))
    cells *= 2 if t_max > k else 1  # the interiors are walked only to extend
    _limit(cells, MAX_SCAN_CELLS, "scan needs {} prefix cells, over the limit of {}")
    cols = cells * len(p.facets)  # one column per facet in each prefix cell
    _limit(cols, MAX_SCAN_COLUMNS, "scan needs {} facet columns, over the limit of {}")
    # a facet <n, u> >= r c of Z = r P holds a lattice vertex and has an
    # integral normal, so its offset r c is an integer
    cons = [(f.normal, int(r * f.offset)) for f in p.facets]
    sums = [_dilate_sums(box, cons, t, scan, vi) for t, box in enumerate(boxes, 1)]
    if t_max > k:
        # Ehrhart-Macdonald: S_j(0) = (1, 0, 0), S_j(-t) = (-1)^(d+j) S_j(interior of t Z)
        inner = [_dilate_sums(box, cons, t, scan, vi, True) for t, box in enumerate(boxes, 1)]
        negative = [[(-1) ** (d + j) * x for j, x in enumerate(s)] for s in inner[::-1]]
        sums = negative + [(1, 0, 0)] + sums
    columns = [
        _polynomial_column(column, d + j, len(sums) - k + t_max, SeriesRow._fields[1 + j])[-t_max:]
        for j, column in enumerate(zip(*sums))
    ]
    lam = min(sum(map(operator.mul, u, vi)) for u in z)
    rows = zip(range(1, t_max + 1), *columns)
    return LatticeSeries(r, tuple(SeriesRow(t * r, n, w, q, t * lam) for t, n, w, q in rows))


def _polynomial_column(column, degree, length, name):
    """column continued to length entries as a polynomial of the given degree.

    The counted entries must have zero differences of order degree + 1.  The
    difference of order degree is then constant, and each lower order goes
    on as the running sum of the order above, from its last entry.
    """
    table = [list(column)]
    if len(column) == length:
        return table[0]
    for _ in range(degree + 1):
        table.append([b - a for a, b in zip(table[-1], table[-1][1:])])
    if any(table[-1]):
        raise CertificateError(
            f"lattice series: differences of order {degree + 1} of {name} are not zero"
        )
    new = itertools.repeat(table[degree][-1], length - len(column))
    for row in reversed(table[:degree]):
        new = itertools.islice(itertools.accumulate(new, initial=row[-1]), 1, None)
    return table[0] + list(new)


def extrapolate(series: LatticeSeries) -> ExtrapolationResult:
    """Two-point Richardson extrapolation of the normalized series.

    F0 is estimated from f_m = w_m / (m N_m) and Q0 from g_m = q_m / (m^2 N_m).
    Consecutive rows i and i+1 are r apart, so eliminating the 1/m term of
    the pair leaves the estimate A_i / (r N_i N_(i+1)) with the integer
    A_i = w_(i+1) N_i - w_i N_(i+1); for Q0 the same with q for w and m N
    for N.  The last pair gives the estimate, and successive estimate
    differences are the residuals, each the one `Fraction`
    (A_(i+1) N_i - A_i N_(i+2)) / (r N_i N_(i+1) N_(i+2)).
    """
    if not isinstance(series, LatticeSeries):
        raise ValueError(f"series {series!r} is not a LatticeSeries")
    rows, r = series.rows, series.r
    if len(rows) < 3:
        raise ValueError("insufficient series length")
    f0, res_f = _richardson([x.weight_sum for x in rows], [x.count for x in rows], r)
    q0, res_q = _richardson([x.weight_sq_sum for x in rows], [x.m * x.count for x in rows], r)
    return ExtrapolationResult(f0, q0, res_f, res_q)


def _richardson(w, n, r):
    """The last pair estimate of w / n and the residuals, as in `extrapolate`."""
    a = [w1 * n0 - w0 * n1 for w0, w1, n0, n1 in zip(w, w[1:], n, n[1:])]
    residuals = tuple(
        Q(a1 * n0 - a0 * n2, r * n0 * n1 * n2)
        for a0, a1, n0, n1, n2 in zip(a, a[1:], n, n[1:], n[2:])
    )
    return Q(a[-1], r * n[-2] * n[-1]), residuals
