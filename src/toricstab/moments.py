"""Exact continuous moments of a rational polytope.

Volume, barycenter and covariance come from the pulling triangulation and
closed-form simplex integrals.  The vertices are scaled once by the lcm r of
their denominators, so r P is a lattice polytope and every simplex adds
integer sums (its determinant, eliminated from the rows it shares with the
simplex before, its vertex sum and its second-moment matrix); one `Fraction`
per output entry divides at the end.  The lattice series is `toricstab.lattice`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as Q
from typing import NamedTuple

# re-exported: CertificateError is defined in exactgeom
from .exactgeom import CertificateError, VPolytope, _eliminate, _scaled, _triangulation


class MomentData(NamedTuple):
    """Volume, barycenter and recentred second moment of a full-dimensional polytope."""

    volume: Q
    barycenter: tuple[Q, ...]
    covariance: tuple[tuple[Q, ...], ...]


def moment_data(p: VPolytope) -> MomentData:
    """Volume, barycenter and covariance summed over one pulling triangulation.

    With r the lcm of the vertex denominators the scaled vertices z = r u are
    integers.  A simplex with D = |det| of its edge vectors and vertex sum s
    adds D to vol, D s to first and D (sum of z z^T + s s^T) to the upper
    triangle of second.  D is the last pivot of the edge rows z_i - z_0, each
    reduced by `_eliminate` against those before it (pivot on its first nonzero
    entry), keeping the rows of the first vertices shared with the simplex
    before.  Then the volume is vol / (d! r^d), b = first / ((d+1) r vol) and
    Cov = second / ((d+1)(d+2) r^2 vol) - b b^T, each entry one `Fraction`
    ((d+1) vol second - (d+2) first first^T) / ((d+1)^2 (d+2) r^2 vol^2).
    """
    return _moment_data(p, *_scaled(p.vertices))


def _moment_data(p: VPolytope, z, r) -> MomentData:
    d = p.ambient_dim
    vol, first = 0, [0] * d
    second = [[0] * d for _ in range(d)]
    masks, reduced = _triangulation(p), []  # reduced: the edge rows as (pivot column, row)
    for last, mask in zip([0, *masks], masks):
        simplex = [u for i, u in enumerate(z) if mask >> i & 1]
        low = (last ^ mask) & -(last ^ mask)  # the first vertex in one simplex but not the other
        del reduced[max((last & (low - 1)).bit_count() - 1, 0):]
        for u in simplex[len(reduced) + 1:]:
            x = _eliminate([a - b for a, b in zip(u, simplex[0])], reduced)
            c = next((c for c, a in enumerate(x) if a), None)
            if c is None:
                raise CertificateError(f"moment_data: simplex {mask:#x} has zero volume")
            reduced.append((c, x))
        dd = abs(x[c])  # the last row's pivot: each simplex reduces at least one row
        s = [sum(col) for col in zip(*simplex)]
        vol += dd
        for i in range(d):
            first[i] += dd * s[i]
            for j in range(i, d):
                second[i][j] += dd * (sum(u[i] * u[j] for u in simplex) + s[i] * s[j])
    b = tuple(Q(x, (d + 1) * r * vol) for x in first)
    den = (d + 1) ** 2 * (d + 2) * (r * vol) ** 2
    cov = [[None] * d for _ in range(d)]
    for i, j in itertools.combinations_with_replacement(range(d), 2):
        cov[i][j] = cov[j][i] = Q(second[i][j] * (d + 1) * vol - (d + 2) * first[i] * first[j], den)
    return MomentData(Q(vol, math.factorial(d) * r**d), b, tuple(map(tuple, cov)))


def is_positive_definite(matrix) -> bool:
    """Sylvester's criterion for a symmetric rational matrix, in one elimination.

    Row k of the integer-scaled matrix reduced by `_eliminate`, with no row
    swaps, has the k-th leading principal minor, up to a positive factor, as pivot k.
    """
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix is not square")
    try:
        rows, reduced = _scaled(matrix)[0], []
    except AttributeError:  # an entry with no denominator
        raise ValueError("matrix entries must be integers or Fractions") from None
    for k, row in enumerate(rows):
        x = _eliminate(row, reduced)
        if x[k] <= 0:
            return False
        reduced.append((k, x))
    return True
