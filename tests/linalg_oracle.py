"""Reference linear algebra for the tests: Gauss-Jordan elimination on `Fraction`.

Independent of the fraction-free kernel in `toricstab.exactgeom`: every row
operation here divides by the pivot, so each intermediate entry is an
arbitrary rational.  The hull and optimizer oracles use these routines, so
they do not share the kernel they check.
"""

from fractions import Fraction as Q


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


def solve_unique(a, b):
    """Solve A x = b exactly; None unless a solution exists and is unique."""
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [[Q(x) for x in row] + [Q(bi)] for row, bi in zip(a, b)]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    if len(pivots) < n:
        return None
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Q(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return tuple(x)


def rank(rows) -> int:
    work = [[Q(x) for x in row] for row in rows]
    if not work:
        return 0
    n = len(work[0])
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def nullspace(rows, n):
    """Basis of {x in Q^n : A x = 0}."""
    work = [[Q(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Q(0)] * n
        vec[fc] = Q(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -work[i][fc]
        basis.append(tuple(vec))
    return basis


def det(rows) -> Q:
    """Determinant of a square matrix: the signed product of the elimination pivots."""
    work = [[Q(x) for x in row] for row in rows]
    n = len(work)
    out = Q(1)
    for c in range(n):
        p = next((i for i in range(c, n) if work[i][c] != 0), None)
        if p is None:
            return Q(0)
        if p != c:
            work[c], work[p] = work[p], work[c]
            out = -out
        pv = work[c][c]
        out *= pv
        for i in range(c + 1, n):
            f = work[i][c] / pv
            work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return out
