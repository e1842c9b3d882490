"""Shared fixtures and exact sampling helpers for the test suite."""

import random
from fractions import Fraction as Q

import pytest

from hull_oracle import cone_relint_contains, extreme_rays_by_subsets
from linalg_oracle import rank, vadd, vscale
from toricstab.corpus import corpus_context, corpus_names
from toricstab.stability import StabilityValue, verdict


@pytest.fixture(scope="session")
def contexts():
    return {name: corpus_context(name) for name in corpus_names()}


@pytest.fixture(scope="session")
def unstable_names(contexts):
    return sorted(n for n, c in contexts.items() if verdict(c) == "unstable")


@pytest.fixture(scope="session")
def semistable_names(contexts):
    return sorted(n for n, c in contexts.items() if verdict(c) == "semistable")


def from_apex(p, a):
    """p with vertex a listed first, the others in their order, and each facet's members remapped.

    Its triangulation is the pulling triangulation of p from vertex a.
    """
    order = [a, *(i for i in range(len(p.vertices)) if i != a)]
    facets = tuple(
        f._replace(members=sum(1 << j for j, i in enumerate(order) if f.members >> i & 1))
        for f in p.facets
    )
    return p._replace(vertices=tuple(p.vertices[i] for i in order), facets=facets)


def rand_nonzero_ivec(rng, d, bound=9):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(d))
        if any(v):
            return v


def rand_rational(rng, den_max=6, num_max=8):
    return Q(rng.randint(-num_max, num_max), rng.randint(1, den_max))


def sample_relint_point(cone, rng, tries=50):
    """Rational point in the relative interior of the cone, or None when it is {0}."""
    gens = extreme_rays_by_subsets(cone)
    dirs = list(gens.rays) + list(gens.lineality)
    if not dirs:
        return None
    for _ in range(tries):
        v = tuple(Q(0) for _ in range(cone.dim))
        for g in gens.rays:
            v = vadd(v, vscale(Q(rng.randint(1, 7), rng.randint(1, 3)), g))
        for l in gens.lineality:
            c = Q(rng.randint(-7, 7), rng.randint(1, 3))
            v = vadd(v, vscale(c, l))
        if any(v) and cone_relint_contains(cone, v):
            return v
    return None


def unimodular_matrix(rng, d, shears=4):
    """Random integer matrix with determinant +-1, as rows, plus its exact inverse."""
    rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(shears):
        i, j = rng.sample(range(d), 2)
        c = rng.randint(-2, 2)
        for k in range(d):
            rows[i][k] += c * rows[j][k]
    perm = list(range(d))
    rng.shuffle(perm)
    rows = [rows[p] for p in perm]
    for i in range(d):
        if rng.random() < 0.5:
            rows[i] = [-x for x in rows[i]]
    inv = _int_inverse(rows)
    return rows, inv


def _int_inverse(rows):
    d = len(rows)
    aug = [[Q(rows[i][j]) for j in range(d)] + [Q(1 if k == i else 0) for k in range(d)]
           for i in range(d)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [[aug[i][d + j] for j in range(d)] for i in range(d)]
    assert all(x.denominator == 1 for row in inv for x in row)
    return [[int(x) for x in row] for row in inv]


def mat_vec(rows, v):
    return tuple(sum(Q(a) * Q(x) for a, x in zip(row, v)) for row in rows)


def mat_t_vec(rows, v):
    d = len(rows)
    return tuple(sum(Q(rows[i][j]) * Q(v[i]) for i in range(d)) for j in range(len(rows[0])))


def fresh_rng(tag):
    return random.Random(f"toricstab:{tag}")


def run_quasi_convexity(ctx, rng, pairs, bound=9):
    """Blend directions with equal negative first invariant and check that
    neither invariant can exceed the worse endpoint; the second one strictly
    improves for non-parallel endpoints.  Returns the strict-case count."""
    from toricstab.invariants import futaki, mu

    def mu2(m):
        return StabilityValue(Q(0), m.mu2_sign, m.mu2_sq)

    strict_seen = 0
    done = 0
    while done < pairs:
        v = rand_nonzero_ivec(rng, ctx.dim, bound)
        w = rand_nonzero_ivec(rng, ctx.dim, bound)
        fv, fw = futaki(ctx, v), futaki(ctx, w)
        if fv >= 0 or fw >= 0:
            continue
        done += 1
        vn = tuple(Q(x) / -fv for x in v)
        wn = tuple(Q(x) / -fw for x in w)
        t = Q(rng.randint(1, 15), 16)
        z = tuple(t * a + (1 - t) * b for a, b in zip(vn, wn))
        mv, mw, mz = mu(ctx, v), mu(ctx, w), mu(ctx, z)
        assert mz.mu1 <= max(mv.mu1, mw.mu1)
        worse = max(mu2(mv), mu2(mw))
        assert mu2(mz) <= worse
        if rank([list(vn), list(wn)]) == 2:
            assert mu2(mz) < worse
            strict_seen += 1
    return strict_seen
