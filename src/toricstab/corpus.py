"""Bundled toric log Fano inputs used by tests and the batch commands."""

from fractions import Fraction as Q

from .stability import StabilityContext, context_from_rays

# name -> (rays, coeffs or None)
CORPUS: dict[str, tuple[tuple[tuple[int, ...], ...], tuple[Q, ...] | None]] = {
    # projective plane and its torus-point blow-ups
    "p2": (((1, 0), (0, 1), (-1, -1)), None),
    "bl1-p2": (((1, 0), (0, 1), (-1, -1), (0, -1)), None),
    "bl2-p2": (((1, 0), (0, 1), (-1, -1), (0, -1), (-1, 0)), None),
    "bl3-p2": (((1, 0), (0, 1), (-1, -1), (0, -1), (-1, 0), (1, 1)), None),
    # products
    "p1xp1": (((1, 0), (-1, 0), (0, 1), (0, -1)), None),
    "p1xp1xp1": (
        ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
        None,
    ),
    "p1xp2": (
        ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)),
        None,
    ),
    # weighted projective planes P(1,1,m)
    "p112": (((1, 0), (0, 1), (-1, -2)), None),
    "p113": (((1, 0), (0, 1), (-1, -3)), None),
    "p114": (((1, 0), (0, 1), (-1, -4)), None),
    "p115": (((1, 0), (0, 1), (-1, -5)), None),
    "p116": (((1, 0), (0, 1), (-1, -6)), None),
    # other weighted projective spaces
    "p123": (((1, 0), (0, 1), (-2, -3)), None),
    "p1112": (((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)), None),
    "p1122": (((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -2, -2)), None),
    # projective spaces
    "p3": (((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)), None),
    # a genuine log pair: half a boundary line on the plane
    "p2-halfline": (((1, 0), (0, 1), (-1, -1)), (Q(0), Q(0), Q(1, 2))),
}


def corpus_names() -> list[str]:
    return sorted(CORPUS)


def corpus_context(name: str) -> StabilityContext:
    if name not in CORPUS:
        raise ValueError(f"unknown corpus entry: {name}")
    rays, coeffs = CORPUS[name]
    return context_from_rays(rays, coeffs, name=name)


def corpus_contexts() -> list[StabilityContext]:
    return [corpus_context(name) for name in corpus_names()]
