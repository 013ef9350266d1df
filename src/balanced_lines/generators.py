"""Deterministic instance generators.

Both generators return validated instances: reds occupy ids 0..r-1 and
blues r..n-1.  The random generator rejection-samples integer coordinates,
so repeated calls with equal arguments give byte-identical instances.
"""

from __future__ import annotations

import random

from .geometry import (
    BoundTooSmall,
    Color,
    ColorImbalance,
    Instance,
    LabeledPoint,
    slopes,
    validate,
)

_MAX_DRAWS_PER_POINT = 2000


def _check_color_counts(r: int, b: int) -> None:
    if r < 0 or b < r or (b - r) % 2 != 0:
        raise ColorImbalance(r, b)
    if r + b == 0:
        raise ColorImbalance(r, b)


def gen_random(seed: int, r: int, b: int, coordinate_bound: int = 1000) -> Instance:
    """Sample an instance with integer coordinates in [0, coordinate_bound).

    Points are drawn one at a time and redrawn whenever they would repeat an
    abscissa or complete a collinear triple (``_completes_collinear_triple``,
    one batched ``slopes`` loop from the candidate to the accepted points),
    so a draw costs O(k) with k points accepted and the whole instance
    O(n^2) expected; ``validate`` then checks the result once more.  Raises
    BoundTooSmall when the grid cannot hold the instance (fewer than n
    distinct abscissae) or when the draw budget runs out.
    """
    _check_color_counts(r, b)
    n = r + b
    check_bound(n, coordinate_bound)
    rng = random.Random(seed)
    accepted: list[tuple[int, int]] = []
    xs_used: set[int] = set()
    budget = _MAX_DRAWS_PER_POINT * n
    while len(accepted) < n:
        if budget <= 0:
            raise BoundTooSmall(
                f"rejection sampling exhausted its budget at bound {coordinate_bound}"
            )
        budget -= 1
        x = rng.randrange(coordinate_bound)
        y = rng.randrange(coordinate_bound)
        if x in xs_used:
            continue
        if _completes_collinear_triple(accepted, x, y):
            continue
        accepted.append((x, y))
        xs_used.add(x)
    points = [
        LabeledPoint(i, x, y, Color.RED if i < r else Color.BLUE)
        for i, (x, y) in enumerate(accepted)
    ]
    return validate(points)


def check_bound(n: int, coordinate_bound: int) -> None:
    """Raise BoundTooSmall when the grid of ``gen_random`` has fewer than n abscissae."""
    if coordinate_bound < n:
        raise BoundTooSmall(
            f"bound {coordinate_bound} cannot hold {n} points in general position"
        )


def _completes_collinear_triple(accepted: list[tuple[int, int]], x: int, y: int) -> bool:
    """Whether (x, y) lies on a line through two accepted points.

    The candidate's abscissa is unused, so two accepted points are collinear
    with it exactly when they share a slope as seen from it: the ``slopes``
    from the candidate, hashed in a set, count fewer than the points.
    """
    return len(set(slopes(x, y, accepted))) < len(accepted)


def gen_separated_convex(r: int, b: int) -> Instance:
    """Convex-position instance with reds and blues split by a vertical line.

    All points sit on the parabola y = x*x: reds at x = -r..-1, blues at
    x = 1..b.  Strict convexity gives general position for free, and the
    separator x = 0 is parallel to the default (vertical) sweep start.
    """
    _check_color_counts(r, b)
    points = []
    for i, x in enumerate(range(-r, 0)):
        points.append(LabeledPoint(i, x, x * x, Color.RED))
    for i, x in enumerate(range(1, b + 1)):
        points.append(LabeledPoint(r + i, x, x * x, Color.BLUE))
    return validate(points)
