"""Seeded instance sampler, independent of the package's generators."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

BOUND = 1000  # coordinates are integers in [0, BOUND), as in ``gen random``


def _draw(rng: random.Random, pts: list, xs: set, x0: int, x1: int, y0: int, y1: int) -> None:
    """Append one point of the box [x0, x1) x [y0, y1) in general position with ``pts``."""
    while True:
        x, y = rng.randrange(x0, x1), rng.randrange(y0, y1)
        if x not in xs and not has_collinear_pair(x, y, pts):
            pts.append((x, y))
            xs.add(x)
            return


def sample_nested(rng: random.Random, inner: int, outer: int) -> list[tuple[int, int]]:
    """A cluster of ``inner`` points inside a jittered ring of ``outer`` points.

    The cluster comes first.  Colouring the cluster and the ring differently
    keeps every level rotation on one side of delta, which sends the
    certificate down the minimum-waist curve path.
    """
    pts: list[tuple[int, int]] = []
    xs: set[int] = set()
    for _ in range(inner):
        _draw(rng, pts, xs, -50, 50, -50, 50)
    for k in range(outer):
        angle = 2 * math.pi * k / outer
        cx, cy = round(BOUND * math.cos(angle)), round(BOUND * math.sin(angle))
        _draw(rng, pts, xs, cx - 30, cx + 30, cy - 30, cy + 30)
    return pts


@dataclass(frozen=True)
class Sample:
    """One instance as plain data: reds are ids 0..r-1, blues r..n-1."""

    r: int
    b: int
    points: tuple[tuple[int, int], ...]

    @property
    def delta(self) -> int:
        return (self.b - self.r) // 2

    def to_json(self) -> str:
        """The instance file format, written without the package."""
        pts = [
            {"x": str(x), "y": str(y), "color": "R" if i < self.r else "B"}
            for i, (x, y) in enumerate(self.points)
        ]
        return json.dumps({"points": pts}, separators=(",", ":")) + "\n"


def primitive_axis(dx: int, dy: int) -> tuple[int, int]:
    """The primitive vector along (dx, dy), taken up to sign."""
    g = math.gcd(dx, dy)
    dx, dy = dx // g, dy // g
    return (-dx, -dy) if dx < 0 or (dx == 0 and dy < 0) else (dx, dy)


def has_collinear_pair(x: int, y: int, others) -> bool:
    """Whether some two of ``others`` lie on one line through (x, y)."""
    seen = set()
    for ax, ay in others:
        d = primitive_axis(ax - x, ay - y)
        if d in seen:
            return True
        seen.add(d)
    return False
