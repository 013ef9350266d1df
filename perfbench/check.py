"""Independent result checks, run untimed after the timed loop.

Nothing here imports ``balanced_lines``: every line the package reports is
recounted with the benchmark's own integer side test, so a defect shared by
the package's two enumerators still shows.
"""

from __future__ import annotations

import hashlib
import json

from sampler import Sample, has_collinear_pair


class Mismatch(Exception):
    """An output disagrees with the independent check."""


def side_weights(points, r: int, i: int, j: int) -> tuple[int, int]:
    """(right, left) weights of the line from point i to point j; blue +1, red -1."""
    ax, ay = points[i]
    dx, dy = points[j][0] - ax, points[j][1] - ay
    right = left = 0
    for k, (x, y) in enumerate(points):
        if k == i or k == j:
            continue
        c = dx * (y - ay) - dy * (x - ax)
        w = 1 if k >= r else -1
        if c > 0:
            left += w
        elif c < 0:
            right += w
    return right, left


def is_balanced(s, red: int, blue: int) -> bool:
    return side_weights(s.points, s.r, red, blue) == (s.delta, s.delta)


def _check_lines(s, pairs) -> None:
    if len(set(pairs)) != len(pairs):
        raise Mismatch("lines are not pairwise distinct")
    n = s.r + s.b
    for red, blue in pairs:
        if not (0 <= red < s.r <= blue < n):
            raise Mismatch(f"line {(red, blue)} is not a red/blue pair")
        if not is_balanced(s, red, blue):
            raise Mismatch(f"line {(red, blue)} is not balanced")
    if len(pairs) < s.r:
        raise Mismatch(f"{len(pairs)} lines, fewer than r={s.r}")


def certificate(s, text: str) -> None:
    """Certified lines are distinct, balanced, and at least r of them."""
    cert = json.loads(text)
    pairs = [(line["red"], line["blue"]) for line in cert["lines"]]
    if cert["total"] != len(pairs):
        raise Mismatch(f"total {cert['total']} but {len(pairs)} lines")
    _check_lines(s, pairs)


def enumeration(s, csv: str) -> None:
    """Every enumerated line of ``enumerate`` CSV output is balanced; at least r."""
    rows = csv.splitlines()
    if rows[:2] != [f"# delta={s.delta}", "red_id,blue_id"]:
        raise Mismatch(f"bad CSV header {rows[:2]}")
    pairs = [tuple(int(v) for v in row.split(",")) for row in rows[2:]]
    _check_lines(s, pairs)


def parse_instance(text: str, r: int, b: int, bound: int):
    """Read a generated instance and check it against what was asked for."""
    pts = json.loads(text)["points"]
    colors = "".join(p["color"] for p in pts)
    if colors != "R" * r + "B" * b:
        raise Mismatch(f"expected {r} reds then {b} blues")
    xy = [(int(p["x"]), int(p["y"])) for p in pts]
    if any(not (0 <= v < bound) for p in xy for v in p):
        raise Mismatch("coordinate outside the grid")
    if len({x for x, _ in xy}) != len(xy):
        raise Mismatch("repeated abscissa")
    for i, (x, y) in enumerate(xy):
        if has_collinear_pair(x, y, xy[i + 1:]):
            raise Mismatch(f"collinear triple through point {i}")
    return Sample(r, b, tuple(xy))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
