"""Ground-truth enumeration of balanced lines.

Two methods: a cubic check of every red/blue pair against every other
point, and an n^2 log n angular sweep around each red point.  The two must
agree on every instance.  The sweep walks the same per-point angular order
(``Instance.fences``) as the rotations and sliding profiles, so the naive
check, which shares nothing with that table, is the cross-check of the
construction: ``verify_lower_bound`` compares certificates against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .geometry import (
    Color,
    GuaranteeViolation,
    Instance,
    Side,
    side_just_after,
    VERTICAL,
)


@dataclass(frozen=True, order=True)
class BalancedLine:
    """A balanced red/blue pair with its halfplane weights as a certificate."""

    red_id: int
    blue_id: int
    weights: tuple[int, int]

    @property
    def key(self) -> tuple[int, int]:
        return (self.red_id, self.blue_id)


def enumerate_naive(inst: Instance) -> set[BalancedLine]:
    """Check all r*b bichromatic pairs by classifying every other point."""
    found = set()
    delta = inst.delta
    rows = [(p.id, p.x, p.y, p.color.weight) for p in inst.points]
    for rid in inst.red_ids:
        _, ax, ay, _ = rows[rid]
        for bid in inst.blue_ids:
            _, bx, by, _ = rows[bid]
            dx, dy = bx - ax, by - ay
            right = 0
            left = 0
            for pid, x, y, w in rows:
                if pid == rid or pid == bid:
                    continue
                c = dx * (y - ay) - dy * (x - ax)
                if c > 0:
                    left += w
                elif c < 0:
                    right += w
            if right == delta and left == delta:
                found.add(BalancedLine(rid, bid, (right, left)))
    return found


def enumerate_sweep(inst: Instance) -> set[BalancedLine]:
    """Rotate a directed line around each red point, keeping weights incrementally.

    For anchor p the critical directions are its fences
    (``Instance.fences``), those toward and away from each other point;
    between them the right-halfplane weight is constant.  A blue
    point hit while the right weight (excluding the hit point) equals delta
    spans a balanced line with the anchor.
    """
    found = set()
    pts = inst.points
    delta = inst.delta
    for rid in inst.red_ids:
        a = pts[rid]
        w = 0
        for p in pts:
            if p.id != rid and side_just_after(VERTICAL, a.x, a.y, p.x, p.y) is Side.RIGHT:
                w += p.weight
        w0 = w
        for _, _, pid, at_head in inst.fences(rid):
            p = pts[pid]
            if at_head:
                w_inst = w
                w += p.weight
            else:
                w_inst = w - p.weight
                w -= p.weight
            if p.color is Color.BLUE and w_inst == delta:
                found.add(BalancedLine(rid, p.id, (delta, delta)))
        if w != w0:
            raise GuaranteeViolation("sweep weight did not close over a full turn")
    return found


def count_balanced(inst: Instance) -> int:
    """Number of balanced lines; always at least r."""
    count = len(enumerate_sweep(inst))
    if count < inst.r:
        raise GuaranteeViolation(
            f"found {count} balanced lines on an instance with r={inst.r}"
        )
    return count


def sorted_lines(lines: set[BalancedLine]) -> list[BalancedLine]:
    return sorted(lines, key=lambda l: l.key)


def lines_to_csv(inst: Instance, lines: set[BalancedLine]) -> str:
    rows = [f"# delta={inst.delta}", "red_id,blue_id"]
    rows += [f"{l.red_id},{l.blue_id}" for l in sorted_lines(lines)]
    return "\n".join(rows) + "\n"


def lines_to_json(inst: Instance, lines: set[BalancedLine]) -> str:
    payload = {
        "delta": inst.delta,
        "count": len(lines),
        "lines": [{"red": l.red_id, "blue": l.blue_id} for l in sorted_lines(lines)],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"
