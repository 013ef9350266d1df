"""Ground-truth enumeration of balanced lines.

Two methods: a cubic check of every red/blue pair against every other
point, and an n^2 log n angular sweep around each red point.  The two must
agree on every instance.  The sweep walks the same per-point angular order
(``Instance.fences``) as the rotations and sliding profiles; the naive
check shares nothing with that table and cross-checks the sweep.  Certificates
use neither: ``verify_lower_bound`` recounts with ``geometry.is_balanced``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .geometry import (
    GuaranteeViolation,
    Instance,
    VERTICAL,
    just_after_keys,
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
    """Check all r*b bichromatic pairs by classifying every other point.

    Per red anchor, one row ``(x - ax, y - ay, w)`` per point; a point is
    right of the line from the anchor toward a blue point ``(dx, dy)`` (in
    the same frame) when its cross product ``dx*y - dy*x`` is below 0.
    The anchor and the blue point itself have cross product 0, as no other
    point has in general position, so they count on neither side.  The
    left weight is summed only for pairs whose right weight is delta, and
    then it cannot miss: the instance weighs b - r = 2*delta and the
    red/blue pair weighs 0, so the left side weighs 2*delta - delta.  It
    stays as a guard against weights that do not sum to 2*delta.  Cubic,
    and shares nothing with ``Instance.fences`` or ``Direction``.
    """
    found = set()
    delta = inst.delta
    pts = inst.points
    weights = [p.weight for p in pts]
    for rid in inst.red_ids:
        ax, ay = pts[rid].x, pts[rid].y
        rows = [(p.x - ax, p.y - ay, w) for p, w in zip(pts, weights)]
        for bid in inst.blue_ids:
            dx, dy, _ = rows[bid]
            if sum([w for x, y, w in rows if dx * y < dy * x]) != delta:
                continue
            if sum([w for x, y, w in rows if dx * y > dy * x]) == delta:
                found.add(BalancedLine(rid, bid, (delta, delta)))
    return found


def enumerate_sweep(inst: Instance) -> set[BalancedLine]:
    """Rotate a directed line around each red point, keeping weights incrementally.

    For anchor p the critical directions are its fences
    (``Instance.fences``), those toward and away from each other point;
    between them the right-halfplane weight is constant.  A blue point
    hit while the right weight at that instant equals delta spans a
    balanced line with the anchor (the rule ``rotation.transitions_at``
    states).  The start weight of each anchor, just past vertical, sums the
    points whose ``just_after_keys`` at vertical are below the anchor's;
    the keys are built once per instance.
    """
    found = set()
    delta = inst.delta
    weights = inst.ws
    keys = just_after_keys(VERTICAL, inst.points)
    for rid in inst.red_ids:
        key_a = keys[rid]
        w = sum([wp for wp, key in zip(weights, keys) if key < key_a])
        w0 = w
        for _, _, pid, at_head in inst.fences(rid):
            wp = weights[pid]
            if at_head:
                w_inst = w
                w += wp
            else:
                w -= wp
                w_inst = w
            if wp > 0 and w_inst == delta:
                found.add(BalancedLine(rid, pid, (delta, delta)))
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
