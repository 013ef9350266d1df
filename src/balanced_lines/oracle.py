"""Ground-truth enumeration of balanced lines.

Two methods: a cubic check of every red/blue pair against every other
point, and an n^2 log n angular sweep around each red point.  The two must
agree on every instance.  The sweep walks the same per-point angular order
as the rotations and sliding profiles, over half a turn, from the sorted
rows (``Instance.fence_rows``) that ``Instance.fences`` is built from.
Those rows are ordered by the 64-bit integer prefix of each slope, exactly
on a tie (a ``Ratio`` only for runs of tied prefixes), and never reduced
to a direction.  The prefixes are the ones the instance keeps
(``Instance.prefix_rows``), computed once when its points were checked, so
the sweep computes no slope; it sorts each anchor's rows, walks them and
drops them, and adds nothing to the instance.  The naive check
shares nothing with that order and cross-checks the sweep.  It packs
every point into one fixed-width lane of a big integer, wide enough for any
cross product inside the instance's bounding box, so one pair's side counts
are a few big-integer operations and two popcounts, not a loop over points.
Certificates use neither: ``verify_lower_bound`` recounts with
``geometry.is_balanced``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from .geometry import (
    GuaranteeViolation,
    Instance,
    VERTICAL,
    just_after_keys,
)


@dataclass(frozen=True, order=True)
class BalancedLine:
    """A balanced red/blue pair: each side of its line weighs delta."""

    red_id: int
    blue_id: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.red_id, self.blue_id)


def enumerate_naive(inst: Instance) -> set[BalancedLine]:
    """Check all r*b bichromatic pairs by classifying every other point.

    The coordinates are scaled to integers by their common denominator
    (the lcm of every ``.denominator``; an int's is 1) and shifted into a
    box ``[0, W] x [0, H]``.  Every point gets one lane of ``k`` bits in
    the big integers ``px`` and ``py``, which hold its coordinates at bit
    ``k*id``.  A point is right of the line from a red anchor toward a blue
    point ``(dx, dy)`` (relative to the anchor) when its cross product
    ``dx*(y - ay) - dy*(x - ax)`` is below 0, and one pair's
    ``v = dx*ry - dy*rx``, with ``rx = px - ax*ones`` and ``ry`` alike,
    holds all n cross products at once, one per lane.  Each is twice the
    signed area of a triangle inside the box, so its magnitude is at most
    ``W*H < 2**(k - 1)`` with ``k = (W*H).bit_length() + 1``: adding
    ``2**(k - 1)`` to every lane (``bias``) makes each lane a value in
    ``[1, 2**k - 1]`` with no carry or borrow between lanes, whose top bit
    is clear exactly when that cross product is negative.  So the right
    weight is the blue points less the red points whose lanes' top bits
    are clear, two popcounts against the colour masks.  The anchor and the
    blue point itself have cross product 0, as no other point has in
    general position; their lanes read ``bias`` and count on neither side.

    The left weight is counted, from ``bias - v``, only for pairs whose
    right weight is delta, and then it cannot miss: the instance weighs
    b - r = 2*delta and the red/blue pair weighs 0, so the left side weighs
    2*delta - delta.  It stays as a guard against weights that do not sum
    to 2*delta.  Cubic in meaning, a few big-integer operations per pair,
    and shares nothing with ``Instance.fences`` or ``Direction``.
    """
    found = set()
    delta = inst.delta
    pts = inst.points
    den = 1
    for p in pts:
        for c in (p.x.denominator, p.y.denominator):
            den = den // gcd(den, c) * c
    xs = [p.x.numerator * (den // p.x.denominator) for p in pts]
    ys = [p.y.numerator * (den // p.y.denominator) for p in pts]
    x0, y0 = min(xs), min(ys)
    xs = [x - x0 for x in xs]
    ys = [y - y0 for y in ys]
    k = (max(xs) * max(ys)).bit_length() + 1
    ones = sum(1 << k * i for i in range(len(pts)))
    px = sum(x << k * i for i, x in enumerate(xs))
    py = sum(y << k * i for i, y in enumerate(ys))
    bias = ones << k - 1
    blue_top = sum(1 << k * i + k - 1 for i in inst.blue_ids)
    red_top = bias - blue_top
    nb, nr = len(inst.blue_ids), len(inst.red_ids)
    for rid in inst.red_ids:
        ax, ay = xs[rid], ys[rid]
        rx = px - ax * ones
        ry = py - ay * ones
        for bid in inst.blue_ids:
            v = (xs[bid] - ax) * ry - (ys[bid] - ay) * rx
            t = v + bias
            if (nb - (t & blue_top).bit_count()) - (nr - (t & red_top).bit_count()) != delta:
                continue
            t = bias - v
            if (nb - (t & blue_top).bit_count()) - (nr - (t & red_top).bit_count()) == delta:
                found.add(BalancedLine(rid, bid))
    return found


def enumerate_sweep(inst: Instance) -> set[BalancedLine]:
    """Turn a directed line half a turn around each red point, keeping weights incrementally.

    For anchor p the critical directions are where the line crosses
    another point; between them the right-halfplane weight is constant.
    The line starts just past vertical and turns counterclockwise to just
    before the antipode, so it meets each other point once, in the order
    of p's rows (``Instance.fence_rows``: sorted on the slope prefix, exact
    on a tie, and not reduced, so the sweep builds no ``Direction`` and no
    ``Ratio`` where no prefixes tie): ahead of p (at the head) when that
    point is not ``right`` of p, behind it otherwise.  A point met at
    the head joins the right side as the line passes it, one behind leaves
    it.  A blue point crossed while the right weight at that instant
    equals delta spans a balanced line with the anchor (the rule
    ``rotation.transitions_at`` states); the points other than the pair
    weigh 2*delta, so then its left side weighs delta too, and one
    crossing per line settles it.  The start weight of each anchor, just
    past vertical, sums the points whose ``just_after_keys`` at vertical are
    below the anchor's; the keys are built once per instance.  After the
    half turn the two sides have swapped, so the right weight must read the
    other points' total, ``b - r + 1``, less the start weight.  Each
    anchor's rows are sorted from the prefixes the instance keeps
    (``Instance.prefix_rows``) and dropped after its half turn, so the
    sweep computes no slope and keeps no fence table on the instance.
    """
    found = set()
    delta = inst.delta
    weights = inst.ws
    others = inst.b - inst.r + 1  # everything but the red anchor
    keys = just_after_keys(VERTICAL, inst.points)
    for rid in inst.red_ids:
        key_a = keys[rid]
        w = sum([wp for wp, key in zip(weights, keys) if key < key_a])
        w0 = w
        for _, pid, right in inst.fence_rows(rid):
            wp = weights[pid]
            if right:
                w -= wp
                w_inst = w
            else:
                w_inst = w
                w += wp
            if wp > 0 and w_inst == delta:
                found.add(BalancedLine(rid, pid))
        if w != others - w0:
            raise GuaranteeViolation("sweep weight did not reverse over a half turn")
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
