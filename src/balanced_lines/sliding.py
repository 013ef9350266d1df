"""Sliding rotations: closed, angularly monotone curves in line space.

A sliding rotation alternates rotation arcs about points of its subset with
parallel displacements (slides) taken at a fixed direction.  Plain level
rotations embed as arc-only curves.  The predicates here evaluate the curve
combinatorially: one representative per interval between critical
directions, everything by exact sign tests.

The subset of a curve is a full color class; its waist at direction t
counts the subset points strictly inside the strip between the line at t
and the line at t + pi, and the waist of the curve is the minimum over a
half turn.

A valid curve turns exactly once: its arcs, in piece order, advance from
the start direction through one full counterclockwise turn and back.
``validate_curve`` checks this, and ``evaluate_at`` relies on it: each
curve keeps an angular index of its arcs (``SlidingRotation.arc_index``),
so finding the line at a direction costs one bisection, O(log pieces),
instead of a scan of every piece.  ``sliding_profile`` reads each pivot's
fences, the angular order the instance keeps per point
(``Instance.fences``), and walks every arc in O(log n) plus one step per
crossed point.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .geometry import (
    FENCE_KEY,
    KEY_START,
    BalancedLinesError,
    Color,
    DirectedLine,
    Direction,
    GuaranteeViolation,
    Instance,
    VERTICAL,
    ccw_arc_contains,
    direction_between,
    direction_key,
    direction_key_from,
)
from .rotation import EventKind, RotationTrace


class NotPositivelyOriented(BalancedLinesError):
    """Waist is undefined for a curve whose antipodal lines do not bound a strip."""


class NotDeltaPreserving(BalancedLinesError):
    """The operation needs a delta-preserving sliding rotation."""


class InvalidCurve(BalancedLinesError):
    """Pieces do not form a closed angularly monotone curve."""


@dataclass(frozen=True)
class RotateArc:
    pivot: int
    d_from: Direction
    d_to: Direction

    def contains(self, t: Direction) -> bool:
        """Whether t lies on the arc, endpoints included."""
        return ccw_arc_contains(self.d_from, self.d_to, t)


@dataclass(frozen=True)
class Slide:
    direction: Direction
    from_id: int
    to_id: int


Piece = Union[RotateArc, Slide]


@dataclass(frozen=True)
class SlidingRotation:
    pieces: tuple[Piece, ...]
    subset_color: Color

    @property
    def start_direction(self) -> Direction:
        first = self.pieces[0]
        return first.d_from if isinstance(first, RotateArc) else first.direction

    @cached_property
    def arc_index(self) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
        """Start keys and piece positions of the arcs, in angular order.

        Keys are ``direction_key_from(start_direction, d_from)``, with
        ``KEY_START`` for the first arc.  Raises InvalidCurve unless the
        arcs advance through exactly one full turn: the first arc starts at
        the start direction, the start keys increase strictly, and the last
        arc ends at the start direction.
        """
        start = self.start_direction
        keys: list[tuple] = []
        where: list[int] = []
        for i, piece in enumerate(self.pieces):
            if not isinstance(piece, RotateArc):
                continue
            key = KEY_START if piece.d_from == start else direction_key_from(start, piece.d_from)
            if not (keys[-1] < key if keys else key == KEY_START):
                raise InvalidCurve("arcs do not advance through exactly one turn")
            keys.append(key)
            where.append(i)
        if not where or self.pieces[where[-1]].d_to != start:
            raise InvalidCurve("arcs do not advance through exactly one turn")
        return tuple(keys), tuple(where)

    def piece_boundaries(self) -> list[Direction]:
        out = []
        for piece in self.pieces:
            if isinstance(piece, RotateArc):
                out.append(piece.d_from)
                out.append(piece.d_to)
            else:
                out.append(piece.direction)
        return out


def lift_rotation(trace: RotationTrace, inst: Instance, subset_color: Color) -> SlidingRotation:
    """Embed a plain rotation as an arc-only sliding rotation."""
    start = trace.start_direction
    changes = [ev for ev in trace.events if ev.kind is EventKind.PIVOT_CHANGE]
    arcs: list[RotateArc] = []
    if not changes:
        pivot = trace.initial_pivot
        arcs.append(RotateArc(pivot, start, start.antipode))
        arcs.append(RotateArc(pivot, start.antipode, start))
    else:
        d = start
        pivot = trace.initial_pivot
        for ev in changes:
            if ev.direction != d:
                arcs.append(RotateArc(pivot, d, ev.direction))
            d, pivot = ev.direction, ev.pivot_after
        if d != start:
            arcs.append(RotateArc(pivot, d, start))
    return SlidingRotation(tuple(arcs), subset_color)


def validate_curve(sr: SlidingRotation, inst: Instance) -> None:
    """Check continuity and closure of the piece sequence, and a single turn."""
    if not sr.pieces:
        raise InvalidCurve("curve has no pieces")
    subset = set(inst.ids_of(sr.subset_color))

    def endpoints(piece: Piece) -> tuple[tuple[Direction, int], tuple[Direction, int]]:
        if isinstance(piece, RotateArc):
            if piece.pivot not in subset:
                raise InvalidCurve(f"arc pivot {piece.pivot} outside the subset")
            if piece.d_from == piece.d_to:
                raise InvalidCurve("zero-length arc")
            return ((piece.d_from, piece.pivot), (piece.d_to, piece.pivot))
        if piece.from_id not in subset or piece.to_id not in subset:
            raise InvalidCurve("slide endpoints must be subset points")
        if piece.from_id == piece.to_id:
            raise InvalidCurve("zero-length slide")
        return ((piece.direction, piece.from_id), (piece.direction, piece.to_id))

    n = len(sr.pieces)
    for i, piece in enumerate(sr.pieces):
        (_, _), (d_end, anchor_end) = endpoints(piece)
        nxt = sr.pieces[(i + 1) % n]
        (d_start, anchor_start), _ = endpoints(nxt)
        if d_end != d_start:
            raise InvalidCurve(
                f"piece {i} ends at direction {d_end}, next starts at {d_start}"
            )
        a = inst.point(anchor_end)
        b = inst.point(anchor_start)
        if d_end.offset(a.x, a.y) != d_end.offset(b.x, b.y):
            raise InvalidCurve(f"pieces {i} and {(i + 1) % n} do not share a line")
    sr.arc_index  # raises InvalidCurve unless the arcs turn exactly once


def evaluate_at(sr: SlidingRotation, inst: Instance, t: Direction) -> DirectedLine:
    """The curve's line at direction t; the leftmost one if a slide sits at t.

    Bisects the curve's arc index for the arc starting at or before t.  When
    t is that arc's start, the previous arc ends at t and any slides at t
    lie between the two, so those pieces are compared too, in piece order.
    Needs a curve that turns exactly once (see ``validate_curve``).
    """
    keys, where = sr.arc_index
    start = sr.start_direction
    j = bisect_right(keys, KEY_START if t == start else direction_key(start, t)) - 1
    here = where[j]
    if t != sr.pieces[here].d_from:
        near = (here,)
    else:
        before = where[j - 1]
        if before < here:
            near = range(before, here + 1)
        else:  # t is the start direction: the pieces at t wrap around the tuple
            near = [*range(here + 1), *range(before, len(sr.pieces))]
    best = None
    best_offset = None
    for i in near:
        piece = sr.pieces[i]
        anchors = [piece.pivot] if isinstance(piece, RotateArc) else [piece.from_id, piece.to_id]
        for aid in anchors:
            p = inst.point(aid)
            off = t.offset(p.x, p.y)
            if best_offset is None or off > best_offset:
                best_offset = off
                best = DirectedLine(p.x, p.y, t, (aid,))
    return best


def _anchor_for_offset(d: Direction, offset) -> tuple[Fraction, Fraction]:
    norm = d.dx * d.dx + d.dy * d.dy
    return (Fraction(-d.dy * offset, norm), Fraction(d.dx * offset, norm))


def sliding_profile(sr: SlidingRotation, inst: Instance) -> list[tuple[DirectedLine, int]]:
    """Weight of the right halfplane on every combinatorial interval.

    Arc intervals are split at every direction critical for the pivot;
    slide intervals at every offset of a crossed point.  Each entry pairs a
    representative line with its weight.  Only the first interval of each
    piece is counted in full; after it the weight steps by the point crossed
    at each fence: a point met by the head of the rotating line moves to the
    right halfplane, one met by the tail leaves it, and a slide passes the
    points whose offsets lie between its ends.  Each arc bisects its range
    out of the pivot's fences (``Instance.fences``) instead of testing every
    direction against the arc.
    """
    pts = inst.points
    out: list[tuple[DirectedLine, int]] = []
    for piece in sr.pieces:
        if isinstance(piece, RotateArc):
            q = inst.point(piece.pivot)
            fences = inst.fences(q.id)
            key_from = direction_key_from(VERTICAL, piece.d_from)
            key_to = direction_key_from(VERTICAL, piece.d_to)
            lo = bisect_right(fences, key_from, key=FENCE_KEY)
            hi = bisect_left(fences, key_to, key=FENCE_KEY)
            # an arc whose end keys lower wraps past the vertical direction
            inside = fences[lo:hi] if key_from < key_to else fences[lo:] + fences[:hi]
            bounds = [piece.d_from, *(d for _, d, _, _ in inside), piece.d_to]
            for j, (u, v) in enumerate(zip(bounds, bounds[1:])):
                m = direction_between(u, v)
                if j:
                    _, _, other, head = inside[j - 1]
                    w += pts[other].weight if head else -pts[other].weight
                else:
                    o_q = m.offset(q.x, q.y)
                    w = sum(p.weight for p in pts if m.offset(p.x, p.y) < o_q)
                out.append((DirectedLine(q.x, q.y, m, (piece.pivot,)), w))
        else:
            d = piece.direction
            offsets = [d.offset(p.x, p.y) for p in pts]
            lo, hi = sorted((offsets[piece.from_id], offsets[piece.to_id]))
            w = 0
            crossed: dict = {}  # offset strictly between the ends -> weight of its points
            for p, o in zip(pts, offsets):
                if o <= lo:
                    w += p.weight
                elif o < hi:
                    crossed[o] = crossed.get(o, 0) + p.weight
            fences = [lo, *sorted(crossed), hi]
            for a, b in zip(fences, fences[1:]):
                rep = Fraction(a + b, 2)
                ax, ay = _anchor_for_offset(d, rep)
                out.append((DirectedLine(ax, ay, d), w))
                w += crossed.get(b, 0)
    return out


def _preserves_delta(color: Color, omegas, delta: int) -> bool:
    """One-sided preservation of right-halfplane weights: red <= delta, blue >= delta."""
    if color is Color.RED:
        return max(omegas) <= delta
    return min(omegas) >= delta


def is_delta_preserving_sliding(sr: SlidingRotation, inst: Instance) -> bool:
    """One-sided preservation: red curves stay <= delta, blue curves >= delta."""
    omegas = [w for _, w in sliding_profile(sr, inst)]
    return _preserves_delta(sr.subset_color, omegas, inst.delta)


def half_cycle_representatives(sr: SlidingRotation, inst: Instance) -> list[Direction]:
    """One direction inside each combinatorial interval of the half cycle.

    Breakpoints are every pairwise direction of the subset (the subset
    points' fences toward each other) plus all piece boundaries, folded onto
    [start, start + pi); between consecutive breakpoints both antipodal
    lines of the curve keep their anchors, so the strip membership of every
    subset point is constant there.
    """
    start = sr.start_direction
    ids = inst.ids_of(sr.subset_color)
    subset = set(ids)
    raw: set[Direction] = set(sr.piece_boundaries())
    raw.update(d.antipode for d in sr.piece_boundaries())
    raw.update(d for i in ids for _, d, other, _ in inst.fences(i) if other in subset)
    folded = set()
    for d in raw:
        if d == start or start.cross(d) > 0:
            folded.add(d)
        else:
            folded.add(d.antipode)
    folded.add(start)
    ordered = sorted(
        folded,
        key=lambda d: KEY_START if d == start else direction_key_from(start, d),
    )
    reps = []
    for u, v in zip(ordered, ordered[1:]):
        reps.append(direction_between(u, v))
    reps.append(direction_between(ordered[-1], start.antipode))
    return reps


def is_positively_oriented(sr: SlidingRotation, inst: Instance) -> bool:
    """Whether the line at t + pi stays strictly left of the line at t.

    Checked at one representative direction per combinatorial interval of
    the half cycle.
    """
    for t in half_cycle_representatives(sr, inst):
        low = evaluate_at(sr, inst, t)
        high = evaluate_at(sr, inst, t.antipode)
        if high.offset(t) <= low.offset(t):
            return False
    return True


@dataclass(frozen=True)
class Waist:
    """The minimum strip occupancy of a positively oriented curve."""

    value: int
    achieved_at: Direction
    witnesses: frozenset[int]
    line_low: DirectedLine
    line_high: DirectedLine


def waist(sr: SlidingRotation, inst: Instance) -> Waist:
    """Minimum number of subset points strictly between the antipodal lines.

    Evaluated at one representative per interval; the minimum over the
    continuous parameter is attained on an interval, so this is exact.
    Raises NotPositivelyOriented when some antipodal pair fails to bound a
    strip.
    """
    ids = inst.ids_of(sr.subset_color)
    pts = inst.points
    best: Waist | None = None
    for t in half_cycle_representatives(sr, inst):
        low = evaluate_at(sr, inst, t)
        high = evaluate_at(sr, inst, t.antipode)
        o_low = low.offset(t)
        o_high = high.offset(t)
        if o_high <= o_low:
            raise NotPositivelyOriented(f"antipodal lines out of order at {t}")
        inside = frozenset(
            i for i in ids if o_low < t.offset(pts[i].x, pts[i].y) < o_high
        )
        if best is None or len(inside) < best.value:
            best = Waist(len(inside), t, inside, low, high)
    if best is None:
        raise GuaranteeViolation("curve has no half-cycle representative")
    return best
