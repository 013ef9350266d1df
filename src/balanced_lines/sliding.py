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
``validate_curve`` checks this, and the queries rely on it: each curve
keeps an angular index of its arcs (``SlidingRotation.arc_index``), so
finding the line at a direction (``evaluate_at``) costs one bisection,
O(log pieces).  The waist, the orientation check and the half-cycle
representatives are views of one ordered walk, ``curve_sweep``, which
passes every breakpoint of the half cycle once and carries both antipodal
anchors and the strip along.  ``sliding_profile`` reads each pivot's
fences, the angular order the instance keeps per point
(``Instance.fences``), and walks every arc in O(log n) plus one step per
crossed point.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Union

from .geometry import (
    KEY_START,
    BalancedLinesError,
    Color,
    DirectedLine,
    Direction,
    Instance,
    Side,
    VERTICAL,
    ccw_arc_contains,
    direction_between,
    direction_key,
    direction_key_from,
    fences_within,
    halfplane_weight,
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
    arc is counted in full (``halfplane_weight``, over the instance's rows);
    after it the weight steps by the weight row (``Instance.ws``) of the
    point crossed at each fence: a point met by the head of the rotating
    line moves to the right halfplane, one met by the tail leaves it, and a
    slide passes the points whose offsets lie between its ends.  Each arc
    cuts its range out of the pivot's fences (``Instance.fences``) with
    ``fences_within``, two bisections, instead of testing every direction
    against the arc.

    The list of ``_profile_steps``, which yields the same entries one at a
    time, so that ``is_delta_preserving_sliding`` can stop at the first
    weight that breaks preservation.
    """
    return list(_profile_steps(sr, inst))


def _profile_steps(sr: SlidingRotation, inst: Instance) -> Iterator[tuple[DirectedLine, int]]:
    """The entries of ``sliding_profile``, lazily, in piece order."""
    ws = inst.ws
    for piece in sr.pieces:
        if isinstance(piece, RotateArc):
            q = inst.point(piece.pivot)
            fences = inst.fences(q.id)
            inside = fences_within(fences, direction_key_from(VERTICAL, piece.d_from),
                                   direction_key_from(VERTICAL, piece.d_to), ())
            bounds = [piece.d_from, *(d for _, d, _, _ in inside), piece.d_to]
            for j, (u, v) in enumerate(zip(bounds, bounds[1:])):
                line = DirectedLine(q.x, q.y, direction_between(u, v), (piece.pivot,))
                if j:
                    _, _, other, head = inside[j - 1]
                    w += ws[other] if head else -ws[other]
                else:
                    w = halfplane_weight(line, inst, Side.RIGHT)
                yield line, w
        else:
            d = piece.direction
            offsets = [d.offset(x, y) for x, y in zip(inst.xs, inst.ys)]
            lo, hi = sorted((offsets[piece.from_id], offsets[piece.to_id]))
            w = 0
            crossed: dict = {}  # offset strictly between the ends -> weight of its points
            for pw, o in zip(ws, offsets):
                if o <= lo:
                    w += pw
                elif o < hi:
                    crossed[o] = crossed.get(o, 0) + pw
            fences = [lo, *sorted(crossed), hi]
            for a, b in zip(fences, fences[1:]):
                rep = Fraction(a + b, 2)
                ax, ay = _anchor_for_offset(d, rep)
                yield DirectedLine(ax, ay, d), w
                w += crossed.get(b, 0)


def _preserves_delta(color: Color, omegas, delta: int) -> bool:
    """One-sided preservation of right-halfplane weights: red <= delta, blue >= delta.

    Stops at the first weight that breaks it, so ``omegas`` may be a lazy
    iterable.
    """
    if color is Color.RED:
        return all(w <= delta for w in omegas)
    return all(w >= delta for w in omegas)


def is_delta_preserving_sliding(sr: SlidingRotation, inst: Instance) -> bool:
    """One-sided preservation: red curves stay <= delta, blue curves >= delta.

    Walks ``_profile_steps`` only up to the first interval that breaks it;
    most curves that fail do so on the first one.
    """
    omegas = (w for _, w in _profile_steps(sr, inst))
    return _preserves_delta(sr.subset_color, omegas, inst.delta)


def curve_sweep(sr: SlidingRotation, inst: Instance) -> Iterator[tuple[Direction, int, int, set[int]]]:
    """Walk the half cycle once: ``(t, low, high, strip)`` per combinatorial interval.

    The breakpoints are the piece boundaries, their antipodes and every
    direction between two subset points (``Instance.pair_fences``), folded
    onto [start, start + pi); ``t`` is ``direction_between`` two consecutive
    ones.  ``low`` and ``high`` anchor the curve's lines at ``t`` and
    ``t + pi`` (what ``evaluate_at`` returns there), and ``strip`` holds the
    subset points strictly between them.  Both anchors advance through
    ``sr.arc_index`` at arc starts; in between, a point crosses an anchor's
    line only at their pair fence.  So a walk costs O(1) per breakpoint plus
    O(m) per anchor change, m the subset size.  ``strip`` is the walk's own
    set and changes as it goes on: copy it to keep it.  Needs a curve that
    turns exactly once.
    """
    start = sr.start_direction
    half = start.antipode
    keys, where = sr.arc_index
    arcs = [sr.pieces[i] for i in where]
    xs, ys = inst.xs, inst.ys
    ids = inst.ids_of(sr.subset_color)
    # arcs[:n_low] start in [start, start + pi); arcs[i_high] holds start + pi
    key_half = direction_key(start, half)
    n_low = bisect_left(keys, key_half)
    i_high = bisect_right(keys, key_half) - 1
    k_start = direction_key(VERTICAL, start)
    turns = [a.d_from for a in arcs[1:n_low]] + [a.d_from.antipode for a in arcs[i_high + 1:]]
    # in the turn's order: keys above the start's, then those past vertical
    marks = sorted(((direction_key(VERTICAL, d), d, None, None) for d in turns),
                   key=lambda e: (e[0] < k_start, e[0]))
    stops = fences_within(inst.pair_fences(sr.subset_color), k_start,
                          direction_key(VERTICAL, half), marks)
    stops.append((None, half, None, None))  # closes the last interval

    i_low = 0
    a, b = arcs[i_low].pivot, arcs[i_high].pivot
    left_low: set[int] = set()  # subset points strictly left of the line at t
    left_high: set[int] = set()  # ... strictly left of the line at t + pi
    strip: set[int] = set()
    stale_low = stale_high = True
    u = start
    for _, d, p, q in stops:
        if d != u:
            t = direction_between(u, d)
            if stale_low or stale_high:
                tx, ty = t  # recounts read the rows, with t.offset inline per point
                if stale_low:
                    o = t.offset(xs[a], ys[a])
                    left_low = {i for i in ids if tx * ys[i] - ty * xs[i] > o}
                if stale_high:
                    o = t.offset(xs[b], ys[b])
                    left_high = {i for i in ids if tx * ys[i] - ty * xs[i] < o}
                strip = left_low & left_high
                stale_low = stale_high = False
            yield t, a, b, strip
            u = d
        if p is None:  # an arc start, or the antipode of one
            if i_low + 1 < n_low and d == arcs[i_low + 1].d_from:
                i_low += 1
                a, stale_low = arcs[i_low].pivot, True
            if i_high + 1 < len(arcs) and d == arcs[i_high + 1].d_from.antipode:
                i_high += 1
                b, stale_high = arcs[i_high].pivot, True
            continue
        # d points from p to q: the line at t meets q with its head or p with
        # its tail, the line at t + pi meets p with its head or q with its tail
        if not stale_low:
            if a == p:
                left_low.discard(q)
                strip.discard(q)
            elif a == q:
                left_low.add(p)
                if p in left_high:
                    strip.add(p)
        if not stale_high:
            if b == q:
                left_high.discard(p)
                strip.discard(p)
            elif b == p:
                left_high.add(q)
                if q in left_low:
                    strip.add(q)


def half_cycle_representatives(sr: SlidingRotation, inst: Instance) -> list[Direction]:
    """One direction inside each combinatorial interval of the half cycle (``curve_sweep``)."""
    return [t for t, _, _, _ in curve_sweep(sr, inst)]


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

    Read off ``curve_sweep``, one representative per interval; the minimum
    over the continuous parameter is attained on an interval, so this is
    exact, and the first interval attaining it wins.  Raises
    NotPositivelyOriented when some antipodal pair fails to bound a strip.
    """
    pts = inst.points
    best: Waist | None = None
    for t, low, high, strip in curve_sweep(sr, inst):
        a, b = pts[low], pts[high]
        if t.offset(b.x, b.y) <= t.offset(a.x, a.y):
            raise NotPositivelyOriented(f"antipodal lines out of order at {t}")
        if best is None or len(strip) < best.value:
            best = Waist(len(strip), t, frozenset(strip),
                         DirectedLine(a.x, a.y, t, (low,)),
                         DirectedLine(b.x, b.y, t.antipode, (high,)))
    return best


def is_positively_oriented(sr: SlidingRotation, inst: Instance) -> bool:
    """Whether the line at t + pi stays strictly left of the line at t.

    Checked at one representative direction per combinatorial interval of
    the half cycle: the check ``waist`` makes on its walk.
    """
    try:
        waist(sr, inst)
    except NotPositivelyOriented:
        return False
    return True
