"""Sliding rotations: closed, angularly monotone curves in line space.

A sliding rotation alternates rotation arcs about points of its subset with
parallel displacements (slides) taken at a fixed direction.  It is stored as
its anchors, (direction, point) pairs in turn order: the arc about each
anchor's point runs to the next anchor's direction, and a slide sits
wherever two consecutive points lie on distinct lines there, so the curve
is continuous by construction and ``curve_pieces`` reads the arcs and
slides off the instance.  Plain level rotations embed as arc-only curves.
The predicates here evaluate the curve combinatorially: one representative
per interval between critical directions, everything by exact sign tests.

The subset of a curve is a full color class; its waist at direction t
counts the subset points strictly inside the strip between the line at t
and the line at t + pi, and the waist of the curve is the minimum over a
half turn.

A valid curve turns exactly once: its anchors advance from the start
direction through one full counterclockwise turn.  ``validate_curve``
checks this, and the queries rely on it: each curve keys its anchors by
angle from the start (``SlidingRotation.keys``), so finding the arc at a
direction (``SlidingRotation.arc_at``, and with it ``evaluate_at``) costs
one bisection, O(log anchors).  The waist and the orientation check are
views of one ordered walk, ``curve_sweep``, which passes every breakpoint
of the half cycle once and carries both antipodal anchors and the strip
along.  ``sliding_profile`` reads each pivot's fences, the angular order
the instance keeps per point (``Instance.fences``), and walks every arc in
O(log n) plus one step per crossed point.
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
    VERTICAL,
    direction_between,
    direction_key,
    fences_within,
    halfplane_weight,
)
from .rotation import EventKind, RotationTrace, _preserves_delta


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


@dataclass(frozen=True)
class Slide:
    direction: Direction
    from_id: int
    to_id: int


Piece = Union[RotateArc, Slide]


@dataclass(frozen=True)
class SlidingRotation:
    """A closed curve, stored as its anchors.

    ``anchors`` holds (direction, point) pairs in strict turn order from the
    first: each arc rotates about its anchor's point from the anchor's
    direction up to the next anchor's, and the last arc closes the turn at
    the first direction.  ``curve_pieces`` adds the slides.
    """

    anchors: tuple[tuple[Direction, int], ...]
    subset_color: Color

    @property
    def start_direction(self) -> Direction:
        return self.anchors[0][0]

    @cached_property
    def keys(self) -> tuple[tuple, ...]:
        """The anchors' ``direction_key`` from the start direction, ``KEY_START`` first.

        Raises InvalidCurve unless there are at least two anchors and the
        keys increase strictly, so that the arcs turn exactly once.
        """
        if len(self.anchors) < 2:
            raise InvalidCurve("a curve needs at least two anchors")
        start = self.start_direction
        keys = tuple(KEY_START if d == start else direction_key(start, d) for d, _ in self.anchors)
        if not all(a < b for a, b in zip(keys, keys[1:])):
            raise InvalidCurve("anchors do not advance through exactly one turn")
        return keys

    def arc_at(self, t: Direction) -> int:
        """The position of the anchor whose arc holds t: the last one at or before t."""
        start = self.start_direction
        return bisect_right(self.keys, KEY_START if t == start else direction_key(start, t)) - 1


def lift_rotation(trace: RotationTrace, subset_color: Color) -> SlidingRotation:
    """Embed a plain rotation as an arc-only sliding rotation.

    Anchored at the start and at each pivot change off it; a handover keeps
    both pivots on one line, so no slide joins them.
    """
    start = trace.start_direction
    anchors = [(start, trace.initial_pivot)]
    anchors += [(ev.direction, ev.pivot_after) for ev in trace.events
                if ev.kind is EventKind.PIVOT_CHANGE and ev.direction != start]
    return _curve_through(anchors, subset_color)


def _curve_through(anchors: list[tuple[Direction, int]], color: Color) -> SlidingRotation:
    """The curve rotating about each anchor's point from its direction to the next anchor's.

    ``anchors`` holds (direction, point) pairs at distinct directions in turn
    order; the last arc closes the turn at the first direction.  A lone
    anchor is joined by its antipode, so the curve is two half arcs about
    its point.
    """
    if len(anchors) == 1:
        (u, a), = anchors
        anchors = [(u, a), (u.antipode, a)]
    return SlidingRotation(tuple(anchors), color)


def curve_pieces(sr: SlidingRotation, inst: Instance) -> Iterator[Piece]:
    """The curve's arcs and slides, in turn order from its start direction.

    An arc about each anchor's point up to the next anchor's direction; a
    slide joins two consecutive points that lie on distinct lines there.
    """
    xs, ys = inst.xs, inst.ys
    anchors = sr.anchors
    for (u, a), (v, b) in zip(anchors, anchors[1:] + anchors[:1]):
        yield RotateArc(a, u, v)
        if v.offset(xs[a], ys[a]) != v.offset(xs[b], ys[b]):
            yield Slide(v, a, b)


def validate_curve(sr: SlidingRotation, inst: Instance) -> None:
    """Check that the anchors turn exactly once about points of the subset.

    The arcs and slides of ``curve_pieces`` join by construction, so no
    continuity is left to check.
    """
    sr.keys  # raises InvalidCurve unless the anchors turn exactly once
    subset = set(inst.ids_of(sr.subset_color))
    for _, a in sr.anchors:
        if a not in subset:
            raise InvalidCurve(f"arc pivot {a} outside the subset")


def evaluate_at(sr: SlidingRotation, inst: Instance, t: Direction) -> DirectedLine:
    """The curve's line at direction t; the leftmost one if a slide sits at t.

    Bisects the curve's keys for the arc holding t.  When t is that arc's
    start, the previous arc ends at t and any slide at t joins the two
    points, so both are compared, in piece order: the previous point first,
    except at the start direction, where the first arc precedes the last.
    Needs a curve that turns exactly once (see ``validate_curve``).
    """
    j = sr.arc_at(t)
    u, a = sr.anchors[j]
    if t != u:
        near = (a,)
    else:
        prev = sr.anchors[j - 1][1]
        near = (a, prev) if j == 0 else (prev, a)
    p = max((inst.point(i) for i in near), key=lambda p: t.offset(p.x, p.y))  # first on ties
    return DirectedLine(p.x, p.y, t, (p.id,))


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
    for piece in curve_pieces(sr, inst):
        if isinstance(piece, RotateArc):
            q = inst.point(piece.pivot)
            fences = inst.fences(q.id)
            inside = fences_within(fences, direction_key(VERTICAL, piece.d_from),
                                   direction_key(VERTICAL, piece.d_to), ())
            bounds = [piece.d_from, *(d for _, d, _, _ in inside), piece.d_to]
            for j, (u, v) in enumerate(zip(bounds, bounds[1:])):
                line = DirectedLine(q.x, q.y, direction_between(u, v), (piece.pivot,))
                if j:
                    _, _, other, head = inside[j - 1]
                    w += ws[other] if head else -ws[other]
                else:
                    w = halfplane_weight(line, inst)
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


def is_delta_preserving_sliding(sr: SlidingRotation, inst: Instance) -> bool:
    """One-sided preservation: red curves stay <= delta, blue curves >= delta.

    Walks ``_profile_steps`` only up to the first interval that breaks it;
    most curves that fail do so on the first one.
    """
    omegas = (w for _, w in _profile_steps(sr, inst))
    return _preserves_delta(sr.subset_color, omegas, inst.delta)


def curve_sweep(sr: SlidingRotation, inst: Instance) -> Iterator[tuple[Direction, int, int, set[int]]]:
    """Walk the half cycle once: ``(t, low, high, strip)`` per combinatorial interval.

    The breakpoints are the anchors' directions, their antipodes and every
    direction between two subset points (``Instance.pair_fences``), folded
    onto [start, start + pi); ``t`` is ``direction_between`` two consecutive
    ones.  ``low`` and ``high`` anchor the curve's lines at ``t`` and
    ``t + pi`` (what ``evaluate_at`` returns there), and ``strip`` holds the
    subset points strictly between them.  Both advance through the curve's
    anchors at arc starts; in between, a point crosses an anchor's
    line only at their pair fence.  So a walk costs O(1) per breakpoint plus
    O(m) per anchor change, m the subset size.  ``strip`` is the walk's own
    set and changes as it goes on: copy it to keep it.  Needs a curve that
    turns exactly once.
    """
    start = sr.start_direction
    half = start.antipode
    keys, anchors = sr.keys, sr.anchors
    xs, ys = inst.xs, inst.ys
    ids = inst.ids_of(sr.subset_color)
    # anchors[:n_low] start arcs in [start, start + pi); anchors[i_high]'s arc holds start + pi
    key_half = direction_key(start, half)
    n_low = bisect_left(keys, key_half)
    i_high = bisect_right(keys, key_half) - 1
    k_start = direction_key(VERTICAL, start)
    turns = [d for d, _ in anchors[1:n_low]] + [d.antipode for d, _ in anchors[i_high + 1:]]
    # in the turn's order: keys above the start's, then those past vertical
    marks = sorted(((direction_key(VERTICAL, d), d, None, None) for d in turns),
                   key=lambda e: (e[0] < k_start, e[0]))
    stops = fences_within(inst.pair_fences(sr.subset_color), k_start,
                          direction_key(VERTICAL, half), marks)
    stops.append((None, half, None, None))  # closes the last interval

    i_low = 0
    a, b = anchors[i_low][1], anchors[i_high][1]
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
            if i_low + 1 < n_low and d == anchors[i_low + 1][0]:
                i_low += 1
                a, stale_low = anchors[i_low][1], True
            if i_high + 1 < len(anchors) and d == anchors[i_high + 1][0].antipode:
                i_high += 1
                b, stale_high = anchors[i_high][1], True
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
    the half cycle: the check ``waist`` makes on its walk.  Kept public as
    the paper's orientation condition, which
    ``test_sliding.py::test_positivity_shortcut_families`` checks against the
    level rule 2k + 2 <= r.
    """
    try:
        waist(sr, inst)
    except NotPositivelyOriented:
        return False
    return True
