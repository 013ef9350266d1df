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
one bisection, O(log anchors).  The walks read the angular order the
instance keeps per point, its fences (``Instance.fences``), cut to an arc
by ``fences_within``: ``sliding_profile`` walks every arc in O(log n) plus
one step per crossed point, and ``curve_sweep``, which the waist and the
orientation check read, carries the two antipodal lines along the half
cycle over the fences of their current anchors, in O(log n + m) per
anchor change plus one step per subset point crossed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterator, Union

from .geometry import (
    KEY_START,
    BalancedLinesError,
    Color,
    DirectedLine,
    Direction,
    FENCE_KEY,
    Instance,
    VERTICAL,
    ccw_arc_contains,
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


def curve_sweep(sr: SlidingRotation, inst: Instance) -> Iterator[tuple[Direction, Direction, int, int, set]]:
    """Walk the half cycle once: ``(u, v, low, high, strip)`` per interval [u, v).

    ``low`` and ``high`` anchor the curve's lines at t and t + pi for t
    inside the interval (what ``evaluate_at`` returns), and ``strip`` holds
    the subset points strictly between them.  It changes only where an
    anchor changes or a subset point crosses one of the lines, at a fence
    of its anchor (``Instance.fences``).  So each piece between anchor
    changes merges the fences of its two anchors, ``high``'s with ``head``
    flipped (its line points the other way), and recounts the strip once,
    just past its start; then a point met by the tail of either line joins
    the strip and one met by a head leaves it, until the lines cross at the
    fence between the two anchors.  A walk costs
    O(anchors * (log n + m) + crossings), m the subset size.

    Raises NotPositivelyOriented at the first interval whose lines bound no
    strip.  ``strip`` is the walk's own set, changed as it goes on: copy it
    to keep it.  Needs a curve that turns exactly once.
    """
    start, keys, anchors = sr.start_direction, sr.keys, sr.anchors
    half = start.antipode
    key_half = direction_key(start, half)
    # the anchor changes inside (start, start + pi), in turn order: the low line's at
    # the anchors' directions, the high line's at the antipodes of those past start + pi
    changes = sorted([(k, False, d, p) if k < key_half
                      else (direction_key(start, d.antipode), True, d.antipode, p)
                      for k, (d, p) in zip(keys[1:], anchors[1:]) if k != key_half], key=itemgetter(0, 1))
    changes.append((None, False, half, None))  # closes the last piece
    a, b = anchors[0][1], anchors[bisect_right(keys, key_half) - 1][1]
    color, xs, ys = sr.subset_color, inst.xs, inst.ys
    ids = inst.ids_of(color)
    subset = set(ids)
    u, ku = start, direction_key(VERTICAL, start)
    for _, high, v, new in changes:
        if v != u:  # the piece [u, v), where a and b anchor the lines
            kv = direction_key(VERTICAL, v)
            flipped = [(k, d, p, not head) for k, d, p, head in fences_within(inst.fences(b), ku, kv, ())
                       if p in subset]
            stops = [e for e in fences_within(inst.fences(a), ku, kv, flipped) if e[2] in subset]
            stops.append((kv, v, a, True))  # closes the piece; a never enters the strip
            t = direction_between(u, stops[0][1])
            tx, ty = t  # the recount reads the rows, with t.offset inline per point
            o_a, o_b = t.offset(xs[a], ys[a]), t.offset(xs[b], ys[b])
            oriented = o_a < o_b
            strip = {i for i in ids if o_a < tx * ys[i] - ty * xs[i] < o_b}
            for _, d, p, head in stops:
                if d != u:
                    if not oriented:
                        raise NotPositivelyOriented(
                            f"antipodal lines out of order at {_representative(inst, color, u, d)}")
                    yield u, d, a, b, strip
                    u = d
                if p == b:  # a's line meets b: the two lines cross
                    oriented = False
                elif head:
                    strip.discard(p)
                elif p != a:
                    strip.add(p)
            ku = kv
        a, b = (a, new) if high else (new, b)


def _representative(inst: Instance, color: Color, u: Direction, v: Direction) -> Direction:
    """The direction that names the interval [u, v) of ``curve_sweep``.

    ``direction_between(u, d)``, d the nearer of v and the next direction
    between two subset points (``Instance.pair_fences``, one bisection):
    inside the first interval of the finer cut at every such direction, the
    cut that waist records and orientation errors name.
    """
    pairs = inst.pair_fences(color)
    if pairs:
        _, d, _, _ = pairs[bisect_right(pairs, direction_key(VERTICAL, u), key=FENCE_KEY) % len(pairs)]
        if ccw_arc_contains(u, v, d):
            v = d
    return direction_between(u, v)


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

    The first interval of ``curve_sweep`` with the fewest, named by
    ``_representative``: the strip is constant on each interval, so this is
    the minimum over the continuous parameter.  Costs what the walk costs,
    O(anchors * (log n + m) + crossings).  Raises NotPositivelyOriented when
    some antipodal pair bounds no strip.
    """
    best = None
    for u, v, low, high, strip in curve_sweep(sr, inst):
        if best is None or len(strip) < len(best[4]):
            best = (u, v, low, high, frozenset(strip))
    u, v, low, high, witnesses = best
    t = _representative(inst, sr.subset_color, u, v)
    a, b = inst.points[low], inst.points[high]
    return Waist(len(witnesses), t, witnesses, DirectedLine(a.x, a.y, t, (low,)),
                 DirectedLine(b.x, b.y, t.antipode, (high,)))


def is_positively_oriented(sr: SlidingRotation, inst: Instance) -> bool:
    """Whether the line at t + pi stays strictly left of the line at t.

    Read off the walk ``waist`` makes, ``curve_sweep``.  Kept public as
    the paper's orientation condition, which
    ``test_sliding.py::test_positivity_shortcut_families`` checks against the
    level rule 2k + 2 <= r.
    """
    try:
        waist(sr, inst)
    except NotPositivelyOriented:
        return False
    return True
