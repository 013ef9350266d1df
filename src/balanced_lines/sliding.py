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
direction (``SlidingRotation.arc_at``, and with it ``offset_at``) costs
one bisection, O(log anchors).  The walks read the angular order the
instance keeps per point, its fences (``Instance.fences``).
``sliding_profile`` cuts every arc out of its pivot's fences by
``fences_within`` and walks the full turn in O(log n) per arc plus one
step per crossed point.  ``curve_sweep``, which the waist, the
orientation check and the delta check of the gamma search read, carries
the two antipodal lines along the half cycle with one pointer into the
fences of each line's current anchor: one O(n) count per curve, O(1) per
fence and O(log n) per anchor change.
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
    Coord,
    DirectedLine,
    Direction,
    FENCE_KEY,
    Instance,
    VERTICAL,
    ccw_arc_contains,
    direction_between,
    direction_key,
    direction_of,
    fences_within,
    halfplane_weight,
    just_after_keys,
)
from .rotation import RotationTrace, _preserves_delta


class NotPositivelyOriented(BalancedLinesError):
    """Waist is undefined for a curve whose antipodal lines do not bound a strip."""


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

        The first anchor's key is read as ``KEY_START``: every other key
        sorts after it.  Raises InvalidCurve unless there are at least two
        anchors and the keys increase strictly, with none at half 4 (the
        start direction itself), so that the arcs turn exactly once.
        """
        if len(self.anchors) < 2:
            raise InvalidCurve("a curve needs at least two anchors")
        start = self.start_direction
        keys = (KEY_START, *[direction_key(start, d) for d, _ in self.anchors[1:]])
        if keys[-1][0] == 4 or not all(a < b for a, b in zip(keys, keys[1:])):
            raise InvalidCurve("anchors do not advance through exactly one turn")
        return keys

    def arc_at(self, t: Direction) -> int:
        """The position of the anchor whose arc holds t: the last one at or before t.

        The start direction's key is at half 4, where it sorts last; it is
        read as ``KEY_START``, the first arc's start.
        """
        k = direction_key(self.start_direction, t)
        return bisect_right(self.keys, KEY_START if k[0] == 4 else k) - 1


def lift_rotation(trace: RotationTrace, subset_color: Color) -> SlidingRotation:
    """Embed a plain rotation as an arc-only sliding rotation.

    Anchored at the start and at each pivot change off it; a handover keeps
    both pivots on one line, so no slide joins them.
    """
    start = trace.spec.start_direction
    anchors = [(start, trace.initial_pivot)]
    anchors += [(ev.direction, ev.pivot_after) for ev in trace.events
                if ev.pivot_after != ev.pivot_before and ev.direction != start]
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


def offset_at(sr: SlidingRotation, inst: Instance, t: Direction) -> tuple[Coord, int]:
    """The curve's line at direction t: ``(t.offset of it, a point it passes through)``.

    The leftmost line if a slide sits at t.  Bisects the curve's keys for
    the arc holding t and reads the offsets of its anchor points off
    ``inst.xs`` and ``inst.ys``.  When t is that arc's start, the previous
    arc ends at t and any slide at t joins the two points, so both are
    compared, the first in piece order kept on a tie: the previous point,
    except at the start direction, where the first arc precedes the last.
    The one evaluation of a curve, which ``evaluate_at`` and
    ``gamma.in_central_region`` read.  Needs a curve that turns exactly
    once (see ``validate_curve``).
    """
    j = sr.arc_at(t)
    u, a = sr.anchors[j]
    xs, ys = inst.xs, inst.ys
    o = t.offset(xs[a], ys[a])
    if t == u:
        prev = sr.anchors[j - 1][1]
        o_prev = t.offset(xs[prev], ys[prev])
        if o_prev > o or o_prev == o and j:
            return o_prev, prev
    return o, a


def evaluate_at(sr: SlidingRotation, inst: Instance, t: Direction) -> DirectedLine:
    """The curve's line at direction t, through the point ``offset_at`` names."""
    _, p = offset_at(sr, inst, t)
    return DirectedLine(inst.xs[p], inst.ys[p], t)


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
    against the arc.  The gamma search reads a curve's weights off its
    waist walk (``Waist.omega_range``); this walk of the full turn, arc by
    arc, is the independent one the tests compare it with.
    """
    ws = inst.ws
    out = []
    for piece in curve_pieces(sr, inst):
        if isinstance(piece, RotateArc):
            q = inst.point(piece.pivot)
            fences = inst.fences(q.id)
            inside = fences_within(fences, direction_key(VERTICAL, piece.d_from),
                                   direction_key(VERTICAL, piece.d_to))
            bounds = [piece.d_from, *(d for _, d, _, _ in inside), piece.d_to]
            for j, (u, v) in enumerate(zip(bounds, bounds[1:])):
                line = DirectedLine(q.x, q.y, direction_between(u, v))
                if j:
                    _, _, other, head = inside[j - 1]
                    w += ws[other] if head else -ws[other]
                else:
                    w = halfplane_weight(line, inst)
                out.append((line, w))
        else:
            d = piece.direction
            offsets = [d.offset(x, y) for x, y in zip(inst.xs, inst.ys)]
            for a, b, w in _slide_steps(ws, offsets, piece.from_id, piece.to_id):
                ax, ay = _anchor_for_offset(d, Fraction(a + b, 2))
                out.append((DirectedLine(ax, ay, d), w))
    return out


def is_delta_preserving_sliding(sr: SlidingRotation, inst: Instance) -> bool:
    """One-sided preservation: red curves stay <= delta, blue curves >= delta.

    Reads the weights of ``sliding_profile``; the gamma search reads the
    same test off ``Waist.omega_range`` instead.
    """
    omegas = (w for _, w in sliding_profile(sr, inst))
    return _preserves_delta(sr.subset_color, omegas, inst.delta)


def curve_sweep(sr: SlidingRotation, inst: Instance) -> Iterator[tuple[Direction, Direction, int, int, set]]:
    """Walk the half cycle once: ``(u, v, low, high, strip)`` per interval [u, v).

    ``low`` and ``high`` anchor the curve's lines at t and t + pi for t
    inside the interval (what ``evaluate_at`` returns), and ``strip`` holds
    the subset points strictly between them.  The walk counts the strip,
    both lines' right weights and their orientation once, just past the
    start direction (``_just_after``); after that they change only at a
    fence of a current anchor (``Instance.fences``; ``high``'s with ``head``
    flipped, as its line points the other way) or where an anchor changes.
    So one pointer per line steps through all its anchor's fences: each
    point met steps that line's weight, a subset point met by the tail of
    either line joins the strip and one met by a head leaves it, and the
    fence between the two anchors, where the lines cross, ends the
    oriented run.  An interval ends at a subset fence or an anchor change.

    An arc-only change from a to a', which lies on a's line there, hands
    the line over as ``rotation.walk_rotation`` does, by a's fence at a':
    met by the head, a' leaves the strip and a joins it; met by the tail,
    the strip stays.  The weight stays either way (the tail step
    w(a) - w(a') is 0: every anchor has the subset's colour).  Two lines
    that hand over at one direction are distinct parallels there, so each
    does so on its own.  Only a slide (a' off a's line, ``curve_pieces``'
    test) or a new anchor that is the other line's is counted again, just
    past that direction.  So a walk costs one O(n) count, O(1) per fence
    and O(log n) per anchor change, the bisection into the new fences.

    Returns the least and greatest right weight either line held, with the
    weights every slide passes (``_slide_range``), those at start and
    start + pi included: the extremes of ``sliding_profile``.  Raises
    NotPositivelyOriented at the first interval whose lines bound no
    strip.  ``strip`` is the walk's own set, changed as it goes on: copy it
    to keep it.  Needs a curve that turns exactly once.
    """
    start, keys, anchors = sr.start_direction, sr.keys, sr.anchors
    half = start.antipode
    key_half = direction_key(start, half)
    k0 = direction_key(VERTICAL, start)
    j = sr.arc_at(half)
    a, b = anchors[0][1], anchors[j][1]
    # the anchor changes inside (start, start + pi): the low line's at the anchors'
    # directions, the high line's at the antipodes of those past start + pi
    ends: dict[Direction, list] = {}
    for k, (d, p) in zip(keys[1:], anchors[1:]):
        if k != key_half:
            high = key_half < k
            ends.setdefault(d.antipode if high else d, [None, None])[high] = p
    # each at its place in the walk, (past vertical, key), the end last
    changes = sorted([(_place(k0, v), v, *new) for v, new in ends.items()], key=itemgetter(0))
    changes.append((_place(k0, half), half, None, None))
    end = len(changes) - 1

    color, ws = sr.subset_color, inst.ws
    ids = inst.ids_of(color)
    subset = set(ids)
    offsets, strip, w_low, w_high, oriented = _just_after(inst, ids, start, a, b)
    least, most = min(w_low, w_high), max(w_low, w_high)
    # the slides at the walk's ends: into the first anchor at start, into one at start + pi
    slides = [(offsets, anchors[-1][1], a)]
    if keys[j] == key_half:
        slides.append(([-o for o in offsets], anchors[j - 1][1], b))
    for offs, p, q in slides:
        if offs[p] != offs[q]:
            least, most = _slide_range(ws, offs, p, q, least, most)

    # a cursor per line: its anchor's fences, the index of the next one, that fence and its place
    fa, fb = inst.fences(a), inst.fences(b)
    na, ia, ea, pa = _cursor(fa, k0, False)
    nb, ib, eb, pb = _cursor(fb, k0, False)
    ci, u = 0, start
    pc, v, new_a, new_b = changes[0]
    while True:
        # a fence at the change's place is crossed first by a line that keeps its point
        take_a = pa < pc or pa == pc and new_a in (None, a) and ci < end
        take_b = pb < pc or pb == pc and new_b in (None, b) and ci < end
        if take_a and (not take_b or pa <= pb):
            _, d, p, head = ea
            w_low += ws[p] if head else -ws[p]
            if w_low < least:
                least = w_low
            elif w_low > most:
                most = w_low
            if p in subset:
                if d != u:
                    if not oriented:
                        raise _out_of_order(inst, color, u, d)
                    yield u, d, a, b, strip
                    u = d
                if p == b:  # a's line meets b: the two lines cross
                    oriented = False
                elif head:
                    strip.discard(p)
                elif p != a:
                    strip.add(p)
            ia += 1
            ea = fa[ia % na]
            pa = (ia >= na, ea[0])
        elif take_b:
            _, d, p, head = eb  # the high line points the other way: b's head is its tail
            w_high += -ws[p] if head else ws[p]
            if w_high < least:
                least = w_high
            elif w_high > most:
                most = w_high
            if p in subset:
                if d != u:
                    if not oriented:
                        raise _out_of_order(inst, color, u, d)
                    yield u, d, a, b, strip
                    u = d
                if not head:
                    strip.discard(p)
                elif p != a:
                    strip.add(p)
            ib += 1
            eb = fb[ib % nb]
            pb = (ib >= nb, eb[0])
        else:
            if v != u:
                if not oriented:
                    raise _out_of_order(inst, color, u, v)
                yield u, v, a, b, strip
                u = v
            if ci == end:
                return least, most
            moves_a, moves_b = new_a not in (None, a), new_b not in (None, b)
            # arc-only exactly when the old point's fence here is the one at the new point
            hand_a = moves_a and pa == pc and ea[2] == new_a
            hand_b = moves_b and pb == pc and eb[2] == new_b
            new_a, new_b = new_a if moves_a else a, new_b if moves_b else b
            if moves_a and (new_a == b or not hand_a) or moves_b and (new_b == a or not hand_b):
                offsets, strip, w_low, w_high, oriented = _just_after(inst, ids, v, new_a, new_b)
                least, most = min(least, w_low, w_high), max(most, w_low, w_high)
                if offsets[a] != offsets[new_a]:
                    least, most = _slide_range(ws, offsets, a, new_a, least, most)
                if offsets[b] != offsets[new_b]:
                    least, most = _slide_range(ws, [-o for o in offsets], b, new_b, least, most)
            else:  # two distinct parallel lines, if both hand over here: each on its own
                if moves_a and ea[3]:  # met by the head
                    strip.discard(new_a)
                    strip.add(a)
                if moves_b and not eb[3]:  # met by the high line's head
                    strip.discard(new_b)
                    strip.add(b)
            wrapped, kv = pc
            if moves_a:
                a, fa = new_a, inst.fences(new_a)
                na, ia, ea, pa = _cursor(fa, kv, wrapped)
            if moves_b:
                b, fb = new_b, inst.fences(new_b)
                nb, ib, eb, pb = _cursor(fb, kv, wrapped)
            ci += 1
            pc, v, new_a, new_b = changes[ci]


def _place(k0: tuple, d: Direction) -> tuple[bool, tuple]:
    """Where d lies in a walk from the direction keyed k0: past vertical or not, then its key."""
    k = direction_key(VERTICAL, d)
    return not k0 < k, k


def _cursor(fences: tuple, key: tuple, wrapped: bool) -> tuple:
    """A pointer into a point's fences just past ``key``: (length, index, fence, place).

    The index runs on into a second pass of the fences once the walk is
    past vertical (``wrapped``), so ``(index >= length, key)``, the place,
    orders the fence in the walk.
    """
    n = len(fences)
    i = bisect_right(fences, key, key=FENCE_KEY) + (n if wrapped else 0)
    e = fences[i % n]
    return n, i, e, (i >= n, e[0])


def _just_after(inst: Instance, ids: tuple[int, ...], d: Direction, a: int, b: int) -> tuple:
    """``curve_sweep``'s count just past d, for the lines through a at d and b at d + pi.

    ``(offsets, strip, low weight, high weight, oriented)``, read off one
    ``just_after_keys`` at d: a point is right of a's line exactly when its
    key is below a's, and right of b's line at d + pi, the line at d turned
    around, exactly when its key is above b's.  ``offsets`` holds every
    point's ``d.offset``.
    """
    keys = just_after_keys(d, inst.points)
    ka, kb = keys[a], keys[b]
    ws = inst.ws
    return ([key[0] for key in keys], {i for i in ids if ka < keys[i] < kb},
            sum(w for w, key in zip(ws, keys) if key < ka),
            sum(w for w, key in zip(ws, keys) if key > kb), ka < kb)


def _slide_steps(ws: tuple[int, ...], offsets: list, p: int, q: int) -> list[tuple]:
    """The lines a slide from p to q passes: ``(low, high, weight)`` per interval of offsets.

    ``offsets`` are every point's offsets against the slide's direction.
    The slide's lines run from the lower end's offset to the upper one's
    and are cut at every offset strictly between them; on each interval
    the points at or below its low offset are right of the line.  Both
    ``sliding_profile`` and ``curve_sweep`` read a slide's weights here.
    """
    lo, hi = sorted((offsets[p], offsets[q]))
    w = 0
    crossed: dict = {}  # offset strictly between the ends -> weight of its points
    for pw, o in zip(ws, offsets):
        if o <= lo:
            w += pw
        elif o < hi:
            crossed[o] = crossed.get(o, 0) + pw
    cuts = [lo, *sorted(crossed), hi]
    steps = []
    for a, b in zip(cuts, cuts[1:]):
        steps.append((a, b, w))
        w += crossed.get(b, 0)
    return steps


def _slide_range(ws: tuple[int, ...], offsets: list, p: int, q: int,
                 least: int, most: int) -> tuple[int, int]:
    """``(least, most)`` widened by the right weights of a slide from p to q (``_slide_steps``)."""
    weights = [w for _, _, w in _slide_steps(ws, offsets, p, q)]
    return min(least, *weights), max(most, *weights)


def _out_of_order(inst: Instance, color: Color, u: Direction, v: Direction) -> NotPositivelyOriented:
    """The error of ``curve_sweep`` for the interval [u, v), named as ``waist`` names one."""
    return NotPositivelyOriented(f"antipodal lines out of order at {_representative(inst, color, u, v)}")


def _representative(inst: Instance, color: Color, u: Direction, v: Direction) -> Direction:
    """The direction that names the interval [u, v) of ``curve_sweep``.

    ``direction_between(u, d)``, d the nearer of v and the next direction
    after u at which two subset points share an offset: inside the first
    interval of the finer cut at every direction between two subset points,
    the cut that waist records and orientation errors name.  The first two
    subset points to share an offset after u are adjacent in their
    ``just_after_keys`` order at u, since a point between them would lie on
    their line.  From each point to the next in that order the direction
    lies in (u, u + pi], where the two share an offset, so d is the nearest
    of those directions.
    """
    pts = [inst.points[i] for i in inst.ids_of(color)]
    ordered = [p for _, p in sorted(zip(just_after_keys(u, pts), pts), key=itemgetter(0))]
    if len(ordered) > 1:
        d = min((direction_of(q.x - p.x, q.y - p.y) for p, q in zip(ordered, ordered[1:])),
                key=lambda e: direction_key(u, e))
        if ccw_arc_contains(u, v, d):
            v = d
    return direction_between(u, v)


@dataclass(frozen=True)
class Waist:
    """The minimum strip occupancy of a positively oriented curve.

    ``omega_range`` is the least and the greatest right-halfplane weight of
    the curve over its full turn, read off the same walk: the curve
    preserves delta exactly when ``rotation._preserves_delta`` holds for
    the pair.
    """

    value: int
    achieved_at: Direction
    witnesses: frozenset[int]
    line_low: DirectedLine
    line_high: DirectedLine
    omega_range: tuple[int, int]


def waist(sr: SlidingRotation, inst: Instance) -> Waist:
    """Minimum number of subset points strictly between the antipodal lines.

    The first interval of ``curve_sweep`` with the fewest, named by
    ``_representative``: the strip is constant on each interval, so this is
    the minimum over the continuous parameter.  The walk's weight range is
    kept as ``omega_range``.  Costs what the walk costs: one O(n) count,
    O(1) per fence and O(log n) per anchor change.  Raises
    NotPositivelyOriented when some antipodal pair bounds no strip.
    """
    walk = curve_sweep(sr, inst)
    best = None
    while True:
        try:
            u, v, low, high, strip = next(walk)
        except StopIteration as done:
            omega_range = done.value
            break
        if best is None or len(strip) < len(best[4]):
            best = (u, v, low, high, frozenset(strip))
    u, v, low, high, witnesses = best
    t = _representative(inst, sr.subset_color, u, v)
    a, b = inst.points[low], inst.points[high]
    return Waist(len(witnesses), t, witnesses, DirectedLine(a.x, a.y, t),
                 DirectedLine(b.x, b.y, t.antipode), omega_range)


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
