"""Selection of the minimum-waist delta-preserving sliding rotation.

The candidate family is finite and constructive, and every member is made
of arcs only:

* every plain level rotation, of either color, that is delta-preserving in
  the one-sided sliding sense and positively oriented;
* splices spawned from the current best candidate: the level rotations of
  its strip points, each followed except between its outermost meetings
  with the candidate, where the candidate is followed instead.

New composites are adopted only after full validation (curve continuity,
preservation, positive orientation) and only when they strictly shrink the
waist, so the iteration terminates.

The splice walks its inputs in angular order instead of pairing every part
with every other: it finds where the strip rotation meets the curve by
moving one pointer through the curve's arc index along the trace's
intervals.  ``build_shift`` builds the one curve with slides that the
package constructs; it is not part of the family.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Optional

from .geometry import (
    KEY_START,
    VERTICAL,
    Color,
    Direction,
    GuaranteeViolation,
    Instance,
    ccw_arc_contains,
    direction_key,
    direction_of,
    fences_within,
    just_after_keys,
)
from .rotation import (
    End,
    RotationSpec,
    RotationTrace,
    Transition,
    run_rotation,
)
from .sliding import (
    InvalidCurve,
    NotDeltaPreserving,
    NotPositivelyOriented,
    Piece,
    RotateArc,
    SlidingRotation,
    Waist,
    _curve_through,
    _preserves_delta,
    evaluate_at,
    is_delta_preserving_sliding,
    lift_rotation,
    validate_curve,
    waist,
)


@dataclass(frozen=True)
class Gamma:
    """A validated family member: curve, waist and bookkeeping."""

    sr: SlidingRotation
    waist: Waist
    kind: str
    level: int

    @property
    def color(self) -> Color:
        return self.sr.subset_color

    @property
    def sort_key(self) -> tuple:
        return (
            self.waist.value,
            0 if self.color is Color.RED else 1,
            0 if self.kind == "plain" else 1,
            self.level,
            self.waist.achieved_at.rank,
        )


def transition_low(color: Color, delta: int) -> int:
    """Lower value of the weight boundary relevant to the given subset color."""
    return delta if color is Color.RED else delta - 1


def _validated(sr: SlidingRotation, inst: Instance, kind: str, level: int, *,
               preserving_known: bool = False,
               waist_cap: Optional[int] = None) -> Optional[Gamma]:
    """Full membership check; None when the curve does not qualify.

    Rejection comes first: the preservation test stops at the first weight
    that breaks it, and most candidates that fail do so on their first
    interval, so it runs before the full ``waist`` walk, which also detects
    orientation failures; ``waist_cap`` then prunes candidates that cannot
    improve.  Every failing filter returns None, so their order cannot
    change which curves qualify.
    """
    try:
        validate_curve(sr, inst)
    except InvalidCurve:
        return None
    if not preserving_known and not is_delta_preserving_sliding(sr, inst):
        return None
    try:
        w = waist(sr, inst)
    except NotPositivelyOriented:
        return None
    if waist_cap is not None and w.value >= waist_cap:
        return None
    return Gamma(sr, w, kind, level)


def plain_candidates(inst: Instance) -> list[Gamma]:
    """All delta-preserving, positively oriented plain rotations, lifted.

    Levels above (m - 2) / 2 cannot be positively oriented: the strip
    between the antipodal lines would have to hold m - 2k - 2 < 0 subset
    points.  They are skipped before tracing.
    """
    out = []
    for color in (Color.RED, Color.BLUE):
        ids = inst.ids_of(color)
        m = len(ids)
        for k in range((m - 1) // 2 if m >= 2 else 0):
            trace = run_rotation(RotationSpec(color, k), inst)
            if not _preserves_delta(color, trace.omega_values, inst.delta):
                continue
            cand = _validated(
                lift_rotation(trace, inst, color), inst, "plain", k,
                preserving_known=True,
            )
            if cand is not None:
                out.append(cand)
    return out


def find_gamma(inst: Instance) -> Optional[Gamma]:
    """Minimum-waist family member, or None when the family is empty.

    An empty family means no level rotation preserves delta at all, in
    which case the direct transition accounting already certifies the
    lower bound and no curve is needed.  Every splice has a smaller waist
    than the ``best`` it was spawned from (``waist_cap``), so the best of a
    round's splices is the best of all curves seen so far.

    Soundness never rests on the family: ``certificate._check_certificate``
    rechecks every certified line with ``geometry.is_balanced``, whatever
    curve the lines were read from.  The family only decides whether a
    curve is found and which lines are certified.
    """
    plain = plain_candidates(inst)
    if not plain:
        return None
    best = min(plain, key=lambda c: c.sort_key)
    while improvements := surgery_candidates(inst, best):
        best = min(improvements, key=lambda c: c.sort_key)
    return best


def decompose_fhg(inst: Instance, gamma: Gamma) -> tuple[
        tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Split the subset by the waist-achieving antipodal lines.

    The first flank holds the subset points in the closed right halfplane
    of the achieving line, the second those in the closed right halfplane
    of its antipodal partner, and the strip set is everything in between
    (exactly the waist witnesses).  Raises NotDeltaPreserving unless the
    curve preserves delta; ``_split_fhg`` is the split alone.  Kept public as
    the paper's decomposition: ``test_gamma.py::test_decompose_partition``
    checks the partition, ``test_decompose_requires_preserving`` the guard.
    """
    if not is_delta_preserving_sliding(gamma.sr, inst):
        raise NotDeltaPreserving("decomposition needs a delta-preserving curve")
    return _split_fhg(inst, gamma)


def _split_fhg(inst: Instance, gamma: Gamma) -> tuple[
        tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """``decompose_fhg`` without its preservation walk.

    For a gamma known to preserve delta, as every ``find_gamma`` result is:
    ``_validated`` walked its profile, or ``plain_candidates`` read it off
    the rotation.
    """
    t = gamma.waist.achieved_at
    o_low = gamma.waist.line_low.offset(t)
    o_high = gamma.waist.line_high.offset(t)
    flank_f = []
    flank_h = []
    strip = []
    for i in inst.ids_of(gamma.color):
        p = inst.point(i)
        o = t.offset(p.x, p.y)
        if o <= o_low:
            flank_f.append(i)
        elif o >= o_high:
            flank_h.append(i)
        else:
            strip.append(i)
    if frozenset(strip) != gamma.waist.witnesses:
        raise GuaranteeViolation("strip set differs from the waist witnesses")
    return tuple(flank_f), tuple(flank_h), tuple(strip)


def in_central_region(inst: Instance, gamma: Gamma, transition: Transition) -> bool:
    """Whether the transition's line lies inside or on the strip boundary."""
    t = transition.direction
    o_low = evaluate_at(gamma.sr, inst, t).offset(t)  # the strip: the curve's lines at t, t + pi
    o_high = evaluate_at(gamma.sr, inst, t.antipode).offset(t)
    return o_low <= transition.line.offset(t) <= o_high


# ---------------------------------------------------------------------------
# surgery: composites derived from the current best candidate


def surgery_candidates(inst: Instance, best: Gamma) -> list[Gamma]:
    """Splices of the current best curve with the rotations of its strip points.

    The strip is the waist witnesses: ``best`` passed the membership check,
    so it preserves delta, and ``decompose_fhg`` would return the same set.
    """
    strip = best.waist.witnesses
    theta = best.waist.achieved_at
    cap = best.waist.value
    out = []
    levels = (len(strip) + 1) // 2
    for k in range(levels):
        trace = run_rotation(RotationSpec(strip, k, theta), inst)
        cand = _validated(build_splice(inst, best, trace), inst, "splice", k, waist_cap=cap)
        if cand is not None:
            out.append(cand)
    return out


def build_splice(inst: Instance, best: Gamma, trace: RotationTrace) -> SlidingRotation:
    """Follow the strip rotation except between its outermost meetings with the curve.

    Between the first and last direction where the rotating line lands on
    the curve, the composite follows the curve instead.  Returns the plain
    lift when they never meet.

    The lift starts at the rotation's start direction theta, so its arc
    index is keyed from theta, and ``_clip_curve`` cuts its head [theta, t1]
    and tail [t2, theta] at arcs found by bisection.  A meeting at theta
    sorts last (a full turn), so t1 is never theta and the head is never
    empty; t2 = theta bisects to the last arc, which ends there, and leaves
    the tail empty.
    """
    theta = trace.start_direction
    marks = _curve_meetings(inst, best.sr, trace)
    lifted = lift_rotation(trace, inst, best.color)
    if not marks:
        return lifted
    marks.sort(key=lambda m: direction_key(theta, m[0]))
    (t1, piece1), (t2, piece2) = marks[0], marks[-1]
    if t1 == t2:
        return lifted
    keys, where = lifted.arc_index

    def arc_at(t: Direction) -> int:  # the lift's arc holding t, or the one starting there
        return where[bisect_right(keys, direction_key(theta, t)) - 1]

    head = _clip_curve(lifted.pieces, 0, theta, arc_at(t1), t1)
    middle = _clip_curve(best.sr.pieces, piece1, t1, piece2, t2)
    tail = _clip_curve(lifted.pieces, arc_at(t2), t2, 0, theta)
    return SlidingRotation(tuple(head + middle + tail), best.color)


def _curve_meetings(inst: Instance, sr: SlidingRotation, trace: RotationTrace):
    """Directions where the rotating line coincides with an arc line of the curve.

    Returns (direction, piece_index) pairs, by trace interval and then by
    piece.  Arc overlaps with a shared pivot contribute their boundary
    directions.  The trace's intervals and the curve's arcs both advance
    counterclockwise, so one pointer into ``sr.arc_index``, placed by one
    bisection, yields the arcs that overlap each interval: the walk costs
    O(intervals + arcs) instead of their product.
    """
    pts = inst.points
    keys, where = sr.arc_index
    start, theta = sr.start_direction, trace.start_direction
    n = len(where)
    j = bisect_right(keys, KEY_START if theta == start else direction_key(start, theta)) - 1
    marks = []
    for dfrom, dto, pivot, _ in trace.intervals():
        # the arc holding dfrom, the arc ending there, then every arc
        # starting in (dfrom, dto]; j ends on the arc holding dto
        near = {j}
        if sr.pieces[where[j]].d_from == dfrom:
            near.add((j - 1) % n)
        for _ in range(n):
            d = sr.pieces[where[(j + 1) % n]].d_from
            if d == dfrom or not ccw_arc_contains(dfrom, dto, d):
                break
            j = (j + 1) % n
            near.add(j)
        g = pts[pivot]
        for idx in (where[i] for i in sorted(near)):
            piece = sr.pieces[idx]
            if piece.pivot == pivot:
                for d in (dfrom, dto, piece.d_from, piece.d_to):
                    if ccw_arc_contains(dfrom, dto, d) and piece.contains(d):
                        marks.append((d, idx))
                continue
            c = pts[piece.pivot]
            fwd = direction_of(c.x - g.x, c.y - g.y)
            for d in (fwd, fwd.antipode):
                if ccw_arc_contains(dfrom, dto, d) and piece.contains(d):
                    marks.append((d, idx))
    return marks


def _clip_curve(pieces: tuple[Piece, ...], idx_from: int, w_from: Direction,
                idx_to: int, w_to: Direction) -> list[Piece]:
    """Pieces of a cyclic curve from w_from (on arc idx_from) to w_to (on arc idx_to).

    Both indexes are arc positions: meetings from ``_curve_meetings``, or
    arcs of a lift's index.  The pieces strictly between the two arcs are
    kept whole, as one slice or, when the window wraps past the end of the
    tuple, two.  A window end on a shared piece boundary clips to zero
    length on its side, so the neighbouring piece carries it.
    """
    entry = pieces[idx_from]
    exit_ = pieces[idx_to]
    if idx_from == idx_to:
        forward = (
            w_to != entry.d_from
            and (w_from == entry.d_from
                 or (w_from != entry.d_to
                     and direction_key(entry.d_from, w_from)
                     <= direction_key(entry.d_from, w_to)))
        )
        if forward:
            return [RotateArc(entry.pivot, w_from, w_to)]
    out: list[Piece] = []
    if w_from != entry.d_to:
        out.append(RotateArc(entry.pivot, w_from, entry.d_to))
    if idx_from < idx_to:
        out += pieces[idx_from + 1:idx_to]
    else:
        out += pieces[idx_from + 1:] + pieces[:idx_to]
    if w_to != exit_.d_from:
        out.append(RotateArc(exit_.pivot, exit_.d_from, w_to))
    return out


def build_shift(inst: Instance, trace: RotationTrace, shift_color: Color) -> Optional[SlidingRotation]:
    """Curve through the nearest shift-colored point right of the rotating line.

    Follows the rotation, whose points must all have the other color: while
    the nearest point on the right stays the same the curve rotates about
    it; when the nearest point changes with equal offsets the pivot hands
    over continuously, otherwise the curve slides between the two parallel
    lines.  Returns None when at some direction no shift-colored point lies
    strictly right.

    It is the package's one constructor of a curve with slides, and
    ``find_gamma`` does not search it: no curve it built for a strip
    rotation of the search ever passed membership (0 of 387 on 660
    instances, 0 of 355 on ``gen_random`` seeds 0-299 with n <= 34; every
    one failed preservation), and with it left out the certificates stayed
    byte-identical.  It is kept because the ``perfbench`` spans time it by
    name (``gamma.build_shift``), and ``test_build_shift_matches_scan`` and
    ``test_shift_curve_structure`` keep its slide paths checked.

    The start order and count are read from ``just_after_keys`` at the
    start direction, as ``run_rotation`` reads its start state.  The walk
    keeps the shift-colored points sorted by offset and counts those right
    of the line.  The count steps only at the trace's events that cross a
    shift-colored point, and two points swap places only at their pair
    fence (``Instance.pair_fences``), where they are adjacent; so after one
    sort each event and fence costs O(1).
    """
    pts = inst.points
    theta = trace.start_direction
    keys = just_after_keys(theta, pts)
    order = sorted(inst.ids_of(shift_color), key=keys.__getitem__)
    key_g = keys[trace.initial_pivot]
    right = sum(1 for sid in order if keys[sid] < key_g)
    if not right:
        return None
    place = {sid: i for i, sid in enumerate(order)}
    k0 = direction_key(VERTICAL, theta)
    # events at theta itself close the turn; the walk stops before them
    events = [(direction_key(VERTICAL, ev.direction), ev.direction, None, ev)
              for ev in trace.events if ev.direction != theta]
    cuts = fences_within(inst.pair_fences(shift_color), k0, k0, events)
    anchors = [(theta, order[right - 1])]  # (direction, chosen point) where the choice changes
    for u, entries in groupby(cuts, key=itemgetter(1)):
        for _, _, p, q in entries:  # a pair fence (p, q) or a trace event (None, q)
            if p is not None:  # p and q meet in offset and swap places
                i, j = place[p], place[q]
                order[i], order[j] = q, p
                place[p], place[q] = j, i
            elif pts[q.crossed_id].color is shift_color:  # the line crosses it
                right += 1 if q.end is End.HEAD else -1
        if not right:
            return None
        if anchors[-1][1] != order[right - 1]:
            anchors.append((u, order[right - 1]))
    if len(anchors) > 1 and anchors[-1][1] == anchors[0][1]:  # one arc about it across theta
        anchors[0] = anchors.pop()
    return _curve_through(inst, anchors, shift_color)
