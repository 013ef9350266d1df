"""Selection of the minimum-waist delta-preserving sliding rotation.

The candidate family is finite and constructive, and every member is made
of arcs only:

* every plain level rotation, of either color, that is delta-preserving in
  the one-sided sliding sense and positively oriented; their waists are
  known from their levels, so only the least is lifted;
* splices spawned from the current best candidate: the level rotations of
  its strip points, each followed except between its outermost meetings
  with the candidate, where the candidate is followed instead.

Membership is decided from the omegas of rotation traces before any curve
is built.  A plain lift's profile weights are its trace's omegas, so the
plain levels are walked best first and lazily, each only up to its first
weight that breaks preservation, and only the winner is drained and
lifted (``plain_candidates``).  A splice follows the lift outside its two
meetings with the preserving candidate, so its trace's bad intervals must
lie between them (``build_splice``); one whose first interval is bad is
rejected before its meetings are sought.  What is built is then checked
for a single turn about subset points, positive orientation and, by the
same waist walk, delta-preservation over the full turn (``_validated``),
and composites are adopted only when they strictly shrink the waist, so
the iteration terminates.

The splice walks its inputs in angular order instead of pairing every part
with every other: it finds where the strip rotation meets the curve by
moving one pointer through the curve's anchors along the trace's
intervals, then slices three anchor windows out of the lift's and the
curve's anchors and hands them to ``sliding._curve_through``, the
package's one assembly of a curve.  ``build_shift`` builds the one curve
with slides that the package constructs; it is not part of the family.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, tee
from typing import Optional

from .geometry import (
    Color,
    Direction,
    GuaranteeViolation,
    Instance,
    ccw_arc_contains,
    direction_key,
    just_after_keys,
)
from .rotation import (
    End,
    RotationEvent,
    RotationSpec,
    RotationTrace,
    _preserves_delta,
    run_rotation,
    walk_rotation,
)
from .sliding import (
    NotPositivelyOriented,
    SlidingRotation,
    Waist,
    _curve_through,
    evaluate_at,
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


def _validated(sr: SlidingRotation, inst: Instance, kind: str, level: int, *,
               waist_cap: Optional[int] = None) -> Optional[Gamma]:
    """Membership check of a built curve; None when it is not positively oriented or not under the cap.

    The callers decide preservation before they build the curve, from the
    omegas of its rotation trace (``plain_candidates``, ``build_splice``).
    The ``waist`` walk checks that decision again, independently of the
    trace: its ``omega_range`` spans the curve's right weights over the
    full turn, and a curve whose range breaks delta is a fault of the
    construction, so GuaranteeViolation, before the cap is read.  So is an
    InvalidCurve from ``validate_curve``: every curve the search builds
    turns once about subset points by construction.  The walk also detects
    orientation failures; ``waist_cap`` then prunes candidates that cannot
    improve.
    """
    validate_curve(sr, inst)
    try:
        w = waist(sr, inst)
    except NotPositivelyOriented:
        return None
    if not _preserves_delta(sr.subset_color, w.omega_range, inst.delta):
        raise GuaranteeViolation(
            f"the {kind} curve of level {level} has right weights {w.omega_range[0]}..{w.omega_range[1]}, "
            f"which break delta = {inst.delta}")
    if waist_cap is not None and w.value >= waist_cap:
        return None
    return Gamma(sr, w, kind, level)


def plain_candidates(inst: Instance) -> Optional[Gamma]:
    """The least-waist delta-preserving plain lift, or None when no level preserves delta.

    A level-k rotation of a class of m points has k class points strictly
    right of its line at t and of its line at t + pi, so for 2k + 2 < m,
    the only levels walked, its strip holds m - 2k - 2 points at every
    direction.  Red level k and blue level k + delta share that waist, and
    at most one of them preserves delta: red only if its initial weight is
    at most delta, blue only otherwise (``rotation.check_level_coupling``,
    which also rules out blue levels below delta).  So the search walks
    one rotation per red level, from the highest (least waist) down, and
    the first that preserves wins.  Its omegas are fed lazily from
    ``walk_rotation`` to ``_preserves_delta``, which stops at the first
    weight that breaks preservation; only the winner is drained, lifted
    and must pass ``_validated`` with that waist, GuaranteeViolation
    otherwise.  The walk of that waist rechecks preservation from the
    curve alone (``Waist.omega_range``), so the winner's profile is not
    walked a second time.
    """
    delta = inst.delta
    for k in reversed(range((inst.r - 1) // 2)):
        spec = RotationSpec(Color.RED, k)
        walk = walk_rotation(spec, inst)
        start = next(walk)  # (subset_ids, start_direction, initial_pivot, initial_omega)
        if start[3] > delta:
            spec = RotationSpec(Color.BLUE, k + delta)
            walk = walk_rotation(spec, inst)
            start = next(walk)
        events, steps = tee(walk)
        if _preserves_delta(spec.subset, chain((start[3],), (ev.omega_after for ev in steps)), delta):
            break
    else:
        return None
    width, color = inst.r - 2 * k - 2, spec.subset
    sr = lift_rotation(RotationTrace(spec, *start, tuple(events)), color)
    cand = _validated(sr, inst, "plain", spec.level)
    if cand is None or cand.waist.value != width:
        raise GuaranteeViolation(
            f"the {color.name} level-{spec.level} lift fails membership or its waist is not {width}")
    return cand


def find_gamma(inst: Instance) -> Optional[Gamma]:
    """Minimum-waist family member, or None when the family is empty.

    An empty family means no level rotation preserves delta at all, in
    which case the direct transition accounting already certifies the
    lower bound and no curve is needed.  Every splice has a smaller waist
    than the ``best`` it was spawned from (``waist_cap``), so the best of a
    round's splices, by waist and then level (they share color and kind),
    is the best of all curves seen so far.

    Soundness never rests on the family: ``certificate._check_certificate``
    rechecks every certified line with ``geometry.is_balanced``, whatever
    curve the lines were read from.  The family only decides whether a
    curve is found and which lines are certified.
    """
    best = plain_candidates(inst)
    if best is None:
        return None
    while improvements := surgery_candidates(inst, best):
        best = min(improvements, key=lambda c: (c.waist.value, c.level))
    return best


def decompose_fhg(inst: Instance, gamma: Gamma) -> tuple[
        tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Split the subset by the waist-achieving antipodal lines: (F, H, G).

    The first flank F holds the subset points in the closed right halfplane
    of the achieving line, the second flank H those in the closed right
    halfplane of its antipodal partner, and the strip G is everything in
    between.  G must be exactly the waist witnesses, else
    GuaranteeViolation.  The package's one F/H/G split, which the
    certificate reads.  It does not walk the curve's profile again: every
    ``Gamma`` the package makes preserves delta, decided from its trace
    (``plain_candidates``, ``build_splice``) and checked again by
    ``_validated`` on the weight range of its waist walk.
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


def in_central_region(inst: Instance, gamma: Gamma, transition: RotationEvent) -> bool:
    """Whether the transition's line lies inside or on the strip boundary.

    The line passes through the step's pivot, so its offset is the pivot's.
    """
    t, p = transition.direction, transition.pivot_before
    o_low = evaluate_at(gamma.sr, inst, t).offset(t)  # the strip: the curve's lines at t, t + pi
    o_high = evaluate_at(gamma.sr, inst, t.antipode).offset(t)
    return o_low <= t.offset(inst.xs[p], inst.ys[p]) <= o_high


# ---------------------------------------------------------------------------
# surgery: composites derived from the current best candidate


def surgery_candidates(inst: Instance, best: Gamma) -> list[Gamma]:
    """Splices of the current best curve with the rotations of its strip points.

    The strip is the waist witnesses, the G of ``decompose_fhg``.
    Only the splices that preserve delta are built (``build_splice``).

    The cap: a built splice's strip at theta, ``best``'s achieving
    direction, is a proper subset of G.  At theta the splice follows the
    strip rotation's lift, whose line passes through the rotation's pivot,
    a point of G (the first meeting is never theta).  At theta + pi it
    follows the lift, whose line passes through a point of G, or ``best``,
    whose line there is ``best``'s own high line.  Both lines lie in
    ``best``'s closed strip at theta, which holds exactly G strictly
    inside, and the pivot lies on the first; so the subset points strictly
    between them are points of G, the pivot not among them.  Hence a
    positively oriented splice has a waist below |G|, the cap, and
    ``waist_cap`` never prunes one.  Orientation has no proof yet, so the
    cap and ``_validated``'s None paths stay.
    """
    strip = best.waist.witnesses
    theta = best.waist.achieved_at
    cap = best.waist.value
    out = []
    levels = (len(strip) + 1) // 2
    for k in range(levels):
        trace = run_rotation(RotationSpec(strip, k, theta), inst)
        sr = build_splice(inst, best, trace)
        if sr is None:
            continue
        cand = _validated(sr, inst, "splice", k, waist_cap=cap)
        if cand is not None:
            out.append(cand)
    return out


def build_splice(inst: Instance, best: Gamma, trace: RotationTrace) -> Optional[SlidingRotation]:
    """The splice of the strip rotation with the curve, or None when it breaks delta.

    The splice follows the strip rotation except between its outermost
    meetings with the curve, t1 and t2 (``_outermost_meetings``), where it
    follows the curve; it is the plain lift when they meet at fewer than
    two directions (``_splice_through`` assembles it).

    Preservation is decided before the splice is built.  ``best``
    preserves delta everywhere, and on the head [theta, t1) and the tail
    [t2, theta) the splice follows the lift, whose profile weights are the
    trace's omegas.  So the splice preserves delta exactly when every bad
    interval of the trace (one whose omega breaks the one-sided
    ``_preserves_delta``) lies between the meetings: t1 at or before the
    start of the first, t2 at or after the end of the last.  The first
    interval starts at theta and t1 never is theta, so when that interval
    is bad the meetings are not sought.  With fewer than two meetings no
    interval may be bad.
    """
    color, delta = best.color, inst.delta
    theta = trace.start_direction
    bad = [(u, v) for u, v, _, w in trace.intervals() if not _preserves_delta(color, (w,), delta)]
    if bad and bad[0][0] == theta:
        return None
    ends = _outermost_meetings(inst, best.sr, trace)
    if bad and (ends is None
                or direction_key(theta, ends[0]) > direction_key(theta, bad[0][0])
                or direction_key(theta, ends[1]) < direction_key(theta, bad[-1][1])):
        return None
    return _splice_through(best, trace, ends)


def _outermost_meetings(inst: Instance, sr: SlidingRotation, trace: RotationTrace
                        ) -> Optional[tuple[Direction, Direction]]:
    """The first and last of ``_curve_meetings`` in turn order from theta; None for fewer than two.

    A meeting at theta sorts last (a full turn), so the first is never theta.
    """
    theta = trace.start_direction
    meetings = sorted(_curve_meetings(inst, sr, trace), key=lambda d: direction_key(theta, d))
    return (meetings[0], meetings[-1]) if len(meetings) > 1 else None


def _splice_through(best: Gamma, trace: RotationTrace,
                    ends: Optional[tuple[Direction, Direction]]) -> SlidingRotation:
    """The splice of the trace's lift with ``best`` between the meetings ``ends``, t1 and t2.

    The lift itself when ``ends`` is None.  Built whatever its profile:
    ``build_splice`` calls it only for splices that preserve delta.
    ``_curve_through`` assembles the splice from three anchor windows: the
    lift on [theta, t1), ``best`` on [t1, t2) and, unless t2 is theta, the
    lift on [t2, theta).  The lines agree at t1 and t2, so no slide joins
    the windows.
    """
    theta = trace.start_direction
    lifted = lift_rotation(trace, best.color)
    if ends is None:
        return lifted
    t1, t2 = ends
    anchors = _window(lifted, theta, t1) + _window(best.sr, t1, t2)
    if t2 != theta:
        anchors += _window(lifted, t2, theta)
    return _curve_through(anchors, best.color)


def _window(sr: SlidingRotation, u: Direction, v: Direction) -> list[tuple[Direction, int]]:
    """The anchors of the curve on the counterclockwise window [u, v).

    The curve's point at u (the anchor of the arc holding u, or of the one
    starting there), then every anchor strictly inside the window: a slice
    of ``sr.anchors`` between two bisections of its keys.  The window wraps
    past the start direction exactly when u's key is not below v's; v at
    the start direction keys as a full turn.
    """
    start, anchors = sr.start_direction, sr.anchors
    key_v = direction_key(start, v)
    i, j = sr.arc_at(u), bisect_left(sr.keys, key_v)
    wraps = u != start and direction_key(start, u) >= key_v
    inside = anchors[i + 1:] + anchors[:j] if wraps else anchors[i + 1:j]
    return [(u, anchors[i][1]), *inside]


def _curve_meetings(inst: Instance, sr: SlidingRotation, trace: RotationTrace) -> set[Direction]:
    """Directions where the rotating line coincides with an arc line of the curve.

    The arcs are read off consecutive anchors: about c from u to v for
    anchors (u, c) and (v, ·).  Arc overlaps with a shared pivot contribute
    their boundary directions.  Against an arc about another point c, the
    line through the interval's pivot g meets c's line only where it passes
    through c, at a fence of g; every fence of g is an event of the trace,
    so that can only be the interval's ends.  Only ``dfrom`` is tested, a
    meeting when ``d.offset`` puts c and g on one line and the arc holds
    it: each interval's ``dto`` is the next one's ``dfrom``, where the line
    is the same (a pivot change hands over on one line), and the last
    ``dto`` is theta, the first interval's ``dfrom``; so every meeting lies
    at some interval's ``dfrom``.  The trace's intervals and the curve's
    arcs both advance counterclockwise, so one pointer into ``sr.anchors``,
    placed by one bisection, yields the arcs that overlap each interval:
    the walk costs O(intervals + arcs) instead of their product.
    """
    xs, ys = inst.xs, inst.ys
    anchors = sr.anchors
    n = len(anchors)
    j = sr.arc_at(trace.start_direction)
    meetings: set[Direction] = set()
    for dfrom, dto, pivot, _ in trace.intervals():
        # the arc holding dfrom, the arc ending there, then every arc
        # starting in (dfrom, dto]; j ends on the arc holding dto
        near = {j}
        if anchors[j][0] == dfrom:
            near.add((j - 1) % n)
        for _ in range(n):
            d = anchors[(j + 1) % n][0]
            if d == dfrom or not ccw_arc_contains(dfrom, dto, d):
                break
            j = (j + 1) % n
            near.add(j)
        gx, gy = xs[pivot], ys[pivot]
        for i in near:
            (u, c), v = anchors[i], anchors[(i + 1) % n][0]
            if c == pivot:
                for d in (dfrom, dto, u, v):
                    if ccw_arc_contains(dfrom, dto, d) and ccw_arc_contains(u, v, d):
                        meetings.add(d)
            elif dfrom.offset(xs[c], ys[c]) == dfrom.offset(gx, gy) and ccw_arc_contains(u, v, dfrom):
                meetings.add(dfrom)
    return meetings


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

    The curve is made of level rotations of the shift class.  The count of
    shift-colored points right of the rotating line, read from
    ``just_after_keys`` at the start direction, steps only at the trace's
    events that cross one of them.  Between two such events the nearest of
    them has exactly count - 1 shift-colored points right of its own
    parallel line, so it is the pivot of the shift class's level
    count - 1 rotation, which hands over where two of them share an
    offset.  So each window between those events is a ``_window`` of that
    rotation's lift, and ``_curve_through`` joins the windows, with a slide
    where the nearest point jumps.  A trace that crosses no shift-colored
    point has one window, the full turn.
    """
    pts = inst.points
    theta = trace.start_direction
    keys = just_after_keys(theta, pts)
    right = sum(1 for sid in inst.ids_of(shift_color) if keys[sid] < keys[trace.initial_pivot])
    # (direction, count just past it) where the count steps; events at theta close the turn
    cuts = [(theta, right)]
    for ev in trace.events:
        if ev.direction != theta and pts[ev.crossed_id].color is shift_color:
            right += 1 if ev.end is End.HEAD else -1
            cuts.append((ev.direction, right))
    if not all(right for _, right in cuts):
        return None
    anchors: list[tuple[Direction, int]] = []  # (direction, nearest point) where it changes
    for (u, right), (v, _) in zip(cuts, cuts[1:] + cuts[:1]):
        level = run_rotation(RotationSpec(shift_color, right - 1, u), inst)
        for d, p in _window(lift_rotation(level, shift_color), u, v):
            if not anchors or anchors[-1][1] != p:
                anchors.append((d, p))
    if len(anchors) > 1 and anchors[-1][1] == anchors[0][1]:  # one arc about it across theta
        anchors[0] = anchors.pop()
    return _curve_through(anchors, shift_color)
