"""Shared instance builders for the test suite.

The nested and mixed builders produce configurations where one color
partly or fully surrounds the other; those are the instances whose level
rotations stay on one side of delta, which is what drives the sliding
rotation pipeline.  Everything is deterministic in the seed.

``assert_pieces_join`` keeps the continuity checks of a curve's arcs and
slides, which a curve stored as its anchors satisfies by construction, and
``arc_contains`` and ``line_contains`` the arc and point-on-line tests that
only the oracles read.  ``strip_traces`` runs the gamma search and reads off
every strip rotation it runs with that round's best curve, and
``assemble_splice`` builds the splice of each, also those the search
rejects before building them.

It also holds the linear-scan oracles of the indexed curve and trace
queries: ``linear_evaluate_at``, ``linear_half_cycle_breakpoints`` with
its ``linear_half_cycle_representatives``, ``linear_waist``,
``brute_waist``, ``recount_profile`` (with ``profile_range``, its least
and greatest weight, which ``Waist.omega_range`` must equal) and
``linear_curve_meetings`` (which tests every interval against every arc
with ``ccw_arc_contains``) share nothing with the angular indexes and walks
in the package beyond the exact primitives and the arcs and slides that
``sliding.curve_pieces`` reads off a curve; ``linear_build_shift`` scans
for its anchors (the pivot of each cut from ``linear_pivot_at``) and
shares only the assembly of a curve from them, ``sliding._curve_through``,
which ``test_curve_assembly_digest`` pins; ``tag_walk_rotation`` walks a
rotation without the per-instance fence table, from its own start state
(``initial_state``, which classifies every pair with its own copy of the
per-point just-after rule, ``side_just_after``); and ``pairwise_naive``
classifies every point against every red/blue pair the way
``enumerate_naive`` did before it kept its rows relative to each red
anchor.

``pair_fence_sweep`` and ``pair_fence_waist`` walk the half cycle over
every direction between two subset points (``pair_fences``), keeping the
subset points left of each line, the finer cut on which ``sliding.waist``
names its intervals; their records must equal its.  One bisection into
the same table, ``bisected_representative``, names an interval as
``sliding._representative`` must.

``reference_fences`` builds a point's angular order fence by fence, with
``direction_of`` and ``direction_key`` and one sort of all 2(n-1) entries,
as ``Instance.fences`` did before it sorted one slope row per other point.
``interval_representatives`` takes one direction inside each interval of a
rotation trace, which only the tests sample; ``ranked_plain_winner`` ranks
every plain level of both colours from full traces, the ranking that
``gamma.plain_candidates`` shortcuts; and ``rational_image`` maps an
instance exactly under a rational affine map (by default onto Fraction
coordinates), keeping its balanced lines.

The side oracle ``Side``, ``orientation`` and ``side`` classifies a point
against a directed line by the sign of a determinant, apart from the
package's one side test, ``Direction.offset``; ``reversed_line``,
``rank``, ``opposite``, ``swap_colors`` and ``omega_values`` are small
readings of lines, directions, instances and traces that only the tests
make.

``exponent_first_as_exact`` is ``geometry._as_exact`` as it was before it
decided digit strings first: every string is checked for its exponent and
the cap, then parsed, and every value is held to the cap afterwards.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from enum import Enum
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Iterator, Optional

import pytest

from balanced_lines import gamma
from balanced_lines.geometry import (
    CollinearTriple,
    Color,
    DirectedLine,
    DuplicateAbscissa,
    Direction,
    Instance,
    KEY_START,
    LabeledPoint,
    VERTICAL,
    ValidationError,
    _INT_LIMIT,
    _MAX_COORD_CHARS,
    _MAX_COORD_EXPONENT,
    build_points,
    ccw_arc_contains,
    direction_between,
    direction_key,
    direction_key_from,
    direction_of,
    fences_within,
    validate,
)
from balanced_lines.generators import gen_random, gen_separated_convex
from balanced_lines.oracle import BalancedLine
from balanced_lines.rotation import (
    End,
    EventKind,
    RotationEvent,
    RotationSpec,
    RotationTrace,
    _preserves_delta,
    antipodal_transitions,
    run_rotation,
    transition_low,
    transitions_at,
)
from balanced_lines.sliding import (
    InvalidCurve,
    NotPositivelyOriented,
    RotateArc,
    Waist,
    _curve_through,
    curve_pieces,
)


class Side(Enum):
    LEFT = 1
    ON = 0
    RIGHT = -1


def _xy(p):
    return (p.x, p.y) if isinstance(p, LabeledPoint) else (p[0], p[1])


def _side_of(d: int) -> Side:
    return Side.LEFT if d > 0 else (Side.RIGHT if d < 0 else Side.ON)


def orientation(p, q, s) -> Side:
    """Turn direction of the triple: LEFT, RIGHT, or ON for collinear.

    Accepts LabeledPoints or plain (x, y) pairs.  The result is the sign of
    the determinant of (q - p, s - p), computed exactly.
    """
    (px, py), (qx, qy), (sx, sy) = _xy(p), _xy(q), _xy(s)
    return _side_of((qx - px) * (sy - py) - (qy - py) * (sx - px))


def side(line: DirectedLine, p) -> Side:
    """Where the point (a LabeledPoint or an (x, y) pair) lies against the directed line."""
    px, py = _xy(p)
    d = line.direction
    return _side_of(d.dx * (py - line.ay) - d.dy * (px - line.ax))


def reversed_line(line: DirectedLine) -> DirectedLine:
    """The line turned around: the same anchor and span, the antipodal direction.

    Its right side is the left side of ``line``.
    """
    return DirectedLine(line.ax, line.ay, line.direction.antipode, line.span)


def rank(d: Direction) -> tuple:
    """Sort key of the cyclic order from vertical, counterclockwise: vertical first.

    ``direction_key(VERTICAL, d)``, except that vertical itself, which that
    key sorts last, takes ``KEY_START``.
    """
    return KEY_START if d == VERTICAL else direction_key(VERTICAL, d)


def opposite(color: Color) -> Color:
    return Color.BLUE if color is Color.RED else Color.RED


def swap_colors(inst: Instance) -> Instance:
    """Re-validate the instance with every color flipped.

    Only legal when r == b; otherwise the flipped set has a red surplus and
    validation rejects it.
    """
    return validate([LabeledPoint(p.id, p.x, p.y, opposite(p.color)) for p in inst.points])


def omega_values(trace: RotationTrace) -> tuple[int, ...]:
    """The trace's right weights: the initial one, then the one after each event."""
    return (trace.initial_omega,) + tuple(ev.omega_after for ev in trace.events)


def _draw(rng, pts, taken_x, lo_x, hi_x, lo_y, hi_y):
    for _ in range(20000):
        x = rng.randrange(lo_x, hi_x)
        y = rng.randrange(lo_y, hi_y)
        if x in taken_x:
            continue
        ok = True
        for i in range(len(pts)):
            ax, ay = pts[i]
            for j in range(i + 1, len(pts)):
                bx, by = pts[j]
                if (bx - ax) * (y - ay) == (by - ay) * (x - ax):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            taken_x.add(x)
            pts.append((x, y))
            return (x, y)
    raise RuntimeError("general-position draw failed")


def gen_nested(seed: int, inner_n: int, outer_n: int, inner_color: Color) -> Instance:
    """Inner cluster of one color surrounded by a ring of the other."""
    rng = random.Random(seed)
    pts: list[tuple[int, int]] = []
    taken_x: set[int] = set()
    inner = [_draw(rng, pts, taken_x, -50, 50, -50, 50) for _ in range(inner_n)]
    outer = []
    for i in range(outer_n):
        ang = 2 * math.pi * i / outer_n
        cx, cy = int(1000 * math.cos(ang)), int(1000 * math.sin(ang))
        outer.append(_draw(rng, pts, taken_x, cx - 30, cx + 30, cy - 30, cy + 30))
    outer_color = opposite(inner_color)
    raw = [(x, y, inner_color) for x, y in inner]
    raw += [(x, y, outer_color) for x, y in outer]
    raw.sort(key=lambda t: t[2] is not Color.RED)
    return validate(build_points(raw))


def gen_mixed(seed: int, r: int, b: int, cluster_frac: float, bound: int = 2000) -> Instance:
    """Some of the blue points clustered centrally, the rest spread wide."""
    rng = random.Random(seed)
    pts: list[tuple[int, int]] = []
    taken_x: set[int] = set()
    raw = []
    for _ in range(r):
        x, y = _draw(rng, pts, taken_x, -bound, bound, -bound, bound)
        raw.append((x, y, Color.RED))
    n_cluster = int(b * cluster_frac)
    for i in range(b):
        if i < n_cluster:
            x, y = _draw(rng, pts, taken_x, -bound // 20, bound // 20,
                         -bound // 20, bound // 20)
        else:
            x, y = _draw(rng, pts, taken_x, -bound, bound, -bound, bound)
        raw.append((x, y, Color.BLUE))
    raw.sort(key=lambda t: t[2] is not Color.RED)
    return validate(build_points(raw))


def gen_ellipse(seed: int, inner_n: int, outer_n: int, inner_color: Color,
                ex: int = 1000, ey: int = 120) -> Instance:
    """Inner cluster surrounded by a flat elliptical ring.

    The squashed ring makes the strip rotations meet flank points first,
    which is what forces the recharge step of the accounting.
    """
    rng = random.Random(seed)
    pts: list[tuple[int, int]] = []
    taken_x: set[int] = set()
    inner = [_draw(rng, pts, taken_x, -40, 40, -40, 40) for _ in range(inner_n)]
    outer = []
    for i in range(outer_n):
        ang = 2 * math.pi * i / outer_n
        cx, cy = int(ex * math.cos(ang)), int(ey * math.sin(ang))
        outer.append(_draw(rng, pts, taken_x, cx - 20, cx + 20, cy - 20, cy + 20))
    outer_color = opposite(inner_color)
    raw = [(x, y, inner_color) for x, y in inner]
    raw += [(x, y, outer_color) for x, y in outer]
    raw.sort(key=lambda t: t[2] is not Color.RED)
    return validate(build_points(raw))


def gen_tie_dense(seed: int, r: int, b: int) -> Instance:
    """Grid points blown up past 2**64 and nudged off their grid lines.

    Each point is ``(gx * 2**100 + ex, gy * 2**100 + ey)`` for a distinct
    cell ``(gx, gy)`` of a 12 x 12 grid and nudges ``0 <= ex, ey < 2**16``.
    Seen from one point, the others on a grid line through its cell, of
    slope s, lie at slopes within about 2**-80 of s, so their 64-bit slope
    prefixes tie (unless 2**64 * s is whole and a nudge takes one just
    below it), while the nudges keep the slopes, and so general position,
    apart.  A draw that leaves a triple collinear or repeats an abscissa is
    drawn again.
    """
    rng = random.Random(seed)
    cells = rng.sample([(gx, gy) for gx in range(12) for gy in range(12)], r + b)
    while True:
        raw = [(gx * 2**100 + rng.randrange(2**16), gy * 2**100 + rng.randrange(2**16),
                Color.RED if i < r else Color.BLUE) for i, (gx, gy) in enumerate(cells)]
        try:
            return validate(build_points(raw))
        except (CollinearTriple, DuplicateAbscissa):
            continue


def recharge_pool() -> list[Instance]:
    """Instances whose certificates are known to need the recharge step."""
    out = []
    for seed in (15, 51, 135, 141):
        inner = 2 + seed % 6
        out.append(gen_ellipse(seed, inner + 2 * (seed % 3), inner, Color.BLUE,
                               ex=400 + 50 * (seed % 8), ey=80 + 30 * (seed % 5)))
    for seed in (34, 148, 172):
        inner = 2 + seed % 6
        out.append(gen_ellipse(seed, inner + 2 * (seed % 3), inner, Color.BLUE,
                               ex=400 + 50 * (seed % 8), ey=80 + 30 * (seed % 5)))
    out.append(gen_mixed(6, 8, 12, (6 % 5) / 4.0))
    out.append(gen_mixed(184, 4, 4, (184 % 5) / 4.0))
    return out


def recharge_drop_pool() -> list[Instance]:
    """Instances whose certificates skip recharges that found no unused departure.

    ``_gamma_certificate`` drops each strip transition for which ``recharge``
    returns None and still reaches ``r`` through later transitions; these
    four instances drop two each.
    """
    nested = nested_pool()
    return [nested[3], nested[5], nested[17], gen_random(238, 7, 9, 1000)]


def random_pool(count: int, seed0: int = 1000, max_total: int = 30) -> list[Instance]:
    """Deterministic pool of random instances with delta in 0..3."""
    out = []
    i = 0
    while len(out) < count:
        delta = i % 4
        r = 1 + i % 12
        b = r + 2 * delta
        i += 1
        if r + b < 2 or r + b > max_total:
            continue
        out.append(gen_random(seed0 + i, r, b, 1000))
    return out


def nested_pool() -> list[Instance]:
    out = []
    for seed in range(12):
        inner = 2 + seed % 6
        extra = seed % 3
        out.append(gen_nested(seed, inner + 2 * extra, inner, Color.BLUE))
        if inner + 2 * extra >= inner:
            out.append(gen_nested(100 + seed, inner, inner + 2 * extra, Color.RED))
    return out


def mixed_pool() -> list[Instance]:
    out = []
    for seed in range(12):
        r = 2 + seed % 6
        b = r + 2 * (seed % 4)
        out.append(gen_mixed(200 + seed, r, b, (seed % 5) / 4.0))
    return out


def separated_grid(max_r: int = 8, max_b: int = 12) -> list[Instance]:
    out = []
    for r in range(0, max_r + 1):
        for b in range(max(r, 1), max_b + 1):
            if (b - r) % 2 == 0 and r + b >= 2:
                out.append(gen_separated_convex(r, b))
    return out


def strip_traces(inst: Instance) -> list[tuple]:
    """Run ``gamma.find_gamma``: ``(best, trace)`` for every strip rotation it runs, in order.

    The search calls ``run_rotation`` only in ``surgery_candidates``, on the
    strip of that round's best curve, so spies on both read them off.
    """
    rounds, out = [], []
    surgery, run = gamma.surgery_candidates, gamma.run_rotation

    def spy_surgery(inst, best):
        rounds.append(best)
        return surgery(inst, best)

    def spy_run(spec, inst):
        trace = run(spec, inst)
        out.append((rounds[-1], trace))
        return trace

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gamma, "surgery_candidates", spy_surgery)
        mp.setattr(gamma, "run_rotation", spy_run)
        gamma.find_gamma(inst)
    return out


def assemble_splice(inst: Instance, best, trace: RotationTrace):
    """The splice ``gamma.build_splice`` makes of a strip trace, built even when it breaks delta."""
    return gamma._splice_through(best, trace, gamma._outermost_meetings(inst, best.sr, trace))


def arc_contains(arc: RotateArc, t: Direction) -> bool:
    """Whether t lies on the arc, endpoints included."""
    return ccw_arc_contains(arc.d_from, arc.d_to, t)


def line_contains(line: DirectedLine, p) -> bool:
    """Whether the point lies on the line."""
    return side(line, p) is Side.ON


def linear_evaluate_at(sr, inst: Instance, t: Direction) -> DirectedLine:
    """Oracle for ``evaluate_at``: scan every piece, keep the leftmost line."""
    best = None
    best_offset = None
    for piece in curve_pieces(sr, inst):
        anchors: list[int] = []
        if isinstance(piece, RotateArc):
            if arc_contains(piece, t):
                anchors.append(piece.pivot)
        elif piece.direction == t:
            anchors += [piece.from_id, piece.to_id]
        for aid in anchors:
            p = inst.point(aid)
            off = t.offset(p.x, p.y)
            if best_offset is None or off > best_offset:
                best_offset = off
                best = DirectedLine(p.x, p.y, t, (aid,))
    if best is None:
        raise InvalidCurve(f"curve has no line at direction {t}")
    return best


def assert_pieces_join(sr, inst: Instance) -> None:
    """The continuity checks of a curve's pieces, kept as a test oracle.

    Each piece of ``curve_pieces`` ends where the next one starts, on one
    line (the offsets read from the points), no arc or slide has zero
    length, and every pivot and slide end is a subset point.
    """
    subset = set(inst.ids_of(sr.subset_color))
    pts = inst.points
    ends = []  # start, its point, end, its point
    for piece in curve_pieces(sr, inst):
        if isinstance(piece, RotateArc):
            assert piece.pivot in subset
            assert piece.d_from != piece.d_to, "zero-length arc"
            ends.append((piece.d_from, piece.pivot, piece.d_to, piece.pivot))
        else:
            d, a, b = piece.direction, pts[piece.from_id], pts[piece.to_id]
            assert {a.id, b.id} <= subset
            assert d.offset(a.x, a.y) != d.offset(b.x, b.y), "zero-length slide"
            ends.append((d, a.id, d, b.id))
    for (_, _, d, a), (d_next, b, _, _) in zip(ends, ends[1:] + ends[:1]):
        assert d == d_next, f"a piece ends at {d}, the next starts at {d_next}"
        assert d.offset(pts[a].x, pts[a].y) == d.offset(pts[b].x, pts[b].y), "pieces off one line"


def linear_half_cycle_breakpoints(sr, inst: Instance) -> list[Direction]:
    """Every direction where the strip of a curve may change, folded onto its half cycle.

    The anchors' directions, their antipodes and every direction between two
    subset points, folded onto [start, start + pi) and sorted from the start.
    """
    start = sr.start_direction
    ids = inst.ids_of(sr.subset_color)
    raw = {d for d, _ in sr.anchors}
    raw.update(d.antipode for d, _ in sr.anchors)
    for i in ids:
        for j in ids:
            if i != j:
                p, q = inst.point(i), inst.point(j)
                raw.add(Direction.of(q.x - p.x, q.y - p.y))
    folded = {d if d == start or start.cross(d) > 0 else d.antipode for d in raw}
    folded.add(start)
    return sorted(folded, key=lambda d: (d != start, direction_key_from(start, d)))


def linear_half_cycle_representatives(sr, inst: Instance) -> list[Direction]:
    """One direction inside each interval between consecutive breakpoints of the half cycle."""
    ordered = linear_half_cycle_breakpoints(sr, inst)
    ends = ordered[1:] + [sr.start_direction.antipode]
    return [direction_between(u, v) for u, v in zip(ordered, ends)]


def linear_waist(sr, inst: Instance) -> Waist:
    """Oracle for ``waist``: the same minimum, every line found by a linear scan."""
    ids = inst.ids_of(sr.subset_color)
    pts = inst.points
    best = None
    for t in linear_half_cycle_representatives(sr, inst):
        low = linear_evaluate_at(sr, inst, t)
        high = linear_evaluate_at(sr, inst, t.antipode)
        o_low, o_high = low.offset(t), high.offset(t)
        if o_high <= o_low:
            raise NotPositivelyOriented(f"antipodal lines out of order at {t}")
        inside = frozenset(i for i in ids if o_low < t.offset(pts[i].x, pts[i].y) < o_high)
        if best is None or len(inside) < len(best[3]):
            best = (t, low, high, inside)
    t, low, high, inside = best
    return Waist(len(inside), t, inside, low, high, profile_range(sr, inst))


def profile_range(sr, inst: Instance) -> tuple[int, int]:
    """The least and greatest weight of ``recount_profile``: what ``Waist.omega_range`` holds."""
    omegas = [w for _, w in recount_profile(sr, inst)]
    return min(omegas), max(omegas)


def pair_fences(inst: Instance, color: Color) -> tuple[tuple[tuple, Direction, int, int], ...]:
    """Every direction from one point of the color class to another, in order.

    One ``(key, direction, from_id, to_id)`` entry per ordered pair, read
    from the head fences of ``Instance.fences`` and sorted by the same key,
    so the antipode of every entry is an entry too and parallel pairs share
    a key.  The package keeps no such table: ``build_shift`` follows level
    rotations, and ``waist`` names its interval by adjacent pairs.
    """
    ids = inst.ids_of(color)
    inside = set(ids)
    entries = [(key, d, pid, other) for pid in ids
               for key, d, other, head in inst.fences(pid) if head and other in inside]
    return tuple(sorted(entries, key=itemgetter(0)))


def bisected_representative(pairs: tuple, u: Direction, v: Direction) -> Direction:
    """Oracle for ``sliding._representative``: the next pair direction by bisection.

    ``direction_between(u, d)``, d the nearer of v and the first entry of
    ``pairs``, the subset's ``pair_fences``, past u's key, cyclically.
    """
    if pairs:
        _, d, _, _ = pairs[bisect_right(pairs, direction_key(VERTICAL, u), key=itemgetter(0)) % len(pairs)]
        if ccw_arc_contains(u, v, d):
            v = d
    return direction_between(u, v)


def pair_fence_sweep(sr, inst: Instance) -> Iterator[tuple[Direction, int, int, set[int]]]:
    """Oracle for ``curve_sweep``: ``(t, low, high, strip)`` on every pair-fence interval.

    The breakpoints are the anchors' directions, their antipodes and every
    direction between two subset points (``pair_fences``), folded
    onto [start, start + pi); ``t`` is ``direction_between`` two consecutive
    ones.  ``low`` and ``high`` anchor the curve's lines at ``t`` and
    ``t + pi``, and ``strip`` holds the subset points strictly between them,
    kept as the subset points left of each line, which every pair fence of
    an anchor updates whether or not the curve is oriented.  ``strip``
    changes as the walk goes on: copy it to keep it.
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
    marks = [(direction_key(VERTICAL, d), d, None, None) for d in turns]
    inside = fences_within(pair_fences(inst, sr.subset_color), k_start, direction_key(VERTICAL, half))
    # in the turn's order (keys above the start's, then those past vertical) by a
    # stable sort, marks first, so each mark goes before the pair fences at its direction
    stops = sorted(chain(marks, inside), key=lambda e: (e[0] < k_start, e[0]))
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
                if stale_low:
                    o = t.offset(xs[a], ys[a])
                    left_low = {i for i in ids if t.offset(xs[i], ys[i]) > o}
                if stale_high:
                    o = t.offset(xs[b], ys[b])
                    left_high = {i for i in ids if t.offset(xs[i], ys[i]) < o}
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


def pair_fence_waist(sr, inst: Instance) -> Waist:
    """Oracle for ``waist``: the first minimal interval of ``pair_fence_sweep``."""
    pts = inst.points
    best = None
    for t, low, high, strip in pair_fence_sweep(sr, inst):
        a, b = pts[low], pts[high]
        if t.offset(b.x, b.y) <= t.offset(a.x, a.y):
            raise NotPositivelyOriented(f"antipodal lines out of order at {t}")
        if best is None or len(strip) < len(best[1]):
            best = (t, frozenset(strip), DirectedLine(a.x, a.y, t, (low,)),
                    DirectedLine(b.x, b.y, t.antipode, (high,)))
    t, strip, line_low, line_high = best
    return Waist(len(strip), t, strip, line_low, line_high, profile_range(sr, inst))


def brute_waist(sr, inst):
    """Independent oracle: scan representatives between all pairwise directions."""
    ids = inst.ids_of(sr.subset_color)
    pts = inst.points
    start = sr.start_direction
    raw = {d for d, _ in sr.anchors}
    raw |= {d.antipode for d, _ in sr.anchors}
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            d = Direction.of(pts[j].x - pts[i].x, pts[j].y - pts[i].y)
            raw.add(d)
            raw.add(d.antipode)
    folded = {d if (d == start or start.cross(d) > 0) else d.antipode for d in raw}
    folded.add(start)
    ordered = sorted(
        folded, key=lambda d: (0,) if d == start else direction_key_from(start, d)
    )
    reps = [direction_between(u, v) for u, v in zip(ordered, ordered[1:])]
    reps.append(direction_between(ordered[-1], start.antipode))
    best = None
    for t in reps:
        low = linear_evaluate_at(sr, inst, t)
        high = linear_evaluate_at(sr, inst, t.antipode)
        o_low = t.dx * low.ay - t.dy * low.ax
        o_high = t.dx * high.ay - t.dy * high.ax
        assert o_high > o_low
        count = sum(
            1 for i in ids if o_low < t.dx * pts[i].y - t.dy * pts[i].x < o_high
        )
        best = count if best is None else min(best, count)
    return best


def recount_profile(sr, inst: Instance) -> list[tuple[DirectedLine, int]]:
    """Oracle for ``sliding_profile``: recount every interval in full."""
    pts = inst.points
    out: list[tuple[DirectedLine, int]] = []
    for piece in curve_pieces(sr, inst):
        if isinstance(piece, RotateArc):
            q = inst.point(piece.pivot)
            inside = []
            for p in pts:
                if p.id == piece.pivot:
                    continue
                fwd = Direction.of(p.x - q.x, p.y - q.y)
                for d in (fwd, fwd.antipode):
                    if d != piece.d_from and d != piece.d_to and arc_contains(piece, d):
                        inside.append(d)
            inside.sort(key=lambda d: direction_key_from(piece.d_from, d))
            fences = [piece.d_from] + inside + [piece.d_to]
            for u, v in zip(fences, fences[1:]):
                m = direction_between(u, v)
                o_q = m.offset(q.x, q.y)
                w = sum(p.weight for p in pts if m.offset(p.x, p.y) < o_q)
                out.append((DirectedLine(q.x, q.y, m, (piece.pivot,)), w))
        else:
            d = piece.direction
            offsets = [d.offset(p.x, p.y) for p in pts]
            o_from = offsets[piece.from_id]
            o_to = offsets[piece.to_id]
            lo, hi = min(o_from, o_to), max(o_from, o_to)
            crossing = sorted({o for o in offsets if lo < o < hi})
            fences = [lo] + crossing + [hi]
            norm = d.dx * d.dx + d.dy * d.dy
            for a, b in zip(fences, fences[1:]):
                rep = Fraction(a + b, 2)
                w = sum(p.weight for p, o in zip(pts, offsets) if o < rep)
                anchor = (Fraction(-d.dy * rep, norm), Fraction(d.dx * rep, norm))
                out.append((DirectedLine(*anchor, d), w))
    return out


def linear_pivot_at(trace, d: Direction) -> int:
    """Pivot of the trace interval holding ``d``: walk the events in order.

    At an event direction the state just after the event is reported.
    """
    key = direction_key_from(trace.start_direction, d)
    pivot = trace.initial_pivot
    for ev in trace.events:
        if direction_key_from(trace.start_direction, ev.direction) <= key:
            pivot = ev.pivot_after
        else:
            break
    return pivot


def side_just_after(d: Direction, ax, ay, px, py) -> Side:
    """Side of (px, py) for the line through (ax, ay) rotated a hair past d.

    Points exactly on the line at direction ``d`` are classified by where
    they land once the line turns counterclockwise by an infinitesimal
    angle: ahead of the anchor means right, behind it means left.
    """
    c = d.dx * (py - ay) - d.dy * (px - ax)
    if c != 0:
        return Side.LEFT if c > 0 else Side.RIGHT
    ahead = d.dx * (px - ax) + d.dy * (py - ay)
    if ahead == 0:
        raise ValueError("point coincides with the anchor")
    return Side.RIGHT if ahead > 0 else Side.LEFT


def initial_state(inst: Instance, ids, k: int, d0: Direction) -> tuple[int, int]:
    """Oracle for a rotation's start state: classify every pair with ``side_just_after``.

    The pivot is the unique subset point with exactly ``k`` subset points
    right of the line just past ``d0``; the weight is that of every point
    right of the pivot's line.
    """
    pts = inst.points
    candidates = [
        qid for qid in ids
        if sum(1 for other in ids
               if other != qid
               and side_just_after(d0, pts[qid].x, pts[qid].y,
                                   pts[other].x, pts[other].y) is Side.RIGHT) == k
    ]
    if len(candidates) != 1:
        raise AssertionError(f"expected a unique start pivot at level {k}, found {candidates}")
    pivot = candidates[0]
    a = pts[pivot]
    omega = sum(p.weight for p in pts
                if p.id != pivot and side_just_after(d0, a.x, a.y, p.x, p.y) is Side.RIGHT)
    return pivot, omega


def tag_walk_rotation(spec, inst: Instance) -> RotationTrace:
    """Oracle for ``run_rotation``: sort every critical direction of the subset.

    Builds one tag per (subset point, other point, end) and one per unordered
    subset pair and end, sorts them all by key from the start direction and
    walks the whole list, skipping the tags that do not touch the pivot.
    """
    ids = spec.resolve(inst)
    d0 = spec.start_direction
    pts = inst.points
    id_set = frozenset(ids)
    tags = []
    for qid in ids:
        q = pts[qid]
        for p in pts:
            if p.id == qid or p.id in id_set:
                continue
            head = Direction.of(p.x - q.x, p.y - q.y)
            tags.append((direction_key_from(d0, head), head, qid, p.id, End.HEAD))
            tags.append((direction_key_from(d0, head.antipode), head.antipode, qid, p.id, End.TAIL))
    for i, uid in enumerate(ids):
        u = pts[uid]
        for vid in ids[i + 1:]:
            v = pts[vid]
            fwd = Direction.of(v.x - u.x, v.y - u.y)
            tags.append((direction_key_from(d0, fwd), fwd, uid, vid, None))
            tags.append((direction_key_from(d0, fwd.antipode), fwd.antipode, uid, vid, None))
    tags.sort(key=lambda t: (t[0], t[2], t[3], t[4].value if t[4] else ""))

    pivot, omega = initial_state(inst, ids, spec.level, d0)
    initial_pivot, initial_omega = pivot, omega
    events = []
    for _, d, qid, sid, end in tags:
        p = pts[pivot]
        if end is None:
            if pivot not in (qid, sid):
                continue
            other = sid if pivot == qid else qid
            o = pts[other]
            at_head = Direction.of(o.x - p.x, o.y - p.y) == d
            new_omega = omega if at_head else omega + p.weight - o.weight
            events.append(RotationEvent(
                d, EventKind.PIVOT_CHANGE, pivot, other, other,
                End.HEAD if at_head else End.TAIL, omega, new_omega,
            ))
            pivot, omega = other, new_omega
        elif qid == pivot:
            s = pts[sid]
            new_omega = omega + (s.weight if end is End.HEAD else -s.weight)
            events.append(RotationEvent(
                d, EventKind.WEIGHT_CHANGE, pivot, pivot, sid, end, omega, new_omega,
            ))
            omega = new_omega
    return RotationTrace(spec, ids, d0, initial_pivot, initial_omega, tuple(events))


def linear_curve_meetings(inst: Instance, sr, trace):
    """Oracle for ``gamma._curve_meetings``: test every interval against every arc."""
    pts = inst.points
    marks = []
    for dfrom, dto, pivot, _ in trace.intervals():
        g = pts[pivot]
        for idx, piece in enumerate(curve_pieces(sr, inst)):
            if not isinstance(piece, RotateArc):
                continue
            c = pts[piece.pivot]
            if piece.pivot == pivot:
                for d in (dfrom, dto, piece.d_from, piece.d_to):
                    if ccw_arc_contains(dfrom, dto, d) and arc_contains(piece, d):
                        marks.append((d, idx))
                continue
            fwd = Direction.of(c.x - g.x, c.y - g.y)
            for d in (fwd, fwd.antipode):
                if ccw_arc_contains(dfrom, dto, d) and arc_contains(piece, d):
                    marks.append((d, idx))
    return marks


def linear_build_shift(inst: Instance, trace, shift_color: Color):
    """Oracle for ``gamma.build_shift``: scan every shift-colored point per cut interval.

    One anchor per cut where the nearest point changes; the wrap folds as
    ``build_shift`` folds it, and ``_curve_through`` assembles the curve.
    """
    pts = inst.points
    shift_ids = inst.ids_of(shift_color)
    theta = trace.start_direction
    cuts = {ev.direction for ev in trace.events}
    for i in shift_ids:
        for j in shift_ids:
            if i != j:
                cuts.add(Direction.of(pts[j].x - pts[i].x, pts[j].y - pts[i].y))
    cuts.add(theta)
    ordered = sorted(cuts, key=lambda d: (d != theta, direction_key_from(theta, d)))
    anchors = []
    for j, u in enumerate(ordered):
        v = ordered[(j + 1) % len(ordered)]
        m = direction_between(u, v)
        g = pts[linear_pivot_at(trace, m)]
        o_line = m.offset(g.x, g.y)
        best_id, best_off = None, None
        for sid in shift_ids:
            o = m.offset(pts[sid].x, pts[sid].y)
            if o < o_line and (best_off is None or o > best_off):
                best_id, best_off = sid, o
        if best_id is None:
            return None
        if not anchors or anchors[-1][1] != best_id:
            anchors.append((u, best_id))
    if len(anchors) > 1 and anchors[-1][1] == anchors[0][1]:
        anchors[0] = anchors.pop()
    return _curve_through(anchors, shift_color)


def pairwise_naive(inst: Instance) -> set[BalancedLine]:
    """Oracle for ``enumerate_naive``: classify every other point against each pair."""
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
                found.add(BalancedLine(rid, bid))
    return found


def reference_fences(inst: Instance, pid: int) -> tuple[tuple[tuple, Direction, int, bool], ...]:
    """``Instance.fences(pid)`` built fence by fence: the oracle of its slope rows.

    Each head direction comes from ``direction_of``, each tail from
    ``Direction.antipode``, every key from ``direction_key(VERTICAL, ·)``,
    and the 2(n-1) entries are sorted together by key.
    """
    q = inst.point(pid)
    entries = []
    for p in inst.points:
        if p.id == pid:
            continue
        head = direction_of(p.x - q.x, p.y - q.y)
        for d, at_head in ((head, True), (head.antipode, False)):
            entries.append((direction_key(VERTICAL, d), d, p.id, at_head))
    return tuple(sorted(entries, key=itemgetter(0)))


def interval_representatives(trace: RotationTrace) -> Iterator[tuple[Direction, int, int]]:
    """Yield (direction, pivot, omega) with one direction inside each interval of the trace."""
    for dfrom, dto, pivot, omega in trace.intervals():
        yield (direction_between(dfrom, dto), pivot, omega)


def ranked_plain_winner(inst: Instance) -> Optional[tuple[Color, int]]:
    """(color, level) of the least-waist preserving plain level, red first on ties; None when none.

    Every level k < (m - 1) // 2 of each colour class of m points is traced
    in full and, when its omegas preserve delta, ranked by its waist
    m - 2k - 2.
    """
    ranked = []
    for rank, color in enumerate((Color.RED, Color.BLUE)):
        m = len(inst.ids_of(color))
        for k in range((m - 1) // 2):
            if _preserves_delta(color, omega_values(run_rotation(RotationSpec(color, k), inst)),
                                inst.delta):
                ranked.append((m - 2 * k - 2, rank, color, k))
    return min(ranked)[2:] if ranked else None


def check_antipodal_steps(inst: Instance) -> int:
    """Check ``antipodal_transitions`` on every level of F, H and G of the instance's gamma.

    For a family of m points, the steps read off the walked level j must
    equal ``transitions_at`` of the walked level m - 1 - j, both from the
    achieving direction at ``transition_low``, for every j (the middle
    level of an odd family maps onto itself).  Returns the number of steps
    compared, 0 when the instance has no gamma.
    """
    best = gamma.find_gamma(inst)
    if best is None:
        return 0
    theta, low = best.waist.achieved_at, transition_low(best.color, inst.delta)
    compared = 0
    for family in gamma.decompose_fhg(inst, best):
        walked = [transitions_at(run_rotation(RotationSpec(frozenset(family), j, theta), inst), low)
                  for j in range(len(family))]
        for j, steps in enumerate(walked):
            assert antipodal_transitions(steps, theta, inst) == walked[-1 - j], (family, j)
            compared += len(steps)
    return compared


def rational_image(inst: Instance,
                   m: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]] = (
                       (Fraction(2, 3), 0), (Fraction(1, 7), Fraction(5, 11))),
                   t: tuple[Fraction, Fraction] = (Fraction(1, 5), Fraction(-1, 2))) -> Instance:
    """The instance under the exact affine map (x, y) -> m (x, y) + t.

    Any map with nonzero determinant keeps general position, and every
    point stays on the same side of every line (or, when the determinant is
    negative, a mirror, on the opposite side of every line), so the
    balanced lines are the same pairs.  The caller keeps the new abscissae
    distinct; ``validate`` rejects the image otherwise.  The default map,
    (x, y) -> (2x/3 + 1/5, x/7 + 5y/11 - 1/2), has determinant 10/33 and
    its new abscissa grows with the old one alone, so abscissae stay
    distinct, and none is an integer, so every slope takes the Fraction
    path.
    """
    (a, b), (c, d) = m
    e, f = t
    return validate(build_points(
        (a * p.x + b * p.y + e, c * p.x + d * p.y + f, p.color) for p in inst.points
    ))


def exponent_first_as_exact(v):
    """``_as_exact`` with the exponent and length checks ahead of every parse.

    A string of ASCII digits, with an optional leading ``-``, is parsed by
    ``int`` only after those checks; every other string goes through
    ``Fraction``; the canonical-string cap then applies to every value.
    """
    if isinstance(v, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(v, str):
        _, e, exponent = v.lower().rpartition("e")
        try:
            huge_exponent = bool(e) and abs(int(exponent)) > _MAX_COORD_EXPONENT
        except ValueError:
            huge_exponent = False
        if len(v) > _MAX_COORD_CHARS or huge_exponent:
            raise ValidationError("coordinate string over the cap")
        digits = v[1:] if v[:1] == "-" else v
        v = int(v) if digits.isascii() and digits.isdigit() else Fraction(v)
    if isinstance(v, Fraction) and v.denominator == 1:
        v = v.numerator
    if isinstance(v, int):
        fits = -_INT_LIMIT // 10 < v < _INT_LIMIT
    elif isinstance(v, Fraction):
        fits = (abs(v.numerator) < _INT_LIMIT and v.denominator < _INT_LIMIT
                and len(str(v)) <= _MAX_COORD_CHARS)
    else:
        raise TypeError(f"coordinates must be exact, got {type(v)!r}")
    if not fits:
        raise ValidationError("coordinate over the cap")
    return v
