"""Shared instance builders for the test suite.

The nested and mixed builders produce configurations where one color
partly or fully surrounds the other; those are the instances whose level
rotations stay on one side of delta, which is what drives the sliding
rotation pipeline.  Everything is deterministic in the seed.

It also holds the linear-scan oracles of the indexed curve and trace
queries: ``linear_evaluate_at``, ``linear_half_cycle_representatives``,
``linear_waist``, ``brute_waist``, ``recount_profile`` and
``linear_curve_meetings`` share
nothing with the angular indexes and walks in the package beyond the exact
primitives; ``linear_build_shift`` scans for its anchors (the pivot of each
cut from ``linear_pivot_at``) and shares only the assembly of a curve from
them; ``tag_walk_rotation`` walks a rotation without the per-instance fence
table, from its own start state (``initial_state``, which classifies every
pair with its own copy of the per-point just-after rule, ``side_just_after``);
and ``pairwise_naive`` classifies every point against every
red/blue pair the way ``enumerate_naive`` did before it kept its rows
relative to each red anchor.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from balanced_lines.geometry import (
    Color,
    DirectedLine,
    Direction,
    Instance,
    Side,
    build_points,
    direction_between,
    direction_key_from,
    validate,
)
from balanced_lines.generators import gen_random, gen_separated_convex
from balanced_lines.oracle import BalancedLine
from balanced_lines.rotation import (
    End,
    EventKind,
    RotationEvent,
    RotationTrace,
)
from balanced_lines.sliding import (
    InvalidCurve,
    NotPositivelyOriented,
    RotateArc,
    Waist,
)
from balanced_lines.gamma import _in_span, _shift_curve


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
    outer_color = inner_color.opposite
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
    outer_color = inner_color.opposite
    raw = [(x, y, inner_color) for x, y in inner]
    raw += [(x, y, outer_color) for x, y in outer]
    raw.sort(key=lambda t: t[2] is not Color.RED)
    return validate(build_points(raw))


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

    ``_gamma_certificate`` drops each strip transition whose ``_recharge``
    raises and still reaches ``r`` through later transitions; these four
    instances drop two each.
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


def linear_evaluate_at(sr, inst: Instance, t: Direction) -> DirectedLine:
    """Oracle for ``evaluate_at``: scan every piece, keep the leftmost line."""
    best = None
    best_offset = None
    for piece in sr.pieces:
        anchors: list[int] = []
        if isinstance(piece, RotateArc):
            if piece.contains(t):
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


def linear_half_cycle_representatives(sr, inst: Instance) -> list[Direction]:
    """Oracle for ``half_cycle_representatives``: fold and sort every breakpoint."""
    start = sr.start_direction
    ids = inst.ids_of(sr.subset_color)
    raw = set(sr.piece_boundaries())
    raw.update(d.antipode for d in sr.piece_boundaries())
    for i in ids:
        for j in ids:
            if i != j:
                p, q = inst.point(i), inst.point(j)
                raw.add(Direction.of(q.x - p.x, q.y - p.y))
    folded = {d if d == start or start.cross(d) > 0 else d.antipode for d in raw}
    folded.add(start)
    ordered = sorted(folded, key=lambda d: (d != start, direction_key_from(start, d)))
    ends = ordered[1:] + [start.antipode]
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
        if best is None or len(inside) < best.value:
            best = Waist(len(inside), t, inside, low, high)
    return best


def brute_waist(sr, inst):
    """Independent oracle: scan representatives between all pairwise directions."""
    ids = inst.ids_of(sr.subset_color)
    pts = inst.points
    start = sr.start_direction
    raw = set(sr.piece_boundaries())
    raw |= {d.antipode for d in sr.piece_boundaries()}
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
    for piece in sr.pieces:
        if isinstance(piece, RotateArc):
            q = inst.point(piece.pivot)
            inside = []
            for p in pts:
                if p.id == piece.pivot:
                    continue
                fwd = Direction.of(p.x - q.x, p.y - q.y)
                for d in (fwd, fwd.antipode):
                    if d != piece.d_from and d != piece.d_to and piece.contains(d):
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
        for idx, piece in enumerate(sr.pieces):
            if not isinstance(piece, RotateArc):
                continue
            c = pts[piece.pivot]
            if piece.pivot == pivot:
                for d in (dfrom, dto, piece.d_from, piece.d_to):
                    if _in_span(dfrom, dto, d) and piece.contains(d):
                        marks.append((d, idx))
                continue
            fwd = Direction.of(c.x - g.x, c.y - g.y)
            for d in (fwd, fwd.antipode):
                if _in_span(dfrom, dto, d) and piece.contains(d):
                    marks.append((d, idx))
    return marks


def linear_build_shift(inst: Instance, trace, shift_color: Color):
    """Oracle for ``gamma.build_shift``: scan every shift-colored point per cut interval."""
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
        m = direction_between(u, v) if u != v else u.perp_ccw
        g = pts[linear_pivot_at(trace, m)]
        o_line = m.offset(g.x, g.y)
        best_id, best_off = None, None
        for sid in shift_ids:
            o = m.offset(pts[sid].x, pts[sid].y)
            if o < o_line and (best_off is None or o > best_off):
                best_id, best_off = sid, o
        if best_id is None:
            return None
        anchors.append((u, best_id))
    return _shift_curve(inst, anchors, shift_color)


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
                found.add(BalancedLine(rid, bid, (right, left)))
    return found
