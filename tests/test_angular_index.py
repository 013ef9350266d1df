"""The angular indexes and walks of curves and traces against their linear-scan oracles.

``evaluate_at`` bisects a curve's anchor keys, ``curve_sweep`` (and with it
``waist``) walks the half cycle over its two anchors' fences, whose every
cut must be one of the linear sort's breakpoints and whose every interval
and weight range must agree with the walk over every subset pair fence
and with the recounted profile, ``sliding_profile``
bisects each pivot's fences (``Instance.fences``), ``run_rotation`` walks
the pivots' fences, the surgery's ``_curve_meetings`` walks a trace in
order, ``build_shift`` joins level rotations of the other colour between
the trace's events and ``waist`` names its interval by the subset's
adjacent pairs (``_representative``); the oracles in ``support`` scan
every piece, direction, tag, arc, pair or point instead.  The curves are the
splice of every strip rotation of the gamma search and the lift of every
preserving plain level it may rank (arcs only), with the shift curves that
``build_shift`` makes of the search's strip rotations, the curves with
slides; the traces are every rotation the search runs and every plain
level it may rank, and for ``build_shift`` also every level of both
colours of random instances from several starts.  Lifts, splices and
shift curves share one assembly, ``sliding._curve_through``, which
``linear_build_shift`` calls too.
A splice (``gamma._splice_through``) hands it anchor windows (``gamma._window``) that it
slices out of curves' anchors; windows of every lift are checked to
rejoin to the lift, split where they were cut, against arcs found by a
scan, and every splice of the pool against a recorded digest.  Every
lift and shift curve of the search's traces is checked against a second
digest.  The digests hash each curve's arcs and slides (``curve_pieces``),
and every curve of the pool is checked to join piece to piece
(``support.assert_pieces_join``).
"""

import hashlib
import random

import pytest

import support

from balanced_lines import gamma as gamma_module
from balanced_lines.geometry import (
    VERTICAL,
    Color,
    Direction,
    build_points,
    ccw_arc_contains,
    direction_between,
    direction_key_from,
    validate,
)
from balanced_lines.generators import gen_random
from balanced_lines.rotation import RotationSpec, _preserves_delta, run_rotation
from balanced_lines.sliding import (
    NotPositivelyOriented,
    RotateArc,
    Slide,
    _curve_through,
    _representative,
    curve_pieces,
    curve_sweep,
    evaluate_at,
    is_delta_preserving_sliding,
    is_positively_oriented,
    lift_rotation,
    sliding_profile,
    validate_curve,
    waist,
)


def _search(instances):
    """Run find_gamma on each instance; every checked curve, every trace and its instance.

    The search walks only the plain levels that can win and builds only the
    splices that can preserve delta, so the log replays the rest: before
    each search, the colour-class traces of every level it may rank (red
    then blue, k < (m - 1) // 2), and for every strip trace of the search
    its splice with that round's best curve (``support.assemble_splice``),
    with its instance, in call order.
    """
    curves, runs, splices = [], [], []
    validated = gamma_module._validated

    def spy_validated(sr, inst, *args, **kwargs):
        curves.append((sr, inst, args[0]))
        return validated(sr, inst, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gamma_module, "_validated", spy_validated)
        for inst in instances:
            for color in (Color.RED, Color.BLUE):
                for k in range((len(inst.ids_of(color)) - 1) // 2):
                    runs.append((run_rotation(RotationSpec(color, k), inst), inst))
            for best, trace in support.strip_traces(inst):
                runs.append((trace, inst))
                splices.append((support.assemble_splice(inst, best, trace), inst))
    return curves, runs, splices


@pytest.fixture(scope="module")
def search_log():
    instances = support.nested_pool() + support.recharge_pool()
    instances += [gen_random(seed, 2 + seed % 7, 2 + seed % 7 + 2 * (seed % 4), 1000)
                  for seed in range(50)]
    return _search(instances)


@pytest.fixture(scope="module")
def searched(search_log):
    """Every splice of the search's strip traces, every plain lift it ranks, and the shift curves.

    The search lifts only its winning plain level, so the pool lifts every
    colour-class trace that preserves delta itself.  The shift curves are
    those of the search's strip rotations.
    """
    _, runs, built = search_log
    extra = []
    for trace, inst in runs:
        subset = trace.spec.subset
        if isinstance(subset, frozenset):
            sr = gamma_module.build_shift(inst, trace, support.opposite(_subset_color(trace, inst)))
            if sr is not None:
                extra.append((sr, inst, "shift"))
        elif _preserves_delta(subset, support.omega_values(trace), inst.delta):
            extra.append((lift_rotation(trace, subset), inst, "plain"))
    splices = [(sr, inst, "splice") for sr, inst in built]
    return splices + extra, [trace for trace, _ in runs]


def _has_slide(sr, inst):
    return any(isinstance(piece, Slide) for piece in curve_pieces(sr, inst))


def _pieces_repr(sr, inst):
    """The curve's arcs and slides in the form the digests were recorded in, piece by piece."""
    pieces = tuple(curve_pieces(sr, inst))
    return f"SlidingRotation(pieces={pieces!r}, subset_color={sr.subset_color!r})"


def test_search_sees_every_curve_kind(search_log, searched):
    """The search validates arc-only plain lifts and splices; the pool also holds slides."""
    curves = search_log[0]
    assert {kind for _, _, kind in curves} == {"plain", "splice"}
    assert not any(_has_slide(sr, inst) for sr, inst, _ in curves)
    pool, traces = searched
    assert any(_has_slide(sr, inst) for sr, inst, _ in pool)
    assert traces


def test_pieces_join(searched):
    """Every curve of the pool, shift curves included, is valid and joins piece to piece."""
    for sr, inst, _ in searched[0]:
        validate_curve(sr, inst)
        support.assert_pieces_join(sr, inst)


def test_waist_matches_linear_scan(searched):
    for sr, inst, _ in searched[0]:
        try:
            expected = support.linear_waist(sr, inst)
        except NotPositivelyOriented:
            with pytest.raises(NotPositivelyOriented):
                waist(sr, inst)
            continue
        got = waist(sr, inst)
        assert (got.value, got.achieved_at, got.witnesses, got.line_low, got.line_high) == (
            expected.value, expected.achieved_at, expected.witnesses,
            expected.line_low, expected.line_high,
        )


def test_profile_matches_recount(searched):
    for sr, inst, _ in searched[0]:
        assert sliding_profile(sr, inst) == support.recount_profile(sr, inst)


def test_early_stop_preservation_matches_full_profile(searched):
    """Stopping at the first bad weight decides as the whole profile does."""
    outcomes = set()
    for sr, inst, _ in searched[0]:
        omegas = [w for _, w in sliding_profile(sr, inst)]
        expected = _preserves_delta(sr.subset_color, omegas, inst.delta)
        assert is_delta_preserving_sliding(sr, inst) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_evaluate_at_matches_linear_scan(searched):
    for sr, inst, _ in searched[0]:
        reps = support.linear_half_cycle_representatives(sr, inst)
        for t in reps + [t.antipode for t in reps] + [d for d, _ in sr.anchors]:
            assert evaluate_at(sr, inst, t) == support.linear_evaluate_at(sr, inst, t)


def test_evaluate_at_pivot_handover_at_start():
    """Started along a subset pair, a lift hands its pivot over at the start.

    Both pivots then give the same line there; like the linear scan, the
    index must report the anchor of the first piece, not of the last.
    """
    inst = gen_random(3, 5, 5, 1000)
    a, b = inst.point(0), inst.point(1)
    start = Direction.of(b.x - a.x, b.y - a.y)
    handovers = 0
    for k in range(inst.r):
        sr = lift_rotation(run_rotation(RotationSpec(Color.RED, k, start), inst), Color.RED)
        validate_curve(sr, inst)
        handovers += sr.anchors[0][1] != sr.anchors[-1][1]
        for t in [start, start.antipode] + [d for d, _ in sr.anchors]:
            assert evaluate_at(sr, inst, t) == support.linear_evaluate_at(sr, inst, t)
    assert handovers


@pytest.mark.parametrize("make", [
    lambda: support.gen_nested(1, 16, 24, Color.RED),
    lambda: support.gen_nested(2, 20, 20, Color.BLUE),
    lambda: support.gen_mixed(3, 16, 24, 0.5),
], ids=["nested-red", "nested-blue", "mixed"])
def test_find_gamma_at_n40_matches_waist_oracle(make):
    inst = make()
    assert inst.n == 40
    gamma = gamma_module.find_gamma(inst)
    assert gamma is not None
    assert gamma.waist == support.linear_waist(gamma.sr, inst)
    assert sliding_profile(gamma.sr, inst) == support.recount_profile(gamma.sr, inst)


def _fence_starts(inst, subset, level):
    """The first pivot change and the first weight step of the vertical walk.

    An event direction is a fence of the pivot just after it, so a walk
    started there begins exactly on a fence of its initial pivot (and, at a
    pivot change, hands the pivot over there at the end of its turn).
    """
    events = run_rotation(RotationSpec(subset, level), inst).events
    return [next(ev.direction for ev in events if (ev.pivot_after != ev.pivot_before) is change)
            for change in (True, False)
            if any((ev.pivot_after != ev.pivot_before) is change for ev in events)]


@pytest.mark.parametrize("pool", [
    support.nested_pool,
    support.mixed_pool,
    support.recharge_pool,
    lambda: [gen_random(seed, 1 + seed % 9, 1 + seed % 9 + 2 * (seed % 4), 1000)
             for seed in range(40)],
], ids=["nested", "mixed", "recharge", "gen_random"])
def test_run_rotation_matches_tag_walk(pool):
    """Every level of red, blue and random subsets, from four kinds of start."""
    rng = random.Random(5)
    for inst in pool():
        for q in range(inst.n):
            keys = [key for key, _, _, _ in inst.fences(q)]
            assert len(keys) == 2 * (inst.n - 1)
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert keys == [direction_key_from(VERTICAL, d) for _, d, _, _ in inst.fences(q)]
        drawn = frozenset(rng.sample(range(inst.n), rng.randint(1, inst.n)))
        for subset in (Color.RED, Color.BLUE, drawn):
            size = len(inst.ids_of(subset)) if isinstance(subset, Color) else len(subset)
            for level in range(size):
                random_start = Direction.of(rng.randint(-60, 60), rng.randint(1, 60))
                on_fence = _fence_starts(inst, subset, level)
                for d0 in [VERTICAL, random_start, *on_fence]:
                    spec = RotationSpec(subset, level, d0)
                    trace = run_rotation(spec, inst)
                    assert trace == support.tag_walk_rotation(spec, inst)
                    if d0 in on_fence:
                        assert d0 in {d for _, d, _, _ in inst.fences(trace.initial_pivot)}


def _plain(fences):
    """Each fence entry as plain values: the key's Ratio as its two integers."""
    return [(half, prefix, ratio.num, ratio.den, type(d), d, other, head)
            for (half, prefix, ratio), d, other, head in fences]


def _prefix_tie_instance():
    """Point 0 sees points 1 and 2 at slopes (2**66 + 1)/(3 * 2**66) and 1/3.

    The two slopes share their 64-bit prefix, so only the ``Ratio`` orders
    them, and the points come in the order opposite to their slopes.
    """
    big = 1 << 66
    return validate(build_points([(0, 0, "R"), (3 * big, big + 1, "B"), (3, 1, "R"), (1, 5, "B")]))


@pytest.mark.parametrize("pool", [
    support.nested_pool,
    support.mixed_pool,
    support.recharge_pool,
    lambda: [support.rational_image(gen_random(seed, 4, 6, 1000)) for seed in range(3)],
    lambda: [_prefix_tie_instance()],
], ids=["nested", "mixed", "recharge", "fraction", "prefix-tie"])
def test_fences_match_reference_construction(pool):
    """The slope rows give the fence-by-fence table, entry for entry."""
    for inst in pool():
        for q in range(inst.n):
            assert _plain(inst.fences(q)) == _plain(support.reference_fences(inst, q))


def test_prefix_tie_instance_ties():
    fences = _prefix_tie_instance().fences(0)
    tied = [key for key, _, other, _ in fences if other in (1, 2)]
    assert len({(half, prefix) for half, prefix, _ in tied}) == 2
    assert [other for _, _, other, head in fences if head] == [2, 1, 3]


def _walk(sr, inst):
    """The intervals of ``curve_sweep``, strips copied, and whether it got past no unoriented one."""
    steps = []
    try:
        for u, v, low, high, strip in curve_sweep(sr, inst):
            steps.append((u, v, low, high, set(strip)))
    except NotPositivelyOriented:
        return steps, False
    return steps, True


def test_half_cycle_representatives_match_sort(searched):
    """The sweep's intervals tile the half cycle, cut only at breakpoints of the linear sort."""
    for sr, inst, _ in searched[0]:
        steps, oriented = _walk(sr, inst)
        half = sr.start_direction.antipode
        fine = set(support.linear_half_cycle_breakpoints(sr, inst)) | {half}
        cuts = [sr.start_direction] + [v for _, v, _, _, _ in steps]
        assert [u for u, _, _, _, _ in steps] == cuts[:-1]
        assert set(cuts) <= fine
        assert (cuts[-1] == half) == oriented


def test_representative_matches_pair_fence_bisection():
    """The adjacent pairs' next direction is the next of all the subset's pair directions.

    From every fence direction u of 30 random instances, for both colours,
    up to u's antipode and up to a random direction v, which may lie before
    the next pair direction or past it.
    """
    rng = random.Random(17)
    named = 0
    for seed in range(30):
        inst = gen_random(seed, 1 + seed % 7, 1 + seed % 7 + 2 * (seed % 4), 1000)
        for color in (Color.RED, Color.BLUE):
            pairs = support.pair_fences(inst, color)
            for q in range(inst.n):
                for _, u, _, _ in inst.fences(q):
                    v = Direction.of(rng.randint(-60, 60), rng.choice((-1, 1)) * rng.randint(1, 60))
                    for v in {u.antipode, v} - {u}:
                        want = support.bisected_representative(pairs, u, v)
                        assert _representative(inst, color, u, v) == want
                        named += 1
    assert named > 10000


def test_curve_sweep_matches_linear_scan(searched):
    """Every interval of the sweep: both anchors and the strip, recounted from scratch."""
    outcomes = set()
    for sr, inst, _ in searched[0]:
        pts = inst.points
        ids = inst.ids_of(sr.subset_color)
        steps, walked = _walk(sr, inst)
        for u, v, low, high, strip in steps:
            t = direction_between(u, v)
            line_low = support.linear_evaluate_at(sr, inst, t)
            line_high = support.linear_evaluate_at(sr, inst, t.antipode)
            assert support.points_on(inst, line_low, ids) == (low,)
            assert support.points_on(inst, line_high, ids) == (high,)
            o_low, o_high = line_low.offset(t), line_high.offset(t)
            assert o_low < o_high
            assert strip == {i for i in ids if o_low < t.offset(pts[i].x, pts[i].y) < o_high}
        try:
            support.linear_waist(sr, inst)
        except NotPositivelyOriented:
            oriented = False
        else:
            oriented = True
        assert is_positively_oriented(sr, inst) == walked == oriented
        outcomes.add(walked)
    assert outcomes == {True, False}


def _family_curves(instances):
    """Every level lift of both colours of each instance, and every curve its gamma search validates."""
    lifts = [(lift_rotation(run_rotation(RotationSpec(color, k), inst), color), inst)
             for inst in instances for color in (Color.RED, Color.BLUE)
             for k in range(len(inst.ids_of(color)))]
    return lifts + [(sr, inst) for sr, inst, _ in _search(instances)[0]]


def _sweep_to_end(sr, inst):
    """The intervals of ``curve_sweep``, strips copied, and its weight range; None when it raised."""
    steps = []
    walk = curve_sweep(sr, inst)
    try:
        while True:
            u, v, low, high, strip = next(walk)
            steps.append((u, v, low, high, set(strip)))
    except StopIteration as done:
        return steps, done.value
    except NotPositivelyOriented:
        return steps, None


def _check_sweep_against_oracles(sr, inst):
    """The walk against ``support.pair_fence_sweep`` interval by interval, and its range against the profile.

    Every interval of the pair-fence walk lies inside one interval of the
    sweep and must carry its anchors and strip, oriented, up to the first
    unoriented one, where the sweep must have raised; a sweep that ran
    through must report the least and greatest weight of
    ``support.recount_profile``.  Returns whether it ran through.
    """
    steps, weights = _sweep_to_end(sr, inst)
    xs, ys = inst.xs, inst.ys
    fine = [(t, low, high, set(strip)) for t, low, high, strip in support.pair_fence_sweep(sr, inst)]
    i = 0
    for t, low, high, strip in fine:
        while i < len(steps) and not ccw_arc_contains(steps[i][0], steps[i][1], t):
            i += 1
        if i == len(steps):
            assert weights is None
            assert t.offset(xs[high], ys[high]) <= t.offset(xs[low], ys[low])
            return False
        assert steps[i][2:] == (low, high, strip)
        assert t.offset(xs[low], ys[low]) < t.offset(xs[high], ys[high])
    assert i == len(steps) - 1
    assert weights == support.profile_range(sr, inst)
    return True


@pytest.mark.parametrize("pool", [
    support.nested_pool,
    support.mixed_pool,
    support.recharge_pool,
    lambda: [support.gen_nested(1, 16, 24, Color.RED), support.gen_nested(2, 20, 20, Color.BLUE),
             support.gen_mixed(3, 16, 24, 0.5)],
    lambda: [gen_random(seed, 1 + seed % 9, 1 + seed % 9 + 2 * (seed % 4), 1000) for seed in range(40)],
], ids=["nested", "mixed", "recharge", "n40", "gen_random"])
def test_curve_sweep_matches_pair_fence_walk_and_profile(pool):
    """Every level lift of both colours and every validated curve: intervals, strips and weight range."""
    outcomes = [_check_sweep_against_oracles(sr, inst) for sr, inst in _family_curves(pool())]
    assert True in outcomes and False in outcomes


def test_searched_curves_match_pair_fence_walk_and_profile(searched):
    """The splices, the plain lifts the search ranks and the shift curves, whose slides the walk recounts."""
    outcomes = {(_check_sweep_against_oracles(sr, inst), _has_slide(sr, inst)) for sr, inst, _ in searched[0]}
    assert {(True, False), (False, False), (True, True)} <= outcomes


def test_curve_meetings_match_all_pairs(search_log):
    """Every trace of the search against its plain curve and every splice of its instance."""
    curves, runs, splices = search_log
    checked = [(sr, inst) for sr, inst, kind in curves if kind == "plain"] + splices
    pairs = 0
    for trace, inst in runs:
        for sr, curve_inst in checked:
            if curve_inst is inst:
                got = {d for *_, met in gamma_module._curve_meetings(inst, sr, trace) for d in met}
                assert got == {d for d, _ in support.linear_curve_meetings(inst, sr, trace)}
                pairs += bool(got)
    assert pairs


def _subset_color(trace, inst):
    """The color of a search trace's subset: a color class, or strip points of one color."""
    subset = trace.spec.subset
    return subset if isinstance(subset, Color) else inst.point(next(iter(subset))).color


def test_curve_meetings_lie_at_interval_starts(search_log):
    """A meeting with an arc about another point is met again where an interval starts.

    ``_curve_meetings`` tests that end of an interval alone: at each such
    meeting d, an interval starts, and its pivot's line at d passes through
    the arc's point too.
    """
    curves, runs, splices = search_log
    checked = [(sr, inst) for sr, inst, kind in curves if kind == "plain"] + splices
    met = 0
    for trace, inst in runs:
        intervals = list(trace.intervals())
        pivot_from = {dfrom: pivot for dfrom, _, pivot, _ in intervals}
        for sr, curve_inst in checked:
            if curve_inst is not inst:
                continue
            for arc in curve_pieces(sr, inst):
                c = inst.point(arc.pivot)
                for dfrom, dto, pivot, _ in intervals:
                    if pivot == arc.pivot:
                        continue
                    g = inst.point(pivot)
                    fwd = Direction.of(c.x - g.x, c.y - g.y)
                    for d in (fwd, fwd.antipode):
                        if ccw_arc_contains(dfrom, dto, d) and support.arc_contains(arc, d):
                            h = inst.point(pivot_from[d])
                            assert d.offset(h.x, h.y) == d.offset(c.x, c.y)
                            met += d == dto
    assert met


def test_build_shift_matches_scan(search_log):
    """Every trace of the search, followed by the nearest point of the other color."""
    shifted = 0
    for trace, inst in search_log[1]:
        color = _subset_color(trace, inst)
        got = gamma_module.build_shift(inst, trace, support.opposite(color))
        assert got == support.linear_build_shift(inst, trace, support.opposite(color))
        shifted += got is not None
    assert shifted


def _level_traces(seeds, fences_per_point):
    """Every level of both colours of ``gen_random`` instances, each from several starts.

    The starts are vertical, a random direction and ``fences_per_point``
    fence directions of each point, where the rotating line starts on two
    points.  ``gen_random(10, 2, 6)`` comes first: its blue level 5 runs
    along the blue hull and never crosses the two reds inside it.
    """
    rng = random.Random(13)
    instances = [gen_random(10, 2, 6)]
    instances += [gen_random(seed, 1 + seed % 4, 1 + seed % 4 + 2 * (seed % 3), 1000) for seed in seeds]
    for inst in instances:
        starts = [VERTICAL, Direction.of(rng.randint(-60, 60), rng.randint(1, 60))]
        for q in range(inst.n):
            fences = inst.fences(q)
            starts += [e[1] for e in rng.sample(fences, min(fences_per_point, len(fences)))]
        for color in (Color.RED, Color.BLUE):
            for k in range(len(inst.ids_of(color))):
                for d0 in starts:
                    yield run_rotation(RotationSpec(color, k, d0), inst), inst


def _check_shift_of_every_level(seeds, fences_per_point):
    """``build_shift`` equals its scan on ``_level_traces``: (curves built, of them lone windows).

    A lone window is a built curve whose trace crosses no point of the
    shift colour off its start direction, so the curve is one level
    rotation's lift over the full turn.
    """
    built = lone = 0
    for trace, inst in _level_traces(seeds, fences_per_point):
        shift = support.opposite(_subset_color(trace, inst))
        got = gamma_module.build_shift(inst, trace, shift)
        assert got == support.linear_build_shift(inst, trace, shift)
        if got is not None:
            built += 1
            lone += not any(inst.points[ev.crossed_id].color is shift for ev in trace.events
                            if ev.direction != trace.spec.start_direction)
    return built, lone


def test_build_shift_matches_scan_on_every_level():
    """Every level of both colours, with the lone windows the search's traces never make."""
    built, lone = _check_shift_of_every_level(range(12), 1)
    assert built > 300 and lone > 10


@pytest.mark.slow
def test_build_shift_matches_scan_on_every_level_wide():
    """As above, on 120 instances and from three fences of each point."""
    built, lone = _check_shift_of_every_level(range(120), 3)
    assert built > 3000 and lone > 100


def _lifts():
    """A red lift of every level of 20 random instances, each from a random start."""
    rng = random.Random(7)
    for seed in range(20):
        inst = gen_random(seed, 2 + seed % 5, 2 + seed % 5 + 2 * (seed % 3), 1000)
        for k in range(inst.r):
            theta = Direction.of(rng.randint(-50, 50), rng.randint(1, 50))
            yield inst, lift_rotation(run_rotation(RotationSpec(Color.RED, k, theta), inst),
                                      Color.RED)


def _split(arcs, t):
    """The arcs with the one holding t strictly inside cut in two there.

    The arc is found by a scan with ``support.arc_contains``, not by bisection.
    """
    j = next(i for i, a in enumerate(arcs) if support.arc_contains(a, t) and t != a.d_to)
    a = arcs[j]
    if t == a.d_from:
        return list(arcs)
    return [*arcs[:j], RotateArc(a.pivot, a.d_from, t), RotateArc(a.pivot, t, a.d_to),
            *arcs[j + 1:]]


def test_lift_windows_rejoin_to_the_lift():
    """Cut at t, a lift's windows [theta, t) and [t, theta) rejoin to its arcs split at t."""
    window = gamma_module._window
    cuts = 0
    for inst, lift in _lifts():
        arcs, theta = list(curve_pieces(lift, inst)), lift.start_direction
        mids = [direction_between(a.d_from, a.d_to) for a in arcs]
        for t in [a.d_from for a in arcs[1:]] + mids:
            rejoined = _curve_through(window(lift, theta, t) + window(lift, t, theta), Color.RED)
            assert list(curve_pieces(rejoined, inst)) == _split(arcs, t)
            cuts += 1
    assert cuts > 500


def test_long_way_window_wraps_past_every_other_arc():
    """Both ends inside one arc, v before u: [u, v) passes every other arc and the arc's start.

    Whether the window wraps is read from the keys of u and v: both lie on
    one arc, so its position cannot tell.
    """
    window = gamma_module._window
    wraps = 0
    for inst, lift in _lifts():
        arcs = list(curve_pieces(lift, inst))
        for i, a in enumerate(arcs):
            v = direction_between(a.d_from, a.d_to)
            u = direction_between(v, a.d_to)
            long_way = window(lift, u, v)
            assert long_way == [(u, a.pivot)] + [(b.d_from, b.pivot)
                                                 for b in arcs[i + 1:] + arcs[:i + 1]]
            rejoined = _curve_through(long_way + window(lift, v, u), Color.RED)
            split = _split(_split(arcs, v), u)  # ..., [d_from, v], [v, u], [u, d_to], ...
            assert list(curve_pieces(rejoined, inst)) == split[i + 2:] + split[:i + 2]
            wraps += 1
    assert wraps > 300


SPLICE_DIGEST = (48, "8c2287f62c0e4c8f9dfc41d55667a5f02d6032c4223e9ca2e0a50276c01f3776")


def test_build_splice_digest(search_log):
    """Every splice the search builds, piece by piece, is the recorded one."""
    splices = search_log[2]
    assert splices
    text = "\n".join(_pieces_repr(sr, inst) for sr, inst in splices)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(splices), digest) == SPLICE_DIGEST


ASSEMBLY_DIGEST = (526, "d8388a133bd0f02db2f67a2183068284e1ab90f99fe885b39598fbc60b7d572a")


def test_curve_assembly_digest(search_log):
    """Every lift and every shift curve of the search's traces, piece by piece, is the recorded one.

    ``linear_build_shift`` assembles its curve the way ``build_shift`` does,
    so ``test_build_shift_matches_scan`` cannot see a change of the assembly
    itself; this digest does.
    """
    curves = []
    for trace, inst in search_log[1]:
        color = _subset_color(trace, inst)
        curves.append(_pieces_repr(lift_rotation(trace, color), inst))
        shifted = gamma_module.build_shift(inst, trace, support.opposite(color))
        if shifted is not None:
            curves.append(_pieces_repr(shifted, inst))
    digest = hashlib.sha256("\n".join(curves).encode()).hexdigest()
    assert (len(curves), digest) == ASSEMBLY_DIGEST


def test_every_trace_has_events(search_log):
    """A full turn meets every other point, so no rotation of a valid instance is event-less.

    Every trace of the search, and every rotation of the two-point
    instances from vertical, from a random start and from a fence of each
    point; each interval of a trace is a proper arc.
    """
    rng = random.Random(11)
    traces = [trace for trace, _ in search_log[1]]
    for r, b in ((1, 1), (0, 2)):
        for seed in range(10):
            inst = gen_random(seed, r, b, 1000)
            starts = [VERTICAL, Direction.of(rng.randint(-60, 60), rng.randint(1, 60)),
                      *(d for q in range(inst.n) for _, d, _, _ in inst.fences(q))]
            for subset in (Color.RED, Color.BLUE, frozenset({0}), frozenset({1}),
                           frozenset({0, 1})):
                size = len(inst.ids_of(subset)) if isinstance(subset, Color) else len(subset)
                traces += [run_rotation(RotationSpec(subset, level, d0), inst)
                           for level in range(size) for d0 in starts]
    assert len(traces) > 500
    for trace in traces:
        assert trace.events
        assert all(dfrom != dto for dfrom, dto, _, _ in trace.intervals())
