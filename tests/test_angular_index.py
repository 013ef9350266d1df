"""The angular indexes and walks of curves and traces against their linear-scan oracles.

``evaluate_at`` bisects a curve's arc index, ``curve_sweep`` (and with it
``waist``) walks the half cycle's breakpoints once, ``sliding_profile``
bisects each pivot's fences (``Instance.fences``), ``run_rotation`` walks
the pivots' fences, and the surgery's ``_curve_meetings`` and
``build_shift`` walk a trace in order; the oracles in ``support`` scan
every piece, direction, tag, arc or point instead.  The curves are every
one that the gamma search's membership check sees (plain and splice, arcs
only), with the shift curves that ``build_shift`` makes of the search's
strip rotations, the curves with slides; the traces are every rotation the
search runs.  ``build_splice`` cuts its lift with
``_clip_curve`` at arcs it bisects out of the lift's index; the cuts are
checked against arcs found by a scan, and every splice of the search
against a recorded digest.  Lifts and shift curves share one assembly,
``sliding._curve_through``, which ``linear_build_shift`` calls too; every
lift and shift curve of the search's traces is checked against a second
digest.
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
    direction_between,
    direction_key_from,
    validate,
)
from balanced_lines.generators import gen_random
from balanced_lines.rotation import EventKind, RotationSpec, run_rotation
from balanced_lines.sliding import (
    InvalidCurve,
    NotPositivelyOriented,
    RotateArc,
    Slide,
    _preserves_delta,
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

    Also returns every ``build_splice`` result, in call order.
    """
    curves, runs, splices = [], [], []
    validated, run = gamma_module._validated, gamma_module.run_rotation
    splice = gamma_module.build_splice

    def spy_validated(sr, inst, *args, **kwargs):
        curves.append((sr, inst, args[0]))
        return validated(sr, inst, *args, **kwargs)

    def spy_run(spec, inst):
        trace = run(spec, inst)
        runs.append((trace, inst))
        return trace

    def spy_splice(inst, best, trace):
        splices.append(splice(inst, best, trace))
        return splices[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gamma_module, "_validated", spy_validated)
        mp.setattr(gamma_module, "run_rotation", spy_run)
        mp.setattr(gamma_module, "build_splice", spy_splice)
        for inst in instances:
            gamma_module.find_gamma(inst)
    return _valid(curves), runs, splices


def _valid(curves):
    """The (curve, instance, kind) entries whose curve passes ``validate_curve``."""
    valid = []
    for sr, inst, kind in curves:
        try:
            validate_curve(sr, inst)
        except InvalidCurve:
            continue
        valid.append((sr, inst, kind))
    return valid


@pytest.fixture(scope="module")
def search_log():
    instances = support.nested_pool() + support.recharge_pool()
    instances += [gen_random(seed, 2 + seed % 7, 2 + seed % 7 + 2 * (seed % 4), 1000)
                  for seed in range(50)]
    return _search(instances)


@pytest.fixture(scope="module")
def searched(search_log):
    """The search's valid curves and the valid shift curves of its strip rotations."""
    curves, runs, _ = search_log
    shifts = []
    for trace, inst in runs:
        if isinstance(trace.spec.subset, frozenset):
            sr = gamma_module.build_shift(inst, trace, _subset_color(trace, inst).opposite)
            if sr is not None:
                shifts.append((sr, inst, "shift"))
    return curves + _valid(shifts), [trace for trace, _ in runs]


def _has_slide(sr):
    return any(isinstance(piece, Slide) for piece in sr.pieces)


def test_search_sees_every_curve_kind(search_log, searched):
    """The search validates arc-only plain lifts and splices; the pool also holds slides."""
    curves = search_log[0]
    assert {kind for _, _, kind in curves} == {"plain", "splice"}
    assert not any(_has_slide(sr) for sr, _, _ in curves)
    pool, traces = searched
    assert any(_has_slide(sr) for sr, _, _ in pool)
    assert traces


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
        reps = [t for t, _, _, _ in curve_sweep(sr, inst)]
        for t in reps + [t.antipode for t in reps] + sr.piece_boundaries():
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
        sr = lift_rotation(run_rotation(RotationSpec(Color.RED, k, start), inst), inst, Color.RED)
        validate_curve(sr, inst)
        handovers += sr.pieces[0].pivot != sr.pieces[-1].pivot
        for t in [start, start.antipode] + sr.piece_boundaries():
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
    """The first weight step and the first pivot change of the vertical walk.

    An event direction is a fence of the pivot just after it, so a walk
    started there begins exactly on a fence of its initial pivot (and, at a
    pivot change, hands the pivot over there at the end of its turn).
    """
    events = run_rotation(RotationSpec(subset, level), inst).events
    return [next(ev.direction for ev in events if ev.kind is kind)
            for kind in EventKind if any(ev.kind is kind for ev in events)]


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


def test_half_cycle_representatives_match_sort(searched):
    for sr, inst, _ in searched[0]:
        reps = [t for t, _, _, _ in curve_sweep(sr, inst)]
        assert reps == support.linear_half_cycle_representatives(sr, inst)


def test_curve_sweep_matches_linear_scan(searched):
    """Every step of the sweep: both anchors and the strip, recounted from scratch."""
    for sr, inst, _ in searched[0]:
        pts = inst.points
        ids = inst.ids_of(sr.subset_color)
        oriented = True
        for t, low, high, strip in curve_sweep(sr, inst):
            line_low = support.linear_evaluate_at(sr, inst, t)
            line_high = support.linear_evaluate_at(sr, inst, t.antipode)
            assert (low, high) == (line_low.span[0], line_high.span[0])
            o_low, o_high = line_low.offset(t), line_high.offset(t)
            assert strip == {i for i in ids if o_low < t.offset(pts[i].x, pts[i].y) < o_high}
            oriented = oriented and o_low < o_high
        assert is_positively_oriented(sr, inst) == oriented


def test_curve_meetings_match_all_pairs(search_log):
    """Every trace of the search against every checked curve of its instance."""
    curves, runs, _ = search_log
    pairs = 0
    for trace, inst in runs:
        for sr, curve_inst, _ in curves:
            if curve_inst is inst:
                got = gamma_module._curve_meetings(inst, sr, trace)
                assert got == support.linear_curve_meetings(inst, sr, trace)
                pairs += bool(got)
    assert pairs


def _subset_color(trace, inst):
    """The color of a search trace's subset: a color class, or strip points of one color."""
    subset = trace.spec.subset
    return subset if isinstance(subset, Color) else inst.point(next(iter(subset))).color


def test_build_shift_matches_scan(search_log):
    """Every trace of the search, followed by the nearest point of the other color."""
    shifted = 0
    for trace, inst in search_log[1]:
        color = _subset_color(trace, inst)
        got = gamma_module.build_shift(inst, trace, color.opposite)
        assert got == support.linear_build_shift(inst, trace, color.opposite)
        shifted += got is not None
    assert shifted


def test_lift_windows_rejoin_to_the_lift():
    """Cut at t, a lift's head [theta, t] and tail [t, theta] are its arcs split at t.

    The arc holding t is found by a scan with ``RotateArc.contains``, not
    by bisection; a cut at theta leaves the tail empty.
    """
    rng = random.Random(7)
    cuts = 0
    for seed in range(20):
        inst = gen_random(seed, 2 + seed % 5, 2 + seed % 5 + 2 * (seed % 3), 1000)
        for k in range(inst.r):
            theta = Direction.of(rng.randint(-50, 50), rng.randint(1, 50))
            arcs = lift_rotation(run_rotation(RotationSpec(Color.RED, k, theta), inst),
                                 inst, Color.RED).pieces
            mids = [direction_between(a.d_from, a.d_to) for a in arcs]
            for t in [a.d_from for a in arcs[1:]] + mids:
                j = next(i for i, a in enumerate(arcs) if a.contains(t) and t != a.d_to)
                a = arcs[j]
                head = [*arcs[:j], *([RotateArc(a.pivot, a.d_from, t)] if t != a.d_from else [])]
                tail = [RotateArc(a.pivot, t, a.d_to), *arcs[j + 1:]]
                assert gamma_module._clip_curve(arcs, 0, theta, j, t) == head
                assert gamma_module._clip_curve(arcs, j, t, 0, theta) == tail
                cuts += 1
            assert gamma_module._clip_curve(arcs, len(arcs) - 1, theta, 0, theta) == []
    assert cuts > 500


SPLICE_DIGEST = (48, "8c2287f62c0e4c8f9dfc41d55667a5f02d6032c4223e9ca2e0a50276c01f3776")


def test_build_splice_digest(search_log):
    """Every splice the search builds, piece by piece, is the recorded one."""
    splices = search_log[2]
    assert any(s is not None for s in splices)
    digest = hashlib.sha256("\n".join(map(repr, splices)).encode()).hexdigest()
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
        curves.append(lift_rotation(trace, inst, color))
        shifted = gamma_module.build_shift(inst, trace, color.opposite)
        if shifted is not None:
            curves.append(shifted)
    digest = hashlib.sha256("\n".join(map(repr, curves)).encode()).hexdigest()
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
