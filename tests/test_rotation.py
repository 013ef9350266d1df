import dataclasses
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

import support

from balanced_lines import rotation
from balanced_lines.geometry import (
    Color,
    DirectedLine,
    Direction,
    direction_key,
    direction_of,
    halfplane_weight,
    is_balanced,
)
from balanced_lines.generators import gen_random, gen_separated_convex
from balanced_lines.oracle import enumerate_naive
from balanced_lines.rotation import (
    EvenRedCount,
    LevelOutOfRange,
    RotationEvent,
    RotationSpec,
    WrongSubset,
    antipodal_transitions,
    check_level_coupling,
    find_balanced_halving,
    is_delta_preserving,
    run_rotation,
    trace_to_jsonl,
    transition_low,
    transitions_at,
)


def test_single_point_subset():
    inst = gen_random(1, 3, 3, 100)
    trace = run_rotation(RotationSpec(frozenset({0}), 0), inst)
    changes = sum(1 for e in trace.events if e.pivot_after != e.pivot_before)
    assert changes == 0
    assert len(trace.events) - changes == 2 * (inst.n - 1)
    heads = sum(1 for e in trace.events if e.head)
    assert heads == inst.n - 1


def test_two_point_subset_pivot_changes():
    inst = gen_random(1, 3, 3, 100)
    trace = run_rotation(RotationSpec(frozenset({0, 1}), 0), inst)
    changes = [e for e in trace.events if e.pivot_after != e.pivot_before]
    assert len(changes) == 2


def test_level_out_of_range():
    inst = gen_random(1, 3, 3, 100)
    with pytest.raises(LevelOutOfRange):
        run_rotation(RotationSpec(Color.RED, 3), inst)
    with pytest.raises(LevelOutOfRange):
        run_rotation(RotationSpec(Color.RED, -1), inst)


@given(st.integers(min_value=0, max_value=2000))
@settings(max_examples=30, deadline=None)
def test_recount_and_level_invariant(seed):
    delta = seed % 3
    r = 2 + seed % 5
    inst = gen_random(seed, r, r + 2 * delta, 1000)
    color = Color.RED if seed % 2 else Color.BLUE
    ids = inst.ids_of(color)
    k = seed % len(ids)
    trace = run_rotation(RotationSpec(color, k), inst)
    for d, pivot, omega in support.interval_representatives(trace):
        line = DirectedLine.pivot_direction(inst, pivot, d)
        assert halfplane_weight(line, inst) == omega
        right = sum(
            1 for i in ids if i != pivot and support.side(line, inst.point(i)) is support.Side.RIGHT
        )
        assert right == k


def test_red_rotation_never_crosses_red():
    inst = gen_random(17, 5, 7, 1000)
    for k in range(inst.r):
        trace = run_rotation(RotationSpec(Color.RED, k), inst)
        for ev in trace.events:
            if ev.pivot_after == ev.pivot_before:
                assert inst.point(ev.crossed_id).color is Color.BLUE


def test_transitions_all_balanced_and_in_oracle(small_random_pool):
    for inst in small_random_pool[:12]:
        oracle = {(l.red_id, l.blue_id) for l in enumerate_naive(inst)}
        for k in range(inst.r):
            trace = run_rotation(RotationSpec(Color.RED, k), inst)
            for t in transitions_at(trace, inst.delta):
                assert t.balanced_in(inst)
                assert inst.point(t.crossed_id).color is Color.BLUE
                assert (t.pivot_before, t.crossed_id) in oracle
                assert t.head == (t.omega_after > t.omega_before)
        for k in range(inst.b):
            trace = run_rotation(RotationSpec(Color.BLUE, k), inst)
            for t in transitions_at(trace, inst.delta - 1):
                assert t.balanced_in(inst)
                assert inst.point(t.crossed_id).color is Color.RED
                assert (t.crossed_id, t.pivot_before) in oracle


def test_transitions_empty_for_flat_profile():
    # a blue level rotation with few blues right keeps its weight far below
    # delta + 1 on heavily blue instances
    inst = gen_random(3, 1, 9, 1000)
    trace = run_rotation(RotationSpec(Color.BLUE, 0), inst)
    assert max(support.omega_values(trace)) < inst.delta
    assert transitions_at(trace, inst.delta) == []


def test_antipodal_level_structure():
    inst = gen_random(77, 5, 5, 1000)
    k = 1
    t_low = run_rotation(RotationSpec(Color.RED, k), inst)
    t_high = run_rotation(RotationSpec(Color.RED, inst.r - 1 - k), inst)
    samples = list(support.interval_representatives(t_low))[::3]
    for d, pivot, _ in samples:
        assert support.linear_pivot_at(t_high, d.antipode) == pivot


def test_antipodal_steps_match_walk(nested_instances, mixed_instances, recharge_instances,
                                    small_random_pool):
    """Level m - 1 - j's boundary steps, read off level j, equal its own walk's.

    F, H and G of every gamma in the pools, every level (``support.check_antipodal_steps``).
    """
    pools = nested_instances + mixed_instances + recharge_instances + small_random_pool
    assert sum(support.check_antipodal_steps(inst) for inst in pools) > 0


def test_antipodal_steps_at_the_start_direction():
    """A step at theta lands at theta + pi, and one at theta + pi lands at theta, last.

    Each start direction is a fence between a red and a blue point, so some
    red level steps at theta and its antipodal level at theta + pi.  Every
    boundary low is compared with 2 delta - w - low - 1, which is
    2 delta - low for red (w = -1).
    """
    ends = set()
    for seed in range(4):
        inst = gen_random(seed, 5, 7, 1000)
        p, q = inst.red_ids[0], inst.blue_ids[seed]
        toward = direction_of(inst.xs[q] - inst.xs[p], inst.ys[q] - inst.ys[p])
        for theta in (toward, toward.antipode):
            walked = [run_rotation(RotationSpec(Color.RED, j, theta), inst) for j in range(inst.r)]
            for j, trace in enumerate(walked):
                for low in range(-inst.r, inst.b + 1):
                    steps = transitions_at(trace, low)
                    mirror = transitions_at(walked[-1 - j], 2 * inst.delta - low)
                    assert antipodal_transitions(steps, theta, inst) == mirror
                    ends.update(t.direction == theta for t in steps if t.direction.cross(theta) == 0)
    assert ends == {True, False}  # steps at theta and at theta + pi were both mirrored


def test_boundary_steps_are_rotation_events(nested_instances, mixed_instances):
    """One record per step: ``transitions_at`` returns the trace's own events, in order.

    Identity (``is``), so no second per-step record is built beside the
    walk's; the steps ``antipodal_transitions`` reads off them are weight
    changes about one pivot, the shape of a walked boundary step.
    """
    mirrored = 0
    for inst in nested_instances + mixed_instances:
        for color in Color:
            for k in range(len(inst.ids_of(color))):
                trace = run_rotation(RotationSpec(color, k), inst)
                steps = transitions_at(trace, transition_low(color, inst.delta))
                events = iter(trace.events)
                assert all(any(t is ev for ev in events) for t in steps)
                for t in antipodal_transitions(steps, trace.spec.start_direction, inst):
                    assert type(t) is RotationEvent
                    assert t.pivot_before == t.pivot_after
                    mirrored += 1
    assert mirrored > 0


def _check_transitions_at_every_low(trace) -> int:
    """``transitions_at`` against its set definition, the weight steps whose two weights
    are ``{low, low + 1}``, at every low from one below the least weight to the greatest.
    Returns how many lows have a step."""
    omegas = support.omega_values(trace)
    hit = 0
    for low in range(min(omegas) - 1, max(omegas) + 1):
        want = [ev for ev in trace.events if ev.pivot_after == ev.pivot_before
                and {ev.omega_before, ev.omega_after} == {low, low + 1}]
        assert transitions_at(trace, low) == want
        hit += bool(want)
    return hit


def test_transitions_at_is_the_set_definition(nested_instances, mixed_instances,
                                              recharge_instances, small_random_pool):
    hit = 0
    for inst in nested_instances + mixed_instances + recharge_instances + small_random_pool[:20]:
        for color in Color:
            for k in range(len(inst.ids_of(color))):
                hit += _check_transitions_at_every_low(run_rotation(RotationSpec(color, k), inst))
    assert hit > 0


@given(st.integers(min_value=0, max_value=5000), st.data())
@settings(max_examples=40, deadline=None)
def test_transitions_at_is_the_set_definition_on_any_subset(seed, data):
    """Mixed-colour subsets too, from any start direction: their pivot changes step the
    weight by 0 or 2, which neither definition counts."""
    delta = seed % 3
    r = 1 + seed % 6
    inst = gen_random(seed, r, r + 2 * delta, 1000)
    subset = data.draw(st.frozensets(st.integers(0, inst.n - 1), min_size=1))
    level = data.draw(st.integers(0, len(subset) - 1))
    dx, dy = data.draw(st.tuples(st.integers(-40, 40), st.integers(-40, 40))
                       .filter(lambda v: v != (0, 0)))
    trace = run_rotation(RotationSpec(subset, level, direction_of(dx, dy)), inst)
    _check_transitions_at_every_low(trace)


def test_is_delta_preserving_wrong_subset():
    inst = gen_random(1, 3, 3, 100)
    trace = run_rotation(RotationSpec(frozenset({0, 4}), 0), inst)
    with pytest.raises(WrongSubset):
        is_delta_preserving(trace, inst)


def test_separated_rotation_not_preserving():
    inst = gen_separated_convex(4, 4)
    trace = run_rotation(RotationSpec(Color.RED, 0), inst)
    assert not is_delta_preserving(trace, inst)
    ts = transitions_at(trace, inst.delta)
    assert len([t for t in ts if t.omega_after > t.omega_before]) == 1
    assert len([t for t in ts if t.omega_after < t.omega_before]) == 1


def test_separated_each_level_one_up_one_down(separated_instances):
    for inst in separated_instances:
        for k in range((inst.r + 1) // 2):
            trace = run_rotation(RotationSpec(Color.RED, k), inst)
            ts = transitions_at(trace, inst.delta)
            assert sum(1 for t in ts if t.omega_after > t.omega_before) == 1
            assert sum(1 for t in ts if t.omega_after < t.omega_before) == 1


def test_preserving_when_weight_stays_low():
    # blues heavily outnumbered on the right: all-blue rotation at level 0
    # keeps its weight below delta when delta is large
    inst = gen_random(3, 1, 9, 1000)
    trace = run_rotation(RotationSpec(Color.BLUE, 0), inst)
    assert is_delta_preserving(trace, inst)


def test_find_balanced_halving():
    for seed, r, b in [(5, 5, 5), (9, 3, 7), (2, 1, 1), (4, 7, 9)]:
        inst = gen_random(seed, r, b, 1000)
        line = find_balanced_halving(inst)
        oracle = {(l.red_id, l.blue_id) for l in enumerate_naive(inst)}
        assert (line.red_id, line.blue_id) in oracle
        seg = DirectedLine.through_points(inst, line.red_id, line.blue_id)
        half = (inst.n - 2) // 2
        left = sum(1 for p in inst.points if support.side(seg, p) is support.Side.LEFT)
        right = sum(1 for p in inst.points if support.side(seg, p) is support.Side.RIGHT)
        assert (left, right) == (half, half)


def test_find_balanced_halving_even_r():
    inst = gen_random(1, 4, 4, 1000)
    with pytest.raises(EvenRedCount):
        find_balanced_halving(inst)


def test_level_coupling_random(small_random_pool):
    for inst in small_random_pool[:25]:
        for j in range(inst.r // 2 + 1):
            if j + inst.delta <= inst.b - 1:
                assert check_level_coupling(inst, j)


def _omega_after(trace):
    """The trace's weight just past a direction: after its last event at or before it."""
    start = trace.spec.start_direction
    keys = [direction_key(start, ev.direction) for ev in trace.events]
    omegas = support.omega_values(trace)
    return lambda d: omegas[bisect_right(keys, direction_key(start, d))]


def test_red_and_blue_levels_cross_delta_together(
        nested_instances, mixed_instances, recharge_instances, small_random_pool):
    """At every direction red level k is above delta exactly when blue level k + delta is at least delta.

    Read at one direction inside every interval of both traces; the state
    just past it is the state of an interval of each.
    """
    checked = 0
    for inst in nested_instances + mixed_instances + recharge_instances + small_random_pool:
        delta = inst.delta
        for k in range(inst.r):
            red = run_rotation(RotationSpec(Color.RED, k), inst)
            blue = run_rotation(RotationSpec(Color.BLUE, k + delta), inst)
            red_at, blue_at = _omega_after(red), _omega_after(blue)
            for trace in (red, blue):
                for d, _, _ in support.interval_representatives(trace):
                    assert (red_at(d) > delta) == (blue_at(d) >= delta)
                    checked += 1
    assert checked > 40_000


def test_level_coupling_catches_an_offset_blue_level(
        monkeypatch, nested_instances, small_random_pool):
    """Coupled with blue level j + delta + 1 instead, every red level that crosses delta fails."""
    run = rotation.run_rotation

    def offset_blue(spec, inst):
        if spec.subset is Color.BLUE:
            spec = dataclasses.replace(spec, level=spec.level + 1)
        return run(spec, inst)

    caught = 0
    for inst in small_random_pool + nested_instances:
        for j in range(inst.r // 2 + 1):
            if j + inst.delta + 1 > inst.b - 1:
                continue
            if not transitions_at(run(RotationSpec(Color.RED, j), inst), inst.delta):
                continue
            with monkeypatch.context() as mp:
                mp.setattr(rotation, "run_rotation", offset_blue)
                assert not check_level_coupling(inst, j)
            caught += 1
    assert caught > 200


def test_level_coupling_out_of_range():
    inst = gen_random(1, 4, 4, 1000)
    with pytest.raises(LevelOutOfRange):
        check_level_coupling(inst, 3)
    with pytest.raises(LevelOutOfRange, match="r=0"):
        check_level_coupling(gen_random(3, 0, 4, 1000), 0)


def test_custom_start_direction():
    inst = gen_random(8, 4, 4, 1000)
    start = Direction.of(3, 1)
    trace = run_rotation(RotationSpec(Color.RED, 1, start), inst)
    assert trace.spec.start_direction == start
    # same cyclic event multiset as the default start
    default = run_rotation(RotationSpec(Color.RED, 1), inst)
    a = sorted((e.direction.dx, e.direction.dy, e.crossed_id) for e in trace.events)
    b = sorted((e.direction.dx, e.direction.dy, e.crossed_id) for e in default.events)
    assert a == b


def test_trace_jsonl_shape():
    import json

    inst = gen_random(1, 2, 2, 100)
    trace = run_rotation(RotationSpec(Color.RED, 0), inst)
    records = [json.loads(line) for line in trace_to_jsonl(trace)]
    assert len(records) == len(trace.events)
    for rec in records:
        assert set(rec) >= {"dir", "kind", "pivot", "omega"}


def test_transition_flag_is_the_independent_recount(nested_instances, mixed_instances,
                                                    recharge_instances):
    """Every boundary step's O(1) ``balanced_in`` equals the color test and ``is_balanced``.

    Red, blue and random-subset rotations at every level, around the boundaries
    delta - 1, delta and delta + 1, so unbalanced steps and steps through a
    point of the pivot's color are covered too; the walked steps and the
    ones ``antipodal_transitions`` reads off them both.
    """
    seen = set()
    for idx, inst in enumerate(nested_instances + mixed_instances + recharge_instances):
        rng = random.Random(idx)
        for subset in (Color.RED, Color.BLUE,
                       frozenset(rng.sample(range(inst.n), 1 + idx % inst.n))):
            for k in range(len(RotationSpec(subset, 0).resolve(inst))):
                trace = run_rotation(RotationSpec(subset, k), inst)
                for low in (inst.delta - 1, inst.delta, inst.delta + 1):
                    walked = transitions_at(trace, low)
                    mirrored = antipodal_transitions(walked, trace.spec.start_direction, inst)
                    for antipodal, steps in ((False, walked), (True, mirrored)):
                        for t in steps:
                            same = inst.point(t.pivot_before).color is inst.point(t.crossed_id).color
                            expected = not same and is_balanced(t.pivot_before, t.crossed_id, inst)
                            assert t.balanced_in(inst) is expected
                            seen.add((antipodal, same, expected))
    assert seen == {(antipodal, same, expected) for antipodal in (False, True)
                    for same, expected in ((True, False), (False, False), (False, True))}
