from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import support

from balanced_lines.geometry import Color, Side, build_points, is_balanced, swap_colors, validate
from balanced_lines.generators import gen_random, gen_separated_convex
from balanced_lines.oracle import (
    count_balanced,
    enumerate_naive,
    enumerate_sweep,
    lines_to_csv,
    lines_to_json,
    sorted_lines,
)
from balanced_lines.geometry import DirectedLine


def keys(lines):
    return {(l.red_id, l.blue_id) for l in lines}


def test_single_pair():
    inst = validate(build_points([(0, 0, "R"), (1, 1, "B")]))
    assert keys(enumerate_naive(inst)) == {(0, 1)}
    assert keys(enumerate_sweep(inst)) == {(0, 1)}


def test_no_reds_no_lines():
    inst = validate(build_points([(0, 0, "B"), (1, 1, "B")]))
    assert enumerate_naive(inst) == set()
    assert count_balanced(inst) == 0


def test_separated_tightness_small():
    assert count_balanced(gen_separated_convex(3, 3)) == 3
    assert count_balanced(gen_separated_convex(5, 5)) == 5
    assert count_balanced(gen_separated_convex(2, 4)) == 2


def test_weight_certificates():
    inst = gen_random(7, 4, 6, 1000)
    for line in enumerate_naive(inst):
        assert line.weights == (inst.delta, inst.delta)


def test_lower_bound_seeded():
    inst = gen_random(7, 4, 6, 1000)
    assert len(enumerate_naive(inst)) >= 4


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=50, deadline=None)
def test_sweep_equals_naive(seed):
    delta = seed % 4
    r = 1 + seed % 7
    inst = gen_random(seed, r, r + 2 * delta, 1000)
    assert keys(enumerate_sweep(inst)) == keys(enumerate_naive(inst))


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=30, deadline=None)
def test_count_at_least_r(seed):
    delta = seed % 3
    r = 1 + seed % 8
    inst = gen_random(seed, r, r + 2 * delta, 1000)
    assert count_balanced(inst) >= r


def test_specific_seeded_equality():
    inst = gen_random(11, 5, 9, 1000)
    assert keys(enumerate_sweep(inst)) == keys(enumerate_naive(inst))


def test_color_swap_symmetry_when_delta_zero():
    inst = gen_random(23, 5, 5, 1000)
    swapped = swap_colors(inst)
    pairs = {frozenset(k) for k in keys(enumerate_naive(inst))}
    pairs_swapped = {frozenset(k) for k in keys(enumerate_naive(swapped))}
    assert pairs == pairs_swapped


def test_halving_line_exists_for_odd_r():
    inst = gen_random(31, 5, 7, 1000)
    half = (inst.n - 2) // 2
    found = False
    for line in enumerate_naive(inst):
        seg = DirectedLine.through_points(inst, line.red_id, line.blue_id)
        left = sum(1 for p in inst.points if seg.side(p) is Side.LEFT)
        if left == half:
            found = True
            break
    assert found


def test_sorted_lines_canonical():
    inst = gen_random(7, 4, 6, 1000)
    lines = sorted_lines(enumerate_naive(inst))
    assert lines == sorted(lines, key=lambda l: (l.red_id, l.blue_id))


def test_csv_emission():
    inst = gen_separated_convex(2, 2)
    text = lines_to_csv(inst, enumerate_naive(inst))
    rows = text.strip().split("\n")
    assert rows[0] == "# delta=0"
    assert rows[1] == "red_id,blue_id"
    assert len(rows) == 2 + 2


def test_json_emission():
    import json

    inst = gen_separated_convex(2, 4)
    payload = json.loads(lines_to_json(inst, enumerate_naive(inst)))
    assert payload["delta"] == 1
    assert payload["count"] == 2
    assert all(set(e) == {"red", "blue"} for e in payload["lines"])


def _fraction_copy(inst, sx, sy, oy):
    """The instance under the exact map (x, y) -> (sx*x, sy*y + oy)."""
    return validate(build_points((sx * p.x, sy * p.y + oy, p.color) for p in inst.points))


def test_naive_equals_pairwise_on_pools(nested_instances, mixed_instances, recharge_instances):
    for inst in nested_instances + mixed_instances + recharge_instances:
        assert enumerate_naive(inst) == support.pairwise_naive(inst)


@pytest.mark.parametrize("n", [10, 40, 70, 100])
@pytest.mark.parametrize("delta", range(4))
def test_naive_equals_pairwise_random(n, delta):
    inst = gen_random(n + delta, n // 2 - delta, n // 2 + delta, 1000)
    assert enumerate_naive(inst) == support.pairwise_naive(inst)


def test_naive_equals_pairwise_fractions():
    for seed in range(8):
        delta = seed % 4
        inst = _fraction_copy(gen_random(seed, 6 - delta, 6 + delta, 1000),
                              Fraction(3, 7), Fraction(-5, 2), Fraction(1, 3))
        assert any(isinstance(p.x, Fraction) for p in inst.points)
        assert enumerate_naive(inst) == support.pairwise_naive(inst)


def test_is_balanced_equals_naive_membership(nested_instances, mixed_instances,
                                             recharge_instances):
    """The per-line recount and the cubic enumeration agree on every red/blue pair."""
    exact = _fraction_copy(support.gen_nested(4, 8, 6, Color.BLUE),
                           Fraction(3, 7), Fraction(-5, 2), Fraction(1, 3))
    assert any(isinstance(p.x, Fraction) for p in exact.points)
    for inst in nested_instances + mixed_instances + recharge_instances + [exact]:
        naive = {l.key for l in enumerate_naive(inst)}
        for rid in inst.red_ids:
            for bid in inst.blue_ids:
                expected = (rid, bid) in naive
                assert is_balanced(rid, bid, inst) is is_balanced(bid, rid, inst) is expected
