import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import support

from balanced_lines.geometry import (
    Color,
    GuaranteeViolation,
    Instance,
    Side,
    build_points,
    is_balanced,
    swap_colors,
    validate,
)
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


def test_naive_equals_pairwise_at_the_lane_bound():
    """The red anchor (0, 0) sees the blue corners (1025, 1) and (1, 1025) at
    a cross product of 1025**2 - 1 > 2**20, just under the box product
    W*H = 1025**2: one bit less than ``enumerate_naive``'s lane width would
    carry that lane into the next."""
    inst = validate(build_points([(0, 0, "R"), (700, 650, "R"), (1025, 1, "B"), (1, 1025, "B"),
                                  (500, 300, "B"), (300, 900, "B")]))
    assert enumerate_naive(inst) == support.pairwise_naive(inst)
    assert keys(enumerate_naive(inst)) == {(0, 4), (0, 5), (1, 3), (1, 4)}


def test_left_guard_rejects_a_wrong_delta():
    """An instance built without ``validate`` whose delta is not (b - r)/2:
    pairs right of which lies that delta exist, but their left sides weigh
    2*((b - r)/2) - delta, so the left count of both independent checkers
    must reject every one."""
    inst = gen_random(3, 5, 9, 1000)
    wrong = dataclasses.replace(inst, delta=inst.delta + 1)

    def right_weight(rid, bid):
        line = DirectedLine.through_points(inst, rid, bid)
        return sum(p.weight for p in inst.points if line.side(p) is Side.RIGHT)

    assert any(right_weight(rid, bid) == wrong.delta
               for rid in inst.red_ids for bid in inst.blue_ids)
    assert support.pairwise_naive(wrong) == set()
    assert enumerate_naive(wrong) == set()
    assert not any(is_balanced(rid, bid, wrong) for rid in inst.red_ids for bid in inst.blue_ids)


def test_sweep_keeps_no_fence_table():
    """The sweep builds each red point's rows, walks them and drops them."""
    inst = gen_random(4, 6, 10, 1000)
    assert enumerate_sweep(inst) == enumerate_naive(inst)
    assert inst._fence_table == {}


@pytest.mark.parametrize("flip", [0, 7, -1])
def test_sweep_reversal_guard_catches_a_wrong_side(monkeypatch, flip):
    """One row whose ``right`` is flipped moves the weight after the half
    turn by twice that point's weight, off the reversal ``(b - r + 1) - w0``."""
    inst = gen_random(4, 6, 10, 1000)
    rows_of = Instance.fence_rows

    def flipped(self, pid):
        rows = rows_of(self, pid)
        prefix, ratio, other, num, den, right = rows[flip]
        rows[flip] = (prefix, ratio, other, num, den, not right)
        return rows

    monkeypatch.setattr(Instance, "fence_rows", flipped)
    with pytest.raises(GuaranteeViolation, match="half turn"):
        enumerate_sweep(inst)


@st.composite
def exact_instances(draw):
    """General-position instances of 2-30 points, every delta, with exact coordinates.

    Numerators run up to 2**bits in magnitude, bits from a few to 80, over
    one denominator ``den`` (ints for ``den == 1``), or each coordinate an
    int or a Fraction at random: the naive oracle's lanes run from a few
    bits to about 160.  Points are drawn from a seeded ``random.Random``
    and redrawn when they repeat an abscissa or fall on a line with two
    earlier points.
    """
    r = draw(st.integers(1, 15))
    delta = draw(st.integers(0, 15 - r))
    n = 2 * (r + delta)
    bits = draw(st.integers(n.bit_length() + 1, 80))
    den = draw(st.sampled_from([1, 2, 3, 7, 12, 16]))
    mixed = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))

    def coord():
        m = rng.randint(-2**bits, 2**bits)
        return Fraction(m, den) if not mixed or rng.random() < 0.5 else m

    pts = []
    while len(pts) < n:
        x, y = coord(), coord()
        if any(x == px for px, _ in pts) or any(
                (bx - ax) * (y - ay) == (by - ay) * (x - ax)
                for i, (ax, ay) in enumerate(pts) for bx, by in pts[i + 1:]):
            continue
        pts.append((x, y))
    return validate(build_points(
        (x, y, "R" if i < r else "B") for i, (x, y) in enumerate(pts)
    ))


TIE = 1 << 66  # from (0, 0), (3 * TIE, TIE + 1) and (3, 1) share a slope's 64-bit prefix


@given(exact_instances())
@example(validate(build_points([(0, 0, "R"), (3 * TIE, TIE + 1, "R"), (3, 1, "B"), (1, 5, "B")])))
@settings(max_examples=100, deadline=None)
def test_naive_equals_pairwise_exact(inst):
    """Random drawings almost never tie two 64-bit slope prefixes; the
    example does, at both red anchors, so only the exact ``Ratio`` orders
    the sweep's rows there."""
    lines = enumerate_naive(inst)
    assert lines == support.pairwise_naive(inst)
    assert enumerate_sweep(inst) == lines


MAP_ENTRIES = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@given(exact_instances(), MAP_ENTRIES, MAP_ENTRIES, MAP_ENTRIES, MAP_ENTRIES,
       MAP_ENTRIES, MAP_ENTRIES)
@example(gen_random(5, 3, 7, 1000), -1, 0, 0, 1, 0, 0)
@example(gen_random(6, 4, 6, 1000), 1, 0, 0, -1, 0, 0)
@example(gen_random(7, 4, 4, 1000), 0, 1, 1, 0, 3, -2)
@settings(max_examples=50, deadline=None)
def test_affine_image_keeps_naive_lines(inst, a, b, c, d, e, f):
    """A rational affine map with nonzero determinant keeps the balanced set.

    It keeps collinearity, and it keeps or swaps the two sides of every
    line (a mirror, determinant below 0, swaps them); either way both sides
    of a pair still weigh delta.  Maps that make two abscissae equal are
    skipped.
    """
    assume(a * d != b * c)
    assume(len({a * p.x + b * p.y for p in inst.points}) == inst.n)
    image = support.rational_image(inst, ((a, b), (c, d)), (e, f))
    lines = enumerate_naive(image)
    assert lines == enumerate_naive(inst)
    assert enumerate_sweep(image) == lines
