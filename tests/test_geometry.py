from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from balanced_lines.geometry import (
    CollinearTriple,
    Color,
    ColorImbalance,
    DirectedLine,
    Direction,
    DuplicateAbscissa,
    LabeledPoint,
    SameColorPair,
    Side,
    build_points,
    direction_between,
    direction_key_from,
    halfplane_weight,
    instance_from_json,
    instance_to_json,
    is_balanced,
    orientation,
    swap_colors,
    validate,
    weight,
    VERTICAL,
)
from balanced_lines.generators import gen_random, gen_separated_convex

coords = st.integers(min_value=-1000, max_value=1000)


def test_orientation_examples():
    assert orientation((0, 0), (1, 0), (0, 1)) is Side.LEFT
    assert orientation((0, 0), (1, 0), (2, 0)) is Side.ON
    assert orientation((0, 0), (1, 0), (1, -1)) is Side.RIGHT


@given(coords, coords, coords, coords, coords, coords)
@settings(max_examples=60)
def test_orientation_antisymmetric(px, py, qx, qy, sx, sy):
    a = orientation((px, py), (qx, qy), (sx, sy))
    b = orientation((px, py), (sx, sy), (qx, qy))
    assert a is b.flipped


def test_weights():
    assert weight(Color.BLUE) == 1
    assert weight(Color.RED) == -1


def test_validate_minimal():
    inst = validate(build_points([(0, 0, "R"), (1, 1, "B")]))
    assert (inst.r, inst.b, inst.delta) == (1, 1, 0)


def test_validate_collinear():
    with pytest.raises(CollinearTriple) as err:
        validate(build_points([(0, 0, "R"), (1, 0, "R"), (2, 0, "B")]))
    assert err.value.ids == (0, 1, 2)


def test_validate_collinear_diagonal():
    pts = build_points([(0, 0, "R"), (1, 1, "B"), (2, 2, "B"), (3, 0, "B")])
    with pytest.raises(CollinearTriple) as err:
        validate(pts)
    assert err.value.ids == (0, 1, 2)


def test_validate_duplicate_abscissa():
    with pytest.raises(DuplicateAbscissa) as err:
        validate(build_points([(0, 0, "R"), (0, 5, "B")]))
    assert err.value.ids == (0, 1)


def test_validate_imbalance():
    with pytest.raises(ColorImbalance):
        validate(build_points([(0, 0, "R"), (1, 1, "R"), (2, 3, "B")]))
    with pytest.raises(ColorImbalance):
        validate(build_points([(0, 0, "R"), (1, 1, "B"), (2, 3, "B")]))


def test_swap_colors_round_trip():
    inst = gen_random(3, 4, 4, 200)
    swapped = swap_colors(inst)
    assert swapped.r == inst.b and swapped.b == inst.r
    assert swap_colors(swapped).points == inst.points
    with pytest.raises(ColorImbalance):
        swap_colors(gen_random(3, 2, 4, 200))


def test_halfplane_weight_vertical():
    inst = gen_random(5, 3, 5, 500)
    west = min(p.x for p in inst.points) - 1
    line = DirectedLine(west, 0, VERTICAL)
    assert halfplane_weight(line, inst, Side.RIGHT) == 2 * inst.delta
    assert halfplane_weight(line, inst, Side.LEFT) == 0


def test_halfplane_weight_spanning_two_point_instance():
    inst = validate(build_points([(0, 0, "R"), (1, 1, "B")]))
    line = DirectedLine.through_points(inst, 0, 1)
    assert halfplane_weight(line, inst, Side.RIGHT) == 0
    assert halfplane_weight(line, inst, Side.LEFT) == 0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_weight_identity_random_lines(seed):
    # weights on both sides plus the points on the line always sum to 2*delta
    inst = gen_random(seed % 50, 3, 5, 500)
    a = seed % inst.n
    b = (seed // 7) % inst.n
    if a == b:
        b = (b + 1) % inst.n
    line = DirectedLine.through_points(inst, a, b)
    on_line = sum(p.weight for p in inst.points if line.side(p) is Side.ON)
    total = (
        halfplane_weight(line, inst, Side.RIGHT)
        + halfplane_weight(line, inst, Side.LEFT)
        + on_line
    )
    assert total == 2 * inst.delta


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_reversal_swaps_sides(seed):
    inst = gen_random(seed % 50, 4, 4, 500)
    a = seed % inst.n
    b = (seed // 11) % inst.n
    if a == b:
        b = (b + 1) % inst.n
    line = DirectedLine.through_points(inst, a, b)
    rev = line.reversed
    for p in inst.points:
        assert line.side(p) is rev.side(p).flipped


def test_is_balanced_two_points():
    inst = validate(build_points([(0, 0, "R"), (1, 1, "B")]))
    assert is_balanced(0, 1, inst)


def test_is_balanced_same_color():
    inst = gen_random(1, 2, 2, 100)
    with pytest.raises(SameColorPair):
        is_balanced(0, 1, inst)


def test_is_balanced_separated_octagon():
    inst = gen_separated_convex(4, 4)
    hits = [
        (r, b)
        for r in inst.red_ids
        for b in inst.blue_ids
        if is_balanced(r, b, inst)
    ]
    assert len(hits) == 4


def test_direction_normalization_and_cycle():
    assert Direction.of(2, 4) == Direction.of(1, 2)
    assert Direction.of(Fraction(1, 3), Fraction(1, 6)) == Direction.of(2, 1)
    d = Direction.of(-3, 7)
    assert d.antipode.antipode == d
    # counterclockwise from vertical: up, left, down, right
    ranks = [Direction.of(*v).rank for v in [(0, 1), (-1, 1), (-1, 0), (-1, -1),
                                             (0, -1), (1, -1), (1, 0), (1, 1)]]
    assert ranks == sorted(ranks)


def _slope_rank(d):
    """Reference cyclic key from vertical: half turn, then Fraction slope."""
    half = 0 if (d.dx < 0 or (d.dx == 0 and d.dy > 0)) else 1
    if d.dx == 0:
        return (half, 0, Fraction(0))
    return (half, 1, Fraction(d.dy, d.dx))


nonzero_vectors = st.tuples(coords, coords).filter(lambda v: v != (0, 0))


@given(nonzero_vectors, nonzero_vectors)
@settings(max_examples=200)
def test_direction_rank_matches_slope_key(u, v):
    a, b = Direction.of(*u), Direction.of(*v)
    ra, rb = a.rank, b.rank
    sa, sb = _slope_rank(a), _slope_rank(b)
    assert (ra < rb, ra == rb, rb < ra) == (sa < sb, sa == sb, sb < sa)


def test_direction_key_from_orders_full_cycle():
    base = Direction.of(0, 1)
    ring = [(-1, 2), (-1, 0), (-1, -2), (0, -1), (1, -2), (1, 0), (1, 2), (0, 1)]
    keys = [direction_key_from(base, Direction.of(*v)) for v in ring]
    assert keys == sorted(keys)


def test_direction_between():
    u = Direction.of(0, 1)
    v = Direction.of(-1, 0)
    m = direction_between(u, v)
    assert u.cross(m) > 0 and m.cross(v) > 0
    w = direction_between(u, u.antipode)
    assert u.cross(w) > 0
    far = direction_between(Direction.of(0, 1), Direction.of(1, 0))
    assert direction_key_from(u, far) < direction_key_from(u, Direction.of(1, 0))


def test_instance_json_round_trip():
    inst = gen_random(9, 3, 5, 300)
    text = instance_to_json(inst)
    again = instance_from_json(text)
    assert again.points == inst.points
    assert instance_to_json(again) == text


def test_instance_json_rationals():
    pts = [
        ("1/2", "3/4", "R"),
        ("2", "-5/3", "B"),
        ("-7/2", "0.25", "B"),
        ("9", "11", "B"),
    ]
    inst = validate(build_points(pts))
    assert inst.point(0).x == Fraction(1, 2)
    assert inst.point(2).y == Fraction(1, 4)
    text = instance_to_json(inst)
    assert instance_from_json(text).points == inst.points


def test_labeled_point_ids_must_match_positions():
    pts = [LabeledPoint(1, 0, 0, Color.RED), LabeledPoint(0, 1, 1, Color.BLUE)]
    with pytest.raises(Exception):
        validate(pts)
