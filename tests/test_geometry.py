import json
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from balanced_lines.geometry import (
    CollinearTriple,
    Color,
    ColorImbalance,
    DirectedLine,
    Direction,
    DuplicateAbscissa,
    KEY_START,
    LabeledPoint,
    SameColorPair,
    ValidationError,
    _MAX_COORD_CHARS,
    _as_exact,
    build_points,
    ccw_arc_contains,
    direction_between,
    direction_key,
    direction_key_from,
    halfplane_weight,
    instance_from_json,
    instance_to_json,
    is_balanced,
    just_after_keys,
    slope,
    slopes,
    validate,
    VERTICAL,
)
from balanced_lines.generators import (
    _completes_collinear_triple,
    gen_random,
    gen_separated_convex,
)
from balanced_lines.rotation import End, EventKind, RotationEvent
import support
from support import side_just_after

coords = st.integers(min_value=-1000, max_value=1000)


def test_orientation_examples():
    assert support.orientation((0, 0), (1, 0), (0, 1)) is support.Side.LEFT
    assert support.orientation((0, 0), (1, 0), (2, 0)) is support.Side.ON
    assert support.orientation((0, 0), (1, 0), (1, -1)) is support.Side.RIGHT


@given(coords, coords, coords, coords, coords, coords)
@settings(max_examples=60)
def test_orientation_antisymmetric(px, py, qx, qy, sx, sy):
    a = support.orientation((px, py), (qx, qy), (sx, sy))
    b = support.orientation((px, py), (sx, sy), (qx, qy))
    assert a.value == -b.value


def test_weights():
    assert Color.BLUE.weight == 1
    assert Color.RED.weight == -1


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


def _first_collinear_triple(points):
    """Reference: the cubic scan of every triple, in lexicographic order."""
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if support.orientation(points[i], points[j], points[k]) is support.Side.ON:
                    return (i, j, k)
    return None


def _reported_collinear_triple(points):
    try:
        validate(points)
    except CollinearTriple as err:
        return err.ids
    except ColorImbalance:
        pass
    return None


small_ints = st.integers(min_value=-4, max_value=4)
small_fractions = st.builds(
    Fraction, st.integers(min_value=-8, max_value=8), st.integers(min_value=1, max_value=3)
)


@st.composite
def distinct_abscissa_points(draw, coord):
    """Points with distinct x on a small grid, where collinear triples are common.

    Coordinates keep the type drawn (a Fraction may have denominator 1), so
    int and Fraction differences meet inside one instance.
    """
    xs = draw(st.lists(coord, min_size=1, max_size=9, unique=True))
    ys = draw(st.lists(coord, min_size=len(xs), max_size=len(xs)))
    colors = draw(st.lists(st.sampled_from(Color), min_size=len(xs), max_size=len(xs)))
    return [LabeledPoint(i, x, y, c) for i, (x, y, c) in enumerate(zip(xs, ys, colors))]


@given(st.one_of(
    distinct_abscissa_points(small_ints),
    distinct_abscissa_points(small_fractions),
    distinct_abscissa_points(st.one_of(small_ints, small_fractions)),
))
@settings(max_examples=400)
def test_validate_collinear_matches_cubic_scan(points):
    assert _reported_collinear_triple(points) == _first_collinear_triple(points)


def _pairwise_completes(accepted, x, y):
    """Reference: test the candidate against every pair of accepted points."""
    return any(
        (bx - ax) * (y - ay) == (by - ay) * (x - ax)
        for i, (ax, ay) in enumerate(accepted)
        for bx, by in accepted[i + 1:]
    )


@given(
    st.lists(st.tuples(small_ints, small_ints), max_size=8, unique_by=lambda p: p[0]),
    st.tuples(small_ints, small_ints),
)
@settings(max_examples=400)
def test_completes_collinear_triple_matches_pairwise(accepted, candidate):
    x, y = candidate
    if any(ax == x for ax, _ in accepted):
        return  # gen_random redraws a repeated abscissa before this test
    assert _completes_collinear_triple(accepted, x, y) == _pairwise_completes(accepted, x, y)


nonvertical = st.tuples(
    st.one_of(coords, small_fractions).filter(lambda v: v != 0),
    st.one_of(coords, small_fractions),
)


@given(nonvertical, nonvertical)
@settings(max_examples=200)
def test_slope_equal_exactly_when_parallel(u, v):
    assert (slope(*u) == slope(*v)) == (u[0] * v[1] - u[1] * v[0] == 0)


@given(st.data())
@settings(max_examples=300)
def test_slopes_match_slope(data):
    """The batched loop gives the 64-bit prefix of ``slope`` of every difference,
    on ints, Fractions and both."""
    coord = data.draw(st.sampled_from([coords, small_fractions, st.one_of(coords, small_fractions)]))
    px, py = data.draw(coord), data.draw(coord)
    points = data.draw(st.lists(st.tuples(coord.filter(lambda x: x != px), coord), max_size=12))
    expected = []
    for x, y in points:
        num, den = slope(x - px, y - py)
        expected.append((num << 64) // den)
    assert slopes(px, py, points) == expected


def test_validate_large_coordinates_reports_first_triple():
    """Two collinear triples, met in x order in the opposite order to their ids."""
    s = 10**30
    raw = [(7 * s, 2 * s), (3 * s + 1, 9 * s + 4), (5 * s, 0), (-s + 1, -3 * s + 4),
           (6 * s, s), (2 * s + 1, 6 * s + 4), (-2 * s, 5), (4 * s + 3, -7 * s)]
    points = [LabeledPoint(i, x, y, Color.RED if i % 2 else Color.BLUE)
              for i, (x, y) in enumerate(raw)]
    with pytest.raises(CollinearTriple) as err:
        validate(points)
    assert err.value.ids == _first_collinear_triple(points) == (0, 2, 4)
    assert str(err.value) == "points (0, 2, 4) are collinear"
    by_x = sorted(points, key=lambda p: p.x)
    assert {by_x[i].id for i in _first_collinear_triple(by_x)} == {1, 3, 5}


TIE = 1 << 66  # slopes b/a + e/(a*k) with k >= TIE and |e| <= 2 share b/a's 64-bit prefix, or miss it by one


@st.composite
def prefix_tie_points(draw, nudge=st.integers(-2, 2)):
    """Points around a base point, many of whose slopes from it share a 64-bit prefix.

    Around the base ``(px, py)`` (up to 2**80) lie the points
    ``(px + a*k, py + b*k + e)``: a small direction ``(a, b)`` from a
    pool of at most three, a scale ``k`` in [TIE, 4*TIE] and a nudge ``e``.
    Points of one direction see the base at slopes within ``2/TIE`` of
    ``b/a``, so their prefixes tie (or differ by one) while their slopes
    mostly differ; two with ``e == 0`` lie on one line with the base.  All
    coordinates may go over one denominator, so the Fraction path runs too
    (a Fraction that is a whole number stays an int, as ``build_points``
    leaves it).  Abscissae are distinct, and the ids are a drawn
    permutation, so the base may take any of them.
    """
    px, py = draw(st.integers(-2**80, 2**80)), draw(st.integers(-2**80, 2**80))
    pool = draw(st.lists(st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(-3, 3)),
                         min_size=1, max_size=3))
    pts = [(px, py)]
    for _ in range(draw(st.integers(2, 8))):
        a, b = draw(st.sampled_from(pool))
        k = draw(st.integers(TIE, 4 * TIE))
        pts.append((px + a * k, py + b * k + draw(nudge)))
    den = draw(st.sampled_from([1, 1, 3, 7, (1 << 70) + 1]))
    pts = [(Fraction(x, den), Fraction(y, den)) for x, y in pts]
    assume(len({x for x, _ in pts}) == len(pts))
    order = draw(st.permutations(range(len(pts))))
    colors = draw(st.lists(st.sampled_from(Color), min_size=len(pts), max_size=len(pts)))
    return build_points((*pts[i], c) for i, c in zip(order, colors))


big_coords = st.one_of(st.integers(-2**80, 2**80),
                       st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**40)))


@given(big_coords, big_coords, st.lists(st.tuples(big_coords, big_coords), max_size=10))
@settings(max_examples=200)
def test_slopes_are_floors_of_the_exact_slopes(px, py, points):
    """Each prefix is floor(2**64 * dy / dx), on ints up to 2**80 and Fractions."""
    points = [(x, y) for x, y in points if x != px]
    assert slopes(px, py, points) == [math.floor(Fraction(y - py) / (x - px) * 2**64)
                                      for x, y in points]


@given(prefix_tie_points(nudge=st.sampled_from([-2, -1, 1, 2])))
@settings(max_examples=150, deadline=None)
def test_fence_rows_follow_the_exact_slope_order(points):
    """Rows come in the order of ``Fraction(dy, dx)``, with the right prefix and side."""
    points = [LabeledPoint(p.id, p.x, p.y, Color.RED if p.id % 2 else Color.BLUE)
              for p in points[:len(points) // 2 * 2]]
    try:
        inst = validate(points)
    except CollinearTriple:
        assume(False)
    tied = False
    for q in inst.points:
        others = [p for p in inst.points if p.id != q.id]
        exact = sorted(others, key=lambda p: Fraction(p.y - q.y) / (p.x - q.x))
        rows = inst.fence_rows(q.id)
        assert [other for _, other, _ in rows] == [p.id for p in exact]
        assert [(prefix, right) for prefix, _, right in rows] == [
            (math.floor(Fraction(p.y - q.y) / (p.x - q.x) * 2**64), p.x > q.x) for p in exact]
        tied |= len({prefix for prefix, _, _ in rows}) < len(rows)
    event("prefixes tie" if tied else "no tie")


@given(prefix_tie_points())
@settings(max_examples=300, deadline=None)
def test_validate_matches_cubic_scan_on_prefix_ties(points):
    """Accepts exactly the inputs in general position and names the first triple."""
    triple = _first_collinear_triple(points)
    assert _reported_collinear_triple(points) == triple
    event("collinear" if triple else "general position")


@given(prefix_tie_points())
@settings(max_examples=300, deadline=None)
def test_completes_collinear_triple_matches_pairwise_on_prefix_ties(points):
    (x, y), *accepted = [(p.x, p.y) for p in points]
    assert _completes_collinear_triple(accepted, x, y) == _pairwise_completes(accepted, x, y)


def test_prefix_tie_of_distinct_slopes_is_accepted():
    """(0, 0) sees (3*TIE, TIE + 1) and (3, 1) at one 64-bit prefix but two slopes."""
    row = [(3 * TIE, TIE + 1), (3, 1)]
    assert len(set(slopes(0, 0, row))) == 1
    assert slope(*row[0]) != slope(*row[1])
    assert not _completes_collinear_triple(row, 0, 0)
    inst = validate(build_points([(0, 0, "R"), (*row[0], "R"), (*row[1], "B"), (1, 5, "B")]))
    assert [other for _, other, _ in inst.fence_rows(0)] == [2, 1, 3]
    assert _completes_collinear_triple(row + [(6 * TIE, 2 * TIE + 2)], 0, 0)


def test_collinear_triple_above_2_64_is_named_past_a_prefix_tie():
    """From point 0, point 1 ties the prefix of points 2 and 3 at a slope of
    its own, and 2 and 3 lie on one line with 0: the exact grouping must
    part the tie from the triple."""
    raw = [(0, 0), (3 * TIE, TIE + 1), (3 * TIE + 3, TIE + 1), (6 * TIE + 6, 2 * TIE + 2), (1, 5)]
    points = [LabeledPoint(i, x, y, Color.RED if i % 2 else Color.BLUE)
              for i, (x, y) in enumerate(raw)]
    assert len(set(slopes(0, 0, raw[1:4]))) == 1
    with pytest.raises(CollinearTriple) as err:
        validate(points)
    assert err.value.ids == _first_collinear_triple(points) == (0, 2, 3)


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
    swapped = support.swap_colors(inst)
    assert swapped.r == inst.b and swapped.b == inst.r
    assert support.swap_colors(swapped).points == inst.points
    with pytest.raises(ColorImbalance):
        support.swap_colors(gen_random(3, 2, 4, 200))


def test_halfplane_weight_vertical():
    inst = gen_random(5, 3, 5, 500)
    west = min(p.x for p in inst.points) - 1
    line = DirectedLine(west, 0, VERTICAL)
    assert halfplane_weight(line, inst) == 2 * inst.delta
    assert halfplane_weight(support.reversed_line(line), inst) == 0


def test_halfplane_weight_spanning_two_point_instance():
    inst = validate(build_points([(0, 0, "R"), (1, 1, "B")]))
    line = DirectedLine.through_points(inst, 0, 1)
    assert halfplane_weight(line, inst) == 0
    assert halfplane_weight(support.reversed_line(line), inst) == 0


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
    on_line = sum(p.weight for p in inst.points if support.side(line, p) is support.Side.ON)
    total = (
        halfplane_weight(line, inst)
        + halfplane_weight(support.reversed_line(line), inst)
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
    rev = support.reversed_line(line)
    for p in inst.points:
        assert support.side(line, p).value == -support.side(rev, p).value


@st.composite
def int_or_fraction_instances(draw):
    """A small random instance, or its image under an exact affine map to Fractions."""
    r = draw(st.integers(min_value=1, max_value=5))
    inst = gen_random(draw(st.integers(min_value=0, max_value=10_000)),
                      r, r + 2 * draw(st.integers(min_value=0, max_value=2)), 200)
    if draw(st.booleans()):
        inst = validate(build_points(
            (Fraction(p.x, 12) + Fraction(1, 3), Fraction(p.y, 7) - Fraction(2, 5), p.color)
            for p in inst.points
        ))
    return inst


def _two_ids(data, inst):
    a = data.draw(st.integers(min_value=0, max_value=inst.n - 1))
    b = data.draw(st.integers(min_value=0, max_value=inst.n - 1).filter(lambda i: i != a))
    return a, b


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_halfplane_weight_matches_side_recount(data):
    inst = data.draw(int_or_fraction_instances())
    a, b = _two_ids(data, inst)
    lines = [
        DirectedLine.through_points(inst, a, b),
        DirectedLine.pivot_direction(inst, a, Direction.of(*data.draw(nonzero_vectors))),
    ]
    for line in lines:
        for side, read in ((support.Side.RIGHT, line), (support.Side.LEFT, support.reversed_line(line))):
            recount = sum(p.weight for p in inst.points if support.side(line, p) is side)
            assert halfplane_weight(read, inst) == recount


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_rows_and_fence_lines_match_points(data):
    """The rows are the points' coordinates and weights, and each fence is the exact direction.

    Every fence of a point is the primitive integer direction toward or
    away from the other point (through the Fraction path of ``direction_of``
    when the coordinates are Fractions), and ``halfplane_weight``, which
    reads the rows, agrees with a per-point ``side`` recount on the line at
    each fence.
    """
    inst = data.draw(int_or_fraction_instances())
    assert inst.xs == tuple(p.x for p in inst.points)
    assert inst.ys == tuple(p.y for p in inst.points)
    assert inst.ws == tuple(p.weight for p in inst.points)
    q = inst.point(data.draw(st.integers(min_value=0, max_value=inst.n - 1)))
    for _, d, other, head in inst.fences(q.id):
        p = inst.point(other)
        vx, vy = (p.x - q.x, p.y - q.y) if head else (q.x - p.x, q.y - p.y)
        assert type(d) is Direction and math.gcd(d.dx, d.dy) == 1
        assert d.dx * vy == d.dy * vx and d.dx * vx + d.dy * vy > 0
        line = DirectedLine.pivot_direction(inst, q.id, d)
        for side, read in ((support.Side.RIGHT, line), (support.Side.LEFT, support.reversed_line(line))):
            recount = sum(s.weight for s in inst.points if support.side(line, s) is side)
            assert halfplane_weight(read, inst) == recount


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_just_after_keys_match_per_point_rule(data):
    # through a and b the line meets b exactly: ahead of a (a -> b) or behind it (b -> a)
    inst = data.draw(int_or_fraction_instances())
    a, b = _two_ids(data, inst)
    pa, pb = inst.point(a), inst.point(b)
    directions = [
        Direction.of(pb.x - pa.x, pb.y - pa.y),
        Direction.of(pa.x - pb.x, pa.y - pb.y),
        Direction.of(*data.draw(nonzero_vectors)),
    ]
    for d in directions:
        keys = just_after_keys(d, inst.points)
        for p in inst.points:
            if p.id != a:
                right = side_just_after(d, pa.x, pa.y, p.x, p.y) is support.Side.RIGHT
                assert (keys[p.id] < keys[a]) == right


_D = Direction(3, -4)
RECORDS = {
    "direction": (Direction, (3, -4)),
    "line": (DirectedLine, (1, Fraction(1, 2), _D, (0, 1))),
    "event": (RotationEvent, (_D, EventKind.WEIGHT_CHANGE, 0, 0, 1, End.HEAD, 0, 1)),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_record_contract(kind):
    cls, fields = RECORDS[kind]
    record, again = cls(*fields), cls(*fields)
    assert tuple(record) == fields and record == fields  # a plain tuple underneath
    assert record == again and hash(record) == hash(again)
    assert hash(record) == hash(fields)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], fields[0])
    for order in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            order(record, again)


def test_direction_keeps_memo_and_rank():
    Direction.of.cache_clear()
    assert Direction.of(6, -8) is Direction.of(6, -8) == Direction(3, -4)
    assert Direction.of.cache_info().hits == 1
    assert support.rank(VERTICAL) is KEY_START
    west = Direction(-1, 0)
    assert support.rank(west) == direction_key(VERTICAL, west)
    assert repr(west) == "Direction(-1, 0)"
    assert DirectedLine(0, 0, VERTICAL).span == ()


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
    ranks = [support.rank(Direction.of(*v)) for v in [(0, 1), (-1, 1), (-1, 0), (-1, -1),
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
    ra, rb = support.rank(a), support.rank(b)
    sa, sb = _slope_rank(a), _slope_rank(b)
    assert (ra < rb, ra == rb, rb < ra) == (sa < sb, sa == sb, sb < sa)


def test_direction_key_from_orders_full_cycle():
    base = Direction.of(0, 1)
    ring = [(-1, 2), (-1, 0), (-1, -2), (0, -1), (1, -2), (1, 0), (1, 2), (0, 1)]
    keys = [direction_key_from(base, Direction.of(*v)) for v in ring]
    assert keys == sorted(keys)


def _reference_half(base, d):
    """1 strictly left of base, 2 at its antipode, 3 strictly right, 4 at base."""
    c = base.cross(d)
    if c != 0:
        return 1 if c > 0 else 3
    return 4 if base.dx * d.dx + base.dy * d.dy > 0 else 2


def _reference_before(base, u, v):
    """Whether u comes strictly before v counterclockwise from base, base last."""
    hu, hv = _reference_half(base, u), _reference_half(base, v)
    if hu != hv:
        return hu < hv
    return hu in (1, 3) and u.cross(v) > 0


huge = st.integers(min_value=-(1 << 80), max_value=1 << 80)
components = st.one_of(st.integers(min_value=-3, max_value=3), coords, huge)
any_vectors = st.tuples(components, components).filter(lambda v: v != (0, 0))


@given(any_vectors, any_vectors, any_vectors)
@settings(max_examples=400)
def test_direction_key_order_matches_reference(b, u, v):
    base, du, dv = Direction.of(*b), Direction.of(*u), Direction.of(*v)
    ku, kv = direction_key(base, du), direction_key(base, dv)
    assert (ku < kv) == _reference_before(base, du, dv)
    assert (kv < ku) == _reference_before(base, dv, du)
    assert (ku == kv) == (du == dv)


def _arc_contains_by_equality(d_from, d_to, t):
    """``ccw_arc_contains`` as it read with ``Direction ==`` for its endpoints."""
    if t == d_from or t == d_to:
        return True
    kt, kb = (1 if c > 0 else (2 if c == 0 else 3) for c in (d_from.cross(t), d_from.cross(d_to)))
    if kt != kb:
        return kt < kb
    return kt != 2 and t.cross(d_to) > 0


@given(any_vectors, any_vectors, any_vectors)
@settings(max_examples=400)
def test_ccw_arc_contains_matches_endpoint_equality(u, v, w):
    d_from, d_to, t = Direction.of(*u), Direction.of(*v), Direction.of(*w)
    for args in ((d_from, d_to, t), (d_from, d_to, d_from), (d_from, d_to, d_to),
                 (d_from, d_from, t), (d_from, d_to, d_from.antipode)):
        assert ccw_arc_contains(*args) == _arc_contains_by_equality(*args)


def test_direction_key_tied_prefixes_fall_back_to_ratio():
    # num/den = 1 + 2**-65 and 1 + 1/(2**65 + 1): both floor to 2**64 after
    # the 64-bit shift, so only the exact Ratio tells them apart.
    big = 1 << 65
    u = Direction.of(-big, -(big + 1))
    v = Direction.of(-(big + 1), -(big + 2))
    ku, kv = direction_key(VERTICAL, u), direction_key(VERTICAL, v)
    assert ku[:2] == kv[:2] == (1, 1 << 64)
    assert _reference_before(VERTICAL, v, u)
    assert kv < ku and not ku < kv and ku != kv


def test_fences_invariant_under_exact_scaling():
    base = gen_random(5, 6, 8, 1000)
    frac = validate(build_points(
        (Fraction(p.x, 12) + Fraction(1, 3), Fraction(p.y, 12) - Fraction(2, 5), p.color)
        for p in base.points
    ))
    scaled = validate(build_points((60 * p.x, 60 * p.y, p.color) for p in frac.points))
    assert all(isinstance(p.x, int) for p in scaled.points)
    for pid in range(frac.n):
        assert frac.fences(pid) == scaled.fences(pid) == base.fences(pid)


def test_direction_between():
    u = Direction.of(0, 1)
    v = Direction.of(-1, 0)
    m = direction_between(u, v)
    assert u.cross(m) > 0 and m.cross(v) > 0
    w = direction_between(u, u.antipode)
    assert u.cross(w) > 0
    far = direction_between(Direction.of(0, 1), Direction.of(1, 0))
    assert direction_key_from(u, far) < direction_key_from(u, Direction.of(1, 0))
    for d in (u, v, Direction.of(3, -2)):
        with pytest.raises(ValueError, match="empty arc"):
            direction_between(d, d)


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


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10,
)
_exact = st.one_of(
    st.integers(-40, 40),
    st.integers(-40, 40).map(str),
    st.fractions(min_value=-40, max_value=40, max_denominator=12).map(str),
)
_fields = {
    "x": _exact | st.text(alphabet="0123456789-+./eE_ ", max_size=10) | _json_values,
    "y": _exact | st.text(alphabet="0123456789-+./eE_ ", max_size=10) | _json_values,
    "color": st.sampled_from(["R", "B", "r", "G"]) | _json_values,
}
_good_points = st.lists(
    st.fixed_dictionaries({"x": _exact, "y": _exact, "color": st.sampled_from(["R", "B"])}),
    min_size=2, max_size=6)


@st.composite
def _one_field_off(draw):
    """Well-formed points with one field replaced, dropped or added."""
    points = draw(_good_points)
    point = points[draw(st.integers(0, len(points) - 1))]
    field = draw(st.sampled_from([*_fields, "extra"]))
    if draw(st.booleans()):
        point.pop(field, None)
    else:
        point[field] = draw(_fields.get(field, _json_values))
    return points


_documents = st.one_of(
    st.fixed_dictionaries({"points": _good_points}).map(json.dumps),
    st.fixed_dictionaries({"points": _one_field_off()}).map(json.dumps),
    st.fixed_dictionaries({"points": st.lists(
        st.fixed_dictionaries({}, optional=_fields) | _json_values, max_size=4)}).map(json.dumps),
    _json_values.map(json.dumps),
    st.text(max_size=30),
    st.binary(max_size=30),
)


@given(_documents)
@settings(max_examples=400, deadline=None)
def test_instance_documents_load_or_raise_validation_error(text):
    """A document, whole or in its point fields, loads and round-trips, or raises ValidationError.

    Any other exception escaping ``instance_from_json`` fails the property.
    """
    try:
        inst = instance_from_json(text)
    except ValidationError:
        return
    again = instance_to_json(inst)
    assert instance_from_json(again).points == inst.points
    assert instance_to_json(instance_from_json(again)) == again


def test_labeled_point_ids_must_match_positions():
    pts = [LabeledPoint(1, 0, 0, Color.RED), LabeledPoint(0, 1, 1, Color.BLUE)]
    with pytest.raises(Exception):
        validate(pts)


def test_coordinate_strings_are_capped():
    """Strings are capped before parsing; then an int, a parsed string or a
    Fraction loads exactly when the string ``instance_to_json`` writes for
    it fits in 1000 characters."""
    assert build_points([("1e3", "-2.5E+2", "R")])[0].x == 1000
    for v in ("1e999999999", "1E-1001", "1e+1_000_000", "1" * 1001, 10**1000, -10**999,
              "1e1000", "1e-999", Fraction(1, 10**998), Fraction(10**1000)):
        with pytest.raises(ValidationError):
            build_points([(v, "0", "R")])
    for v in (10**1000 - 1, -(10**999 - 1), "1e999", Fraction(-1, 10**996)):
        assert len(str(build_points([(v, "0", "R")])[0].x)) == 1000


def _outcome(parse, text):
    try:
        v = parse(text)
    except Exception as exc:  # the error class is the outcome compared
        return type(exc)
    return type(v), v


def _as_exact_via_fraction(text):
    """``_as_exact`` of a string without an exponent, parsed by ``Fraction`` after the cap."""
    if len(text) > _MAX_COORD_CHARS:
        raise ValidationError("over the cap")
    return _as_exact(Fraction(text))


@given(st.sampled_from(["", "-"]), st.text("0123456789", max_size=1005))
@example("", "9" * 1000)
@example("-", "9" * 999)
@example("", "9" * 1001)
@example("-", "0" * 1000)
@example("", "")
@example("-", "")
@settings(max_examples=200)
def test_digit_strings_parse_as_int_or_fraction_alike(sign, digits):
    """A signed digit string, parsed by ``int``, gives the value or the error ``Fraction`` gives."""
    text = sign + digits
    assert _outcome(_as_exact, text) == _outcome(_as_exact_via_fraction, text)


COORD_ALPHABET = "0123456789+-_.eE/ \u0663"  # the last is ARABIC-INDIC DIGIT THREE


@given(st.text(COORD_ALPHABET, max_size=8),
       st.sampled_from([0, 1, 2, 994, 996, 997, 998, 999, 1000, 1001]),
       st.text(COORD_ALPHABET, max_size=8))
@example("1_000", 0, "")
@example(" 5", 0, "")
@example("+5", 0, "")
@example("\u0663", 0, "")
@example("+", 1000, "")
@example(" ", 1000, "")
@example("1_", 999, "")
@example("-", 1000, "")
@example("", 1001, "")
@example("1e", 2, "")
@settings(max_examples=300)
def test_as_exact_decides_digit_strings_first_as_before(head, zeros, tail):
    """Deciding digit strings before the exponent changes no value and no error.

    Strings of digits, signs, underscores, points, exponents, slashes,
    spaces and a non-ASCII digit, some padded with zeros to the length cap,
    give the value and type, or the error class, of the exponent-first
    parse in ``support``.
    """
    text = head + "0" * zeros + tail
    assert _outcome(_as_exact, text) == _outcome(support.exponent_first_as_exact, text)


@pytest.mark.parametrize("coords", [
    [(0, 3), (7, -2), (-5, 11), (12, 40)],
    [(Fraction(1, 2), Fraction(-7, 3)), (-4, Fraction(9, 5)), (Fraction(-13, 6), 2), (3, 1)],
    [(Fraction(5), Fraction(-8)), (Fraction(1, 3), 4), (-10**40, Fraction(3, 10**20)),
     (Fraction(-2), 17)],
], ids=["ints", "fractions", "fraction-integers"])
def test_instance_json_writes_the_canonical_fraction_string(coords):
    """``instance_to_json`` writes each coordinate as ``str(Fraction(v))``,
    also for a ``Fraction`` with denominator 1 held by a ``LabeledPoint``."""
    colors = (Color.RED, Color.BLUE, Color.BLUE, Color.BLUE)
    inst = validate([LabeledPoint(i, x, y, c) for i, ((x, y), c) in enumerate(zip(coords, colors))])
    written = json.loads(instance_to_json(inst))["points"]
    assert [(w["x"], w["y"]) for w in written] == [
        (str(Fraction(x)), str(Fraction(y))) for x, y in coords]


def test_instance_json_round_trip_at_the_coordinate_cap():
    """Coordinates whose canonical strings are 1000 characters long, from
    JSON numbers and from strings, are written and read back unchanged."""
    top, low = 10**1000 - 1, -(10**999 - 1)
    text = ('{"points":[{"x":%d,"y":0,"color":"R"},{"x":%d,"y":"%s","color":"B"}]}'
            % (top, low, Fraction(-1, 10**996)))
    inst = instance_from_json(text)
    assert (inst.point(0).x, inst.point(1).x) == (top, low)
    again = instance_to_json(inst)
    assert instance_from_json(again).points == inst.points


@pytest.mark.parametrize("coords", [
    [("1", "2"), (3, 5)],
    [(0, 0), (3, 5), (1, "7")],
    [(0, 0), (3, 5), (1, 7), (2.5, 1)],
    [(0, 0), (True, 5)],
], ids=["n2-str", "n3-str", "n4-float", "n2-bool"])
def test_validate_rejects_inexact_coordinates(coords):
    pts = [LabeledPoint(i, x, y, Color.BLUE) for i, (x, y) in enumerate(coords)]
    with pytest.raises(ValidationError, match="not int or Fraction"):
        validate(pts)
