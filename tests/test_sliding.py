import pytest

import support

from balanced_lines.geometry import (
    Color,
    DirectedLine,
    Direction,
    VERTICAL,
    build_points,
    halfplane_weight,
    validate,
)
from balanced_lines.generators import gen_random, gen_separated_convex
from balanced_lines.rotation import RotationSpec, run_rotation
from balanced_lines.sliding import (
    InvalidCurve,
    NotPositivelyOriented,
    RotateArc,
    Slide,
    SlidingRotation,
    _curve_through,
    curve_pieces,
    evaluate_at,
    is_delta_preserving_sliding,
    is_positively_oriented,
    lift_rotation,
    sliding_profile,
    validate_curve,
    waist,
)
from balanced_lines.gamma import build_shift


def lifted(inst, color, k, start=None):
    spec = RotationSpec(color, k) if start is None else RotationSpec(color, k, start)
    return lift_rotation(run_rotation(spec, inst), color)


def test_lift_is_valid_curve():
    inst = gen_random(3, 5, 5, 1000)
    for k in range(2):
        sr = lifted(inst, Color.RED, k)
        validate_curve(sr, inst)


def test_profile_matches_trace_and_recount():
    inst = gen_random(3, 4, 6, 1000)
    for color, k in [(Color.RED, 0), (Color.RED, 1), (Color.BLUE, 2)]:
        trace = run_rotation(RotationSpec(color, k), inst)
        sr = lift_rotation(trace, color)
        prof = sliding_profile(sr, inst)
        omegas = [w for _, w in prof]
        assert min(omegas) == min(support.omega_values(trace))
        assert max(omegas) == max(support.omega_values(trace))
        for line, w in prof:
            assert halfplane_weight(line, inst) == w


def test_evaluate_at_plain_rotation():
    inst = gen_random(3, 4, 4, 1000)
    trace = run_rotation(RotationSpec(Color.RED, 1), inst)
    sr = lift_rotation(trace, Color.RED)
    for d, pivot, _ in list(support.interval_representatives(trace))[::2]:
        line = evaluate_at(sr, inst, d)
        assert support.line_contains(line, inst.point(pivot))
        right = sum(
            1
            for i in inst.red_ids
            if i != pivot and support.side(line, inst.point(i)) is support.Side.RIGHT
        )
        assert right == 1


def test_positivity_shortcut_families():
    inst = gen_random(3, 7, 7, 1000)
    for k in range(inst.r):
        sr = lifted(inst, Color.RED, k)
        assert is_positively_oriented(sr, inst) == (2 * k + 2 <= inst.r)


def test_positivity_middle_level_odd():
    inst = gen_random(11, 5, 5, 1000)
    sr = lifted(inst, Color.RED, 2)
    assert not is_positively_oriented(sr, inst)


def test_waist_matches_brute_force():
    inst = gen_random(3, 7, 7, 1000)
    for k in (0, 1, 2):
        sr = lifted(inst, Color.RED, k)
        w = waist(sr, inst)
        assert w.value == support.brute_waist(sr, inst)
        assert w.value == len(w.witnesses)
        assert set(w.witnesses) <= set(inst.red_ids)


def test_waist_on_separated():
    inst = gen_separated_convex(5, 5)
    sr = lifted(inst, Color.RED, 0)
    w = waist(sr, inst)
    assert w.value == support.brute_waist(sr, inst)
    assert w.value <= inst.r - 2


def test_waist_requires_positive_orientation():
    inst = gen_random(11, 5, 5, 1000)
    sr = lifted(inst, Color.RED, 2)
    with pytest.raises(NotPositivelyOriented):
        waist(sr, inst)


def test_waist_stops_where_the_lines_cross():
    """Half turns about two points a and b: the lines at t and t + pi cross where a's meets b.

    Each curve bounds a strip at its start, so only the crossing inside the
    walk's one piece can end it, with the error the linear scan raises.
    """
    inst = gen_random(3, 7, 7, 1000)
    xs = inst.xs
    for a in inst.red_ids:
        for b in inst.red_ids:
            if xs[a] <= xs[b]:
                continue  # a right of b, seen looking up: a strip at the start
            sr = _curve_through([(VERTICAL, a), (VERTICAL.antipode, b)], Color.RED)
            validate_curve(sr, inst)
            first = support.linear_half_cycle_representatives(sr, inst)[0]
            low, high = evaluate_at(sr, inst, first), evaluate_at(sr, inst, first.antipode)
            assert low.offset(first) < high.offset(first)
            with pytest.raises(NotPositivelyOriented) as expected:
                support.linear_waist(sr, inst)
            with pytest.raises(NotPositivelyOriented) as got:
                waist(sr, inst)
            assert str(got.value) == str(expected.value)


def test_sliding_preserving_matches_trace_condition():
    for inst in [gen_random(3, 5, 7, 1000), gen_random(4, 6, 6, 1000)]:
        for color in (Color.RED, Color.BLUE):
            m = len(inst.ids_of(color))
            for k in range(m):
                trace = run_rotation(RotationSpec(color, k), inst)
                sr = lift_rotation(trace, color)
                expected = (
                    max(support.omega_values(trace)) <= inst.delta
                    if color is Color.RED
                    else min(support.omega_values(trace)) >= inst.delta
                )
                assert is_delta_preserving_sliding(sr, inst) == expected


def hand_built_slide_curve():
    """Two reds joined by vertical slides; blues sit between the two lines."""
    inst = validate(build_points([
        (0, 0, "R"), (10, 1, "R"), (4, 7, "B"), (6, -5, "B"),
    ]))
    up = Direction.of(0, 1)
    down = up.antipode
    return inst, SlidingRotation(((up, 1), (down, 0)), Color.RED)


def test_hand_built_curve_valid():
    inst, sr = hand_built_slide_curve()
    validate_curve(sr, inst)
    support.assert_pieces_join(sr, inst)
    up = Direction.of(0, 1)
    assert list(curve_pieces(sr, inst)) == [
        RotateArc(1, up, up.antipode), Slide(up.antipode, 1, 0),
        RotateArc(0, up.antipode, up), Slide(up, 0, 1),
    ]


def test_evaluate_at_slide_returns_leftmost():
    inst, sr = hand_built_slide_curve()
    up = Direction.of(0, 1)
    line = evaluate_at(sr, inst, up)
    # offsets: the line through point 0 is left of the line through point 1
    assert support.line_contains(line, inst.point(0))
    down = up.antipode
    line2 = evaluate_at(sr, inst, down)
    assert support.line_contains(line2, inst.point(1))


def test_slide_weights_in_profile():
    inst, sr = hand_built_slide_curve()
    prof = sliding_profile(sr, inst)
    for line, w in prof:
        assert halfplane_weight(line, inst) == w
    # the first slide sweeps past both blues, one interval per band
    slide_weights = [w for line, w in prof if line.direction == Direction.of(0, 1)
                     and not support.points_on(inst, line)]
    assert sorted(slide_weights) == [-1, 0, 1]
    assert not is_delta_preserving_sliding(sr, inst)


def test_validate_curve_rejects_gaps():
    """A lone anchor, two anchors at one direction, and an anchor off the subset."""
    inst = gen_random(3, 4, 4, 1000)
    up = Direction.of(0, 1)
    blue = inst.blue_ids[0]
    for anchors, reason in ((((up, 0),), "two anchors"),
                            (((up, 0), (up, 1)), "exactly one turn"),
                            (((up, 0), (up.antipode, blue)), "outside the subset")):
        with pytest.raises(InvalidCurve, match=reason):
            validate_curve(SlidingRotation(anchors, Color.RED), inst)


def test_validate_curve_rejects_double_turn():
    inst = gen_random(3, 5, 5, 1000)
    sr = lifted(inst, Color.RED, 0)
    validate_curve(sr, inst)
    twice = SlidingRotation(sr.anchors + sr.anchors, Color.RED)
    with pytest.raises(InvalidCurve, match="exactly one turn"):
        validate_curve(twice, inst)


def test_shift_curve_structure():
    # blues surround the single red, so a nearest-blue-right always exists
    inst = support.gen_nested(5, 1, 5, Color.RED)
    assert inst.r == 1 and inst.b == 5
    trace = run_rotation(RotationSpec(Color.RED, 0), inst)
    sr = build_shift(inst, trace, Color.BLUE)
    assert sr is not None
    validate_curve(sr, inst)
    assert sr.subset_color is Color.BLUE
    # every curve line passes through the nearest blue strictly right of the
    # rotating line at the same direction
    for t, pivot, _ in list(support.interval_representatives(trace))[::2]:
        g = inst.point(pivot)
        o_line = t.dx * g.y - t.dy * g.x
        best = None
        for bid in inst.blue_ids:
            p = inst.point(bid)
            o = t.dx * p.y - t.dy * p.x
            if o < o_line and (best is None or o > best[0]):
                best = (o, bid)
        line = evaluate_at(sr, inst, t)
        assert support.line_contains(line, inst.point(best[1]))
