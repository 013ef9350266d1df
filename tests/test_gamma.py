import pytest

from balanced_lines.geometry import Color
from balanced_lines.generators import gen_random, gen_separated_convex
from balanced_lines.gamma import (
    Gamma,
    decompose_fhg,
    find_gamma,
    plain_candidates,
    transition_low,
)
from balanced_lines.rotation import RotationSpec, run_rotation
from balanced_lines.sliding import (
    NotDeltaPreserving,
    is_delta_preserving_sliding,
    is_positively_oriented,
    lift_rotation,
    validate_curve,
    waist,
)


def test_separated_has_no_candidates():
    for r, b in [(4, 4), (3, 5), (2, 4)]:
        inst = gen_separated_convex(r, b)
        assert plain_candidates(inst) == []
        assert find_gamma(inst) is None


def test_uniform_random_often_empty_family():
    inst = gen_random(7, 4, 6, 1000)
    gamma = find_gamma(inst)
    if gamma is None:
        assert plain_candidates(inst) == []
    else:
        validate_curve(gamma.sr, inst)


def test_nested_instances_have_gamma(nested_instances):
    found = 0
    for inst in nested_instances:
        gamma = find_gamma(inst)
        if gamma is None:
            continue
        found += 1
        validate_curve(gamma.sr, inst)
        assert is_delta_preserving_sliding(gamma.sr, inst)
        assert is_positively_oriented(gamma.sr, inst)
        assert waist(gamma.sr, inst).value == gamma.waist.value
    assert found >= len(nested_instances) // 2


def test_gamma_minimal_over_all_plain_rotations(nested_instances):
    """Exhaustive check: no plain rotation of any level or color beats it."""
    for inst in nested_instances[:8]:
        gamma = find_gamma(inst)
        if gamma is None:
            continue
        for color in (Color.RED, Color.BLUE):
            ids = inst.ids_of(color)
            for k in range(len(ids)):
                trace = run_rotation(RotationSpec(color, k), inst)
                sr = lift_rotation(trace, inst, color)
                if not is_delta_preserving_sliding(sr, inst):
                    continue
                if not is_positively_oriented(sr, inst):
                    continue
                assert gamma.waist.value <= waist(sr, inst).value


def test_gamma_prefers_red_on_ties(nested_instances):
    for inst in nested_instances:
        gamma = find_gamma(inst)
        if gamma is None:
            continue
        reds = [c for c in plain_candidates(inst) if c.color is Color.RED]
        if reds and gamma.color is Color.BLUE:
            assert min(c.waist.value for c in reds) > gamma.waist.value


def test_decompose_partition(nested_instances):
    for inst in nested_instances:
        gamma = find_gamma(inst)
        if gamma is None:
            continue
        f_ids, h_ids, g_ids = decompose_fhg(inst, gamma)
        subset = set(inst.ids_of(gamma.color))
        assert set(f_ids) | set(h_ids) | set(g_ids) == subset
        assert not set(f_ids) & set(h_ids)
        assert not set(f_ids) & set(g_ids)
        assert not set(h_ids) & set(g_ids)
        assert len(g_ids) == gamma.waist.value
        assert frozenset(g_ids) == gamma.waist.witnesses
        # the achieving lines pass through points of the two flanks
        assert gamma.waist.line_low.span[0] in f_ids
        assert gamma.waist.line_high.span[0] in h_ids


def test_decompose_requires_preserving():
    inst = gen_random(3, 7, 7, 1000)
    trace = run_rotation(RotationSpec(Color.RED, 0), inst)
    sr = lift_rotation(trace, inst, Color.RED)
    assert not is_delta_preserving_sliding(sr, inst)
    fake = Gamma(sr, waist(sr, inst), "plain", 0)
    with pytest.raises(NotDeltaPreserving):
        decompose_fhg(inst, fake)


def test_transition_low():
    assert transition_low(Color.RED, 2) == 2
    assert transition_low(Color.BLUE, 2) == 1


def test_empty_family_implies_no_preserving_red_rotation(
    small_random_pool, separated_instances
):
    """The direct accounting path is valid exactly because an empty family
    forces every red level rotation to cross the boundary weight."""
    from balanced_lines.rotation import is_delta_preserving

    for inst in small_random_pool[:25] + separated_instances:
        if find_gamma(inst) is not None:
            continue
        for k in range(inst.r):
            trace = run_rotation(RotationSpec(Color.RED, k), inst)
            assert not is_delta_preserving(trace, inst)
