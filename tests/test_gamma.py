import dataclasses
from collections import Counter
from pathlib import Path

import pytest

import support

from balanced_lines import gamma as gamma_module
from balanced_lines import sliding as sliding_module
from balanced_lines.geometry import Color, GuaranteeViolation, direction_key, instance_from_json
from balanced_lines.generators import gen_random, gen_separated_convex
from balanced_lines.gamma import (
    _outermost_meetings,
    _validated,
    build_splice,
    decompose_fhg,
    find_gamma,
    plain_candidates,
    surgery_candidates,
)
from balanced_lines.rotation import (
    EventKind,
    RotationSpec,
    _preserves_delta,
    run_rotation,
    transition_low,
    walk_rotation,
)
from balanced_lines.sliding import (
    evaluate_at,
    is_delta_preserving_sliding,
    is_positively_oriented,
    lift_rotation,
    validate_curve,
    waist,
)


def test_separated_has_no_candidates():
    for r, b in [(4, 4), (3, 5), (2, 4)]:
        inst = gen_separated_convex(r, b)
        assert plain_candidates(inst) is None
        assert find_gamma(inst) is None


def test_uniform_random_often_empty_family():
    inst = gen_random(7, 4, 6, 1000)
    gamma = find_gamma(inst)
    if gamma is None:
        assert plain_candidates(inst) is None
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
                sr = lift_rotation(trace, color)
                if not is_delta_preserving_sliding(sr, inst):
                    continue
                if not is_positively_oriented(sr, inst):
                    continue
                assert gamma.waist.value <= waist(sr, inst).value


def _preserving_levels(inst, color):
    """The levels of the color class whose rotation preserves delta, with their traces."""
    for k in range(len(inst.ids_of(color))):
        trace = run_rotation(RotationSpec(color, k), inst)
        if _preserves_delta(color, support.omega_values(trace), inst.delta):
            yield k, trace


def test_gamma_prefers_red_on_ties(nested_instances, mixed_instances):
    """No preserving, positively oriented red lift beats gamma, nor ties a blue one.

    The red waists are walked on every level's lift, not read from
    ``plain_candidates``, which lifts only the winning level.
    """
    compared = 0
    for inst in nested_instances + mixed_instances:
        gamma = find_gamma(inst)
        if gamma is None:
            continue
        reds = [lift_rotation(trace, Color.RED)
                for _, trace in _preserving_levels(inst, Color.RED)]
        red_waists = [waist(sr, inst).value for sr in reds if is_positively_oriented(sr, inst)]
        if red_waists:
            assert min(red_waists) >= gamma.waist.value
            if gamma.color is Color.BLUE:
                assert min(red_waists) > gamma.waist.value
            compared += 1
    assert compared


def _rule_pool():
    pool = support.nested_pool() + support.recharge_pool() + support.mixed_pool()
    for seed in range(100):
        r = 2 + seed % 13
        pool.append(gen_random(seed, r, r + 2 * (seed % 4), 10**4))
    return pool


def test_preserving_plain_levels_have_closed_form_waist():
    """Every preserving level k < (m - 1) // 2 lifts to a member of waist m - 2k - 2.

    ``plain_candidates`` ranks the levels by this waist and lifts only the
    winner.
    """
    levels = 0
    for inst in _rule_pool():
        for color in (Color.RED, Color.BLUE):
            m = len(inst.ids_of(color))
            for k, trace in _preserving_levels(inst, color):
                if k >= (m - 1) // 2:
                    continue
                cand = _validated(lift_rotation(trace, color), inst, "plain", k)
                assert cand is not None
                assert cand.waist.value == m - 2 * k - 2
                levels += 1
    assert levels > 50


def test_plain_candidates_match_exhaustive_ranking():
    """The best-first walk picks the winner of ranking every level in full, red first on ties."""
    found = 0
    for inst in _rule_pool():
        expected = support.ranked_plain_winner(inst)
        best = plain_candidates(inst)
        assert (None if best is None else (best.color, best.level)) == expected
        found += expected is not None
    assert found > 30


def test_plain_search_walks_one_rotation_per_waist(
        nested_instances, mixed_instances, recharge_instances, monkeypatch):
    """The walks start at red levels from the highest down, each followed at most by blue level + delta.

    Red level k and blue level k + delta share a waist, and the red
    initial weight tells which of the two may preserve delta.
    """
    walk = gamma_module.walk_rotation
    blues = 0
    for inst in nested_instances + mixed_instances + recharge_instances:
        starts = []

        def spy(spec, inst):
            starts.append((spec.subset, spec.level))
            return walk(spec, inst)

        with monkeypatch.context() as mp:
            mp.setattr(gamma_module, "walk_rotation", spy)
            plain_candidates(inst)
        k, i = (inst.r - 1) // 2 - 1, 0
        while i < len(starts):
            assert starts[i] == (Color.RED, k)
            if i + 1 < len(starts) and starts[i + 1][0] is Color.BLUE:
                assert starts[i + 1] == (Color.BLUE, k + inst.delta)
                blues += 1
                i += 1
            k, i = k - 1, i + 1
    assert blues


def test_plain_search_leaves_the_other_colour_unwalked():
    """No fence of a point of the colour opposite to gamma's is built by the search.

    The search stops that colour's levels at their initial weight, before
    the walk reads a fence; the surgery and the checks walk only gamma's
    colour.
    """
    searched = opposite = 0
    for inst in support.nested_pool():
        gamma = find_gamma(inst)
        if gamma is None:
            continue
        ids = set(inst.ids_of(support.opposite(gamma.color)))
        assert not ids & set(inst._fence_table)
        searched += 1
        opposite += len(ids)
    assert searched and opposite > 100


def _skip_weight_step(inst, spec, rising):
    """Drop the fence of the walk's first weight step up (or down) from its pivot's fences.

    Returns whether the walk has such a step.
    """
    ev = next((ev for ev in run_rotation(spec, inst).events if ev.kind is EventKind.WEIGHT_CHANGE
               and (ev.omega_after > ev.omega_before) == rising), None)
    if ev is None:
        return False
    inst._fence_table[ev.pivot_before] = tuple(
        f for f in inst.fences(ev.pivot_before) if (f[1], f[2]) != (ev.direction, ev.crossed_id))
    return True


def test_drained_walk_with_a_corrupted_fence_fails_to_close():
    """A skipped weight step leaves the walk off its start weight; draining it raises."""
    inst = gen_random(5, 6, 8, 1000)
    spec = RotationSpec(Color.RED, 2)
    assert _skip_weight_step(inst, spec, True)
    with pytest.raises(GuaranteeViolation):
        run_rotation(spec, inst)
    walk = walk_rotation(spec, inst)
    for _ in range(3):
        next(walk)  # a walk stopped early checks nothing
    with pytest.raises(GuaranteeViolation):
        for _ in walk:
            pass


def test_plain_winner_drained_with_a_corrupted_fence_raises():
    """The winning level's walk is drained, so a corrupted fence of it raises.

    The skipped step moves the weights after it away from delta, so the
    level still preserves and is drained.
    """
    corrupted = 0
    for inst in support.mixed_pool() + support.recharge_pool():
        best = plain_candidates(inst)
        if best is None:
            continue
        if _skip_weight_step(inst, RotationSpec(best.color, best.level), best.color is Color.RED):
            with pytest.raises(GuaranteeViolation, match="failed to close"):
                plain_candidates(inst)
            corrupted += 1
    assert corrupted >= 4


def _splice_pool():
    """Nested, recharge and mixed instances and 300 random ones, with 150 mixed for volume.

    Few random instances have a curve at all, and the mixed ones spawn
    about four splices each.
    """
    pool = support.nested_pool() + support.recharge_pool() + support.mixed_pool()
    for seed in range(300):
        r = 2 + seed % 13
        pool.append(gen_random(seed, r, r + 2 * (seed % 4), 10**4))
    for i in range(150):
        r = 10 + i % 9
        pool.append(support.gen_mixed(300 + i, r, r + 2 * (i % 4), (i % 5) / 4.0))
    return pool


def _rule_branch(inst, best, trace):
    """Which branch of ``build_splice``'s rule decides the splice of this strip trace."""
    theta = trace.start_direction
    bad = [(u, v) for u, v, _, w in trace.intervals()
           if not _preserves_delta(best.color, (w,), inst.delta)]
    ends = _outermost_meetings(inst, best.sr, trace)
    if not bad:
        return "no interval bad"
    if bad[0][0] == theta:
        return "first interval bad"
    if ends is None:
        return "fewer than two meetings"
    if direction_key(theta, ends[0]) > direction_key(theta, bad[0][0]):
        return "t1 after the first bad interval"
    if direction_key(theta, ends[1]) < direction_key(theta, bad[-1][1]):
        return "t2 before the last bad interval"
    return "bad intervals between the meetings"


def test_built_splice_strip_is_inside_g():
    """The cap of ``surgery_candidates``: at theta a built splice's strip is a proper subset of G.

    Every strip rotation the search runs on the nested, mixed and recharge
    pools, the n = 40 family and the random instances of
    ``test_angular_index``'s search log; only those ``build_splice``
    builds.
    """
    instances = support.nested_pool() + support.mixed_pool() + support.recharge_pool()
    instances += [support.gen_nested(1, 16, 24, Color.RED), support.gen_nested(2, 20, 20, Color.BLUE),
                  support.gen_mixed(3, 16, 24, 0.5)]
    instances += [gen_random(seed, 2 + seed % 7, 2 + seed % 7 + 2 * (seed % 4), 1000) for seed in range(50)]
    built = 0
    for inst in instances:
        for best, trace in support.strip_traces(inst):
            sr = build_splice(inst, best, trace)
            if sr is None:
                continue
            theta = best.waist.achieved_at
            o_low = evaluate_at(sr, inst, theta).offset(theta)
            o_high = evaluate_at(sr, inst, theta.antipode).offset(theta)
            strip = {i for i in inst.ids_of(best.color)
                     if o_low < theta.offset(inst.xs[i], inst.ys[i]) < o_high}
            assert strip < best.waist.witnesses
            built += 1
    assert built > 10


def test_splice_rule_matches_profile_walk():
    """The trace rule keeps a splice exactly when its profile preserves delta.

    Every strip trace of the search, from each round's best curve: the
    rule's verdict (``build_splice``) against the full preservation walk
    of the splice assembled whatever its profile, over every branch of the
    rule.
    """
    branches = Counter()
    for inst in _splice_pool():
        for best, trace in support.strip_traces(inst):
            sr = support.assemble_splice(inst, best, trace)
            kept = build_splice(inst, best, trace)
            assert (kept is not None) == is_delta_preserving_sliding(sr, inst)
            assert kept in (None, sr)
            branches[_rule_branch(inst, best, trace), kept is not None] += 1
    assert sum(branches.values()) >= 800
    assert set(branches) == {
        ("no interval bad", True),
        ("first interval bad", False),
        ("fewer than two meetings", False),
        ("t1 after the first bad interval", False),
        ("t2 before the last bad interval", False),
        ("bad intervals between the meetings", True),
    }


def test_plain_waist_mismatch_raises(monkeypatch, nested_instances):
    inst = next(inst for inst in nested_instances if plain_candidates(inst) is not None)

    def one_more(sr, inst):
        w = waist(sr, inst)
        return dataclasses.replace(w, value=w.value + 1)

    monkeypatch.setattr(gamma_module, "waist", one_more)
    with pytest.raises(GuaranteeViolation):
        plain_candidates(inst)


def _coupled_lift(inst):
    """The plain winner and the lift of its coupled level, which shares its waist and breaks delta.

    Red level k and blue level k + delta have one waist, and at most one of
    them preserves delta (``rotation.check_level_coupling``), so the level
    coupled with the winner does not.
    """
    best = plain_candidates(inst)
    if best.color is Color.RED:
        color, level = Color.BLUE, best.level + inst.delta
    else:
        color, level = Color.RED, best.level - inst.delta
    sr = lift_rotation(run_rotation(RotationSpec(color, level), inst), color)
    assert is_positively_oriented(sr, inst) and not is_delta_preserving_sliding(sr, inst)
    assert waist(sr, inst).value == best.waist.value
    return best, sr


def test_plain_winner_breaking_delta_raises(monkeypatch, nested_instances):
    """A plain winner whose own walk breaks delta is a GuaranteeViolation, not a silent None."""
    inst = next(inst for inst in nested_instances if plain_candidates(inst) is not None)
    _, breaking = _coupled_lift(inst)
    monkeypatch.setattr(gamma_module, "lift_rotation", lambda trace, color: breaking)
    with pytest.raises(GuaranteeViolation, match="which break delta"):
        plain_candidates(inst)


def test_splice_breaking_delta_raises(monkeypatch, nested_instances):
    """A splice whose own walk breaks delta is a GuaranteeViolation, read before the waist cap.

    The lift handed back has the waist of the curve it was spliced from,
    so the cap alone would drop it without a word.
    """
    inst = next(inst for inst in nested_instances
                if plain_candidates(inst) is not None and plain_candidates(inst).waist.witnesses)
    best, breaking = _coupled_lift(inst)
    monkeypatch.setattr(gamma_module, "build_splice", lambda inst, best, trace: breaking)
    with pytest.raises(GuaranteeViolation, match="which break delta"):
        surgery_candidates(inst, best)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.skipif(not (PERFBENCH / "workloads.py").exists(), reason="perfbench/ is absent")
def test_one_full_count_per_validated_curve(monkeypatch):
    """On the 150 seed-1 ``gamma-curve`` inputs each validated curve is counted in full once.

    The waist walk counts just past its start (``sliding._just_after``,
    one ``geometry.just_after_keys`` over every point) and carries the
    strip and both weights across every anchor change of these curves,
    which are arc-only and never hand a line to the other line's anchor;
    the preservation check reads the same walk.  ``waist`` also sorts the
    subset by its keys once, to name the winning interval, which is no
    count.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    samples = workloads.WORKLOADS["gamma-curve"].inputs(1, 150)
    counts = Counter()
    count_keys, validated = sliding_module._just_after, gamma_module._validated

    def spy_keys(*args):
        counts["full"] += 1
        return count_keys(*args)

    def spy_validated(*args, **kwargs):
        counts["curves"] += 1
        return validated(*args, **kwargs)

    monkeypatch.setattr(sliding_module, "_just_after", spy_keys)
    monkeypatch.setattr(gamma_module, "_validated", spy_validated)
    for sample in samples:
        find_gamma(instance_from_json(sample.to_json()))
    assert counts["full"] == counts["curves"] >= len(samples)


def test_find_gamma_validates_one_plain_curve(monkeypatch, nested_instances, mixed_instances):
    """Only the winning plain level is lifted and checked; none when no level preserves."""
    kinds = []

    def spy(sr, inst, kind, level, **kwargs):
        kinds.append(kind)
        return _validated(sr, inst, kind, level, **kwargs)

    monkeypatch.setattr(gamma_module, "_validated", spy)
    found = 0
    for inst in nested_instances + mixed_instances + [gen_separated_convex(3, 5)]:
        kinds.clear()
        gamma = find_gamma(inst)
        assert kinds.count("plain") == (gamma is not None)
        found += gamma is not None
    assert found


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


def test_decompose_checks_the_witnesses(nested_instances):
    """The strip must be exactly the waist witnesses: a Gamma whose witnesses
    lose a strip point, or gain a flank point, is refused."""
    checked = 0
    for inst in nested_instances:
        gamma = find_gamma(inst)
        if gamma is None or not gamma.waist.witnesses:
            continue
        f_ids, _, g_ids = decompose_fhg(inst, gamma)
        for witnesses in (gamma.waist.witnesses - {g_ids[0]}, gamma.waist.witnesses | {f_ids[0]}):
            altered = dataclasses.replace(gamma, waist=dataclasses.replace(gamma.waist, witnesses=witnesses))
            with pytest.raises(GuaranteeViolation, match="strip set differs from the waist witnesses"):
                decompose_fhg(inst, altered)
        checked += 1
    assert checked


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
