"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The designated test-instance pool for the "every test instance"
criteria is CORE_POOL: the separated grid, the nested/mixed/recharge
families, a slice of the random pool and the minimal instances.
"""

import time

import pytest

import support

from balanced_lines.geometry import (
    Color,
    DirectedLine,
    build_points,
    validate,
)
from balanced_lines.generators import gen_separated_convex
from balanced_lines.oracle import count_balanced, enumerate_naive, enumerate_sweep
from balanced_lines.rotation import (
    RotationSpec,
    check_level_coupling,
    find_balanced_halving,
    run_rotation,
    transitions_at,
)
from balanced_lines.sliding import lift_rotation, waist
from balanced_lines.gamma import find_gamma
from balanced_lines.certificate import (
    CertificateFailure,
    GuaranteeViolation,
    certificate_to_json,
    verify_lower_bound,
)


def report(cid: str, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: PASS - {detail}")


@pytest.fixture(scope="module")
def random_500():
    return support.random_pool(500)


@pytest.fixture(scope="module")
def core_pool():
    tiny = [
        validate(build_points([(0, 0, "R"), (1, 1, "B")])),
        validate(build_points([(0, 0, "B"), (1, 1, "B")])),
        validate(build_points([(0, 0, "R"), (1, 3, "B"), (2, 1, "B"), (3, 6, "B")])),
    ]
    return (
        tiny
        + support.separated_grid()
        + support.nested_pool()
        + support.mixed_pool()
        + support.recharge_pool()
        + support.random_pool(60, seed0=9000)
    )


def test_criterion_1_lower_bound(random_500):
    t0 = time.time()
    violations = 0
    for inst in random_500:
        assert 2 <= inst.n <= 30 and 0 <= inst.delta <= 3
        if count_balanced(inst) < inst.r:
            violations += 1
    elapsed = time.time() - t0
    assert violations == 0
    assert elapsed < 60.0
    report("1 lower-bound", f"{len(random_500)} random instances, "
           f"0 violations, {elapsed:.1f}s")


def test_criterion_2_tightness():
    checked = 0
    for r in range(0, 9):
        for b in range(max(r, 1), 13):
            if (b - r) % 2 != 0 or r + b < 2:
                continue
            inst = gen_separated_convex(r, b)
            assert count_balanced(inst) == r, (r, b)
            checked += 1
    report("2 tightness", f"count == r on all {checked} separated instances")


def test_criterion_3_oracle_equivalence(random_500):
    for inst in random_500:
        assert enumerate_sweep(inst) == enumerate_naive(inst)
    report("3 oracle-equivalence", f"sweep == naive on {len(random_500)} instances")


def test_criterion_4_transitions_balanced(core_pool):
    total = 0
    for inst in core_pool:
        oracle = {(l.red_id, l.blue_id) for l in enumerate_naive(inst)}
        for color, low in ((Color.RED, inst.delta), (Color.BLUE, inst.delta - 1)):
            for k in range(len(inst.ids_of(color))):
                trace = run_rotation(RotationSpec(color, k), inst)
                for t in transitions_at(trace, low):
                    total += 1
                    assert t.balanced_in(inst)
                    pair = (
                        (t.pivot_before, t.crossed_id)
                        if color is Color.RED
                        else (t.crossed_id, t.pivot_before)
                    )
                    assert pair in oracle
    report("4 transitions-balanced",
           f"{total} boundary transitions across {len(core_pool)} instances, "
           f"100% balanced and in the oracle set")


def test_criterion_5_halving(core_pool):
    checked = 0
    for inst in core_pool:
        if inst.r % 2 == 0:
            continue
        line = find_balanced_halving(inst)
        oracle = {(l.red_id, l.blue_id) for l in enumerate_naive(inst)}
        assert (line.red_id, line.blue_id) in oracle
        seg = DirectedLine.through_points(inst, line.red_id, line.blue_id)
        half = (inst.r + inst.b - 2) // 2
        left = sum(1 for p in inst.points if support.side(seg, p) is support.Side.LEFT)
        right = sum(1 for p in inst.points if support.side(seg, p) is support.Side.RIGHT)
        assert left == half and right == half
        checked += 1
    report("5 halving", f"balanced halving line on all {checked} odd-r instances")


def test_criterion_6_separated_transition_counts():
    checked = 0
    for r in range(1, 9):
        for b in range(r, 13):
            if (b - r) % 2 != 0:
                continue
            inst = gen_separated_convex(r, b)
            for k in range((r + 1) // 2):
                trace = run_rotation(RotationSpec(Color.RED, k), inst)
                ts = transitions_at(trace, inst.delta)
                assert sum(1 for t in ts if t.omega_after > t.omega_before) == 1, (r, b, k)
                assert sum(1 for t in ts if t.omega_after < t.omega_before) == 1, (r, b, k)
                checked += 1
    report("6 separated-traces",
           f"exactly one rising and one falling transition in {checked} traces")


def test_criterion_7_level_coupling():
    pool = support.random_pool(200, seed0=40_000)
    checked = 0
    for inst in pool:
        for j in range(inst.r // 2 + 1):
            if j + inst.delta > inst.b - 1:
                continue
            assert check_level_coupling(inst, j)
            checked += 1
    report("7 level-coupling", f"{checked} level pairs on {len(pool)} instances")


def test_criterion_8_waist_oracle(core_pool):
    checked = 0
    for inst in core_pool[:40]:
        for color in (Color.RED, Color.BLUE):
            m = len(inst.ids_of(color))
            for k in range(min(2, (m - 1) // 2 if m >= 2 else 0)):
                trace = run_rotation(RotationSpec(color, k), inst)
                sr = lift_rotation(trace, color)
                w = waist(sr, inst)
                assert w.value == support.brute_waist(sr, inst)
                checked += 1
    for inst in support.nested_pool() + support.recharge_pool():
        gamma = find_gamma(inst)
        if gamma is None:
            continue
        assert gamma.waist.value == support.brute_waist(gamma.sr, inst)
        checked += 1
    report("8 waist-oracle", f"{checked} sliding rotations, exact agreement")


def test_criterion_9_certificates(core_pool):
    violations = 0
    gamma_count = 0
    recharge_count = 0
    for inst in core_pool:
        oracle = {(l.red_id, l.blue_id) for l in enumerate_naive(inst)}
        try:
            cert = verify_lower_bound(inst)
        except (GuaranteeViolation, CertificateFailure):
            violations += 1
            raise
        keys = [c.line.key for c in cert.lines]
        assert len(set(keys)) == len(keys)
        assert set(keys) <= oracle
        assert cert.total >= inst.r
        if cert.gamma is not None:
            gamma_count += 1
            recharge_count += sum(
                1 for c in cert.lines if c.provenance.kind == "recharge"
            )
    assert violations == 0
    assert gamma_count > 0
    assert recharge_count > 0
    report("9 certificates",
           f"{len(core_pool)} instances, {gamma_count} via a minimum-waist curve "
           f"({recharge_count} recharged lines), 0 guarantee violations")


def test_criterion_10_determinism():
    from balanced_lines.generators import gen_random
    from balanced_lines.geometry import instance_to_json
    from balanced_lines.oracle import lines_to_csv

    for seed, r, b in [(1, 3, 5), (2, 4, 4)]:
        a = instance_to_json(gen_random(seed, r, b, 1000))
        bjson = instance_to_json(gen_random(seed, r, b, 1000))
        assert a == bjson
    inst = support.gen_nested(3, 5, 3, Color.BLUE)
    assert lines_to_csv(inst, enumerate_sweep(inst)) == lines_to_csv(
        inst, enumerate_sweep(inst)
    )
    assert certificate_to_json(verify_lower_bound(inst)) == certificate_to_json(
        verify_lower_bound(inst)
    )
    sep = gen_separated_convex(3, 3)
    assert certificate_to_json(verify_lower_bound(sep)) == certificate_to_json(
        verify_lower_bound(sep)
    )
    report("10 determinism", "instances, listings and certificates byte-identical")
