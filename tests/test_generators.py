import hashlib
import random
from fractions import Fraction

import pytest

import support

from balanced_lines import generators, geometry
from balanced_lines.geometry import (
    BoundTooSmall,
    CollinearTriple,
    Color,
    ColorImbalance,
    LabeledPoint,
    instance_from_json,
    instance_to_json,
    validate,
)
from balanced_lines.generators import gen_random, gen_separated_convex
from balanced_lines.oracle import enumerate_sweep


def test_gen_random_valid_and_deterministic():
    a = gen_random(1, 3, 3, 100)
    b = gen_random(1, 3, 3, 100)
    assert a.points == b.points
    assert (a.r, a.b, a.delta) == (3, 3, 0)


def test_gen_random_delta():
    inst = gen_random(2, 2, 6, 1000)
    assert inst.delta == 2
    assert [p.color for p in inst.points[:2]] == [Color.RED, Color.RED]
    assert all(p.color is Color.BLUE for p in inst.points[2:])


def test_gen_random_bound_too_small():
    with pytest.raises(BoundTooSmall):
        gen_random(1, 3, 3, 2)


def test_gen_random_rejects_bad_counts():
    with pytest.raises(ColorImbalance):
        gen_random(1, 4, 2, 100)
    with pytest.raises(ColorImbalance):
        gen_random(1, 2, 3, 100)


# SHA-256 of instance_to_json(gen_random(seed, 50 - delta, 50 + delta)), the
# size the enumerate-large benchmark generates, recorded with the pairwise
# collinearity check that the slope hash replaced.
GEN_RANDOM_N100_DIGESTS = {
    (0, 0): "bafebe6d85495e10da481b2a00ea817bc9bcd29d27842b0f1226c4ba2ded31af",
    (0, 1): "ecc212b1f745f848c29dfe25e568694a1257d8f659a99d2dd67496a3a54e8fb6",
    (0, 2): "2ceb8eac2d78c645b88533a52ca518710097a8b93e72e6bcba37b2acf8d0e3cd",
    (0, 3): "3344147c4553f81ab377c471b20addd767085c49dc5a131381713bf481c4064b",
    (1, 0): "d0adcdc9ca0f03745c1bb191769470a29e2d51503aafa757bbec56e948aff84c",
    (1, 1): "2df7479064292aaadd5fc5686a7ea2b72fa678cbd3cd53088dd154c96b14184a",
    (1, 2): "3becf730b8da95ed57e39d5cc329e44f1d21db3eff2438e40c549420466c8aea",
    (1, 3): "521f499cab9ae6058817673d60dcaa6b73606bf59ff430850d43d05dab1c3ac8",
    (2, 0): "3d1d637fdf84ff6e87fd1e91ab8a88dff9754a510157b00d13c4384a2d6cada7",
    (2, 1): "173d8517f94f35a4b67f3412d9d4436a6a071c37c2f1de500e39b8b2caccd302",
    (2, 2): "77d258c333e44a12f2838f5e092fb7ca4413a38d5c8aabc6f2220b75677a1f97",
    (2, 3): "36677fb44697cbecb3a142dcfee9d7058d59f60cf28f44284c047371e42056b7",
}


@pytest.mark.parametrize("seed,delta", sorted(GEN_RANDOM_N100_DIGESTS))
def test_gen_random_bytes_at_benchmark_size(seed, delta):
    text = instance_to_json(gen_random(seed, 50 - delta, 50 + delta))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GEN_RANDOM_N100_DIGESTS[(seed, delta)]


def test_gen_random_n400_round_trip_and_collinear_point():
    inst = gen_random(3, 199, 201)
    assert instance_from_json(instance_to_json(inst)).points == inst.points
    # Move the last point onto the line through points 0 and 1, at an
    # abscissa no integer point has: the only collinear triple is (0, 1, n-1).
    a, b, last = inst.points[0], inst.points[1], inst.points[-1]
    t = Fraction(1, 2 * abs(b.x - a.x) + 1)
    moved = LabeledPoint(last.id, a.x + t * (b.x - a.x), a.y + t * (b.y - a.y), last.color)
    with pytest.raises(CollinearTriple) as err:
        validate([*inst.points[:-1], moved])
    assert err.value.ids == (0, 1, inst.n - 1)


# (seed, r, b, bound): bounds a few above n, where many draws are rejected,
# and the benchmark size
SAMPLER_CASES = [(0, 3, 3, 6), (1, 3, 5, 8), (2, 5, 5, 10), (3, 10, 12, 24), (0, 19, 21, 40),
                 (1, 50, 50, 1000), (2, 49, 51, 1000)]


@pytest.mark.parametrize("seed,r,b,bound", SAMPLER_CASES)
def test_gen_random_keeps_its_sampler_rows(seed, r, b, bound):
    """The rows kept from the sampler are the rows ``validate`` computes."""
    support.assert_prefix_rows(gen_random(seed, r, b, bound))


def _fresh_abscissa_draws(seed: int, inst, bound: int) -> int:
    """How many draws of ``gen_random(seed, ·, ·, bound)`` reach its collinearity test.

    Replays its sampler: a draw at an abscissa no accepted point has is
    tested, and it is accepted exactly when it is the instance's next point
    (a draw rejected against some accepted points is rejected again against
    the same points).
    """
    rng = random.Random(seed)
    used, k, tested = set(), 0, 0
    while k < inst.n:
        x, y = rng.randrange(bound), rng.randrange(bound)
        if x in used:
            continue
        tested += 1
        if (x, y) == (inst.points[k].x, inst.points[k].y):
            used.add(x)
            k += 1
    return tested


def test_one_slope_prefix_per_pair(monkeypatch):
    """``gen_random`` calls ``slopes`` once per tested draw and never ``validate``;
    reading an instance back, sweeping it and building every point's fences
    calls ``slopes`` once per point."""
    calls, validations = [], []
    real_slopes, real_validate = geometry.slopes, geometry.validate

    def counted_slopes(px, py, points):
        calls.append(px)
        return real_slopes(px, py, points)

    def counted_validate(points):
        validations.append(len(points))
        return real_validate(points)

    monkeypatch.setattr(geometry, "slopes", counted_slopes)
    monkeypatch.setattr(geometry, "validate", counted_validate)
    monkeypatch.setattr(generators, "validate", counted_validate)
    for seed, r, b, bound in SAMPLER_CASES:
        calls.clear()
        inst = gen_random(seed, r, b, bound)
        assert validations == []
        assert len(calls) == _fresh_abscissa_draws(seed, inst, bound)
        if bound < 1000:
            assert len(calls) > inst.n  # some draws completed a collinear triple
        calls.clear()
        again = instance_from_json(instance_to_json(inst))
        enumerate_sweep(again)
        for pid in range(again.n):
            again.fences(pid)
        assert len(calls) == again.n
        assert validations == [again.n]
        validations.clear()


def test_separated_structure():
    inst = gen_separated_convex(4, 4)
    assert inst.n == 8
    reds = [p for p in inst.points if p.color is Color.RED]
    blues = [p for p in inst.points if p.color is Color.BLUE]
    assert all(p.x < 0 for p in reds)
    assert all(p.x > 0 for p in blues)


def test_separated_two_points():
    inst = gen_separated_convex(1, 1)
    assert inst.n == 2


def test_separated_convex_position():
    inst = gen_separated_convex(3, 5)
    pts = sorted(inst.points, key=lambda p: p.x)
    # on a strictly convex curve every consecutive triple turns the same way
    turns = {
        support.orientation(pts[i], pts[i + 1], pts[i + 2]) for i in range(len(pts) - 2)
    }
    assert turns == {support.Side.LEFT}


def test_separated_rejects_bad_counts():
    with pytest.raises(ColorImbalance):
        gen_separated_convex(3, 4)
