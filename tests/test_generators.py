import hashlib
from fractions import Fraction

import pytest

from balanced_lines.geometry import (
    BoundTooSmall,
    CollinearTriple,
    Color,
    ColorImbalance,
    LabeledPoint,
    Side,
    instance_from_json,
    instance_to_json,
    orientation,
    validate,
)
from balanced_lines.generators import gen_random, gen_separated_convex


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
        orientation(pts[i], pts[i + 1], pts[i + 2]) for i in range(len(pts) - 2)
    }
    assert turns == {Side.LEFT}


def test_separated_rejects_bad_counts():
    with pytest.raises(ColorImbalance):
        gen_separated_convex(3, 4)
