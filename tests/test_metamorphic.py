"""Maps of an instance whose effect on the balanced set is known exactly.

A relabeling permutes the points: both enumerators' sets come back with
every id renamed, and the certificate still reaches ``r``.  When r == b a
colour swap turns every balanced pair (red, blue) into (blue, red), since
both sides of the line still weigh delta = 0.  An exact affine map with
nonzero determinant keeps the balanced set, mirrors included: the
enumerators are checked in ``test_oracle.py::test_affine_image_keeps_naive_lines``,
the certificate here.  Each case is seeded, so a failure replays as it is.
"""

import random
from fractions import Fraction

import pytest

import support

from balanced_lines.certificate import verify_lower_bound
from balanced_lines.geometry import Color, build_points, validate
from balanced_lines.generators import gen_random
from balanced_lines.oracle import BalancedLine, enumerate_naive, enumerate_sweep


def _relabel(inst, order):
    """The instance whose point i is the point ``order[i]`` of ``inst``."""
    return validate(build_points((inst.point(j).x, inst.point(j).y, inst.point(j).color)
                                 for j in order))


def _keys(lines):
    return {line.key for line in lines}


RELABELED = {
    "random": lambda: gen_random(1, 3, 7, 1000),
    "random-delta0": lambda: gen_random(2, 5, 5, 1000),
    "random-drops": lambda: gen_random(238, 7, 9, 1000),
    "nested-red": lambda: support.gen_nested(5, 6, 10, Color.RED),
    "nested-blue": lambda: support.gen_nested(6, 8, 8, Color.BLUE),
    "mixed": lambda: support.gen_mixed(0, 6, 10, 0.5),
    "recharge": lambda: support.recharge_pool()[0],
}


@pytest.mark.parametrize("name", RELABELED)
def test_relabeling_permutes_the_balanced_set(name):
    inst = RELABELED[name]()
    order = list(range(inst.n))
    random.Random(name).shuffle(order)
    image = _relabel(inst, order)
    new_id = {old: new for new, old in enumerate(order)}
    for enumerate_lines in (enumerate_naive, enumerate_sweep):
        assert enumerate_lines(image) == {
            BalancedLine(new_id[line.red_id], new_id[line.blue_id])
            for line in enumerate_lines(inst)
        }
    assert verify_lower_bound(image).total >= image.r


def _equal_classes(seed):
    """Random instances and nested ones (whose certificates need a curve), r == b."""
    r = 2 + seed % 7
    if seed % 2:
        return gen_random(seed, r, r, 1000)
    return support.gen_nested(seed, r + 4, r + 4, Color.RED if seed % 4 else Color.BLUE)


@pytest.mark.parametrize("seed", range(8))
def test_color_swap_reverses_every_key(seed):
    inst = _equal_classes(seed)
    swapped = support.swap_colors(inst)
    for enumerate_lines in (enumerate_naive, enumerate_sweep):
        lines = _keys(enumerate_lines(inst))
        assert _keys(enumerate_lines(swapped)) == {(blue, red) for red, blue in lines}
        assert len(lines) >= inst.r
    assert verify_lower_bound(swapped).total >= swapped.r


AFFINE_FAMILIES = {
    "nested": support.nested_pool,
    "mixed": support.mixed_pool,
    "recharge": support.recharge_pool,
}

# (matrix, translation): the default map of ``support.rational_image``, and
# a mirror, (x, y) -> (-3x/4 + 1/3, 2x/9 + y/3 + 7/5) of determinant -1/4;
# both move the abscissa with the old one alone, so abscissae stay distinct
AFFINE_MAPS = {
    "default": None,
    "mirror": (((Fraction(-3, 4), 0), (Fraction(2, 9), Fraction(1, 3))),
               (Fraction(1, 3), Fraction(7, 5))),
}


@pytest.mark.parametrize("family", AFFINE_FAMILIES)
@pytest.mark.parametrize("name", AFFINE_MAPS)
def test_affine_image_keeps_the_certificate(family, name):
    """The image's certificate reaches r on lines that are balanced pairs of the original."""
    args = AFFINE_MAPS[name] or ()
    checked = 0
    for inst in AFFINE_FAMILIES[family]():
        if inst.n > 22:
            continue
        image = support.rational_image(inst, *args)
        cert = verify_lower_bound(image)
        assert cert.total >= image.r
        assert {line.line.key for line in cert.lines} <= _keys(enumerate_naive(inst))
        checked += 1
    assert checked
