"""Differential runs at n = 120 and 160, outside tier-1: give ``--run-slow`` to run them.

Both enumerators must agree, and the certificate must reach ``r``, on
random instances, on red clusters inside a blue ring, on blue clusters
inside a flat red ellipse, and on an exact rational image of the random
ones (``support.rational_image``, so every slope takes the Fraction path),
two seeds each at n = 120; and on random instances and on blue points half
clustered at the centre (``support.gen_mixed``), two seeds each at n = 160.
The rational image must keep the random instance's lines.
"""

import pytest

import support

from balanced_lines.certificate import verify_lower_bound
from balanced_lines.geometry import Color
from balanced_lines.generators import gen_random
from balanced_lines.oracle import enumerate_naive, enumerate_sweep

FAMILIES = {
    "random": lambda seed: gen_random(seed, 45, 75, 10**6),
    "nested": lambda seed: support.gen_nested(seed, 55, 65, Color.RED),
    "ellipse": lambda seed: support.gen_ellipse(seed, 62, 58, Color.BLUE),
    "rational": lambda seed: support.rational_image(gen_random(seed, 45, 75, 10**6)),
}
FAMILIES_160 = {
    "random": lambda seed: gen_random(seed, 60, 100, 10**6),
    "mixed": lambda seed: support.gen_mixed(seed, 70, 90, 0.5, 10**6),
}


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_enumerators_and_certificate_agree_at_n120(family, seed):
    inst = FAMILIES[family](seed)
    assert inst.n == 120
    lines = enumerate_naive(inst)
    assert enumerate_sweep(inst) == lines
    cert = verify_lower_bound(inst)
    assert inst.r <= cert.total <= len(lines)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family", sorted(FAMILIES_160))
def test_enumerators_and_certificate_agree_at_n160(family, seed):
    inst = FAMILIES_160[family](seed)
    assert inst.n == 160
    lines = enumerate_naive(inst)
    assert enumerate_sweep(inst) == lines
    cert = verify_lower_bound(inst)
    assert inst.r <= cert.total <= len(lines)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
def test_rational_image_keeps_lines_at_n120(seed):
    inst = gen_random(seed, 45, 75, 10**6)
    assert enumerate_sweep(support.rational_image(inst)) == enumerate_sweep(inst)
