"""Differential runs at n = 120, outside tier-1: give ``--run-slow`` to run them.

Both enumerators must agree, and the certificate must reach ``r``, on
random instances and on red clusters inside a blue ring, two seeds each.
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
