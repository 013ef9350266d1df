"""Differential runs at n = 120, 160 and 240, outside tier-1: give ``--run-slow`` to run them.

Both enumerators must agree, and the certificate must reach ``r``, on
random instances, on red clusters inside a blue ring, on blue clusters
inside a flat red ellipse, and on an exact rational image of the random
ones (``support.rational_image``, so every slope takes the Fraction path),
two seeds each at n = 120; and on nudged grid points above 2**64
(``support.gen_tie_dense``), where from every anchor some slopes tie in
their 64-bit prefix, so the sweep's rows are put in order by the exact
tie-break, two seeds at n = 120; and on random instances and on blue points half
clustered at the centre (``support.gen_mixed``), two seeds each at n = 160.
The rational image must keep the random instance's lines.  On every one of
these instances red level j and blue level j + delta must couple, the
plain search must pick the winner of ranking every level of both colours,
and every flank and strip level read off its antipodal level must equal
its own walk.  On these and on two random instances at n = 240, every
curve the gamma search validates must get the same waist record, or the
same orientation error, from ``waist`` as from the walk over every subset
pair fence (``support.pair_fence_waist``).
"""

import pytest

import support

from balanced_lines import gamma
from balanced_lines.certificate import verify_lower_bound
from balanced_lines.gamma import find_gamma, plain_candidates
from balanced_lines.geometry import Color
from balanced_lines.generators import gen_random
from balanced_lines.oracle import enumerate_naive, enumerate_sweep
from balanced_lines.rotation import check_level_coupling
from balanced_lines.sliding import NotPositivelyOriented, waist

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
FAMILIES_240 = {
    "random": lambda seed: gen_random(seed, 100, 140, 10**6),
}
BY_SIZE = {120: FAMILIES, 160: FAMILIES_160, 240: FAMILIES_240}


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
def test_enumerators_and_certificate_agree_on_prefix_ties_at_n120(seed):
    inst = support.gen_tie_dense(seed, 55, 65)
    assert inst.n == 120
    assert max(abs(v) for p in inst.points for v in (p.x, p.y)) > 2**64
    assert any(len({prefix for prefix, _, _ in inst.fence_rows(q)}) < inst.n - 1
               for q in inst.red_ids)
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
@pytest.mark.parametrize("n, family", [(120, f) for f in sorted(FAMILIES)]
                         + [(160, f) for f in sorted(FAMILIES_160)])
def test_level_coupling_and_plain_ranking(n, family, seed):
    """Red level j couples with blue level j + delta, and the plain search picks the full ranking's winner."""
    inst = BY_SIZE[n][family](seed)
    assert inst.n == n
    for j in range(min(inst.r // 2, inst.b - 1 - inst.delta) + 1):
        assert check_level_coupling(inst, j)
    best = plain_candidates(inst)
    assert (None if best is None else (best.color, best.level)) == support.ranked_plain_winner(inst)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n, family", [(120, f) for f in sorted(FAMILIES)]
                         + [(160, f) for f in sorted(FAMILIES_160)])
def test_antipodal_steps_match_walk(n, family, seed):
    """Every level of F, H and G, read off its antipodal level, equals its own walk."""
    inst = BY_SIZE[n][family](seed)
    assert inst.n == n
    support.check_antipodal_steps(inst)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
def test_rational_image_keeps_lines_at_n120(seed):
    inst = gen_random(seed, 45, 75, 10**6)
    assert enumerate_sweep(support.rational_image(inst)) == enumerate_sweep(inst)


def _waist_or_message(walk, sr, inst):
    try:
        return walk(sr, inst)
    except NotPositivelyOriented as err:
        return str(err)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n, family", [(n, f) for n, families in BY_SIZE.items() for f in sorted(families)])
def test_waist_matches_pair_fence_walk(n, family, seed, monkeypatch):
    """Every curve the search validates: the same record, or the same error, from both walks."""
    inst = BY_SIZE[n][family](seed)
    assert inst.n == n
    curves = []
    validated = gamma._validated

    def spy(sr, inst, *args, **kwargs):
        curves.append(sr)
        return validated(sr, inst, *args, **kwargs)

    monkeypatch.setattr(gamma, "_validated", spy)
    find_gamma(inst)
    assert curves
    for sr in curves:
        assert _waist_or_message(waist, sr, inst) == _waist_or_message(support.pair_fence_waist, sr, inst)
