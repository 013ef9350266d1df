import dataclasses
import gc
import hashlib
import json
import weakref

import pytest

import support

from balanced_lines import (
    certificate as certificate_module,
    oracle as oracle_module,
    rotation as rotation_module,
)
from balanced_lines.cli import main
from balanced_lines.geometry import (
    Color,
    Direction,
    GuaranteeViolation,
    Side,
    build_points,
    direction_key_from,
    instance_to_json,
    validate,
)
from balanced_lines.generators import gen_random, gen_separated_convex
from balanced_lines.oracle import BalancedLine, enumerate_naive
from balanced_lines.gamma import decompose_fhg, find_gamma, in_central_region
from balanced_lines.certificate import (
    CertificateFailure,
    certificate_to_json,
    flank_lines,
    recharge,
    strip_transitions,
    verify_lower_bound,
)


def oracle_keys(inst):
    return {(l.red_id, l.blue_id) for l in enumerate_naive(inst)}


def check_certificate(inst, cert):
    keys = [c.line.key for c in cert.lines]
    assert len(set(keys)) == len(keys)
    assert set(keys) <= oracle_keys(inst)
    assert cert.total == len(keys) >= inst.r


def test_tiny_instance():
    inst = validate(build_points([(0, 0, "R"), (1, 1, "B")]))
    cert = verify_lower_bound(inst)
    assert cert.total == 1
    assert cert.gamma is None


def test_separated_uses_direct_accounting(separated_instances):
    for inst in separated_instances:
        cert = verify_lower_bound(inst)
        assert cert.gamma is None
        assert cert.total == inst.r
        assert all(c.provenance.kind == "direct" for c in cert.lines)
        check_certificate(inst, cert)


def test_verify_releases_the_instance():
    """No module-level cache keeps an instance alive once its certificate is built."""
    inst = support.gen_nested(4, 8, 6, Color.BLUE)
    ref = weakref.ref(inst)
    assert verify_lower_bound(inst).gamma is not None
    del inst
    gc.collect()
    assert ref() is None


def test_certificates_and_traces_leave_the_global_memos_empty(tmp_path, capsys):
    """The package keeps no state between instances: neither memo fills on the curve path."""
    pool = support.recharge_pool()
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(pool[0]))
    memos = (Direction.of, direction_key_from)
    for memo in memos:
        memo.cache_clear()
    certs = [verify_lower_bound(inst) for inst in pool]
    assert main(["trace", str(path), "--start", "1,2", "--transitions", "0"]) == 0
    assert capsys.readouterr().out
    assert sum(cert.gamma is not None for cert in certs) >= 1  # the curve path ran
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]


def test_seeded_random():
    inst = gen_random(13, 6, 8, 1000)
    cert = verify_lower_bound(inst)
    assert cert.total >= 6
    check_certificate(inst, cert)


def test_random_pool(small_random_pool):
    for inst in small_random_pool[:30]:
        check_certificate(inst, verify_lower_bound(inst))


def test_nested_pool_gamma_pipeline(nested_instances):
    saw_gamma = 0
    for inst in nested_instances:
        cert = verify_lower_bound(inst)
        check_certificate(inst, cert)
        if cert.gamma is not None:
            saw_gamma += 1
            expected = inst.r if cert.color is Color.RED else inst.b
            assert cert.total == expected
            assert len(cert.f_ids) + len(cert.h_ids) + len(cert.g_ids) == expected
    assert saw_gamma >= len(nested_instances) // 2


def test_mixed_pool(mixed_instances):
    for inst in mixed_instances:
        check_certificate(inst, verify_lower_bound(inst))


def test_flank_lines_levels_and_membership(nested_instances):
    for inst in nested_instances:
        gamma = find_gamma(inst)
        if gamma is None:
            continue
        f_ids, h_ids, g_ids = decompose_fhg(inst, gamma)
        picks = flank_lines(inst, gamma, f_ids, h_ids)
        assert len(picks) == len(f_ids) + len(h_ids)
        keys = {p.line.key for p in picks}
        assert len(keys) == len(picks)
        assert keys <= oracle_keys(inst)
        for pick in picks:
            family = f_ids if pick.provenance.kind == "flank_f" else h_ids
            snapshot = pick.snapshot
            right = sum(
                1
                for i in family
                if snapshot.side(inst.point(i)) is Side.RIGHT
            )
            assert right == pick.provenance.level


def test_flank_level_without_departure_raises(monkeypatch, nested_instances):
    """A flank level whose pool holds no departure stops the certificate and is named."""
    inst, f_ids = next((inst, f_ids) for inst in nested_instances
                       if (gamma := find_gamma(inst)) is not None
                       and len(f_ids := decompose_fhg(inst, gamma)[0]) >= 2)
    original = certificate_module._flank_pool

    def empty_at_f1(inst, gamma, steps, family, level):
        if (family, level) == (f_ids, 1):
            return iter(())
        return original(inst, gamma, steps, family, level)

    monkeypatch.setattr(certificate_module, "_flank_pool", empty_at_f1)
    with pytest.raises(GuaranteeViolation, match=r"^flank f level 1 yielded 0 of 1 distinct lines$"):
        verify_lower_bound(inst)


def test_flank_lines_walks_half_the_levels(monkeypatch, nested_instances, recharge_instances):
    """Each family of m points costs ceil(m/2) drained walks; recharges walk none.

    ``flank_lines`` walks the lower levels of F and H and reads the upper
    ones off them; a whole curve certificate adds the lower levels of G, and
    its recharges read the flank table.  Every walk runs to its closure check.
    """
    cases = [(inst, gamma, decompose_fhg(inst, gamma))
             for inst in nested_instances + recharge_instances
             if (gamma := find_gamma(inst)) is not None]
    walks = []
    walk = rotation_module.walk_rotation

    def spy(spec, inst):
        record = [spec, False]
        walks.append(record)
        yield from walk(spec, inst)
        record[1] = True  # reached only past the closure check

    monkeypatch.setattr(rotation_module, "walk_rotation", spy)

    def walked(families):
        return sorted((tuple(sorted(family)), level) for family in families
                      for level in range((len(family) + 1) // 2))

    for inst, gamma, (f_ids, h_ids, g_ids) in cases:
        walks.clear()
        flank_lines(inst, gamma, f_ids, h_ids)
        assert sorted((spec.resolve(inst), spec.level) for spec, _ in walks) == walked((f_ids, h_ids))
        assert all(drained for _, drained in walks)
        walks.clear()
        certificate_module._gamma_certificate(inst, gamma)
        assert len(walks) == len(walked((f_ids, h_ids, g_ids)))
        assert all(drained for _, drained in walks)
    assert cases


def test_strip_transitions_counts_and_membership(nested_instances):
    for inst in nested_instances:
        gamma = find_gamma(inst)
        if gamma is None:
            continue
        f_ids, h_ids, g_ids = decompose_fhg(inst, gamma)
        per_level = strip_transitions(inst, gamma, g_ids)
        assert len(per_level) == (len(g_ids) + 1) // 2
        for level, central in enumerate(per_level):
            assert len(central) >= 2
            for t in central:
                assert in_central_region(inst, gamma, t)
                crossed = inst.point(t.crossed_id)
                if crossed.color is gamma.color:
                    assert crossed.id in f_ids or crossed.id in h_ids


def test_recharge_classification(nested_instances):
    resolved_records = 0
    for inst in nested_instances:
        gamma = find_gamma(inst)
        if gamma is None:
            continue
        f_ids, h_ids, g_ids = decompose_fhg(inst, gamma)
        if not g_ids:
            continue
        for level, central in enumerate(strip_transitions(inst, gamma, g_ids)):
            for t in central:
                result = recharge(inst, gamma, t, level, f_ids, h_ids, frozenset())
                crossed = inst.point(t.crossed_id)
                assert result.line.key in oracle_keys(inst)
                if crossed.color is gamma.color:
                    assert result.provenance.kind == "recharge"
                    resolved_records += 1
                    family = f_ids if result.provenance.via == "f" else h_ids
                    assert 0 <= result.provenance.via_level <= len(family) - 1
                else:
                    assert result.provenance.kind == "strip"
    assert resolved_records >= 1


def test_recharged_lines_distinct_from_flank_picks(recharge_instances):
    """Every recharge in a certificate differs from the flank pick it shares
    a level with (and from every other certified line)."""
    seen_recharge = 0
    for inst in recharge_instances:
        cert = verify_lower_bound(inst)
        check_certificate(inst, cert)
        if cert.gamma is None:
            continue
        flank_keys = {
            (c.provenance.kind[-1], c.provenance.level): c.line.key
            for c in cert.lines
            if c.provenance.kind.startswith("flank_")
        }
        for c in cert.lines:
            if c.provenance.kind != "recharge":
                continue
            seen_recharge += 1
            base = flank_keys.get((c.provenance.via, c.provenance.via_level))
            assert base is not None
            assert c.line.key != base
    assert seen_recharge >= 1


def test_recharge_drops_are_counted(monkeypatch):
    """Failed recharges in the drop pool: two per instance, and the totals still reach r.

    The count documents the skipped recharges; a change that explains or
    removes them changes it deliberately.
    """
    drops = []
    original = certificate_module.recharge

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        drops[-1] += result is None
        return result

    monkeypatch.setattr(certificate_module, "recharge", counting)
    for inst in support.recharge_drop_pool():
        drops.append(0)
        cert = verify_lower_bound(inst)
        assert cert.total >= inst.r
    assert drops == [2, 2, 2, 2]


def test_wrong_induced_weight_surfaces(monkeypatch):
    """A recharge whose induced flank step has the wrong weight raises; nothing swallows it."""
    original = certificate_module.halfplane_weight
    calls = []

    def first_off_by_five(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs) + (5 if len(calls) == 1 else 0)

    monkeypatch.setattr(certificate_module, "halfplane_weight", first_off_by_five)
    with pytest.raises(GuaranteeViolation, match="induced flank step"):
        verify_lower_bound(support.recharge_pool()[0])
    assert len(calls) == 1


def test_certificate_json_shape(nested_instances):
    for inst in nested_instances[:3]:
        cert = verify_lower_bound(inst)
        payload = json.loads(certificate_to_json(cert))
        assert set(payload) == {"gamma", "color", "F", "H", "G", "lines", "total"}
        assert payload["total"] == cert.total
        if payload["gamma"] is not None:
            assert {p["type"] for p in payload["gamma"]["pieces"]} == {"arc"}
        for entry in payload["lines"]:
            assert set(entry) == {"red", "blue", "provenance"}


def test_certificate_arcs_rebuild_the_anchors(nested_instances, mixed_instances,
                                              recharge_instances):
    """Read as (from, pivot) pairs, a certificate's arcs are its curve's anchors.

    Each arc ends where the next one starts, the last where the first does:
    a reader rebuilds the curve from the arcs alone.
    """
    rebuilt = 0
    for inst in nested_instances + mixed_instances + recharge_instances:
        cert = verify_lower_bound(inst)
        if cert.gamma is None:
            continue
        pieces = json.loads(certificate_to_json(cert))["gamma"]["pieces"]
        anchors = tuple((Direction(p["from"]["dx"], p["from"]["dy"]), p["pivot"]) for p in pieces)
        assert anchors == cert.gamma.sr.anchors
        assert [p["to"] for p in pieces] == [p["from"] for p in pieces[1:] + pieces[:1]]
        rebuilt += 1
    assert rebuilt


def test_certificate_deterministic():
    inst = support.gen_nested(3, 5, 3, Color.BLUE)
    a = certificate_to_json(verify_lower_bound(inst))
    b = certificate_to_json(verify_lower_bound(inst))
    assert a == b


# SHA-256 of the certificates of the pool below.  Any changed certificate
# byte changes it; update it only with a deliberate change of the output.
GOLDEN_CERTIFICATE_DIGEST = "e69de5f974949d136eecca8065735ae4cb7edb3b3c3ceef4a4c6423c94ec23a4"


def test_certificate_golden_digest(nested_instances, mixed_instances, recharge_instances):
    pool = nested_instances + mixed_instances + recharge_instances
    for seed in range(100):
        for delta in range(4):
            r = 1 + seed % 6
            pool.append(gen_random(seed, r, r + 2 * delta, 1000))
    digest = hashlib.sha256()
    for inst in pool:
        digest.update(certificate_to_json(verify_lower_bound(inst)).encode())
    assert digest.hexdigest() == GOLDEN_CERTIFICATE_DIGEST


RANDOM_CERTIFICATE_DIGEST = "49ca720baa9545e41448ea66b46223398987a27759941336b7f331d410916090"


def test_random_certificate_digest():
    """The certificates of 1,200 random instances (n up to 34, grid 10**4), byte for byte."""
    digest = hashlib.sha256()
    for seed in range(300):
        for delta in range(4):
            r = 2 + seed % 13
            inst = gen_random(seed, r, r + 2 * delta, 10**4)
            digest.update(certificate_to_json(verify_lower_bound(inst)).encode())
    assert digest.hexdigest() == RANDOM_CERTIFICATE_DIGEST


def test_certificate_total_below_balanced_count(small_random_pool):
    for inst in small_random_pool[:10]:
        cert = verify_lower_bound(inst)
        assert cert.total <= len(enumerate_naive(inst))


def test_verify_needs_no_naive_enumeration(monkeypatch, nested_instances):
    """Certificates recount their own lines; the cubic enumeration never runs."""
    def refuse(inst):
        raise RuntimeError("enumerate_naive called")

    monkeypatch.setattr(oracle_module, "enumerate_naive", refuse)
    monkeypatch.setattr(certificate_module, "enumerate_naive", refuse, raising=False)
    pool = nested_instances[:6] + [gen_separated_convex(3, 5), gen_random(13, 6, 8, 1000)]
    kinds = set()
    for inst in pool:
        cert = verify_lower_bound(inst)
        assert cert.total >= inst.r
        kinds.add(cert.gamma is None)
    assert kinds == {True, False}  # both the direct and the curve accounting ran


def _mutants(inst, cert):
    """Broken copies of a valid certificate, each of which the final check must reject."""
    lines = list(cert.lines)
    first = lines[0]
    red, blue = first.line.key
    balanced = {l.key for l in enumerate_naive(inst)}
    partner = next(b for b in inst.blue_ids if (red, b) not in balanced)

    def with_first(line):
        return dataclasses.replace(
            cert, lines=(dataclasses.replace(first, line=line),) + cert.lines[1:])

    return {
        "duplicated": dataclasses.replace(cert, lines=tuple(lines[:-1] + [first])),
        "unbalanced partner": with_first(BalancedLine(red, partner, first.line.weights)),
        "exchanged ids": with_first(BalancedLine(blue, red, first.line.weights)),
        "short total": dataclasses.replace(cert, lines=tuple(lines[:-1])),
    }


@pytest.mark.parametrize("kind", ["duplicated", "unbalanced partner", "exchanged ids",
                                  "short total"])
def test_check_rejects_broken_certificates(kind):
    # direct accounting, then a curve certificate
    for inst in (gen_separated_convex(4, 6), support.gen_nested(4, 8, 6, Color.BLUE)):
        cert = verify_lower_bound(inst)
        with pytest.raises(CertificateFailure):
            certificate_module._check_certificate(inst, _mutants(inst, cert)[kind])


def test_cli_reports_a_broken_certificate(monkeypatch, tmp_path, capsys):
    inst = gen_separated_convex(4, 4)
    path = tmp_path / "sep44.json"
    path.write_text(instance_to_json(inst))
    mutant = _mutants(inst, certificate_module._direct_certificate(inst))["exchanged ids"]
    monkeypatch.setattr(certificate_module, "_direct_certificate", lambda _inst: mutant)
    assert main(["certificate", str(path)]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: line ") and "Traceback" not in err
