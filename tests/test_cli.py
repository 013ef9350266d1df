import hashlib
import json

import pytest

import support

from balanced_lines.certificate import verify_lower_bound
from balanced_lines.cli import main
from balanced_lines.generators import gen_separated_convex
from balanced_lines.geometry import Color, instance_to_json
from balanced_lines.rotation import RotationSpec, run_rotation
from balanced_lines.svg import render_certificate, render_rotation


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture()
def sep44(tmp_path):
    path = tmp_path / "sep44.json"
    path.write_text(instance_to_json(gen_separated_convex(4, 4)))
    return str(path)


def test_gen_random_writes_instance(run, tmp_path):
    out = tmp_path / "inst.json"
    code, _, err = run("gen", "random", "-r", "3", "-b", "5", "--seed", "1",
                       "-o", str(out))
    assert code == 0
    assert "delta=1" in err
    data = json.loads(out.read_text())
    assert len(data["points"]) == 8


def test_gen_deterministic(run, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run("gen", "random", "-r", "3", "-b", "5", "--seed", "9", "-o", str(a))
    run("gen", "random", "-r", "3", "-b", "5", "--seed", "9", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_env_seed(run, tmp_path, monkeypatch):
    monkeypatch.setenv("BL_SEED", "77")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run("gen", "random", "-r", "2", "-b", "2", "-o", str(a))
    run("gen", "random", "-r", "2", "-b", "2", "--seed", "77", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_bad_params_exit_2(run):
    code, _, _ = run("gen", "random", "-r", "4", "-b", "2")
    assert code == 2


def test_enumerate_separated_tight(run, sep44):
    code, out, err = run("enumerate", sep44, "--method", "both")
    assert code == 0
    assert "count: 4" in err
    rows = out.strip().split("\n")
    assert rows[0] == "# delta=0"
    assert len(rows) == 2 + 4


@pytest.mark.parametrize("body", [
    '{"points":[{"x":"0","y":"0","color":"R"},'
    '{"x":"1","y":"1","color":"R"},{"x":"2","y":"2","color":"B"},'
    '{"x":"3","y":"5","color":"B"}]}',
    '{"points":[{"x":1.5,"y":"0","color":"R"}]}',
    '{"points":[{"x":true,"y":"0","color":"R"}]}',
    '{"points":[{"x":"1/0","y":"0","color":"R"}]}',
    '{"points":5}',
    '[1,2]',
    '{"points":' + '[' * 100_000 + ']' * 100_000 + '}',
    '{"points":[{"x":"1e999999999","y":"0","color":"R"}]}',
], ids=["collinear", "float", "bool", "zero-denominator", "points-not-list",
        "top-level-list", "deep-nesting", "huge-exponent"])
def test_enumerate_validation_exit_3(run, tmp_path, body):
    bad = tmp_path / "bad.json"
    bad.write_text(body)
    code, _, err = run("enumerate", str(bad))
    assert code == 3
    assert err.startswith("error: invalid instance ")


def test_trace_separated_two_transitions(run, sep44):
    code, out, _ = run("trace", sep44, "--subset", "red", "--k", "0",
                       "--transitions", "0")
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    transitions = [r for r in records if "transition" in r]
    assert len(transitions) == 2
    assert all(t["transition"]["balanced"] for t in transitions)


def test_trace_bad_level_exit_2(run, sep44):
    code, _, _ = run("trace", sep44, "--k", "99")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("trace", "--subset", "0,99"),
    ("trace", "--subset=-1,0"),
    ("plot", "--what", "rotation", "--subset", "0,99"),
], ids=["trace-unknown-id", "trace-negative-id", "plot-unknown-id"])
def test_unknown_subset_ids_exit_2(run, sep44, argv):
    command, *options = argv
    code, out, err = run(command, sep44, *options)
    assert code == 2
    assert out == ""
    assert err.startswith("error: rotation subset names unknown point ids")


@pytest.mark.parametrize("argv", [
    ("gen", "random", "-r", "2", "-b", "4", "-o", "{missing}/x.json"),
    ("plot", "{instance}", "-o", "{missing}/x.svg"),
], ids=["gen", "plot"])
def test_unwritable_output_exit_2(run, sep44, tmp_path, argv):
    missing = tmp_path / "no-such-dir"
    code, out, err = run(*(a.format(instance=sep44, missing=missing) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {missing}/x.")
    assert "Traceback" not in err


def test_verify_without_red_points(run, tmp_path):
    """r = 0 has no red rotation to couple; the certificate still holds."""
    path = tmp_path / "r0.json"
    assert run("gen", "random", "-r", "0", "-b", "4", "--seed", "3", "-o", str(path))[0] == 0
    code, out, err = run("verify", str(path))
    assert code == 0, err
    report = json.loads(out.strip())
    assert (report["r"], report["certificate_total"]) == (0, 0)
    assert "level_coupling" not in report["checks"]
    assert all(report["checks"].values())


def test_verify_reports(run, sep44):
    code, out, err = run("verify", sep44)
    assert code == 0
    report = json.loads(out.strip())
    assert report["balanced_count"] == 4
    assert report["certificate_total"] == 4
    assert all(report["checks"].values())


def test_verify_random_batch(run):
    code, out, _ = run("verify", "--random-batch", "8", "--seed", "5")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().split("\n")]
    assert len(reports) == 8
    for rep in reports:
        assert rep["certificate_total"] >= rep["r"]
        assert rep["certificate_total"] <= rep["balanced_count"]


def test_verify_random_batch_counts_every_instance(run):
    """With room for fewer deltas, the batch still verifies as many instances as asked."""
    def sizes(out):
        return [(rep["r"], rep["b"]) for rep in map(json.loads, out.strip().split("\n"))]

    code, out, err = run("verify", "--random-batch", "3", "--max-points", "2", "--seed", "1")
    assert code == 0, err
    assert sizes(out) == [(1, 1)] * 3
    assert "verified 3 instance(s)" in err
    code, out, _ = run("verify", "--random-batch", "4", "--max-points", "5", "--seed", "1")
    assert code == 0
    assert sizes(out) == [(1, 1), (1, 3), (1, 1), (1, 3)]


def test_verify_random_batch_without_room_exit_2(run):
    code, out, err = run("verify", "--random-batch", "3", "--max-points", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --max-points")


def test_verify_nothing_exit_2(run):
    code, _, _ = run("verify")
    assert code == 2


def test_plot_points(run, sep44, tmp_path):
    out = tmp_path / "pts.svg"
    code, _, _ = run("plot", sep44, "--what", "points", "-o", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == 8


def test_plot_balanced_matches_enumeration(run, sep44, tmp_path):
    out = tmp_path / "bal.svg"
    code, _, _ = run("plot", sep44, "--what", "balanced", "-o", str(out))
    assert code == 0
    assert out.read_text().count("<line") == 4


def test_plot_rotation_and_certificate(run, sep44, tmp_path):
    for what in ("rotation", "certificate"):
        out = tmp_path / f"{what}.svg"
        code, _, _ = run("plot", sep44, "--what", what, "-o", str(out))
        assert code == 0
        assert out.read_text().startswith("<svg")


def test_plot_deterministic(run, sep44, tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    run("plot", sep44, "--what", "certificate", "-o", str(a))
    run("plot", sep44, "--what", "certificate", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of a rotation figure and a curve certificate figure of one nested
# instance: every line the figures draw, the events' lines included.
SVG_DIGEST = "67098d3c901c023d586da11830ba9c037c3ae946450999b922df4f6762322aee"


def test_svg_digest():
    inst = support.gen_nested(1, 8, 10, Color.RED)
    cert = verify_lower_bound(inst)
    assert cert.gamma is not None
    trace = run_rotation(RotationSpec(Color.RED, 2), inst)
    digest = hashlib.sha256()
    digest.update(render_rotation(inst, trace).encode())
    digest.update(render_certificate(inst, cert).encode())
    assert digest.hexdigest() == SVG_DIGEST


def test_certificate_json(run, sep44):
    code, out, _ = run("certificate", sep44)
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 4
    assert payload["gamma"] is None


ENUMERATE_BOTH_N100_DIGEST = "986d4083427e8ac4fa7f79a527f7ea37e7136057e2e36d05aa431aaba789b8a7"


def test_enumerate_both_digest_at_benchmark_size(run, tmp_path):
    """``enumerate --method both`` stdout at n 100 stays byte-identical."""
    digest = hashlib.sha256()
    for seed in range(3):
        for delta in range(4):
            path = str(tmp_path / f"inst-{seed}-{delta}.json")
            code, _, _ = run("gen", "random", "-r", str(50 - delta), "-b", str(50 + delta),
                             "--seed", str(seed), "-o", path)
            assert code == 0
            code, out, _ = run("enumerate", path, "--method", "both")
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == ENUMERATE_BOTH_N100_DIGEST
