import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import support

from balanced_lines import cli
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


@pytest.mark.parametrize("argv", [
    ("gen", "random", "-r", "2", "-b", "2"),
    ("verify", "--random-batch", "2"),
])
def test_malformed_env_seed_exit_2(run, monkeypatch, argv):
    monkeypatch.setenv("BL_SEED", "abc")
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert "BL_SEED" in err


def test_env_seed_unread_without_a_batch(run, sep44, monkeypatch):
    monkeypatch.setenv("BL_SEED", "abc")
    code, out, _ = run("verify", sep44)
    assert code == 0
    assert len(out.strip().split("\n")) == 1


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
    '{"points":[{"x":1' + '0' * 1500 + ',"y":"0","color":"R"},{"x":0,"y":1,"color":"B"}]}',
], ids=["collinear", "float", "bool", "zero-denominator", "points-not-list",
        "top-level-list", "deep-nesting", "huge-exponent", "huge-integer"])
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


def test_verify_random_batch_holds_one_instance_at_a_time(run, monkeypatch):
    """Each drawn instance, with its fence tables, is freed before the next is verified."""
    refs = []
    alive = []  # drawn instances still alive when each one's verification starts
    verify = cli._verify_instance

    def spy(inst):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(inst))
        return verify(inst)

    monkeypatch.setattr(cli, "_verify_instance", spy)
    code, out, _ = run("verify", "--random-batch", "4", "--seed", "3")
    assert code == 0
    assert len(out.strip().split("\n")) == 4
    assert alive == [0, 0, 0, 0]


def test_verify_random_batch_memory_stays_bounded(run):
    """A second batch of 30 instances leaves under 64 KiB behind once collected.

    The first batch warms the interpreter up; the traced second one keeps
    about 1.7 KB, while keeping every drawn instance would keep about 6 MB.
    """
    run("verify", "--random-batch", "30", "--seed", "0")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code, _, _ = run("verify", "--random-batch", "30", "--seed", "0")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert code == 0
    assert retained < 64 * 1024


def test_verify_random_batch_without_room_exit_2(run):
    code, out, err = run("verify", "--random-batch", "3", "--max-points", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --max-points")


@pytest.mark.parametrize("extra", [(), ("--max-points", "1")])
def test_verify_negative_random_batch_exit_2(run, sep44, extra):
    """A negative batch is a bad parameter, even beside a file to verify or with no room."""
    code, out, err = run("verify", sep44, "--random-batch", "-3", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --random-batch must not be negative")


def test_verify_random_batch_bound_too_small_exit_2(run):
    """A bound too small for the batch's largest instance fails before any report, as `gen` does."""
    code, out, err = run("verify", "--random-batch", "3", "--bound", "2")
    assert code == 2
    assert out == ""
    assert "cannot hold 10 points" in err
    code, _, _ = run("gen", "random", "-r", "3", "-b", "7", "--bound", "2")
    assert code == 2


def test_verify_random_batch_draw_budget_exit_2(run):
    """A draw that runs out of budget is a bad parameter too; the reports before it stand."""
    code, out, err = run("verify", "--random-batch", "4", "--max-points", "8",
                         "--bound", "8", "--seed", "8")
    assert code == 2
    assert len(out.strip().split("\n")) == 3
    assert "exhausted its budget" in err


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


# sha256 of json.dumps([exit code, stdout, stderr]) with COLUMNS=80, recorded
# with Python 3.11 when ``build_parser`` built every subparser for every call
CLI_TEXT_DIGESTS = {
    ("--help",): "2e65f9dcc822d769d98e24556c5a14ad20e38c2669445ea45f09e998a256dcee",
    (): "5299e0a6425ad5097733693a9ea52c461b4440664b65a60e77d409e81057e5a4",
    ("bogus",): "cb2d4ca639116925150f2059e23469b72bfec1a9b1afe572fd8267133657e36b",
    ("-x",): "5299e0a6425ad5097733693a9ea52c461b4440664b65a60e77d409e81057e5a4",
    ("enumerate", "F", "--bogus"): "dbc5828fe454717c1459a13e0be7bca90471560a52a855c8d583df646a108669",
    ("enumerate",): "235b01ad0ffb1c6d4d94d785d3e71cb232a9f95fc02e1c4f65aedbbb2a58a5d1",
    ("gen", "sideways", "-r", "1", "-b", "1"): "b66c84a4324b086ed86a581262e2feab8001f4119ca1131f79402f7d7c3abbb5",
    ("gen", "--help"): "1dc44e07be97e90cbe8a0268576dedfc3d2cf700cc2c393360cc247b4462c21c",
    ("enumerate", "--help"): "f62335d7a98275c3ada2d0c9e4c92f7c4c9c2a8bcbb6d6d4d05fb9da9759b44c",
    ("trace", "--help"): "ef0e2cfcb06b0d2f126683e0008ce7dc55045f020764c49f22ade161d543db59",
    ("verify", "--help"): "9b8025ffc9cc256fee94c622759ce996005cb09cb5c82b77c1c998f325f1143b",
    ("certificate", "--help"): "fe930070b92d9fdef4cf904549222188a90367ea6655f51ee4a245176e396cc8",
    ("plot", "--help"): "9aab10d22feaaecc98585999612ad776c9a7b3473fe5257d334dd778344280c9",
}


def _parse_outcome(capsys, parse, argv):
    try:
        code = parse(list(argv))
    except SystemExit as exc:  # help and usage errors exit from argparse
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", list(CLI_TEXT_DIGESTS), ids=lambda argv: " ".join(argv) or "-")
def test_cli_text_is_unchanged(capsys, monkeypatch, argv):
    """Help and usage errors read the same when ``main`` builds one subparser
    as when every subparser is built, so the usage line lists all six
    commands; under the Python that recorded them, exit code, stdout and
    stderr keep their digests."""
    monkeypatch.setenv("COLUMNS", "80")
    outcome = _parse_outcome(capsys, main, argv)
    assert outcome == _parse_outcome(capsys, lambda a: cli.build_parser().parse_args(a), argv)
    if sys.version_info[:2] == (3, 11):  # argparse words its help differently per version
        digest = hashlib.sha256(json.dumps(outcome).encode()).hexdigest()
        assert digest == CLI_TEXT_DIGESTS[argv]


def _module_cli(*argv):
    """``python -m balanced_lines.cli <argv>`` in a fresh process: (exit code, stdout, stderr)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "balanced_lines.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point_reads_sys_argv(run, sep44):
    """Run as a module, ``main`` parses ``sys.argv[1:]``: the same exit code,
    stdout and stderr as ``main`` given the arguments in process."""
    argv = ("enumerate", sep44, "--method", "both")
    assert _module_cli(*argv) == run(*argv)
    code, out, err = _module_cli()
    assert (code, out) == (2, "") and "required: command" in err
