"""``tools/ab.py`` end to end on three inputs: an A/A run, and a checkout whose output differs.

No time is asserted: the ratios of three inputs say nothing about speed.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "tools" / "ab.py"

pytestmark = pytest.mark.skipif(not (ROOT / "perfbench" / "workloads.py").exists(),
                                reason="perfbench/ is absent")


def _ab(old: Path, new: Path, cwd: Path, rounds: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(AB), str(old), str(new), "--workload", "gamma-curve",
         "--seed", "1", "--rounds", str(rounds), "--inputs", "3"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
        env={**os.environ, "TMPDIR": str(cwd)},
    )


def test_ab_compares_a_checkout_with_itself(tmp_path):
    proc = _ab(ROOT, ROOT, tmp_path, 2)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["round 1", "round 2"]
    assert lines[-1].startswith("median old/new over 2 round(s) of 3 inputs: ")
    assert not list(tmp_path.iterdir())  # the tool's temporary copies and inputs are gone


def test_ab_refuses_outputs_that_differ(tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src" / "balanced_lines", changed / "src" / "balanced_lines",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cert = changed / "src" / "balanced_lines" / "certificate.py"
    text = cert.read_text()
    end = 'return json.dumps(payload, separators=(",", ":")) + "\\n"'
    assert text.count(end) == 1
    cert.write_text(text.replace(end, end + ' + " "'))
    proc = _ab(ROOT, changed, tmp_path, 1)
    assert proc.returncode == 1
    assert proc.stderr == "error: input 0 of seed 1: the outputs differ\n"
