"""Run the benchmark's self-test, so drift in its recorded digests fails here too."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELFTEST = ROOT / "perfbench" / "selftest.py"


@pytest.mark.skipif(not SELFTEST.exists(), reason="perfbench/ is absent")
def test_perfbench_selftest_ok_for_every_workload():
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)], cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    lines = proc.stdout.splitlines()
    for name in workloads:
        assert any(line.startswith(f"ok {name}:") for line in lines), proc.stdout
