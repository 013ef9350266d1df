"""Self-test of the benchmark on a tiny mix of every workload.

    python3 perfbench/selftest.py

For each workload it runs ``run.py`` once untraced and twice traced with one
seed, and checks that every metric BENCHMARK.json names is reported with its
unit, that no operation failed, and that every count (calls, events, ratios,
certificate lines) repeats exactly between the two traced runs.  Last, it
checks that the benchmark fails cleanly in a directory without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "0.5"
SEED = "7"


def run(workload: str, trace: int, root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
         "--seed", SEED, "--seconds", SECONDS, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.splitlines()


def report(workload: str, trace: int, expected: dict) -> dict:
    code, lines = run(workload, trace)
    assert code == 0, f"{workload} trace={trace} exited {code}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, "\n".join(lines)
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{workload} trace={trace}: {sorted(set(got) ^ set(expected))}"
    return result["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        report(name, 0, end_to_end)
        first, second = (report(name, 1, per_layer) for _ in range(2))
        counts = [k for k, unit in per_layer.items() if unit != "s"]
        differ = [k for k in counts if first[k]["value"] != second[k]["value"]]
        assert not differ, f"{name}: counts differ between traced runs: {differ}"
        print(f"ok {name}: {len(end_to_end)} end-to-end metrics, {len(per_layer)} "
              f"per-layer metrics, {len(counts)} counts repeat exactly")

    bare = ROOT / ".perfbench-selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines = run(spec["workloads"][0]["name"], 0, bare)
        assert code != 0 and not any(line.startswith("{") for line in lines), lines
        print("ok without the package: exit", code)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
