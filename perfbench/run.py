"""Benchmark for balanced-lines, driving the package through its public API.

    python3 perfbench/run.py --workload gamma-curve --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

One run samples the workload's instance mix from ``--seed``, sized for
``PASSES`` passes in ``--seconds`` at the workload's rate, and runs it pass
after pass, cold each time, until ``--seconds`` have gone by; all in one
process and thread.  Then it checks every output without the package.
Times are scaled to a recorded machine speed by a frozen copy of the
package run on the same inputs (see ``Reference``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics, or with ``--trace 1`` the per-layer spans
and counts of one traced pass).  ``--workload all`` runs every workload,
each untraced and traced in its own process, and prints only the tables.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import check
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench-work"  # instance files, removed after the run
REFERENCE = HERE / "reference"  # a frozen copy of the package: the machine's yardstick

SETUP_REPEATS = 9  # set-ups per run; setup_s is their median
PASSES = 4  # the mix is sized for this many passes in --seconds at the workload's rate
LOOP_CAP_S = 120.0  # the traced pass stops here so a very slow commit still ends within 180 s
PANEL_SEED = 0
PERCENTILES = (50, 75, 90, 95, 99, 99.9)  # candidates for op_s.tail

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _modules(package: str) -> list:
    return [m for name, m in sys.modules.items()
            if name == package or name.startswith(package + ".")]


def import_package(package: str = "balanced_lines"):
    """A fresh import of the package, as every CLI invocation pays it."""
    for name in [m.__name__ for m in _modules(package)]:
        del sys.modules[name]
    bl = importlib.import_module(package)
    importlib.import_module(package + ".cli")
    return bl


def clear_caches(package: str = "balanced_lines") -> None:
    """Empty every functools cache of the package, as a new process finds them."""
    for module in _modules(package):
        for value in list(vars(module).values()):
            members = vars(value) if isinstance(value, type) else {}
            for obj in (value, *(getattr(value, a, None) for a in members)):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class Reference:
    """A frozen copy of the package that runs every input the package runs.

    On a shared machine the same code runs up to 40% slower for minutes at a
    time, which no run length averages away.  The copy in ``reference/``,
    which no change to the package touches, runs each operation's input
    right next to it, cold, in alternating order.  Its total time against
    its recorded rate gives the run's ``scale``: measured seconds times
    ``scale`` are seconds at the machine speed of the recording, so every
    reported time is the package's own time at that speed, and a change to
    the package moves it in full.
    """

    PACKAGE = "balanced_lines_reference"

    def __init__(self, w, workdir: Path):
        self.w = w
        self.package = import_package(self.PACKAGE)
        self.workdir = workdir / "reference"
        self.workdir.mkdir()
        self.seconds = 0.0
        self.ops = 0

    def run(self, serialised, i: int) -> None:
        arg = self.w.stage(serialised, self.workdir, i)
        clear_caches(self.PACKAGE)
        t0 = perf_counter()
        self.w.run(self.package, arg)
        self.seconds += perf_counter() - t0
        self.ops += 1

    def scale(self) -> float:
        return self.ops / self.w.reference_rate / self.seconds


def set_up(w, seed: int, count: int):
    """Import the package, sample and serialise the mix; returns the set-up time too."""
    t0 = perf_counter()
    bl = import_package()
    samples = w.inputs(seed, count)
    serialised = [w.prepare(s) for s in samples]
    return bl, samples, serialised, perf_counter() - t0


def tail(ordered: list[float]) -> tuple[str, float]:
    """The highest of PERCENTILES with at least ten operations beyond it, or the maximum."""
    n = len(ordered)
    for p in reversed(PERCENTILES):
        rank = math.ceil(p * n / 100)  # nearest-rank percentile
        if n - rank >= 10:
            return f"p{p:g}", ordered[rank - 1]
    return "max", ordered[-1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    workdir = WORK / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(w, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _run(w, seed, seconds, trace, workdir) -> dict:
    count = w.mix_size(seconds / PASSES)
    reference = None if trace else Reference(w, workdir)
    bl, samples, serialised, dt = set_up(w, seed, count)
    setups = [dt]

    def next_pass(bl):
        """Empty caches for the next pass; the first passes start from a new set-up."""
        clear_caches()
        if len(setups) < SETUP_REPEATS:
            bl, _, _, dt = set_up(w, seed, count)
            setups.append(dt)
        return bl

    args = [w.stage(x, workdir, i) for i, x in enumerate(serialised)]
    if trace:
        times, outputs, tracer, untraced_s = traced_pass(w, bl, args, next_pass)
        wall = tracer.wall_s
    else:
        times, outputs, wall = timed_passes(w, bl, args, seconds, next_pass,
                                            lambda i: reference.run(serialised[i], i))
        while len(setups) < SETUP_REPEATS:
            bl = next_pass(bl)
        scale = reference.scale()
        times = [[dt * scale for dt in ts] for ts in times]
        setup_s = statistics.median(setups) * scale
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = []
    for i, s in enumerate(samples[:len(outputs)]):
        out, exc = outputs[i][0]
        if exc is None:
            try:
                w.check(s, out)
                if any(repeat != (out, None) for repeat in outputs[i][1:]):
                    raise check.Mismatch("output differs between passes")
            except Exception as e:  # a malformed output fails its check
                exc = e
        if exc is not None:
            errors.append(f"op {i} (r={s.r}, b={s.b}): {type(exc).__name__}: {exc}")
    errors += panel_errors(bl, w)

    ops = sum(len(t) for t in times)
    per_instance = sorted(statistics.fmean(t) for t in times)
    attempted = ops + w.panel_size
    result = {
        "workload": w.name,
        "ops": ops,
        "instances": len(times),
        "wall_s": wall,
        "failed_frac": len(errors) / attempted,
        "tail": tail(per_instance),
        "errors": errors,
        "report": {
            "correct": not errors,
            "attempted": attempted,
            "failed": len(errors),
        },
    }
    if not trace:
        values = {
            "ops_per_s": ops / sum(map(sum, times)),
            "op_s.p50": statistics.median(per_instance),
            "op_s.tail": result["tail"][1],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        result["report"]["metrics"] = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
        }
        result["scale"] = scale
        result["reference"] = (reference.ops / reference.seconds, w.reference_rate)
    else:
        result["report"]["metrics"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in tracer.metrics().items()
        }
        result["tree"] = tracer.tree_lines()
        result["overhead"] = (untraced_s, tracer.wall_s)
    return result


def timed_op(w, bl, arg):
    """One operation: (seconds, (output, exception))."""
    t0 = perf_counter()
    try:
        out = (w.run(bl, arg), None)
    except Exception as exc:  # any failure of the package counts against it
        out = (None, exc)
    return perf_counter() - t0, out


def timed_passes(w, bl, args, seconds, next_pass, reference):
    """Run the mix pass after pass until ``seconds`` have gone by.

    ``next_pass`` empties the package's caches between passes, so each
    repeat of an instance is as cold as the first; ``reference(i)`` runs the
    frozen copy on instance ``i``, before the package on every other
    operation and after it on the rest.  Returns the seconds of every run of
    every instance reached, the outputs, and the wall time.
    """
    times = [[] for _ in args]
    outputs = [[] for _ in args]
    start = perf_counter()
    ops = 0
    while True:
        for i, arg in enumerate(args):
            if ops % 2:
                reference(i)
            dt, out = timed_op(w, bl, arg)
            if not ops % 2:
                reference(i)
            ops += 1
            times[i].append(dt)
            outputs[i].append(out)
            if perf_counter() - start >= seconds:
                n = sum(1 for t in times if t)
                return times[:n], outputs[:n], perf_counter() - start
        bl = next_pass(bl)


def traced_pass(w, bl, args, next_pass):
    """One pass untraced, then one with spans installed, so every count repeats exactly.

    The traced pass's wall time minus the untraced one is the tracing overhead.
    """
    start = perf_counter()
    for arg in args:
        timed_op(w, bl, arg)
    untraced_s = perf_counter() - start
    bl = next_pass(bl)
    tracer = spans.Tracer(bl)
    tracer.install()
    times, outputs = [], []
    start = perf_counter()
    try:
        for arg in args:
            tracer.begin_op()
            dt, out = timed_op(w, bl, arg)
            times.append([dt])
            outputs.append([out])
            if perf_counter() - start > LOOP_CAP_S:
                break
    finally:
        tracer.wall_s = perf_counter() - start
        tracer.uninstall()
    return times, outputs, tracer, untraced_s


def panel_errors(bl, w) -> list[str]:
    """Byte-identical output on the recorded panel, checked untimed after the loop."""
    recorded = json.loads(DIGESTS.read_text())[w.name]
    errors = []
    for i, s in enumerate(w.inputs(PANEL_SEED, w.panel_size)):
        try:
            text = w.panel(bl, s)
            w.check_panel(s, text)
        except Exception as exc:  # a failure here is a failed operation
            errors.append(f"panel {i}: {type(exc).__name__}: {exc}")
            continue
        if check.digest(text) != recorded[i]:
            errors.append(f"panel {i}: output differs from the recorded digest")
    return errors


def record_digests() -> None:
    bl = import_package()
    DIGESTS.write_text(json.dumps({
        name: [check.digest(w.panel(bl, s)) for s in w.inputs(PANEL_SEED, w.panel_size)]
        for name, w in WORKLOADS.items()
    }, indent=1) + "\n")


def print_table(result: dict) -> None:
    report = result["report"]
    print(f"== {result['workload']}: {result['ops']} operations on {result['instances']} "
          f"instances in {result['wall_s']:.3f} s, {report['failed']} of "
          f"{report['attempted']} failed")
    if "tree" in result:
        untraced, traced = result["overhead"]
        print(f"traced pass; tracing overhead {traced - untraced:.3f} s "
              f"({100.0 * (traced / untraced - 1):+.1f}% of the untraced pass, {untraced:.3f} s)")
        print("span tree (inclusive and self seconds):")
        for line in result["tree"]:
            print("  " + line)
        rows = report["metrics"].items()
    else:
        measured, recorded = result["reference"]
        print(f"reference copy ran {measured:.4f} op/s against {recorded:.4f} recorded: "
              f"times scaled by {result['scale']:.4f}")
        rows = list(report["metrics"].items())
        rows.append(("failed_frac", {"value": result["failed_frac"], "unit": "ratio"}))
    n = f"n={result['instances']} instances, {result['ops']} runs"
    samples = {"op_s.p50": n, "op_s.tail": f"{result['tail'][0]}, {n}"}
    print(f"  {'metric':<44} {'value':>14} {'unit':<6} samples")
    for name, m in rows:
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} {samples.get(name, '')}")
    for err in result["errors"][:10]:
        print(f"  FAILED {err}")


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced and traced, each run in its own process."""
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
        print()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the current package and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")

    sys.path[:0] = [str(SRC), str(REFERENCE)]
    try:
        origin = Path(importlib.import_module("balanced_lines").__file__).resolve().parent.parent
    except ImportError:
        origin = None
    if origin != SRC:
        print(f"error: balanced_lines is not importable from {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(result)
    print(json.dumps(result["report"], separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
