"""Compare two checkouts of the package on one benchmark workload, input by input.

    python3 tools/ab.py OLD NEW --workload gamma-curve --seed 1 --rounds 5

OLD and NEW are checkout roots, each holding ``src/balanced_lines``.  Each
package is copied into a temporary directory under its own name, ``ab_old``
and ``ab_new``, so both run in one process.  The inputs are the workload's,
sampled from ``--seed`` by ``perfbench/workloads.py`` of the checkout that
holds this script, which is imported and never written.  Every round runs
each input on both packages back to back, cold (``perfbench/run.py``'s
``clear_caches``), the order alternating from input to input and from round
to round, and requires the two outputs to be equal: on the first that
differs the tool names the input and exits 1.  Each round prints both
sides' milliseconds per operation and their ratio old/new, above 1 when NEW
is faster; the last line is the median ratio over the rounds.  The
benchmark's reference copy and its scaling are not involved: the two
packages share the machine's speed, input by input.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
NAMES = ("ab_old", "ab_new")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout root of the baseline")
    parser.add_argument("new", type=Path, help="checkout root of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--inputs", type=int, default=200, help="inputs sampled per round")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True  # leaves perfbench/ as it is
    sys.path.insert(0, str(PERFBENCH))
    from run import clear_caches, import_package
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        for name, checkout in zip(NAMES, (args.old, args.new)):
            source = checkout / "src" / "balanced_lines"
            if not (source / "__init__.py").exists():
                parser.error(f"{checkout} holds no src/balanced_lines")
            shutil.copytree(source, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, str(tmp))
        packages = [(name, import_package(name)) for name in NAMES]
        workdir = tmp / "work"
        workdir.mkdir()
        serialised = [w.prepare(s) for s in w.inputs(args.seed, args.inputs)]

        ratios = []
        for rnd in range(args.rounds):
            seconds = dict.fromkeys(NAMES, 0.0)
            for i, x in enumerate(serialised):
                arg = w.stage(x, workdir, i)
                outputs = {}
                for name, pkg in packages if (i + rnd) % 2 == 0 else packages[::-1]:
                    clear_caches(name)
                    t0 = perf_counter()
                    outputs[name] = w.run(pkg, arg)
                    seconds[name] += perf_counter() - t0
                if outputs[NAMES[0]] != outputs[NAMES[1]]:
                    print(f"error: input {i} of seed {args.seed}: the outputs differ", file=sys.stderr)
                    return 1
            old, new = (seconds[name] / len(serialised) * 1e3 for name in NAMES)
            ratios.append(old / new)
            print(f"round {rnd + 1}: old {old:.3f} ms/op  new {new:.3f} ms/op  old/new {old / new:.3f}")
    print(f"median old/new over {args.rounds} round(s) of {args.inputs} inputs: "
          f"{statistics.median(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
