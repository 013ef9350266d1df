"""Command line frontend.

``COMMANDS`` is the one list of subcommands: gen, enumerate, trace, verify,
certificate, plot.  ``main`` builds the arguments of the invoked one only.
Machine-readable output goes to stdout, diagnostics to stderr.  Exit codes:
2 invalid parameters, 3 malformed or invalid instance file, 4 enumerator
disagreement, 5 certificate or guarantee failure.

The environment variable BL_SEED supplies a default seed for `gen random`
and `verify --random-batch`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Iterator

from . import svg
from .certificate import certificate_to_json, verify_lower_bound
from .generators import check_bound, gen_random, gen_separated_convex
from .geometry import (
    BalancedLinesError,
    BoundTooSmall,
    Color,
    Direction,
    Instance,
    ValidationError,
    direction_of,
    instance_from_json,
    instance_to_json,
    is_balanced,
)
from .oracle import (
    enumerate_naive,
    enumerate_sweep,
    lines_to_csv,
    lines_to_json,
)
from .rotation import (
    LevelOutOfRange,
    RotationSpec,
    UnknownPoint,
    run_rotation,
    trace_to_jsonl,
    transition_low,
    transitions_at,
    check_level_coupling,
    find_balanced_halving,
)

EXIT_BAD_PARAMS = 2
EXIT_INVALID_INSTANCE = 3
EXIT_MISMATCH = 4
EXIT_CHECK_FAILED = 5


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _seed(args) -> int:
    """``--seed`` when given, else the BL_SEED environment variable, else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("BL_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise _CliError(EXIT_BAD_PARAMS, f"BL_SEED must be an integer, got {raw!r}")


def _load_instance(path: str) -> Instance:
    try:
        with open(path, "rb") as fh:
            return instance_from_json(fh.read())
    except OSError as exc:
        raise _CliError(EXIT_BAD_PARAMS, f"cannot read {path}: {exc}")
    except ValidationError as exc:
        raise _CliError(EXIT_INVALID_INSTANCE, f"invalid instance {path}: {exc}")


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(EXIT_BAD_PARAMS, f"cannot write {out_path}: {exc}")


def cmd_gen(args) -> int:
    try:
        if args.kind == "random":
            inst = gen_random(_seed(args), args.r, args.b, args.bound)
        else:
            inst = gen_separated_convex(args.r, args.b)
    except BalancedLinesError as exc:
        raise _CliError(EXIT_BAD_PARAMS, str(exc))
    _write_output(instance_to_json(inst), args.out)
    print(
        f"instance: n={inst.n} r={inst.r} b={inst.b} delta={inst.delta}",
        file=sys.stderr,
    )
    return 0


def cmd_enumerate(args) -> int:
    inst = _load_instance(args.instance)
    if args.method in ("naive", "both"):
        naive = enumerate_naive(inst)
    if args.method in ("sweep", "both"):
        sweep = enumerate_sweep(inst)
    if args.method == "both":
        if naive != sweep:
            raise _CliError(
                EXIT_MISMATCH,
                f"enumerators disagree: naive={len(naive)} sweep={len(sweep)}",
            )
        lines = naive
    else:
        lines = naive if args.method == "naive" else sweep
    emit = lines_to_json if args.format == "json" else lines_to_csv
    sys.stdout.write(emit(inst, lines))
    print(f"count: {len(lines)} (r={inst.r})", file=sys.stderr)
    return 0


def _parse_subset(text: str):
    if text == "red":
        return Color.RED
    if text == "blue":
        return Color.BLUE
    try:
        return frozenset(int(x) for x in text.split(","))
    except ValueError:
        raise _CliError(EXIT_BAD_PARAMS, f"bad subset {text!r}")


def _parse_direction(text: str) -> Direction:
    try:
        dx, dy = text.split(",")
        return direction_of(int(dx), int(dy))
    except ValueError as exc:
        raise _CliError(EXIT_BAD_PARAMS, f"bad direction {text!r}: {exc}")


def cmd_trace(args) -> int:
    inst = _load_instance(args.instance)
    subset = _parse_subset(args.subset)
    start = _parse_direction(args.start)
    spec = RotationSpec(subset, args.k, start)
    try:
        trace = run_rotation(spec, inst)
    except (LevelOutOfRange, UnknownPoint) as exc:
        raise _CliError(EXIT_BAD_PARAMS, str(exc))
    for line in trace_to_jsonl(trace):
        sys.stdout.write(line + "\n")
    if args.transitions is not None:
        for t in transitions_at(trace, args.transitions):
            record = {
                "transition": {
                    "dir": {"dx": t.direction.dx, "dy": t.direction.dy},
                    "from": t.omega_before,
                    "to": t.omega_after,
                    "pivot": t.pivot_before,
                    "crossed": t.crossed_id,
                    "balanced": t.balanced_in(inst),
                }
            }
            sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")
    return 0


@dataclass
class RunReport:
    """Summary of one verified instance."""

    r: int
    b: int
    delta: int
    balanced_count: int
    certificate_total: int
    checks: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["timings"] = {k: round(v, 4) for k, v in self.timings.items()}
        return json.dumps(payload, separators=(",", ":"))


def _verify_instance(inst: Instance) -> RunReport:
    report = RunReport(inst.r, inst.b, inst.delta, 0, 0)

    t0 = time.perf_counter()
    naive = enumerate_naive(inst)
    sweep = enumerate_sweep(inst)
    report.timings["oracle"] = time.perf_counter() - t0
    report.checks["oracle_agreement"] = naive == sweep
    report.balanced_count = len(sweep)
    report.checks["count_at_least_r"] = len(sweep) >= inst.r

    t0 = time.perf_counter()
    ok = True
    for color in (Color.RED, Color.BLUE):
        for k in range(len(inst.ids_of(color))):
            trace = run_rotation(RotationSpec(color, k), inst)
            for t in transitions_at(trace, transition_low(color, inst.delta)):
                if not (t.balanced_in(inst) and is_balanced(t.pivot_before, t.crossed_id, inst)):
                    ok = False
    report.timings["transitions"] = time.perf_counter() - t0
    report.checks["transitions_balanced"] = ok

    if inst.r % 2 == 1:
        t0 = time.perf_counter()
        halving = find_balanced_halving(inst)
        report.checks["halving_line"] = halving in naive
        report.timings["halving"] = time.perf_counter() - t0

    if inst.r:  # no red point, no red rotation to couple
        t0 = time.perf_counter()
        coupling = all(
            check_level_coupling(inst, j)
            for j in range(inst.r // 2 + 1)
            if j + inst.delta <= inst.b - 1
        )
        report.checks["level_coupling"] = coupling
        report.timings["coupling"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cert = verify_lower_bound(inst)
    report.timings["certificate"] = time.perf_counter() - t0
    report.certificate_total = cert.total
    report.checks["certificate"] = cert.total >= inst.r
    report.checks["certificate_within_count"] = cert.total <= report.balanced_count

    return report


def _batch_shapes(args) -> Iterator[tuple[int, int]]:
    """(r, b) of each ``--random-batch`` instance, in draw order."""
    # delta cycles over the values whose smallest instance (r = 1) fits
    deltas = [d for d in range(4) if 2 + 2 * d <= args.max_points]
    for i in range(args.random_batch):
        delta = deltas[i % len(deltas)]
        r = 1 + i % ((args.max_points - 2 * delta) // 2)
        yield r, r + 2 * delta


def _random_batch(args, seed0: int) -> Iterator[tuple[str, Instance]]:
    """The ``--random-batch`` instances, drawn one at a time as the caller asks."""
    for i, (r, b) in enumerate(_batch_shapes(args)):
        yield f"random[{seed0 + i}]", gen_random(seed0 + i, r, b, args.bound)


def cmd_verify(args) -> int:
    """Verify the files, all loaded before any output, then the batch, one instance at a time."""
    if args.random_batch < 0:
        raise _CliError(EXIT_BAD_PARAMS, "--random-batch must not be negative")
    instances = [(path, _load_instance(path)) for path in args.instances]
    if args.random_batch and args.max_points < 2:
        raise _CliError(EXIT_BAD_PARAMS, "--max-points must be at least 2 for a random batch")
    count = len(instances) + args.random_batch
    if not count:
        raise _CliError(EXIT_BAD_PARAMS, "nothing to verify")
    batch = ()
    if args.random_batch:  # the bound and the seed are read before any output
        check_bound(max(r + b for r, b in _batch_shapes(args)), args.bound)
        batch = _random_batch(args, _seed(args))
    failed = 0
    for name, inst in chain(instances, batch):
        try:
            report = _verify_instance(inst)
        except BalancedLinesError as exc:
            print(f"{name}: FAILED {exc}", file=sys.stderr)
            failed += 1
            continue
        bad = [k for k, v in report.checks.items() if v is False]
        if bad:
            print(f"{name}: FAILED checks {bad}", file=sys.stderr)
            failed += 1
        sys.stdout.write(report.to_json() + "\n")
    if failed:
        raise _CliError(EXIT_CHECK_FAILED, f"{failed} instance(s) failed")
    print(f"verified {count} instance(s)", file=sys.stderr)
    return 0


def cmd_plot(args) -> int:
    inst = _load_instance(args.instance)
    if args.what == "points":
        text = svg.render_points(inst)
    elif args.what == "balanced":
        text = svg.render_balanced(inst, enumerate_sweep(inst))
    elif args.what == "rotation":
        subset = _parse_subset(args.subset)
        try:
            trace = run_rotation(RotationSpec(subset, args.k), inst)
        except (LevelOutOfRange, UnknownPoint) as exc:
            raise _CliError(EXIT_BAD_PARAMS, str(exc))
        text = svg.render_rotation(inst, trace)
    elif args.what == "certificate":
        text = svg.render_certificate(inst, verify_lower_bound(inst))
    else:
        raise _CliError(EXIT_BAD_PARAMS, f"unknown plot kind {args.what!r}")
    _write_output(text, args.out)
    return 0


def cmd_certificate(args) -> int:
    inst = _load_instance(args.instance)
    sys.stdout.write(certificate_to_json(verify_lower_bound(inst)))
    return 0


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=["random", "separated"])
    p.add_argument("-r", type=int, required=True, help="red count")
    p.add_argument("-b", type=int, required=True, help="blue count")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bound", type=int, default=1000)
    p.add_argument("-o", "--out", default=None)


def _enumerate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    p.add_argument("--method", choices=["naive", "sweep", "both"], default="both")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    p.add_argument("--subset", default="red", help="red, blue, or comma separated ids")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--start", default="0,1", help="start direction as dx,dy")
    p.add_argument("--transitions", type=int, default=None,
                   help="also list weight steps between this value and value+1")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("instances", nargs="*")
    p.add_argument("--random-batch", type=int, default=0)
    p.add_argument("--max-points", type=int, default=30)
    p.add_argument("--bound", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)


def _plot_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    p.add_argument("--what", choices=["points", "balanced", "rotation", "certificate"],
                   default="points")
    p.add_argument("--subset", default="red")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("-o", "--out", default=None)


COMMANDS = {  # name: (help, argument builder, handler), in the order of the help
    "gen": ("generate an instance", _gen_args, cmd_gen),
    "enumerate": ("list balanced lines", _enumerate_args, cmd_enumerate),
    "trace": ("dump rotation events as JSON lines", _trace_args, cmd_trace),
    "verify": ("run all checks and certificates", _verify_args, cmd_verify),
    "certificate": ("print the certificate JSON", lambda p: p.add_argument("instance"),
                    cmd_certificate),
    "plot": ("emit a deterministic SVG figure", _plot_args, cmd_plot),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The subparser of ``command`` alone when it is one of ``COMMANDS``, else all six."""
    parser = argparse.ArgumentParser(
        prog="balanced-lines",
        description="enumerate balanced lines and verify lower-bound certificates",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    # a lone subparser's usage lists all six too; with all six, errors name "command"
    listing = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=listing)
    for name in names:
        help_text, add_arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BalancedLinesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS if isinstance(exc, BoundTooSmall) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
