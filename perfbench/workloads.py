"""The two benchmark workloads: seeded inputs, the timed operation, its check.

Inputs come from ``sampler.py`` or, for ``enumerate-large``, from the seeds
and sizes it passes to ``gen random``; every generated instance is checked
here, and its bytes are compared against recorded digests.
Every operation goes through a public entry point of the package it is
given, looked up on the module at call time, so the traced run can rebind
it and the frozen copy in ``reference/`` can run the same operation.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import check
from sampler import BOUND, Sample, sample_nested


# One size per workload below: a mix of sizes with different costs puts the
# median between two clusters, where run-to-run noise moves it most.
NESTED_R, NESTED_B = 10, 12
LARGE_N = 100


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    rate: float  # sizes the mix: rate * seconds / PASSES instances
    sample: Callable[[random.Random, int], Any]  # (rng, index) -> input
    prepare: Callable[[Any], Any]  # serialise one input during the timed set-up
    run: Callable[[Any, Any], Any]  # the timed operation: (package, staged) -> output
    check: Callable[[Any, Any], None]  # (input, output); raises on a wrong output
    panel: Callable[[Any, Any], str]  # (package, input) -> bytes whose digest is recorded
    check_panel: Callable[[Any, str], None]  # (input, panel bytes); raises when wrong
    panel_size: int
    # operations per second of the frozen copy in reference/ on this mix, as
    # recorded; the unit of every reported time
    reference_rate: float
    # (serialised, workdir, index) -> operation argument, after the timed set-up
    stage: Callable[[Any, Path, int], Any] = lambda x, workdir, i: x

    def mix_size(self, seconds: float) -> int:
        return max(1, math.ceil(self.rate * seconds))

    def inputs(self, seed: int, count: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.sample(rng, i) for i in range(count)]


def _run_certificate(bl, text: str) -> str:
    return bl.certificate_to_json(bl.verify_lower_bound(bl.instance_from_json(text)))


def _certificate_bytes(bl, s: Sample) -> str:
    return _run_certificate(bl, s.to_json())


# gamma-curve: the library's verify_lower_bound on cluster-in-ring instances


def _sample_nested(rng, i):
    """A red cluster inside a blue ring."""
    return Sample(NESTED_R, NESTED_B, tuple(sample_nested(rng, NESTED_R, NESTED_B)))


# enumerate-large: ``balanced-lines gen random -o FILE``, then ``enumerate FILE --method both``


@dataclass(frozen=True)
class GenParams:
    seed: int
    r: int
    b: int


def _sample_large(rng, i):
    r = LARGE_N // 2 - rng.randrange(4)
    return GenParams(rng.randrange(1 << 31), r, LARGE_N - r)


def _gen_bytes(bl, p: GenParams) -> str:
    return bl.instance_to_json(bl.gen_random(p.seed, p.r, p.b))


def _cli(bl, argv: list[str]) -> tuple[int, str, str]:
    """``balanced-lines <argv>`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bl.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _stage_large(p: GenParams, workdir: Path, i: int) -> tuple[GenParams, str]:
    return p, str(workdir / f"instance-{i}.json")


def _run_enumerate(bl, arg: tuple[GenParams, str]):
    p, path = arg
    gen = _cli(bl, ["gen", "random", "-r", str(p.r), "-b", str(p.b),
                    "--seed", str(p.seed), "-o", path])
    enum = _cli(bl, ["enumerate", path, "--method", "both"])
    with open(path, encoding="utf-8") as fh:
        return gen, fh.read(), enum


def _check_enumerate(p: GenParams, output) -> None:
    """Both commands succeed, so the enumerators agree; then the independent recount."""
    gen, text, (code, csv, err) = output
    for name, (c, _, e) in (("gen", gen), ("enumerate", (code, csv, err))):
        if c != 0:
            raise check.Mismatch(f"{name} exited {c}: {e.strip()}")
    check.enumeration(check.parse_instance(text, p.r, p.b, BOUND), csv)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="gamma-curve",
        rate=13.0,
        reference_rate=12.0,
        sample=_sample_nested,
        prepare=Sample.to_json,
        run=_run_certificate,
        check=check.certificate,
        panel=_certificate_bytes,
        check_panel=check.certificate,
        panel_size=4,
    ),
    Workload(
        name="enumerate-large",
        rate=0.75,
        reference_rate=1.4,
        sample=_sample_large,
        prepare=lambda p: p,
        stage=_stage_large,
        run=_run_enumerate,
        check=_check_enumerate,
        panel=_gen_bytes,
        check_panel=lambda p, text: check.parse_instance(text, p.r, p.b, BOUND),
        panel_size=2,
    ),
)}
