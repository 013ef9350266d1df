"""Span tracing for the traced run, recorded from outside the package.

Each traced function is rebound, in every ``balanced_lines`` module namespace
that holds it, to a wrapper that records a span: inclusive time, self time
(inclusive minus the spans it caused) and calls, per function and per call
path.  Counts that need a function's arguments or result are read by small
observers on the same wrappers.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

LAYERS = {
    "cli": ("main",),
    "geometry": ("instance_from_json", "validate"),
    "generators": ("gen_random",),
    "oracle": ("enumerate_naive", "enumerate_sweep"),
    "rotation": ("run_rotation", "transitions_at"),
    "sliding": ("validate_curve", "waist", "sliding_profile", "evaluate_at"),
    "gamma": ("find_gamma", "plain_candidates", "surgery_candidates",
              "build_splice", "build_shift"),
    "certificate": ("verify_lower_bound",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# (name, unit, better) of the metrics beside the spans: counts, ratios and the traced wall time
DERIVED_METRICS = (
    ("rotation.repeat_ratio", "ratio", "lower"),
    ("rotation.events", "count", "lower"),
    ("geometry.direction_of.hit_ratio", "ratio", "higher"),
    ("geometry.direction_key.hit_ratio", "ratio", "higher"),
    ("gamma.found_ratio", "ratio", "higher"),
    ("gamma.candidates", "count", "lower"),
    ("gamma.adopted_ratio", "ratio", "higher"),
    ("certificate.lines", "count", "higher"),
    ("certificate.recharged_lines", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _hit_ratio(before, after) -> float:
    """Hit ratio of an lru_cache between two cache_info() snapshots."""
    hits = after.hits - before.hits
    return _ratio(hits, hits + after.misses - before.misses)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "balanced_lines" or name.startswith("balanced_lines.")]


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores the package."""

    def __init__(self, bl):
        self.bl = bl
        self.totals = {name: [0.0, 0.0, 0] for name in SPAN_NAMES}  # s, self_s, calls
        self.tree: dict[tuple, list] = {}
        self.counts = Counter()
        self._stack: list[list] = []  # [path, child seconds]
        self._seen_rotations: set = set()
        self._restore: list[tuple] = []
        self._caches = self._cache_infos()
        self.wall_s = 0.0

    def _cache_infos(self):
        geometry = self.bl.geometry
        return (geometry.Direction.of.cache_info(),
                geometry.direction_key_from.cache_info())

    def _wrap(self, name, fn, observe):
        totals = self.totals[name]
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            path = (stack[-1][0] if stack else ()) + (name,)
            frame = [path, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                node = self.tree.setdefault(path, [0.0, 0.0, 0])
                for acc in (totals, node):
                    acc[0] += dt
                    acc[1] += dt - frame[1]
                    acc[2] += 1
            if observe is not None:
                observe(args, result)
            return result

        return span

    def install(self) -> None:
        observers = {
            "rotation.run_rotation": self._on_rotation,
            "gamma.find_gamma": self._on_gamma,
            "gamma.surgery_candidates": self._on_surgery,
            "certificate.verify_lower_bound": self._on_certificate,
        }
        modules = _package_modules()
        for layer, fns in LAYERS.items():
            owner = sys.modules[f"balanced_lines.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                original = getattr(owner, fn)
                wrapper = self._wrap(name, original, observers.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in self._restore:
            setattr(module, attr, original)
        self._restore.clear()

    def begin_op(self) -> None:
        """Rotation repeats are counted within one instance."""
        self._seen_rotations.clear()

    def _on_rotation(self, args, trace) -> None:
        spec, inst = args
        key = (spec, inst)
        if key in self._seen_rotations:
            self.counts["rotation.repeats"] += 1
        self._seen_rotations.add(key)
        self.counts["rotation.events"] += len(trace.events)

    def _on_gamma(self, args, gamma) -> None:
        self.counts["gamma.found"] += gamma is not None

    def _on_surgery(self, args, candidates) -> None:
        best = args[1]
        self.counts["gamma.candidates"] += len(candidates)
        self.counts["gamma.adopted"] += any(
            c.waist.value < best.waist.value for c in candidates
        )

    def _on_certificate(self, args, cert) -> None:
        self.counts["certificate.lines"] += len(cert.lines)
        self.counts["certificate.recharged_lines"] += sum(
            c.provenance.kind == "recharge" for c in cert.lines
        )

    def metrics(self) -> dict:
        """Every per-layer metric as {name: (value, unit)}."""
        out = {}
        for name, (s, self_s, calls) in self.totals.items():
            out[f"{name}.s"] = (s, "s")
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.calls"] = (calls, "count")
        c = self.counts
        (of0, key0), (of1, key1) = self._caches, self._cache_infos()
        values = {
            "rotation.repeat_ratio": _ratio(c["rotation.repeats"],
                                            self.totals["rotation.run_rotation"][2]),
            "rotation.events": c["rotation.events"],
            "geometry.direction_of.hit_ratio": _hit_ratio(of0, of1),
            "geometry.direction_key.hit_ratio": _hit_ratio(key0, key1),
            "gamma.found_ratio": _ratio(c["gamma.found"], self.totals["gamma.find_gamma"][2]),
            "gamma.candidates": c["gamma.candidates"],
            "gamma.adopted_ratio": _ratio(c["gamma.adopted"], c["gamma.candidates"]),
            "certificate.lines": c["certificate.lines"],
            "certificate.recharged_lines": c["certificate.recharged_lines"],
            "trace.wall_s": self.wall_s,
        }
        for name, unit, _ in DERIVED_METRICS:
            out[name] = (values[name], unit)
        return out

    def tree_lines(self) -> list[str]:
        """The span tree, children under parents, heaviest first."""
        children: dict[tuple, list] = {}
        for path in self.tree:
            children.setdefault(path[:-1], []).append(path)
        lines = [f"{'span':<48} {'calls':>9} {'s':>10} {'self_s':>10}"]

        def walk(parent, depth):
            for path in sorted(children.get(parent, ()), key=lambda p: -self.tree[p][0]):
                s, self_s, calls = self.tree[path]
                label = "  " * depth + path[-1]
                lines.append(f"{label:<48} {calls:>9} {s:>10.4f} {self_s:>10.4f}")
                walk(path, depth + 1)

        walk((), 0)
        return lines
