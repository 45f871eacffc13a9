"""Span tracing of roisolve's public functions, installed from outside.

Modules bind each other's functions by name (`from .optics import build_otf`),
so a wrapper is installed in every roisolve namespace that holds the
original function object; spans then nest the same way the calls do. Each
span records its name, start, end, parent span and op id and stays in memory
until the run ends. A layer's self time is its spans' duration minus the
time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function, raises): functions whose own body can raise report .errors
LAYERS = (
    ("optics", "build_otf", False),
    ("optics", "passband_mask", False),
    ("optics", "build_psf", True),
    ("forward", "observe_spatial", True),
    ("forward", "observe_spectrum", True),
    ("forward", "add_noise", True),
    ("forward", "image_to_spectrum", True),
    ("forward", "spectrum_to_image", True),
    ("spatial", "system_matrix", True),
    ("spatial", "build_system", True),
    ("spatial", "solve_system", True),
    ("frequency", "build_system", True),
    ("frequency", "solve_system", True),
    ("pipeline", "run_table_experiment", True),
    ("pipeline", "noise_sweep", True),
    ("pipeline", "scan_reconstruct", True),
    ("pipeline", "locate_roi", True),
    ("pipeline", "averaged_error", True),
    ("pipeline", "averaged_difference", True),
    ("fileio", "read_raster", True),
    ("fileio", "write_raw_matrix", True),
    ("fileio", "write_pgm16", True),
    ("fileio", "write_table_csv", False),
    ("fileio", "write_manifest", True),
    ("cli", "main", True),
    ("cli", "resolve_options", True),
)
SYSTEM_BUILDS = ("spatial.build_system", "frequency.build_system")
SOLVER_METHODS = {
    "spatial.solve_system": ("direct", "least_squares", "truncated"),
    "frequency.solve_system": ("direct_complex", "stacked_real_lsq", "truncated"),
}
# solves that run an SVD; a condition estimate is one more
SVD_SOLVES = (
    "spatial.solve_system.calls.least_squares",
    "spatial.solve_system.calls.truncated",
    "frequency.solve_system.calls.stacked_real_lsq",
    "frequency.solve_system.calls.truncated",
)
# .bytes: the file read, or the file written, by its size on disk
FILE_LAYERS = (
    "fileio.read_raster",
    "fileio.write_raw_matrix",
    "fileio.write_pgm16",
    "fileio.write_table_csv",
    "fileio.write_manifest",
)


def _count_system(counts, name, bound, result):
    if bound.arguments["estimate_condition"]:
        counts[name + ".cond_calls"] += 1
    counts[name + ".matrix_entries"] += int(result.a_matrix.size)


def _count_method(counts, name, bound, result):
    counts[f"{name}.calls.{bound.arguments['method']}"] += 1


def _count_file(counts, name, bound, result):
    counts[name + ".bytes"] += os.path.getsize(bound.arguments["path"])


def _count_exit(counts, name, bound, result):
    if result != 0:
        counts[name + ".errors"] += 1


AFTER = {
    **{name: _count_system for name in SYSTEM_BUILDS},
    **{name: _count_method for name in SOLVER_METHODS},
    **{name: _count_file for name in FILE_LAYERS},
    "cli.main": _count_exit,
}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for module, fn, raises in LAYERS:
        name = f"{module}.{fn}"
        specs += [(name + ".calls", "count", "lower"), (name + ".self_ms", "ms", "lower")]
        if raises:
            specs.append((name + ".errors", "count", "lower"))
        if name in SYSTEM_BUILDS:
            specs += [(name + ".cond_calls", "count", "lower"),
                      (name + ".matrix_entries", "count", "lower")]
        specs += [(f"{name}.calls.{m}", "count", "lower") for m in SOLVER_METHODS.get(name, ())]
        if name in FILE_LAYERS:
            specs.append((name + ".bytes", "B", "lower"))
    return specs + [
        ("optics.otf_builds_per_system", "ratio", "lower"),
        ("linalg.factorizations_per_system", "ratio", "lower"),
        ("trace.systems", "count", "higher"),
        ("trace.systems_per_s_traced", "1/s", "higher"),
        ("trace.systems_per_s_untraced", "1/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ]


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        after = AFTER.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            ok = False
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self.counts[name + ".calls"] += 1
                if not ok:
                    self.counts[name + ".errors"] += 1
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self.counts, name, bound, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers in every roisolve namespace; restore on exit."""
        import roisolve  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "roisolve" or n.startswith("roisolve.")]
        patched = []
        for module, fn, _ in LAYERS:
            original = getattr(sys.modules[f"roisolve.{module}"], fn)
            wrapper = self.wrap(f"{module}.{fn}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def self_ms(self) -> dict[str, float]:
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start - covered[index]) * 1000.0
        return totals

    def metrics(self, systems: int, traced_s: float, untraced_s: float) -> dict[str, dict]:
        """Every metric of metric_specs(); layers never called report 0."""
        values = dict(self.counts)
        values.update({name + ".self_ms": ms for name, ms in self.self_ms().items()})
        values["optics.otf_builds_per_system"] = self.counts["optics.build_otf.calls"] / systems
        factorizations = sum(self.counts[f"{b}.cond_calls"] for b in SYSTEM_BUILDS)
        factorizations += sum(self.counts[name] for name in SVD_SOLVES)
        values["linalg.factorizations_per_system"] = factorizations / systems
        traced = systems / traced_s
        untraced = systems / untraced_s
        values["trace.systems"] = systems
        values["trace.systems_per_s_traced"] = traced
        values["trace.systems_per_s_untraced"] = untraced
        values["trace.overhead_pct"] = 100.0 * (1.0 - traced / untraced)
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in metric_specs()}
