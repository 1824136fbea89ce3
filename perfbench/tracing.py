"""Spans around the package's public functions, recorded from outside it.

The package binds functions with ``from .x import f``, so one function can
be reachable under several module globals (``top_sym_eigh`` in both
``init_estimator`` and ``factor_selection``, for example). ``Tracer`` finds
every such binding and swaps in a wrapper while installed. A wrapper returns
the wrapped function's value and re-raises its exception unchanged.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from pathlib import Path

#: traced functions, by module
TRACED = {
    "model": ("validate",),
    "numerics": ("top_sym_eigh", "annihilator_apply", "solve_spd"),
    "init_estimator": ("fit_initial", "beta_given_f", "f_given_beta"),
    "factor_selection": ("iterate_groups", "extract_group", "mock_eigenvalue"),
    "final_estimator": ("fit_final", "loading_weights", "z_matrices"),
    "inference": ("wald_test", "wald_variants", "unit_variances", "jackknife_bias_correct"),
    "simulation": ("run_monte_carlo", "generate_dgp1", "projector_distance"),
    "io_cli": ("cli_main", "load_long_csv", "write_fit"),
}

#: functions that only some workloads call. On the other workloads their
#: busy and self times would read exactly 0.0 ms on every run, and a time
#: that never changes is not a measurement, so their times stay in the trace
#: report. Counts (calls, failed, bytes) are exact by nature, and a count of
#: 0 is a correct reading, so counts are metrics for every function.
WORKLOAD_SPECIFIC = {
    "inference.wald_variants",
    "inference.jackknife_bias_correct",
    "simulation.run_monte_carlo",
    "simulation.generate_dgp1",
    "simulation.projector_distance",
    "io_cli.cli_main",
    "io_cli.load_long_csv",
    "io_cli.write_fit",
}

#: counts read from a traced call: function -> (count, fn(args, result)).
#: io_cli passes write_fit's output directory as the third positional argument.
COUNTERS = {
    "init_estimator.fit_initial": (
        "init_estimator.als_iterations", lambda args, result: result.iterations),
    "factor_selection.iterate_groups": (
        "factor_selection.groups", lambda args, result: len(result)),
    "io_cli.load_long_csv": (
        "io_cli.bytes_in", lambda args, result: os.path.getsize(args[0])),
    "io_cli.write_fit": (
        "io_cli.bytes_out", lambda args, result: sum(
            os.path.getsize(Path(args[2]) / name)
            for name in ("fit.json", "factors.csv", "loadings.csv"))),
}

COUNTER_NAMES = [name for name, _ in COUNTERS.values()]
FUNCTIONS = [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]
OP = "op"


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for fn in FUNCTIONS:
        names.append((f"{fn}.calls", "count"))
        if fn not in WORKLOAD_SPECIFIC:
            names.append((f"{fn}.busy_ms", "ms"))
            names.append((f"{fn}.self_ms", "ms"))
        names.append((f"{fn}.failed", "count"))
    names += [(name, "bytes" if name.startswith("io_cli.") else "count") for name in COUNTER_NAMES]
    names += [("trace.overhead_frac", "frac"), ("trace.uncovered_frac", "frac")]
    return names


class Tracer:
    """Records spans ``(name, start, end, parent, op, failed)`` in memory.

    Span ids are list positions; an op's root span has parent -1 and the
    name ``"op"``. Times are ``time.perf_counter`` seconds.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTER_NAMES, 0.0)
        self._stack: list[int] = []
        self._op = -1
        modules = [importlib.import_module(f"ipcpanel.{m}") for m in TRACED]
        modules.append(importlib.import_module("ipcpanel"))
        self._bindings = []
        for module, fns in TRACED.items():
            for fn in fns:
                original = getattr(importlib.import_module(f"ipcpanel.{module}"), fn)
                wrapper = self._wrap(f"{module}.{fn}", original)
                for holder in modules:
                    for attr, value in vars(holder).items():
                        if value is original:
                            self._bindings.append((holder, attr, original, wrapper))

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(span)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span] = (name, start, end, parent, self._op, failed)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            return result

        return wrapper

    def install(self) -> None:
        for holder, attr, _, wrapper in self._bindings:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._bindings:
            setattr(holder, attr, original)

    def bound_names(self) -> list[str]:
        return sorted(f"{holder.__name__}.{attr}" for holder, attr, _, _ in self._bindings)

    def begin_op(self, op: int) -> None:
        self._op = op
        self._stack = [len(self.spans)]
        self.spans.append((OP, time.perf_counter(), None, -1, op, False))

    def end_op(self, failed: bool) -> None:
        root = self._stack[0]
        name, start, _, parent, op, _ = self.spans[root]
        self.spans[root] = (name, start, time.perf_counter(), parent, op, failed)
        self._stack = []

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,name,start,end,parent,op,failed\n")
            for span, (name, start, end, parent, op, failed) in enumerate(self.spans):
                handle.write(f"{span},{name},{start!r},{end!r},{parent},{op},{int(failed)}\n")

    def summarize(self) -> dict:
        """Per-function calls, busy and self time, failures; op coverage.

        Self time is a span's duration minus that of its direct children.
        Uncovered time is an op's duration inside no traced span.
        """
        stats = {fn: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0} for fn in FUNCTIONS}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        ops = op_time = uncovered = 0
        for span, (name, start, end, _, _, failed) in enumerate(self.spans):
            duration = end - start
            if name == OP:
                ops += 1
                op_time += duration
                uncovered += duration - child_time[span]
                continue
            entry = stats[name]
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration - child_time[span]
            entry["failed"] += int(failed)
        return {
            "ops": ops,
            "op_s": op_time,
            "uncovered_frac": uncovered / op_time if op_time else 0.0,
            "functions": stats,
            "counts": dict(self.counts),
        }
