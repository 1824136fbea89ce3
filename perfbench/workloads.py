"""The benchmark's workloads: how each one draws its inputs from the seed,
what one op is, and how an op's output is checked against the references
recorded in ``reference.json``.

Every workload has a pool of inputs; pool entry ``i`` is drawn with input
seed ``POOL_BASE + i``. A run with ``--seed n`` uses a window of ``window``
consecutive pool entries starting at ``((n - DEFAULT_SEED) * window) mod
pool``, so consecutive seeds use disjoint windows and the default seed 100
starts at input seed 100, the acceptance module's seed. Ops cycle through
the window. Only pool entries have references, which is why the pool is
finite.

This module imports numpy and the package, so only worker processes load it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ipcpanel import final_estimator, inference, io_cli, model, simulation

DEFAULT_SEED = 100
POOL_BASE = 100

#: outputs match a reference when |got - want| <= RTOL * |want| + ATOL
RTOL = 1e-6
ATOL = 1e-9

#: rows of the fixed Gaussian matrix that sketches factors.csv/loadings.csv
SKETCH_ROWS = 4

CLI_X_COLS = ("x1", "x2")


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int
    window: int
    #: writes pool entry i's input file(s) into a directory
    generate: Callable[[int, Path], None]
    #: reads pool entry i's input back
    load: Callable[[int, Path], Any]
    #: one op on a loaded input; the second argument is an output dir that
    #: does not exist when the op starts
    op: Callable[[Any, Path], Any]
    #: JSON-ready record of an op's output, compared against the reference
    summarize: Callable[[Any, Path], dict]

    def pool_indices(self, seed: int) -> list[int]:
        start = ((seed - DEFAULT_SEED) * self.window) % self.pool
        return [(start + r) % self.pool for r in range(self.window)]


# --- Monte Carlo replication -------------------------------------------------

def _mc_spec(i: int, _work: Path | None = None) -> simulation.Dgp1Spec:
    return simulation.Dgp1Spec(160, 160, seed=POOL_BASE + i)


#: simulation's bindings of the Wald tests a replication runs
MC_WALD_BINDINGS = ("wald_test", "wald_variants")


def _mc_op(spec: simulation.Dgp1Spec, _out: Path):
    """One replication, and the Wald results it computed, in call order.

    ``McResult`` keeps only each test's rejection at 5%, so for the op the
    simulation module's Wald bindings are wrapped to capture their results.
    """
    tests = []
    originals = {name: getattr(simulation, name) for name in MC_WALD_BINDINGS}

    def capture(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tests.append(result)
            return result

        return wrapper

    for name, fn in originals.items():
        setattr(simulation, name, capture(fn))
    try:
        result = simulation.run_monte_carlo(spec, 1, model.IpcConfig())
    finally:
        for name, fn in originals.items():
            setattr(simulation, name, fn)
    return result, tests


def _mc_summary(output, _out: Path) -> dict:
    # one replication: rmse_beta holds each estimator's error norm and
    # wald_size its rejection indicator at 5%. The Wald lists follow the
    # replication's call order: beta, beta0, beta1, oracle.
    result, tests = output
    return {
        "n_failures": result.n_failures,
        "per_group_freq": list(result.per_group_freq),
        "joint_selection_freq": result.joint_selection_freq,
        "rmse_beta": dict(result.rmse_beta),
        "rmse_projector": result.rmse_projector,
        "wald_size": dict(result.wald_size),
        "wald_stat": [r.wald_stat for r in tests],
        "p_value": [r.p_value for r in tests],
    }


# --- shaped fits: fit_ipc plus one Wald test per regressor -------------------

def _panel_generator(n: int, t: int) -> Callable[[int, Path], None]:
    def generate(i: int, work: Path) -> None:
        dataset, _ = simulation.generate_dgp1(simulation.Dgp1Spec(n, t, seed=POOL_BASE + i))
        np.savez(work / f"panel_{i}.npz", y=dataset.y, x=dataset.x)

    return generate


def _load_panel(i: int, work: Path) -> model.PanelDataset:
    with np.load(work / f"panel_{i}.npz") as arrays:
        return model.PanelDataset(y=arrays["y"], x=arrays["x"])


def _coefficient_specs(d_x: int) -> list[inference.WaldSpec]:
    """H0: beta_j = 0 for each regressor j, the CLI's default tests."""
    return [inference.WaldSpec(np.eye(d_x)[j : j + 1], np.zeros(1)) for j in range(d_x)]


def fit_op(dataset: model.PanelDataset, _out: Path):
    fit = final_estimator.fit_ipc(dataset, model.IpcConfig())
    tests = [
        inference.wald_test(dataset, fit, spec)
        for spec in _coefficient_specs(dataset.n_regressors)
    ]
    return fit, tests


def _fit_summary(output, _out: Path) -> dict:
    fit, tests = output
    return {
        "group_dims": [g.dim for g in fit.groups],
        "beta0": fit.beta0.tolist(),
        "beta1": fit.beta1.tolist(),
        "beta": fit.beta.tolist(),
        "wald_stat": [r.wald_stat for r in tests],
        "p_value": [r.p_value for r in tests],
        "std_errors": tests[0].std_errors.tolist(),
    }


# --- CLI estimate with the half-panel jackknife ------------------------------

def _csv_path(i: int, work: Path) -> Path:
    return work / f"panel_{i}.csv"


def write_long_csv(dataset: model.PanelDataset, path: Path) -> None:
    """Long-format CSV with columns id, time, y, x1, x2 at full precision."""
    n, t = dataset.n_units, dataset.n_periods
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("id", "time", "y") + CLI_X_COLS)
        for i in range(n):
            for s in range(t):
                writer.writerow(
                    (i + 1, s + 1, repr(float(dataset.y[i, s])))
                    + tuple(repr(float(v)) for v in dataset.x[i, s])
                )


def _cli_generate(i: int, work: Path) -> None:
    dataset, _ = simulation.generate_dgp1(simulation.Dgp1Spec(200, 200, seed=POOL_BASE + i))
    write_long_csv(dataset, _csv_path(i, work))


def cli_op(csv_path: Path, out: Path) -> int:
    return io_cli.cli_main([
        "estimate", "--data", str(csv_path), "--x-cols", ",".join(CLI_X_COLS),
        "--jackknife", "--out", str(out),
    ])


def _sketch(path: Path) -> dict:
    """Header, row count and a fixed Gaussian projection of each column.

    The projection keeps the reference small while any change larger than
    the tolerance in any cell still moves it.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))
    weights = np.random.Generator(np.random.Philox(0)).standard_normal((SKETCH_ROWS, len(body)))
    return {
        "header": header,
        "rows": len(body),
        "column_norms": np.linalg.norm(body, axis=0).tolist(),
        "projections": (weights @ body).tolist(),
    }


def _cli_summary(code: int, out: Path) -> dict:
    if code != 0:
        return {"exit_code": code}
    doc = json.loads((out / "fit.json").read_text(encoding="utf-8"))
    jackknife = doc["jackknife"]
    return {
        "exit_code": code,
        "group_dims": doc["group_dims"],
        "beta0": [float(v) for v in doc["beta0"]],
        "beta1": [float(v) for v in doc["beta1"]],
        "beta": [float(v) for v in doc["beta"]],
        "wald_stat": [float(w["stat"]) for w in doc["wald_tests"]],
        "p_value": [float(w["p_value"]) for w in doc["wald_tests"]],
        "std_errors": [float(v) for v in doc["std_errors"]],
        "beta_bc": [float(v) for v in jackknife["beta_bc"]],
        "sub_group_dims": jackknife["sub_group_dims"],
        "factors": _sketch(out / "factors.csv"),
        "loadings": _sketch(out / "loadings.csv"),
    }


WORKLOADS = {
    "mc_dgp1_160": Workload(
        "mc_dgp1_160", pool=500, window=50,
        generate=lambda i, work: None, load=_mc_spec, op=_mc_op, summarize=_mc_summary,
    ),
    "wide_fit": Workload(
        "wide_fit", pool=40, window=4,
        generate=_panel_generator(2000, 40), load=_load_panel, op=fit_op,
        summarize=_fit_summary,
    ),
    "long_fit": Workload(
        "long_fit", pool=160, window=32,
        generate=_panel_generator(40, 1000), load=_load_panel, op=fit_op,
        summarize=_fit_summary,
    ),
    "cli_estimate_jk": Workload(
        "cli_estimate_jk", pool=40, window=4,
        generate=_cli_generate, load=_csv_path, op=cli_op, summarize=_cli_summary,
    ),
}


# --- comparison --------------------------------------------------------------

def compare(got: Any, want: Any, where: str = "") -> list[str]:
    """Mismatches between an op's summary and its reference.

    Integers, strings and booleans must be equal; floats must agree within
    RTOL/ATOL; lists and dicts must have the same shape and keys.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where}: {got!r} is not a mapping"]
        problems = [m for key in want if key in got
                    for m in compare(got[key], want[key], f"{where}.{key}".lstrip("."))]
        if set(got) != set(want):
            problems.append(f"{where or 'output'}: keys {sorted(got)} != {sorted(want)}")
        return problems
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for k, (g, w) in enumerate(zip(got, want)) for m in compare(g, w, f"{where}[{k}]")]
    if isinstance(want, float):
        if not isinstance(got, (int, float)) or not math.isfinite(got) or abs(got - want) > RTOL * abs(want) + ATOL:
            return [f"{where}: {got!r} != {want!r}"]
        return []
    if got != want or type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    return []
