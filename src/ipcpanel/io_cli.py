"""Long-format CSV ingestion, result serialization, and the command-line
entry points ``estimate`` and ``simulate``.

All file outputs are rendered in memory first and written through a
temp-file-plus-rename, so a failing run leaves no partial artifacts.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from . import init_estimator
from .errors import (
    CsvParseError,
    DataError,
    DuplicateCellError,
    IpcError,
    MissingColumnError,
    UnbalancedPanelError,
)
from .final_estimator import fit_ipc
from .inference import (
    InferenceResult,
    JackknifeResult,
    WaldSpec,
    jackknife_bias_correct,
    wald_test,
)
from .model import (
    THRESHOLD_GLOBAL,
    THRESHOLD_PER_GROUP,
    IpcConfig,
    IpcFit,
    PanelDataset,
    validate_dataset,
)
from .simulation import ESTIMATORS, Dgp1Spec, McResult, run_monte_carlo


@dataclass(frozen=True)
class LongCsvSchema:
    """Column names for a balanced long-format panel CSV."""

    x_columns: tuple[str, ...]
    unit_column: str = "id"
    time_column: str = "time"
    y_column: str = "y"

    def __post_init__(self):
        object.__setattr__(self, "x_columns", tuple(self.x_columns))
        if not self.x_columns:
            raise MissingColumnError("at least one regressor column is required")


#: rows per column-wise parse step. A small chunk bounds the rows held as
#: Python strings, and its row lists are freed before the garbage collector
#: promotes them: on a 40k-row file, in a process holding numpy and scipy,
#: 4096-row chunks parsed about twice as slowly as 512-row ones.
_CHUNK_ROWS = 512


def _sort_labels(labels):
    """Numeric order when every label parses as a non-NaN number, else
    lexicographic (a NaN key would make ``sorted`` follow the input order)."""
    try:
        keys = [float(s) for s in labels]
    except ValueError:
        return sorted(labels)
    if any(math.isnan(k) for k in keys):
        return sorted(labels)
    return [s for _, s in sorted(zip(keys, labels))]


def _label_codes(column, codes: dict[str, int]) -> np.ndarray:
    """Each label's integer code; a new label takes the next code."""
    return np.fromiter(
        (codes.setdefault(s, len(codes)) for s in column), dtype=np.intp, count=len(column)
    )


def _ranks(codes: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """Sorted labels, and each first-seen code's position among them."""
    labels = _sort_labels(list(codes))
    rank = np.empty(len(labels), dtype=np.intp)
    for position, label in enumerate(labels):
        rank[codes[label]] = position
    return labels, rank


def _raise_first_fault(path: str, schema: LongCsvSchema) -> NoReturn:
    """Rescan ``path`` row by row and raise its first fault in file order.

    Called only once the column-wise parse has found a short row, an
    unparsable value or a repeated cell; it locates the fault, with the
    physical line where the record ends, and builds nothing.
    """
    value_columns = (schema.y_column,) + schema.x_columns
    seen = set()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for record in reader:
            row = reader.line_num
            unit = record[schema.unit_column]
            time = record[schema.time_column]
            if unit is None or time is None:
                raise CsvParseError(row, f"row {row}: short row")
            try:
                for c in value_columns:
                    float(record[c])
            except (TypeError, ValueError) as exc:
                raise CsvParseError(row, f"row {row}: {exc}") from exc
            key = (unit, time)
            if key in seen:
                raise DuplicateCellError(
                    f"duplicate (unit, time) cell {key} at row {row}"
                )
            seen.add(key)
    raise AssertionError(f"{path}: the column-wise parse saw a fault the row scan did not")


def load_long_csv(path: str, schema: LongCsvSchema) -> PanelDataset:
    """Read a balanced panel from a long-format CSV with a header row.

    Rows are sorted internally by (unit, time), so the input row order is
    irrelevant. Raises MissingColumnError, CsvParseError (with the file
    row number), DuplicateCellError, or UnbalancedPanelError (listing up
    to 10 missing pairs).

    The file is parsed column-wise, ``_CHUNK_ROWS`` rows at a time: each
    chunk's values become floats in one numpy call and its labels become
    first-seen integer codes. A faulty file is rescanned row by row, so
    the error raised is the first in file order.
    """
    needed = (schema.unit_column, schema.time_column, schema.y_column) + schema.x_columns
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise CsvParseError(1, f"{path} is empty")
        missing = [c for c in needed if c not in header]
        if missing:
            raise MissingColumnError(f"missing columns {missing} in {path}")
        # a repeated name reads its last column, as csv.DictReader does
        index = {name: j for j, name in enumerate(header)}
        picks = [index[c] for c in needed]
        unit_j, time_j, *value_js = picks
        width = max(picks) + 1
        units: dict[str, int] = {}
        times: dict[str, int] = {}
        unit_codes = [np.empty(0, dtype=np.intp)]
        time_codes = [np.empty(0, dtype=np.intp)]
        values = [np.empty((len(value_js), 0))]
        for chunk in iter(lambda: list(itertools.islice(reader, _CHUNK_ROWS)), []):
            rows = list(filter(None, chunk))  # csv.DictReader skips blank lines
            if not rows:
                continue
            if min(map(len, rows)) < width:
                _raise_first_fault(path, schema)
            columns = list(zip(*rows))
            try:
                values.append(np.array([columns[j] for j in value_js], dtype=float))
            except ValueError:
                _raise_first_fault(path, schema)
            unit_codes.append(_label_codes(columns[unit_j], units))
            time_codes.append(_label_codes(columns[time_j], times))

    unit_labels, unit_rank = _ranks(units)
    time_labels, time_rank = _ranks(times)
    n, t, d_x = len(unit_labels), len(time_labels), len(schema.x_columns)
    flat = unit_rank[np.concatenate(unit_codes)] * t + time_rank[np.concatenate(time_codes)]
    counts = np.bincount(flat, minlength=n * t)
    if np.any(counts > 1):
        _raise_first_fault(path, schema)
    holes = np.flatnonzero(counts == 0)
    if holes.size:
        shown = [(unit_labels[k // t], time_labels[k % t]) for k in holes[:10].tolist()]
        raise UnbalancedPanelError(
            shown,
            f"panel is unbalanced; {holes.size} missing (unit, time) "
            f"pairs, first {len(shown)}: {shown}",
        )

    cell_values = np.concatenate(values, axis=1)
    y = np.empty(n * t)
    y[flat] = cell_values[0]
    x = np.empty((n * t, d_x))
    x[flat] = cell_values[1:].T
    dataset = PanelDataset(
        y=y.reshape(n, t), x=x.reshape(n, t, d_x),
        unit_labels=tuple(unit_labels), time_labels=tuple(time_labels),
    )
    validate_dataset(dataset)
    return dataset


# --- serialization -----------------------------------------------------------

def _real(x) -> str:
    """Decimal string at 17 significant digits (bit-exact round trip)."""
    return format(float(x), ".17g")


def _reals(a) -> list:
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        return [_real(v) for v in arr]
    return [_reals(row) for row in arr]


def _atomic_write(path: str, content: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _factor_column_names(fit: IpcFit) -> list[str]:
    names = []
    for group in fit.groups:
        for k in range(group.dim):
            names.append(f"f{group.group_index}_{k + 1}")
    return names


def fit_to_json_dict(
    fit: IpcFit,
    inference: list[tuple[str, InferenceResult]],
    jackknife: JackknifeResult | None = None,
) -> dict:
    """JSON-ready mapping for ``fit.json``; reals become decimal strings."""
    config = fit.config.to_dict()
    config["delta"] = _real(config["delta"])
    doc = {
        "n_units": int(fit.loadings_combined.shape[0]),
        "n_periods": int(fit.factors_combined.shape[0]),
        "n_regressors": int(fit.beta.shape[0]),
        "beta0": _reals(fit.beta0),
        "beta1": _reals(fit.beta1),
        "beta": _reals(fit.beta),
        "n_groups": fit.n_groups,
        "group_dims": [g.dim for g in fit.groups],
        "total_factors": fit.total_factors,
        "group_eigenvalues": [_reals(g.eigenvalues) for g in fit.groups],
        "mock_eigenvalues": [_real(g.mock_eigenvalue) for g in fit.groups],
        "std_errors": _reals(fit.std_errors),
        "covariance": _reals(fit.covariance),
        "wald_tests": [
            {
                "label": label,
                "stat": _real(result.wald_stat),
                "dof": result.dof,
                "p_value": _real(result.p_value),
            }
            for label, result in inference
        ],
        "convergence": {
            "als_iterations": fit.als_iterations,
            "converged": bool(fit.converged),
        },
        "config": config,
    }
    if jackknife is not None:
        doc["jackknife"] = {
            "beta_bc": _reals(jackknife.beta_bc),
            "sub_estimates": _reals(jackknife.sub_estimates),
            "sub_group_dims": {
                k: list(v) for k, v in jackknife.sub_group_dims.items()
            },
            "sub_converged": dict(jackknife.sub_converged),
        }
    return doc


def write_fit(
    fit: IpcFit,
    inference: list[tuple[str, InferenceResult]],
    out_dir: str,
    jackknife: JackknifeResult | None = None,
) -> None:
    """Write ``fit.json``, ``factors.csv``, and ``loadings.csv``.

    ``inference`` is a list of (label, result) pairs, possibly empty; the
    covariance and standard errors in ``fit.json`` are the fit's own. With
    no factors selected the CSV files carry a header only.
    """
    os.makedirs(out_dir, exist_ok=True)
    names = _factor_column_names(fit)
    factors_rows = [[_real(v) for v in row] for row in fit.factors_combined]
    loadings_rows = [[_real(v) for v in row] for row in fit.loadings_combined]
    if not names:
        factors_rows = []
        loadings_rows = []
    doc = fit_to_json_dict(fit, inference, jackknife)
    _atomic_write(
        os.path.join(out_dir, "fit.json"),
        json.dumps(doc, indent=2, sort_keys=True) + "\n",
    )
    _atomic_write(os.path.join(out_dir, "factors.csv"), _csv_text(names, factors_rows))
    _atomic_write(os.path.join(out_dir, "loadings.csv"), _csv_text(names, loadings_rows))


_TABLE_COLUMNS = [
    "n_units", "n_periods", "reps",
    "joint_selection_freq", "freq_d1", "freq_d2", "freq_d3",
    "rmse_projector",
    *(f"rmse_{key}" for key in ESTIMATORS),
    *(f"size_{key}" for key in ESTIMATORS),
]


def _mc_table_row(spec: Dgp1Spec, result: McResult) -> list:
    reals = (
        result.joint_selection_freq, *result.per_group_freq, result.rmse_projector,
        *(result.rmse_beta[key] for key in ESTIMATORS),
        *(result.wald_size[key] for key in ESTIMATORS),
    )
    return [spec.n_units, spec.n_periods, result.reps, *map(repr, reals)]


def write_mc_result(
    result: McResult, spec: Dgp1Spec, config: IpcConfig, out_dir: str
) -> None:
    """Write ``mc_result.json`` and the summary ``table.csv``."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "spec": {
            "dgp": "dgp1",
            "n_units": spec.n_units,
            "n_periods": spec.n_periods,
            "seed": spec.seed,
        },
        "config": config.to_dict(),
        "result": result.to_dict(),
    }
    _atomic_write(
        os.path.join(out_dir, "mc_result.json"),
        json.dumps(doc, indent=2, sort_keys=True) + "\n",
    )
    _atomic_write(
        os.path.join(out_dir, "table.csv"),
        _csv_text(_TABLE_COLUMNS, [_mc_table_row(spec, result)]),
    )


# --- command line ------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ipcpanel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fit a panel from a long-format CSV")
    est.add_argument("--data", required=True, help="input CSV path")
    est.add_argument("--x-cols", required=True, help="comma-separated regressor columns")
    est.add_argument("--y-col", default="y")
    est.add_argument("--id-col", default="id")
    est.add_argument("--time-col", default="time")
    est.add_argument("--dmax", type=int, default=10)
    est.add_argument("--delta", type=float, default=1.0)
    est.add_argument(
        "--tau-rule",
        choices=[THRESHOLD_GLOBAL, THRESHOLD_PER_GROUP],
        default=THRESHOLD_PER_GROUP,
    )
    est.add_argument("--jackknife", action="store_true")
    est.add_argument("--wald-R", dest="wald_r_matrix", help="CSV with the restriction matrix")
    est.add_argument("--wald-r", dest="wald_r_vector", help="CSV with the restriction vector")
    est.add_argument("--out", required=True, help="output directory")

    sim = sub.add_parser("simulate", help="run the artificial-panel study")
    sim.add_argument("--dgp1", action="store_true", help="use the built-in artificial design")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--t", type=int, required=True)
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--out", required=True, help="output directory")
    return parser


def _load_matrix_csv(path: str) -> np.ndarray:
    """Read a non-empty, all-finite numeric matrix from a headerless CSV."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on an empty file
            matrix = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise CsvParseError(0, f"{path}: {exc}") from exc
    if matrix.size == 0:
        raise CsvParseError(0, f"{path} holds no numbers")
    if not np.all(np.isfinite(matrix)):
        raise CsvParseError(0, f"{path} holds a non-finite value")
    return matrix


def _run_estimate(args) -> None:
    schema = LongCsvSchema(
        x_columns=tuple(c.strip() for c in args.x_cols.split(",") if c.strip()),
        unit_column=args.id_col,
        time_column=args.time_col,
        y_column=args.y_col,
    )
    if (args.wald_r_matrix is None) != (args.wald_r_vector is None):
        raise _UsageError("--wald-R and --wald-r must be given together")
    try:
        config = IpcConfig(delta=args.delta, d_max=args.dmax, threshold_rule=args.tau_rule)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    dataset = load_long_csv(args.data, schema)
    fit = fit_ipc(dataset, config)
    if not fit.converged:
        print(
            f"warning: the initial ALS step hit its cap of {fit.als_iterations} "
            "iterations without converging",
            file=sys.stderr,
        )
    if args.wald_r_matrix is not None:
        r_matrix = _load_matrix_csv(args.wald_r_matrix)
        r_vector = _load_matrix_csv(args.wald_r_vector).ravel()
        tests = [("custom", wald_test(dataset, fit, WaldSpec(r_matrix, r_vector)))]
    else:
        basis = np.eye(dataset.n_regressors)
        tests = [
            (name, wald_test(dataset, fit, WaldSpec(basis[j : j + 1], np.zeros(1))))
            for j, name in enumerate(schema.x_columns)
        ]
    jackknife = jackknife_bias_correct(dataset, fit) if args.jackknife else None
    if jackknife is not None:
        for name, converged in jackknife.sub_converged.items():
            if not converged:
                print(
                    f"warning: the jackknife half {name}: the initial ALS step hit "
                    f"its cap of {init_estimator.ALS_MAX_ITER} iterations without converging",
                    file=sys.stderr,
                )
    write_fit(fit, tests, args.out, jackknife=jackknife)


def _run_simulate(args) -> None:
    if not args.dgp1:
        raise _UsageError("simulate requires --dgp1 (the only built-in design)")
    if args.reps < 1 or args.seed < 0 or args.threads < 1:
        raise _UsageError("simulate needs --reps >= 1, --seed >= 0 and --threads >= 1")
    config = IpcConfig()
    if min(args.n, args.t) <= config.d_max:
        raise _UsageError(f"simulate needs min(--n, --t) > d_max = {config.d_max}")
    spec = Dgp1Spec(n_units=args.n, n_periods=args.t, seed=args.seed)
    result = run_monte_carlo(spec, args.reps, config, parallelism=args.threads)
    write_mc_result(result, spec, config, args.out)


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "estimate":
            _run_estimate(args)
        else:
            _run_simulate(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (IpcError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
