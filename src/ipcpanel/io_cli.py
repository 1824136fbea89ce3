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
import json
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

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
from .simulation import Dgp1Spec, McResult, run_monte_carlo


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


def _sort_labels(labels):
    """Numeric order when every label parses as a number, else lexicographic."""
    try:
        return sorted(labels, key=lambda s: (float(s), s))
    except ValueError:
        return sorted(labels)


def load_long_csv(path: str, schema: LongCsvSchema) -> PanelDataset:
    """Read a balanced panel from a long-format CSV with a header row.

    Rows are sorted internally by (unit, time), so the input row order is
    irrelevant. Raises MissingColumnError, CsvParseError (with the file
    row number), DuplicateCellError, or UnbalancedPanelError (listing up
    to 10 missing pairs).
    """
    needed = (schema.unit_column, schema.time_column, schema.y_column) + schema.x_columns
    cells: dict[tuple[str, str], tuple[float, ...]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise CsvParseError(1, f"{path} is empty")
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise MissingColumnError(f"missing columns {missing} in {path}")
        for record in reader:
            row = reader.line_num
            unit = record[schema.unit_column]
            time = record[schema.time_column]
            if unit is None or time is None:
                raise CsvParseError(row, f"row {row}: short row")
            try:
                values = tuple(
                    float(record[c]) for c in (schema.y_column,) + schema.x_columns
                )
            except (TypeError, ValueError) as exc:
                raise CsvParseError(row, f"row {row}: {exc}") from exc
            key = (unit, time)
            if key in cells:
                raise DuplicateCellError(
                    f"duplicate (unit, time) cell {key} at row {row}"
                )
            cells[key] = values

    units = _sort_labels({u for u, _ in cells})
    times = _sort_labels({t for _, t in cells})
    missing_pairs = [
        (u, t) for u in units for t in times if (u, t) not in cells
    ]
    if missing_pairs:
        shown = missing_pairs[:10]
        raise UnbalancedPanelError(
            shown,
            f"panel is unbalanced; {len(missing_pairs)} missing (unit, time) "
            f"pairs, first {len(shown)}: {shown}",
        )

    n, t, d_x = len(units), len(times), len(schema.x_columns)
    y = np.empty((n, t))
    x = np.empty((n, t, d_x))
    for i, u in enumerate(units):
        for s, tm in enumerate(times):
            row = cells[(u, tm)]
            y[i, s] = row[0]
            x[i, s, :] = row[1:]
    dataset = PanelDataset(y=y, x=x, unit_labels=tuple(units), time_labels=tuple(times))
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
    for key in ("delta", "als_tol", "als_coef_tol"):
        config[key] = _real(config[key])
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
        "std_errors": _reals(inference[0][1].std_errors) if inference else [],
        "covariance": _reals(inference[0][1].covariance) if inference else [],
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
        }
    return doc


def write_fit(
    fit: IpcFit,
    inference: list[tuple[str, InferenceResult]],
    out_dir: str,
    jackknife: JackknifeResult | None = None,
) -> None:
    """Write ``fit.json``, ``factors.csv``, and ``loadings.csv``.

    ``inference`` is a list of (label, result) pairs; with no factors
    selected the CSV files carry a header only.
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


TABLE_COLUMNS = [
    "n_units", "n_periods", "reps",
    "joint_selection_freq", "freq_d1", "freq_d2", "freq_d3",
    "rmse_projector",
    "rmse_beta0", "rmse_beta1", "rmse_beta", "rmse_oracle",
    "size_beta0", "size_beta1", "size_beta", "size_oracle",
]


def mc_table_row(spec: Dgp1Spec, result: McResult) -> list:
    freq = result.per_group_freq
    return [
        spec.n_units, spec.n_periods, result.reps,
        repr(result.joint_selection_freq),
        repr(freq[0]), repr(freq[1]), repr(freq[2]),
        repr(result.rmse_projector),
        repr(result.rmse_beta["beta0"]), repr(result.rmse_beta["beta1"]),
        repr(result.rmse_beta["beta"]), repr(result.rmse_beta["oracle"]),
        repr(result.wald_size["beta0"]), repr(result.wald_size["beta1"]),
        repr(result.wald_size["beta"]), repr(result.wald_size["oracle"]),
    ]


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
        _csv_text(TABLE_COLUMNS, [mc_table_row(spec, result)]),
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
    if args.wald_r_matrix is not None:
        r_matrix = _load_matrix_csv(args.wald_r_matrix)
        r_vector = _load_matrix_csv(args.wald_r_vector).ravel()
        tests = [("custom", wald_test(dataset, fit, WaldSpec(r_matrix, r_vector)))]
    else:
        d_x = dataset.n_regressors
        tests = []
        for j, name in enumerate(schema.x_columns):
            basis = np.zeros((1, d_x))
            basis[0, j] = 1.0
            tests.append(
                (name, wald_test(dataset, fit, WaldSpec(basis, np.zeros(1))))
            )
    jackknife = jackknife_bias_correct(dataset, fit) if args.jackknife else None
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
