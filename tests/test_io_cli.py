import csv
import json
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ipcpanel import simulation
from ipcpanel.errors import (
    CsvParseError,
    DuplicateCellError,
    MissingColumnError,
    SingularDesignError,
    UnbalancedPanelError,
)
from ipcpanel.final_estimator import fit_ipc
from ipcpanel.inference import WaldSpec, wald_test
from ipcpanel.io_cli import (
    LongCsvSchema,
    cli_main,
    load_long_csv,
    write_fit,
    write_mc_result,
)
from ipcpanel.model import IpcConfig, PanelDataset
from ipcpanel.simulation import Dgp1Spec, generate_dgp1, run_monte_carlo


SCHEMA = LongCsvSchema(x_columns=("x1",))


def write_rows(path, rows, header=("id", "time", "y", "x1")):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def minimal_rows():
    rows = []
    for i, unit in enumerate(("a", "b")):
        for s in range(3):
            rows.append([unit, s + 1, 1.0 + i + s, 0.5 * s + i])
    return rows


def dataset_to_csv(path, ds):
    header = ["id", "time", "y"] + [f"x{j+1}" for j in range(ds.n_regressors)]
    rows = []
    for i in range(ds.n_units):
        for s in range(ds.n_periods):
            rows.append(
                [f"u{i:03d}", s + 1, format(ds.y[i, s], ".17g")]
                + [format(ds.x[i, s, j], ".17g") for j in range(ds.n_regressors)]
            )
    write_rows(path, rows, header=header)


# --- load_long_csv -------------------------------------------------------------

def test_minimal_panel(tmp_path):
    path = tmp_path / "panel.csv"
    write_rows(path, minimal_rows())
    ds = load_long_csv(str(path), SCHEMA)
    assert (ds.n_units, ds.n_periods, ds.n_regressors) == (2, 3, 1)
    assert ds.unit_labels == ("a", "b")
    assert ds.time_labels == ("1", "2", "3")
    assert ds.y[1, 2] == pytest.approx(4.0)


def test_shuffled_rows_give_identical_panel(tmp_path):
    ordered, shuffled = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = minimal_rows()
    write_rows(ordered, rows)
    write_rows(shuffled, rows[::-1])
    a = load_long_csv(str(ordered), SCHEMA)
    b = load_long_csv(str(shuffled), SCHEMA)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)


def test_numeric_time_labels_sort_numerically(tmp_path):
    path = tmp_path / "panel.csv"
    rows = []
    for unit in ("a", "b"):
        for s in (1, 2, 10):  # lexicographic order would put 10 before 2
            rows.append([unit, s, float(s), float(s) * 2.0])
    write_rows(path, rows)
    ds = load_long_csv(str(path), SCHEMA)
    assert ds.time_labels == ("1", "2", "10")
    assert ds.y[0].tolist() == [1.0, 2.0, 10.0]


def test_duplicate_cell_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    write_rows(path, minimal_rows() + [["a", 1, 9.0, 9.0]])
    with pytest.raises(DuplicateCellError):
        load_long_csv(str(path), SCHEMA)


def test_unbalanced_panel_lists_missing_pairs(tmp_path):
    path = tmp_path / "panel.csv"
    write_rows(path, minimal_rows()[:-1])
    with pytest.raises(UnbalancedPanelError) as err:
        load_long_csv(str(path), SCHEMA)
    assert err.value.missing_pairs == [("b", "3")]


def test_missing_column_and_parse_errors(tmp_path):
    path = tmp_path / "panel.csv"
    write_rows(path, minimal_rows())
    with pytest.raises(MissingColumnError):
        load_long_csv(str(path), LongCsvSchema(x_columns=("x9",)))
    bad = tmp_path / "bad.csv"
    rows = minimal_rows()
    rows[2][2] = "not-a-number"
    write_rows(bad, rows)
    with pytest.raises(CsvParseError) as err:
        load_long_csv(str(bad), SCHEMA)
    assert err.value.row == 4  # header is line 1


# --- write_fit -------------------------------------------------------------------

@pytest.fixture(scope="module")
def fit_and_data():
    ds, truth = generate_dgp1(Dgp1Spec(24, 24, seed=21))
    fit = fit_ipc(ds, IpcConfig(d_max=5))
    test = wald_test(ds, fit, WaldSpec(np.eye(2), truth.beta_true))
    return ds, fit, test


def test_factor_csv_round_trip_is_exact(tmp_path, fit_and_data):
    _, fit, test = fit_and_data
    write_fit(fit, [("wald", test)], str(tmp_path))
    with open(tmp_path / "factors.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    assert len(header) == fit.total_factors
    reloaded = np.array([[float(v) for v in row] for row in body])
    assert np.array_equal(reloaded, fit.factors_combined)  # 17 digits round-trip
    with open(tmp_path / "loadings.csv", newline="") as handle:
        body = list(csv.reader(handle))[1:]
    reloaded = np.array([[float(v) for v in row] for row in body])
    assert np.array_equal(reloaded, fit.loadings_combined)


def test_fit_json_validates_against_shipped_schema(tmp_path, fit_and_data):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources

    _, fit, test = fit_and_data
    write_fit(fit, [("x1", test)], str(tmp_path))
    doc = json.loads((tmp_path / "fit.json").read_text())
    schema = json.loads(
        (resources.files("ipcpanel") / "schemas" / "fit.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)
    assert doc["group_dims"] == [g.dim for g in fit.groups]
    assert float(doc["beta"][0]) == fit.beta[0]


def test_mc_result_validates_against_shipped_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources

    spec = Dgp1Spec(20, 20, seed=31)
    config = IpcConfig(d_max=4)
    result = run_monte_carlo(spec, 2, config)
    write_mc_result(result, spec, config, str(tmp_path))
    doc = json.loads((tmp_path / "mc_result.json").read_text())
    schema = json.loads(
        (resources.files("ipcpanel") / "schemas" / "mc_result.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)
    table = (tmp_path / "table.csv").read_text().splitlines()
    assert table[0].startswith("n_units,n_periods,reps,joint_selection_freq")
    assert len(table) == 2


def test_mc_result_names_failed_replications(tmp_path, monkeypatch):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources

    spec = Dgp1Spec(12, 12, seed=33)
    config = IpcConfig(d_max=3)

    def failing_draw(rep_spec):
        if rep_spec.seed == spec.seed + 5:
            raise SingularDesignError("injected")
        return generate_dgp1(rep_spec)

    monkeypatch.setattr(simulation, "generate_dgp1", failing_draw)
    result = run_monte_carlo(spec, 100, config)
    write_mc_result(result, spec, config, str(tmp_path))
    doc = json.loads((tmp_path / "mc_result.json").read_text())
    schema = json.loads(
        (resources.files("ipcpanel") / "schemas" / "mc_result.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)
    assert doc["result"]["n_failures"] == 1
    assert doc["result"]["failure_messages"] == ["rep 5: SingularDesignError: injected"]


def test_no_factor_fit_writes_header_only(tmp_path):
    rng = np.random.default_rng(41)
    x = rng.normal(size=(20, 20, 1))
    y = x @ np.array([1.0]) + rng.normal(size=(20, 20))
    ds = PanelDataset(y=y, x=x)
    fit = fit_ipc(ds, IpcConfig(d_max=4))
    assert fit.total_factors == 0
    test = wald_test(ds, fit, WaldSpec(np.eye(1), np.ones(1)))
    write_fit(fit, [("wald", test)], str(tmp_path))
    assert (tmp_path / "factors.csv").read_text() == "\n"
    assert (tmp_path / "loadings.csv").read_text() == "\n"


# --- CLI ----------------------------------------------------------------------------

def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ipcpanel", *args],
        capture_output=True,
        text=True,
    )


def test_estimate_cli_matches_in_process_pipeline(tmp_path):
    ds, _ = generate_dgp1(Dgp1Spec(20, 18, seed=51))
    path = tmp_path / "panel.csv"
    dataset_to_csv(path, ds)
    out = run_cli(
        "estimate", "--data", str(path), "--x-cols", "x1,x2",
        "--dmax", "5", "--out", str(tmp_path / "fit"),
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads((tmp_path / "fit" / "fit.json").read_text())
    expected = fit_ipc(ds, IpcConfig(d_max=5))
    got = np.array([float(v) for v in doc["beta"]])
    assert np.allclose(got, expected.beta, atol=1e-12)
    assert doc["group_dims"] == [g.dim for g in expected.groups]


def test_simulate_cli_outputs_are_deterministic(tmp_path):
    args = ("simulate", "--dgp1", "--n", "24", "--t", "24", "--reps", "3", "--seed", "7")
    first = run_cli(*args, "--out", str(tmp_path / "one"))
    second = run_cli(*args, "--out", str(tmp_path / "two"))
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0
    assert (tmp_path / "one" / "mc_result.json").read_bytes() == (
        tmp_path / "two" / "mc_result.json"
    ).read_bytes()
    assert (tmp_path / "one" / "table.csv").read_bytes() == (
        tmp_path / "two" / "table.csv"
    ).read_bytes()


def test_exit_codes(tmp_path):
    # usage error: missing required argument
    assert run_cli("estimate", "--x-cols", "a", "--out", "x").returncode == 1
    # data error: nonexistent file
    out = run_cli(
        "estimate", "--data", str(tmp_path / "nope.csv"), "--x-cols", "x1",
        "--out", str(tmp_path / "o"),
    )
    assert out.returncode == 2
    assert not (tmp_path / "o").exists()  # no partial outputs
    # numerical failure: collinear regressors
    rng = np.random.default_rng(61)
    base = rng.normal(size=(10, 10, 1))
    ds = PanelDataset(
        y=rng.normal(size=(10, 10)), x=np.concatenate([base, 2.0 * base], axis=2)
    )
    path = tmp_path / "collinear.csv"
    dataset_to_csv(path, ds)
    out = run_cli(
        "estimate", "--data", str(path), "--x-cols", "x1,x2",
        "--dmax", "3", "--out", str(tmp_path / "o2"),
    )
    assert out.returncode == 3
    assert not (tmp_path / "o2").exists()
    # data error: a restriction matrix with more columns than regressors
    ds, _ = generate_dgp1(Dgp1Spec(16, 17, seed=71))
    path = tmp_path / "panel.csv"
    dataset_to_csv(path, ds)
    np.savetxt(tmp_path / "R.csv", np.array([[1.0, -1.0, 0.0]]), delimiter=",")
    np.savetxt(tmp_path / "r.csv", np.zeros((1, 1)), delimiter=",")
    out = run_cli(
        "estimate", "--data", str(path), "--x-cols", "x1,x2", "--dmax", "4",
        "--wald-R", str(tmp_path / "R.csv"), "--wald-r", str(tmp_path / "r.csv"),
        "--out", str(tmp_path / "o3"),
    )
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "o3").exists()
    # data error: a restriction file that is empty or holds a non-finite value
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "nan.csv").write_text("nan\n")
    np.savetxt(tmp_path / "R1.csv", np.array([[1.0, -1.0]]), delimiter=",")
    (tmp_path / "R_nan.csv").write_text("1,nan\n")
    for name, r_matrix, r_vector in [
        ("r_nan", "R1.csv", "nan.csv"),
        ("R_nan", "R_nan.csv", "r.csv"),
        ("R_empty", "empty.csv", "r.csv"),
    ]:
        out = run_cli(
            "estimate", "--data", str(path), "--x-cols", "x1,x2", "--dmax", "4",
            "--wald-R", str(tmp_path / r_matrix), "--wald-r", str(tmp_path / r_vector),
            "--out", str(tmp_path / name),
        )
        assert out.returncode == 2, (name, out.stderr)
        assert "Traceback" not in out.stderr, name
        assert not (tmp_path / name).exists(), name


@pytest.mark.parametrize(
    "args",
    [
        ("estimate", "--dmax", "0"),
        ("estimate", "--delta", "-1"),
        ("estimate", "--delta", "nan"),
        ("estimate", "--delta", "inf"),
        ("simulate", "--dgp1", "--n", "-5", "--t", "8", "--reps", "1"),
        ("simulate", "--dgp1", "--n", "8", "--t", "8", "--reps", "0"),
        ("simulate", "--dgp1", "--n", "8", "--t", "8", "--reps", "1", "--seed", "-1"),
        ("simulate", "--dgp1", "--n", "10", "--t", "40", "--reps", "1"),
        ("simulate", "--dgp1", "--n", "20", "--t", "20", "--reps", "1", "--threads", "0"),
        ("simulate", "--dgp1", "--n", "20", "--t", "20", "--reps", "1", "--threads", "-3"),
    ],
)
def test_bad_numbers_are_usage_errors(tmp_path, capsys, args):
    path = tmp_path / "panel.csv"
    write_rows(path, minimal_rows())
    if args[0] == "estimate":
        args += ("--data", str(path), "--x-cols", "x1")
    assert cli_main([*args, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "o").exists()


def test_usage_error_in_process():
    assert cli_main(["simulate", "--n", "8", "--t", "8", "--reps", "1", "--out", "x"]) == 1


def test_table_script_agrees_with_simulate(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_dgp1_tables.py"
    main = runpy.run_path(str(script))["main"]
    assert main(["--sizes", "24", "--reps", "2", "--seed", "7",
                 "--out", str(tmp_path / "script.csv")]) == 0
    assert cli_main(["simulate", "--dgp1", "--n", "24", "--t", "24", "--reps", "2",
                     "--seed", "7", "--out", str(tmp_path / "cli")]) == 0
    assert (tmp_path / "script.csv").read_bytes() == (
        tmp_path / "cli" / "table.csv"
    ).read_bytes()


@pytest.mark.parametrize("args", [
    ["--sizes", "24,10"],                       # an entry at d_max = 10
    ["--sizes", "24", "--dmax", "30"],
    ["--sizes", "24", "--threads", "0"],
    ["--sizes", "24", "--reps", "0"],
    ["--sizes", "24", "--dmax", "0"],
    ["--sizes", "24,x"],
])
def test_table_script_rejects_bad_numbers_before_any_work(monkeypatch, capsys, args):
    runs = []
    monkeypatch.setattr(simulation, "run_monte_carlo", lambda *a, **k: runs.append(a))
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_dgp1_tables.py"
    main = runpy.run_path(str(script))["main"]
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 2
    assert runs == []
    assert "error:" in capsys.readouterr().err


def test_custom_wald_restriction_and_jackknife(tmp_path):
    ds, _ = generate_dgp1(Dgp1Spec(16, 17, seed=71))
    path = tmp_path / "panel.csv"
    dataset_to_csv(path, ds)
    np.savetxt(tmp_path / "R.csv", np.array([[1.0, -1.0]]), delimiter=",")
    np.savetxt(tmp_path / "r.csv", np.zeros((1, 1)), delimiter=",")
    out = run_cli(
        "estimate", "--data", str(path), "--x-cols", "x1,x2", "--dmax", "4",
        "--wald-R", str(tmp_path / "R.csv"), "--wald-r", str(tmp_path / "r.csv"),
        "--jackknife", "--out", str(tmp_path / "fit"),
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads((tmp_path / "fit" / "fit.json").read_text())
    assert [w["label"] for w in doc["wald_tests"]] == ["custom"]
    assert doc["wald_tests"][0]["dof"] == 1
    jk = doc["jackknife"]
    beta = np.array([float(v) for v in doc["beta"]])
    subs = np.array([[float(v) for v in row] for row in jk["sub_estimates"]])
    bc = np.array([float(v) for v in jk["beta_bc"]])
    assert np.allclose(bc, 3.0 * beta - 0.5 * subs.sum(axis=0), atol=1e-12)
    # only one of the pair is a usage error
    out = run_cli(
        "estimate", "--data", str(path), "--x-cols", "x1,x2",
        "--wald-R", str(tmp_path / "R.csv"), "--out", str(tmp_path / "f2"),
    )
    assert out.returncode == 1
