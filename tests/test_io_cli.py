import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ipcpanel import init_estimator, io_cli, simulation
from ipcpanel.errors import (
    CsvParseError,
    DimensionMismatchError,
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


NONE_TO_FLOAT = "float() argument must be a string or a real number, not 'NoneType'"


@pytest.mark.parametrize(
    "text, error, row, message",
    [
        pytest.param(
            "id,time,y,x1\na,1,1,2\n\na,2,bad,3\n",
            CsvParseError, 4, "row 4: could not convert string to float: 'bad'",
            id="blank-line-before-bad-value",
        ),
        pytest.param(
            'id,time,y,x1\n"a\nb",1,1,2\n"a\nb",2,bad,3\n',
            CsvParseError, 5, "row 5: could not convert string to float: 'bad'",
            id="multi-line-label-reports-the-line-its-record-ends",
        ),
        pytest.param(
            "id,time,y,x1\na,1,1,2\na\n",
            CsvParseError, 3, "row 3: short row", id="no-time-column",
        ),
        pytest.param(
            "id,time,y,x1\na,1,1,2\na,2,3\n",
            CsvParseError, 3, f"row 3: {NONE_TO_FLOAT}", id="no-x-column",
        ),
        pytest.param(
            "id,time,y,x1\na,1,1,2\na,1,3,4\nb,1,1,2\nb,2,bad,3\n",
            DuplicateCellError, None, "duplicate (unit, time) cell ('a', '1') at row 3",
            id="duplicate-before-bad-value",
        ),
        pytest.param(
            "id,time,y,x1\na,1,bad,2\na,2,3,4\na,1,1,2\n",
            CsvParseError, 2, "row 2: could not convert string to float: 'bad'",
            id="bad-value-before-duplicate",
        ),
        pytest.param(
            "id,time,y,x1\n",
            DimensionMismatchError, None, "need N >= 2, T >= 2, d_x >= 1; got N=0, T=0, d_x=1",
            id="header-only",
        ),
        pytest.param("", CsvParseError, 1, "{path} is empty", id="empty-file"),
    ],
)
def test_loader_errors_name_type_row_and_message(tmp_path, text, error, row, message):
    path = tmp_path / "panel.csv"
    path.write_text(text, newline="")
    with pytest.raises(error) as err:
        load_long_csv(str(path), SCHEMA)
    assert str(err.value) == message.format(path=path)
    assert getattr(err.value, "row", None) == row


def test_quoted_comma_label_and_crlf_endings(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        'id,time,y,x1\r\n"a,1",1,1,2\r\n"a,1",2,1,3\r\nb,1,1,3\r\nb,2,2,5\r\n', newline=""
    )
    ds = load_long_csv(str(path), SCHEMA)
    assert ds.unit_labels == ("a,1", "b")
    assert ds.y.tolist() == [[1.0, 1.0], [1.0, 2.0]]


def test_extra_trailing_field_is_ignored(tmp_path):
    path = tmp_path / "panel.csv"
    rows = minimal_rows()
    rows[1].append("extra")
    write_rows(path, rows)
    ds = load_long_csv(str(path), SCHEMA)
    write_rows(path, minimal_rows())
    assert np.array_equal(ds.x, load_long_csv(str(path), SCHEMA).x)


def test_repeated_header_name_reads_its_last_column(tmp_path):
    path = tmp_path / "panel.csv"
    rows = [[u, s, -1.0, x, y] for u, s, y, x in minimal_rows()]
    write_rows(path, rows, header=("id", "time", "y", "x1", "y"))
    ds = load_long_csv(str(path), SCHEMA)
    assert ds.y.tolist() == [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]]


def write_panel(path, y, x, units, times, order):
    """Long CSV of the panel's cells in the given flat (unit-major) order, at repr precision."""
    t = y.shape[1]
    header = ["id", "time", "y"] + [f"x{j + 1}" for j in range(x.shape[2])]
    rows = []
    for k in order:
        i, s = divmod(k, t)
        rows.append([units[i], times[s], repr(float(y[i, s]))] + [repr(float(v)) for v in x[i, s]])
    write_rows(path, rows, header=header)


def assert_loads_back(path, y, x, units, times):
    d_x = x.shape[2]
    ds = load_long_csv(str(path), LongCsvSchema(x_columns=tuple(f"x{j + 1}" for j in range(d_x))))
    assert ds.unit_labels == tuple(units) and ds.time_labels == tuple(times)
    assert ds.y.tobytes() == y.tobytes() and ds.x.tobytes() == x.tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def labels(draw, size):
    """`size` distinct labels in the loader's order: all numeric or all strings."""
    if draw(st.booleans()):
        keys = draw(st.lists(finite, min_size=size, max_size=size, unique_by=repr))
        return [repr(k) for k in sorted(keys, key=lambda k: (k, repr(k)))]
    text = st.text(alphabet='ab ,"\n\r;é', max_size=4).map(lambda s: "u" + s)
    return sorted(draw(st.lists(text, min_size=size, max_size=size, unique=True)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_round_trip_is_bit_exact(tmp_path_factory, data):
    n, t, d_x = data.draw(st.integers(2, 5)), data.draw(st.integers(2, 5)), data.draw(st.integers(1, 3))
    y = np.array(data.draw(st.lists(finite, min_size=n * t, max_size=n * t))).reshape(n, t)
    x = np.array(data.draw(st.lists(finite, min_size=n * t * d_x, max_size=n * t * d_x)))
    x = x.reshape(n, t, d_x)
    assume(np.all(x.min(axis=1) < x.max(axis=1)))  # each regressor varies over time
    units, times = data.draw(labels(n)), data.draw(labels(t))
    path = tmp_path_factory.mktemp("round_trip") / "panel.csv"
    write_panel(path, y, x, units, times, data.draw(st.permutations(range(n * t))))
    assert_loads_back(path, y, x, units, times)


def test_round_trip_and_faults_across_chunks(tmp_path):
    n, t = 80, 80
    assert n * t > 2 * io_cli._CHUNK_ROWS  # the rows span several chunks
    rng = np.random.default_rng(5)
    y, x = rng.normal(size=(n, t)), rng.normal(size=(n, t, 2))
    units, times = [str(i) for i in range(n)], [str(s) for s in range(t)]
    path = tmp_path / "panel.csv"
    write_panel(path, y, x, units, times, rng.permutation(n * t))
    assert_loads_back(path, y, x, units, times)
    lines = path.read_text().splitlines(keepends=True)
    # a repeat of line 2 in the first chunk beats a bad value in a later one
    faulty = lines[:2] + lines[1:2] + lines[2:6200] + ["0,0,bad,1,2\n"] + lines[6200:]
    path.write_text("".join(faulty))
    with pytest.raises(DuplicateCellError, match="at row 3$"):
        load_long_csv(str(path), LongCsvSchema(x_columns=("x1", "x2")))
    path.write_text("".join(lines[:6000] + ["\n", "0,0,1,2\n"] + lines[6000:]))
    with pytest.raises(CsvParseError, match=f"^row 6002: {re.escape(NONE_TO_FLOAT)}$"):
        load_long_csv(str(path), LongCsvSchema(x_columns=("x1", "x2")))


def test_loading_a_200_by_200_panel_stays_below_8_mib(tmp_path):
    """The chunked column-wise parse peaks near 5 MiB; a whole-file row list near 14."""
    rng = np.random.default_rng(9)
    n = t = 200
    y, x = rng.normal(size=(n, t)), rng.normal(size=(n, t, 2))
    path = tmp_path / "panel.csv"
    write_panel(path, y, x, [str(i + 1) for i in range(n)], [str(s + 1) for s in range(t)],
                range(n * t))
    tracemalloc.start()
    try:
        load_long_csv(str(path), LongCsvSchema(x_columns=("x1", "x2")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_nan_label_sorts_the_labels_lexicographically(tmp_path):
    rows = [[u, s, float(s) + i, float(s * (i + 1))] for i, u in enumerate(("3", "nan", "10", "2"))
            for s in (1, 2)]
    path = tmp_path / "panel.csv"
    for order in (rows, rows[::-1]):
        write_rows(path, order)
        ds = load_long_csv(str(path), SCHEMA)
        assert ds.unit_labels == ("10", "2", "3", "nan")
        assert ds.time_labels == ("1", "2")
        assert ds.y[:, 0].tolist() == [3.0, 4.0, 1.0, 2.0]


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


def test_fit_json_without_tests_carries_the_fit_covariance(tmp_path, fit_and_data):
    _, fit, test = fit_and_data
    write_fit(fit, [], str(tmp_path))
    doc = json.loads((tmp_path / "fit.json").read_text())
    assert doc["wald_tests"] == []
    assert np.array_equal(np.array(doc["covariance"], dtype=float), fit.covariance)
    assert np.array_equal(np.array(doc["std_errors"], dtype=float), test.std_errors)


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


def test_mc_table_cells_match_mc_result(tmp_path):
    spec = Dgp1Spec(20, 20, seed=31)
    config = IpcConfig(d_max=4)
    write_mc_result(run_monte_carlo(spec, 2, config), spec, config, str(tmp_path))
    doc = json.loads((tmp_path / "mc_result.json").read_text())
    result = doc["result"]
    with open(tmp_path / "table.csv", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == [
        "n_units", "n_periods", "reps",
        "joint_selection_freq", "freq_d1", "freq_d2", "freq_d3",
        "rmse_projector",
        "rmse_beta0", "rmse_beta1", "rmse_beta", "rmse_oracle",
        "size_beta0", "size_beta1", "size_beta", "size_oracle",
    ]
    expected = {
        "n_units": repr(doc["spec"]["n_units"]),
        "n_periods": repr(doc["spec"]["n_periods"]),
        "reps": repr(result["reps"]),
        "joint_selection_freq": repr(result["joint_selection_freq"]),
        "rmse_projector": repr(result["rmse_projector"]),
    }
    expected.update({f"freq_d{g + 1}": repr(v) for g, v in enumerate(result["per_group_freq"])})
    expected.update({f"rmse_{key}": repr(v) for key, v in result["rmse_beta"].items()})
    expected.update({f"size_{key}": repr(v) for key, v in result["wald_size"].items()})
    assert len(rows) == 1
    assert dict(zip(header, rows[0])) == expected


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
    assert out.stderr == ""  # converged: no warning
    doc = json.loads((tmp_path / "fit" / "fit.json").read_text())
    expected = fit_ipc(ds, IpcConfig(d_max=5))
    got = np.array([float(v) for v in doc["beta"]])
    assert np.allclose(got, expected.beta, atol=1e-12)
    assert doc["group_dims"] == [g.dim for g in expected.groups]


def test_estimate_warns_when_the_initial_step_hits_its_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(init_estimator, "ALS_MAX_ITER", 1)
    ds, _ = generate_dgp1(Dgp1Spec(20, 18, seed=51))
    path = tmp_path / "panel.csv"
    dataset_to_csv(path, ds)
    code = cli_main([
        "estimate", "--data", str(path), "--x-cols", "x1,x2",
        "--dmax", "5", "--out", str(tmp_path / "fit"),
    ])
    assert code == 0
    assert capsys.readouterr().err == (
        "warning: the initial ALS step hit its cap of 1 iterations without converging\n"
    )
    doc = json.loads((tmp_path / "fit" / "fit.json").read_text())
    assert doc["convergence"] == {"als_iterations": 1, "converged": False}


def test_estimate_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    ds, _ = generate_dgp1(Dgp1Spec(12, 16, seed=81))
    units = ["nan"] + [str(i) for i in range(1, 12)]
    path = tmp_path / "panel.csv"
    write_panel(path, ds.y, ds.x, units, [str(s + 1) for s in range(16)], range(12 * 16))
    outputs = []
    for seed in ("0", "3"):  # two seeds that order a set of these labels differently
        out = subprocess.run(
            [sys.executable, "-m", "ipcpanel", "estimate", "--data", str(path),
             "--x-cols", "x1,x2", "--dmax", "3", "--out", str(tmp_path / seed)],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert out.returncode == 0, out.stderr
        outputs.append([(tmp_path / seed / name).read_bytes() for name in ("fit.json", "loadings.csv")])
    assert outputs[0] == outputs[1]


def test_jackknife_reports_each_capped_half(tmp_path, capsys, monkeypatch):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources

    ds, _ = generate_dgp1(Dgp1Spec(40, 40, seed=71))
    path = tmp_path / "panel.csv"
    dataset_to_csv(path, ds)
    real_jackknife = io_cli.jackknife_bias_correct

    def jackknife_with_capped_halves(dataset, fit):
        assert fit.converged and fit.als_iterations > 2
        monkeypatch.setattr(init_estimator, "ALS_MAX_ITER", 2)
        return real_jackknife(dataset, fit)

    monkeypatch.setattr(io_cli, "jackknife_bias_correct", jackknife_with_capped_halves)
    code = cli_main([
        "estimate", "--data", str(path), "--x-cols", "x1,x2", "--jackknife",
        "--out", str(tmp_path / "fit"),
    ])
    assert code == 0
    halves = ("units_first_half", "units_second_half", "periods_odd", "periods_even")
    assert capsys.readouterr().err.splitlines() == [
        f"warning: the jackknife half {name}: the initial ALS step hit its cap of 2 "
        "iterations without converging"
        for name in halves
    ]
    doc = json.loads((tmp_path / "fit" / "fit.json").read_text())
    assert doc["convergence"]["converged"] is True
    assert doc["jackknife"]["sub_converged"] == dict.fromkeys(halves, False)
    schema = json.loads(
        (resources.files("ipcpanel") / "schemas" / "fit.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)


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
    # data error: a restriction file that is empty or holds a non-finite
    # value, a finite R so large that R V R' overflows, or an R whose row
    # count differs from r's length
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "nan.csv").write_text("nan\n")
    np.savetxt(tmp_path / "R1.csv", np.array([[1.0, -1.0]]), delimiter=",")
    (tmp_path / "R_nan.csv").write_text("1,nan\n")
    np.savetxt(tmp_path / "R_huge.csv", np.array([[1e300, 1.0]]), delimiter=",")
    np.savetxt(tmp_path / "R_eye.csv", np.eye(2), delimiter=",")
    for name, r_matrix, r_vector in [
        ("r_nan", "R1.csv", "nan.csv"),
        ("R_nan", "R_nan.csv", "r.csv"),
        ("R_empty", "empty.csv", "r.csv"),
        ("R_huge", "R_huge.csv", "r.csv"),
        ("R_rows", "R_eye.csv", "r.csv"),
    ]:
        out = run_cli(
            "estimate", "--data", str(path), "--x-cols", "x1,x2", "--dmax", "4",
            "--wald-R", str(tmp_path / r_matrix), "--wald-r", str(tmp_path / r_vector),
            "--out", str(tmp_path / name),
        )
        assert out.returncode == 2, (name, out.stderr)
        assert "Traceback" not in out.stderr, name
        assert not (tmp_path / name).exists(), name


def test_restriction_files_are_read_before_the_fit(tmp_path, capsys, monkeypatch):
    def no_fit(*args):
        raise AssertionError("the panel was fitted before the restriction was read")

    monkeypatch.setattr(io_cli, "fit_ipc", no_fit)
    path = tmp_path / "panel.csv"
    write_rows(path, minimal_rows())
    np.savetxt(tmp_path / "r.csv", np.zeros((1, 1)), delimiter=",")
    code = cli_main([
        "estimate", "--data", str(path), "--x-cols", "x1",
        "--wald-R", str(tmp_path / "missing.csv"), "--wald-r", str(tmp_path / "r.csv"),
        "--out", str(tmp_path / "fit"),
    ])
    assert code == 2
    assert "missing.csv" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_z_of_rounding_error_is_a_numerical_failure(tmp_path, capsys):
    ds, _ = generate_dgp1(Dgp1Spec(6, 60, seed=5))
    path = tmp_path / "panel.csv"
    dataset_to_csv(path, ds)
    code = cli_main([
        "estimate", "--data", str(path), "--x-cols", "x1,x2",
        "--dmax", "5", "--out", str(tmp_path / "fit"),
    ])
    assert code == 3
    assert "Z Gram matrix is numerically singular" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_gram_underflow_is_a_numerical_failure(tmp_path, capsys):
    ds, _ = generate_dgp1(Dgp1Spec(60, 60, seed=5))
    path = tmp_path / "panel.csv"
    dataset_to_csv(path, PanelDataset(y=1e-160 * ds.y, x=ds.x))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = cli_main([
            "estimate", "--data", str(path), "--x-cols", "x1,x2", "--out", str(tmp_path / "fit"),
        ])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not (tmp_path / "fit").exists()


def test_covariance_overflow_is_a_numerical_failure(tmp_path):
    # y x 1e120 and x x 1e-50 put the slope near 1e170 and the covariance
    # past the float range: one error line, no warning and no output files
    ds, _ = generate_dgp1(Dgp1Spec(30, 30, seed=3))
    path = tmp_path / "panel.csv"
    dataset_to_csv(path, PanelDataset(y=1e120 * ds.y, x=1e-50 * ds.x))
    out = run_cli(
        "estimate", "--data", str(path), "--x-cols", "x1,x2", "--dmax", "4",
        "--out", str(tmp_path / "fit"),
    )
    assert out.returncode == 3
    assert out.stderr == (
        "numerical failure: the sandwich covariance overflows: y is too large next to x\n"
    )
    assert not (tmp_path / "fit").exists()


def test_identical_units_are_a_data_error(tmp_path, capsys):
    x = np.broadcast_to(np.random.default_rng(3).normal(size=(1, 30, 2)), (40, 30, 2))
    path = tmp_path / "panel.csv"
    dataset_to_csv(path, PanelDataset(y=x[..., 0], x=x))
    code = cli_main([
        "estimate", "--data", str(path), "--x-cols", "x1,x2", "--dmax", "5",
        "--out", str(tmp_path / "fit"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("data error: all 40 units have the same")
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("delta", ["300", "1e6"])
def test_delta_whose_t_power_overflows_is_a_data_error(tmp_path, capsys, delta):
    ds, _ = generate_dgp1(Dgp1Spec(30, 30, seed=5))
    path = tmp_path / "panel.csv"
    dataset_to_csv(path, ds)
    code = cli_main([
        "estimate", "--data", str(path), "--x-cols", "x1,x2", "--dmax", "5",
        "--delta", delta, "--out", str(tmp_path / "fit"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("data error: delta=")
    assert not (tmp_path / "fit").exists()


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
    assert jk["sub_converged"] == dict.fromkeys(jk["sub_group_dims"], True)
    assert out.stderr == ""
    # only one of the pair is a usage error
    out = run_cli(
        "estimate", "--data", str(path), "--x-cols", "x1,x2",
        "--wald-R", str(tmp_path / "R.csv"), "--out", str(tmp_path / "f2"),
    )
    assert out.returncode == 1
