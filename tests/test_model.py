import itertools
import warnings

import numpy as np
import pytest

from ipcpanel.errors import (
    DataError,
    DeltaTooLargeError,
    DimensionMismatchError,
    DmaxTooLargeError,
    IdenticalUnitsError,
    NonFiniteDataError,
    TimeInvariantRegressorError,
)
from ipcpanel.final_estimator import fit_ipc
from ipcpanel.model import IpcConfig, PanelDataset, TruthSpec, validate, validate_dataset
from ipcpanel.simulation import Dgp1Spec, generate_dgp1

from conftest import random_panel, traced_peak


def well_formed(n=40, t=40, d_x=2, seed=0):
    rng = np.random.default_rng(seed)
    return PanelDataset(y=rng.normal(size=(n, t)), x=rng.normal(size=(n, t, d_x)))


def test_well_formed_panel_validates():
    validate(well_formed(), IpcConfig())


#: every d_x and memory layout the time-invariance check must read alike
LAYOUT_CASES = list(itertools.product((1, 2, 3), ("C", "F", "sliced")))


def laid_out(x, layout):
    """``x`` as is (C order), in Fortran order, or as a strided view into a larger array."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "sliced":
        big = np.zeros((x.shape[0], 2 * x.shape[1], x.shape[2] + 1))
        big[:, ::2, 1:] = x
        return big[:, ::2, 1:]
    return x


def test_time_invariant_regressor_reports_unit_and_regressor():
    # several flat (unit, regressor) cells: the row-major first is reported, and
    # a mix of 0.0 and -0.0 is constant
    for d_x, layout in LAYOUT_CASES:
        ds = well_formed(d_x=d_x, seed=1)
        x = np.array(ds.x)
        planted = [(9, 0), (5, 0), (2, d_x - 1)] + [(2, 1)] * (d_x == 3)
        for i, j in planted:
            x[i, :, j] = 5.0
        i, j = min(planted)
        x[i, ::2, j], x[i, 1::2, j] = 0.0, -0.0
        bad = PanelDataset(y=ds.y, x=laid_out(x, layout))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TimeInvariantRegressorError) as err:
                validate(bad, IpcConfig())
        assert (err.value.unit, err.value.regressor) == (i, j), (d_x, layout)


def test_regressor_spanning_the_float_range_validates_without_warning():
    for d_x, layout in LAYOUT_CASES:
        ds = well_formed(d_x=d_x, seed=3)
        x = np.array(ds.x)
        x[0, ::2, -1], x[0, 1::2, -1] = -1e308, 1e308  # max - min overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_dataset(PanelDataset(y=ds.y, x=laid_out(x, layout)))
            x[3, :, -1] = 1e308
            x[5, :, 0] = -2.5
            with pytest.raises(TimeInvariantRegressorError) as err:
                validate_dataset(PanelDataset(y=ds.y, x=laid_out(x, layout)))
        assert (err.value.unit, err.value.regressor) == (3, d_x - 1), (d_x, layout)


def test_identical_units_are_a_data_error():
    # every unit the same y and x series cannot be fitted, though it loads; one
    # differing cell, in y or in x and in any unit, lets the panel through
    ds = well_formed(n=6, t=8, seed=4)
    y, x = np.broadcast_to(ds.y[:1], ds.y.shape), np.broadcast_to(ds.x[:1], ds.x.shape)
    identical = PanelDataset(y=y, x=x)
    validate_dataset(identical)
    with pytest.raises(IdenticalUnitsError, match="nothing varies across units"):
        validate(identical, IpcConfig(d_max=3))
    for unit in (1, 5):
        y_off, x_off = np.array(y), np.array(x)
        y_off[unit, 3] += 1.0
        x_off[unit, 2, 1] += 1.0
        validate(PanelDataset(y=y_off, x=x), IpcConfig(d_max=3))
        validate(PanelDataset(y=y, x=x_off), IpcConfig(d_max=3))


def test_time_invariance_check_copies_no_stack(wide_panel):
    # each N x T view is reduced where it lies; a transposed copy would cost a whole stack
    assert traced_peak(validate_dataset, wide_panel) <= 0.5 * wide_panel.x.nbytes


@pytest.mark.parametrize("field", ["y", "x"])
def test_non_real_input_is_a_data_error(field):
    # complex input used to warn and drop its imaginary part; strings and
    # ragged nesting raised a bare ValueError
    ds = well_formed(n=4, t=5)
    good = {"y": ds.y, "x": ds.x}
    bad = {
        "complex": good[field] + 1j,
        "string": np.full(good[field].shape, "abc"),
        "ragged": [a.tolist() for a in good[field][:-1]] + [good[field][-1, :-1].tolist()],
    }
    for case, value in bad.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^{field} ") as err:
                PanelDataset(**{**good, field: value})
        assert type(err.value) is DataError, case
    # input that converts to finite floats is taken as before
    same = PanelDataset(**{**good, field: good[field].tolist()})
    assert np.array_equal(getattr(same, field), good[field])


def test_dmax_bound():
    with pytest.raises(DmaxTooLargeError):
        validate(well_formed(n=40, t=40), IpcConfig(d_max=50))
    with pytest.raises(DmaxTooLargeError):
        validate(well_formed(n=40, t=12), IpcConfig(d_max=12))


def test_non_finite_rejected():
    ds = well_formed(seed=2)
    y = np.array(ds.y)
    y[0, 0] = np.inf
    with pytest.raises(NonFiniteDataError):
        validate(PanelDataset(y=y, x=ds.x), IpcConfig())


def test_shape_mismatches_rejected():
    rng = np.random.default_rng(3)
    with pytest.raises(DimensionMismatchError):
        PanelDataset(y=rng.normal(size=(4, 5)), x=rng.normal(size=(4, 6, 2)))
    with pytest.raises(DimensionMismatchError):
        PanelDataset(y=rng.normal(size=(4, 5)), x=rng.normal(size=(4, 5)))
    with pytest.raises(DimensionMismatchError):
        validate(
            PanelDataset(y=rng.normal(size=(1, 5)), x=rng.normal(size=(1, 5, 1))),
            IpcConfig(d_max=1),
        )


def test_arrays_are_read_only_and_labeled():
    ds = well_formed(n=3, t=4)
    assert not ds.y.flags.writeable
    assert not ds.x.flags.writeable
    assert ds.unit_labels == ("unit0", "unit1", "unit2")
    assert ds.time_labels == ("t0", "t1", "t2", "t3")


def test_subset_selection_keeps_labels_aligned():
    ds, *_ = random_panel(4, n=6, t=8)
    units = ds.select_units([1, 3])
    assert units.n_units == 2
    assert units.unit_labels == ("unit1", "unit3")
    assert np.array_equal(units.y, ds.y[[1, 3]])
    periods = ds.select_periods(range(0, 8, 2))
    assert periods.n_periods == 4
    assert periods.time_labels == ("t0", "t2", "t4", "t6")
    assert np.array_equal(periods.x, ds.x[:, [0, 2, 4, 6]])


def test_config_field_validation():
    with pytest.raises(ValueError):
        IpcConfig(delta=-0.5)
    for delta in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            IpcConfig(delta=delta)
    with pytest.raises(ValueError):
        IpcConfig(d_max=0)


@pytest.mark.parametrize("delta", [300.0, 1e6])
def test_delta_whose_t_power_overflows_is_rejected(delta):
    # at T = 30, T^300 overflows a float and T^1e6 raises OverflowError
    ds, _ = generate_dgp1(Dgp1Spec(30, 30, seed=5))
    with pytest.raises(DeltaTooLargeError):
        fit_ipc(ds, IpcConfig(d_max=5, delta=delta))


def test_largest_deltas_below_the_overflow_bound_fit():
    # T^200 is about 1e295 at T = 30, and the estimates are invariant to delta
    ds, _ = generate_dgp1(Dgp1Spec(30, 30, seed=5))
    want = fit_ipc(ds, IpcConfig(d_max=5))
    got = fit_ipc(ds, IpcConfig(d_max=5, delta=200.0))
    assert [g.dim for g in got.groups] == [g.dim for g in want.groups]
    assert np.abs(got.beta - want.beta).max() <= 1e-13 * np.abs(want.beta).max()


def test_config_holds_only_the_cli_settings():
    # the initial step's stopping rule is fixed in init_estimator, its start
    # is pooled OLS, and step 2 anchors each group's threshold at its own mock
    assert list(IpcConfig().to_dict()) == ["delta", "d_max"]
    with pytest.raises(TypeError):
        IpcConfig(als_max_iter=10)
    for step in ("init", "threshold"):
        with pytest.raises(TypeError):
            IpcConfig(**{f"{step}_rule": "pergroup"})


def test_truth_spec_dimension_check():
    rng = np.random.default_rng(5)
    with pytest.raises(DimensionMismatchError):
        TruthSpec(
            beta_true=np.ones(2),
            factors_true=rng.normal(size=(10, 3)),
            loadings_true=rng.normal(size=(5, 3)),
            group_dims=(1, 1),
        )
