import warnings

import numpy as np
import pytest

from ipcpanel.errors import (
    DimensionMismatchError,
    DmaxTooLargeError,
    NonFiniteDataError,
    TimeInvariantRegressorError,
)
from ipcpanel.model import IpcConfig, PanelDataset, TruthSpec, validate, validate_dataset

from conftest import random_panel


def well_formed(n=40, t=40, d_x=2, seed=0):
    rng = np.random.default_rng(seed)
    return PanelDataset(y=rng.normal(size=(n, t)), x=rng.normal(size=(n, t, d_x)))


def test_well_formed_panel_validates():
    validate(well_formed(), IpcConfig())


def test_time_invariant_regressor_reports_unit_and_regressor():
    ds = well_formed(seed=1)
    x = np.array(ds.x)
    x[2, :, 0] = 5.0  # regressor 0 constant for unit 2
    bad = PanelDataset(y=ds.y, x=x)
    with pytest.raises(TimeInvariantRegressorError) as err:
        validate(bad, IpcConfig())
    assert err.value.unit == 2
    assert err.value.regressor == 0


def test_regressor_spanning_the_float_range_validates_without_warning():
    ds = well_formed(seed=3)
    x = np.array(ds.x)
    x[0, ::2, 1], x[0, 1::2, 1] = -1e308, 1e308  # max - min overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_dataset(PanelDataset(y=ds.y, x=x))
        x[3, :, 1] = 1e308
        x[5, :, 0] = -2.5
        with pytest.raises(TimeInvariantRegressorError) as err:
            validate_dataset(PanelDataset(y=ds.y, x=x))
    assert (err.value.unit, err.value.regressor) == (3, 1)


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
    with pytest.raises(ValueError):
        IpcConfig(threshold_rule="sometimes")


def test_config_holds_only_the_cli_settings():
    # the initial step's stopping rule is fixed in init_estimator
    assert list(IpcConfig().to_dict()) == ["delta", "d_max", "threshold_rule"]
    with pytest.raises(TypeError):
        IpcConfig(als_max_iter=10)


def test_truth_spec_dimension_check():
    rng = np.random.default_rng(5)
    with pytest.raises(DimensionMismatchError):
        TruthSpec(
            beta_true=np.ones(2),
            factors_true=rng.normal(size=(10, 3)),
            loadings_true=rng.normal(size=(5, 3)),
            group_dims=(1, 1),
        )
