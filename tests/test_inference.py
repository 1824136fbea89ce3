import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipcpanel import inference
from ipcpanel.errors import (
    DimensionMismatchError,
    EmptyGroupError,
    InvalidDomainError,
    RankDeficientRError,
    SubPanelError,
    ZeroLoadingsError,
)
from ipcpanel.factor_selection import iterate_groups
from ipcpanel.final_estimator import fit_final, fit_ipc
from ipcpanel.inference import (
    WaldSpec,
    jackknife_bias_correct,
    strength_gap_diagnostic,
    unit_variances,
    wald_test,
    wald_variants,
)
from ipcpanel.init_estimator import beta_given_f, fit_initial
from ipcpanel.model import FactorGroup, IpcConfig, PanelDataset
from ipcpanel.numerics import chi2_sf
from ipcpanel.simulation import Dgp1Spec, generate_dgp1

from conftest import dense_annihilator, dense_sandwich, random_panel


def make_group(index, loadings, t):
    dim = loadings.shape[1]
    return FactorGroup(
        group_index=index,
        dim=dim,
        eigenvalues=np.linspace(2.0, 1.0, 5),
        mock_eigenvalue=1.0,
        factors=np.sqrt(t) * np.eye(t)[:, :dim],
        loadings=loadings,
    )


@pytest.fixture(scope="module")
def fitted():
    ds, truth = generate_dgp1(Dgp1Spec(30, 30, seed=1))
    fit = fit_ipc(ds, IpcConfig(d_max=6))
    return ds, truth, fit


# --- unit_variances -------------------------------------------------------------

def test_perfect_fit_variances_are_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 6, 1))
    ds = PanelDataset(y=x @ np.array([2.0]), x=x)
    fit = fit_ipc(ds, IpcConfig(d_max=2))
    assert np.allclose(unit_variances(ds, fit), 0.0, atol=1e-16)


def test_no_factor_single_unit_mean_square(fitted):
    ds, _, fit = fitted
    bare = dataclasses.replace(
        fit,
        factors_combined=np.zeros((ds.n_periods, 0)),
        loadings_combined=np.zeros((ds.n_units, 0)),
    )
    r = ds.y - ds.x @ fit.beta
    expected = np.sum(r**2, axis=1) / ds.n_periods
    assert np.allclose(unit_variances(ds, bare), expected, rtol=1e-12)


def test_variances_match_dense_oracle(fitted):
    ds, _, fit = fitted
    m = dense_annihilator(fit.factors_combined)
    r = ds.y - ds.x @ fit.beta
    expected = np.array([r[i] @ m @ r[i] / ds.n_periods for i in range(ds.n_units)])
    assert np.allclose(unit_variances(ds, fit), expected, atol=1e-10)


# --- wald_test --------------------------------------------------------------------

def test_wald_zero_at_point_estimate(fitted):
    ds, _, fit = fitted
    spec = WaldSpec(np.eye(2), fit.beta.copy())
    out = wald_test(ds, fit, spec)
    assert np.array_equal(out.beta, fit.beta)
    assert out.wald_stat == pytest.approx(0.0, abs=1e-18)
    assert out.p_value == 1.0


def test_scalar_wald_is_squared_t_ratio(fitted):
    ds, _, fit = fitted
    spec = WaldSpec(np.array([[1.0, 0.0]]), np.zeros(1))
    out = wald_test(ds, fit, spec)
    t_ratio = fit.beta[0] / out.std_errors[0]
    assert out.wald_stat == pytest.approx(t_ratio**2, rel=1e-10)
    assert out.dof == 1
    assert out.p_value == pytest.approx(chi2_sf(out.wald_stat, 1), abs=1e-14)


def test_covariance_is_symmetric_psd(fitted):
    ds, truth, fit = fitted
    out = wald_test(ds, fit, WaldSpec(np.eye(2), truth.beta_true))
    assert np.allclose(out.covariance, out.covariance.T, atol=1e-10)
    assert np.all(np.linalg.eigvalsh(out.covariance) >= -1e-10)
    assert np.allclose(out.std_errors**2, np.diag(out.covariance), rtol=1e-12)


def test_rank_deficient_restriction_rejected():
    with pytest.raises(RankDeficientRError):
        WaldSpec(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2))
    with pytest.raises(RankDeficientRError):
        WaldSpec(np.ones((3, 2)), np.zeros(3))


def test_restriction_width_must_match_regressors(fitted):
    ds, truth, fit = fitted
    spec = WaldSpec(np.array([[1.0, 0.0, -1.0]]), np.zeros(1))
    with pytest.raises(DimensionMismatchError):
        wald_test(ds, fit, spec)
    with pytest.raises(DimensionMismatchError):
        wald_variants(ds, fit, spec, "oracle", truth_factors=truth.factors_true)


def test_variant_beta1_coincides_when_estimates_match(fitted):
    # the beta1 variant is the sandwich at beta1 with the fit's own factors
    # and loadings, checked against the dense oracle
    ds, truth, fit = fitted
    spec = WaldSpec(np.eye(2), truth.beta_true)
    variant = wald_variants(ds, fit, spec, "beta1")
    cov = dense_sandwich(ds, fit.beta1, fit.factors_combined, fit.loadings_combined)
    gap = fit.beta1 - truth.beta_true
    assert np.array_equal(variant.beta, fit.beta1)
    assert np.allclose(variant.covariance, cov, rtol=1e-10, atol=0.0)
    assert variant.wald_stat == pytest.approx(float(gap @ np.linalg.inv(cov) @ gap), rel=1e-10)


@pytest.mark.parametrize("reshape", [
    lambda ds: ds.select_units(range(ds.n_units - 1)),
    lambda ds: ds.select_periods(range(ds.n_periods - 1)),
    lambda ds: PanelDataset(y=ds.y, x=ds.x[:, :, :1]),
], ids=["units", "periods", "regressors"])
def test_wald_test_rejects_another_panel_shape(fitted, reshape):
    ds, truth, fit = fitted
    with pytest.raises(DimensionMismatchError):
        wald_test(reshape(ds), fit, WaldSpec(np.eye(2), truth.beta_true))


def test_wald_test_does_no_projection_work(fitted, monkeypatch):
    ds, truth, fit = fitted
    spec = WaldSpec(np.eye(2), truth.beta_true)
    want = wald_test(ds, fit, spec)

    def forbidden(*args, **kwargs):
        raise AssertionError("wald_test must not recompute Z or the variances")

    monkeypatch.setattr(inference, "z_matrices", forbidden)
    monkeypatch.setattr(inference, "residual_variances", forbidden)
    got = wald_test(ds, fit, spec)
    assert got.wald_stat == want.wald_stat and got.p_value == want.p_value
    assert np.array_equal(got.covariance, fit.covariance)
    assert np.array_equal(got.std_errors, fit.std_errors)


def test_variant_validation(fitted):
    ds, truth, fit = fitted
    spec = WaldSpec(np.eye(2), truth.beta_true)
    with pytest.raises(InvalidDomainError):
        wald_variants(ds, fit, spec, "oracle")
    with pytest.raises(InvalidDomainError):
        wald_variants(ds, fit, spec, "b2")


def test_oracle_variant_uses_known_factors(fitted):
    ds, truth, fit = fitted
    spec = WaldSpec(np.eye(2), truth.beta_true)
    out = wald_variants(ds, fit, spec, "oracle", truth_factors=truth.factors_true)
    beta_oracle = beta_given_f(ds, truth.factors_true)
    assert np.array_equal(out.beta, beta_oracle)
    gap = beta_oracle - truth.beta_true
    expected = float(gap @ np.linalg.solve(out.covariance, gap))
    assert out.wald_stat == pytest.approx(expected, rel=1e-10)


def test_regressor_rescaling_leaves_wald_invariant():
    # fixed-factor path: start both pipelines from the same initial
    # factor estimate so the comparison isolates the algebra
    ds, truth = generate_dgp1(Dgp1Spec(24, 24, seed=9))
    config = IpcConfig(d_max=5)
    init = fit_initial(ds, config)

    def wald_with_fixed_f(dataset):
        beta0 = beta_given_f(dataset, init.f0)
        start = dataclasses.replace(init, beta0=beta0)
        groups = iterate_groups(dataset, beta0, config)
        fit = fit_final(dataset, start, groups, config)
        spec = WaldSpec(np.array([[1.0, 0.0]]), np.zeros(1))
        return wald_test(dataset, fit, spec).wald_stat

    base = wald_with_fixed_f(ds)
    scale = 37.5
    scaled_x = np.array(ds.x)
    scaled_x[:, :, 0] *= scale
    scaled = wald_with_fixed_f(PanelDataset(y=ds.y, x=scaled_x))
    assert scaled == pytest.approx(base, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 50.0), st.floats(0.01, 10.0), st.integers(1, 6))
def test_p_value_monotone_in_statistic(w, step, dof):
    assert chi2_sf(w + step, dof) <= chi2_sf(w, dof) + 1e-12


def assert_traced_peaks_below(ds, bound):
    """Each tracemalloc peak of fit_ipc, wald_test and a Wald variant < bound bytes."""
    spec = WaldSpec(np.eye(2), np.zeros(2))
    tracemalloc.start()
    try:
        fit = fit_ipc(ds, IpcConfig(d_max=3))
        peaks = {"fit_ipc": tracemalloc.get_traced_memory()[1]}
        tracemalloc.reset_peak()
        wald_test(ds, fit, spec)
        peaks["wald_test"] = tracemalloc.get_traced_memory()[1]
        for variant in ("beta0", "beta1"):
            tracemalloc.reset_peak()
            wald_variants(ds, fit, spec, variant)
            peaks[variant] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(peak < bound for peak in peaks.values()), (peaks, bound)


def test_memory_stays_linear_in_units():
    """No N x N intermediate: each traced peak stays below a quarter of one."""
    ds, *_ = random_panel(7, n=3000, t=12)
    assert_traced_peaks_below(ds, ds.n_units**2 * 8 / 4)


def test_memory_stays_linear_in_periods():
    """No T x T intermediate: each traced peak stays below a quarter of one."""
    ds, *_ = random_panel(7, n=20, t=3000)
    assert_traced_peaks_below(ds, ds.n_periods**2 * 8 / 4)


# --- jackknife -----------------------------------------------------------------------

def test_jackknife_identity_and_splits():
    ds, _ = generate_dgp1(Dgp1Spec(24, 25, seed=2))
    config = IpcConfig(d_max=5)
    out = jackknife_bias_correct(ds, fit_ipc(ds, config))
    recomputed = 3.0 * out.beta_full - 0.5 * out.sub_estimates.sum(axis=0)
    assert np.array_equal(out.beta_bc, recomputed)
    assert set(out.sub_group_dims) == {
        "units_first_half", "units_second_half", "periods_odd", "periods_even",
    }
    assert out.sub_converged == dict.fromkeys(out.sub_group_dims, True)


def test_jackknife_reuses_the_full_fit(monkeypatch):
    ds, _ = generate_dgp1(Dgp1Spec(24, 25, seed=2))
    fit = fit_ipc(ds, IpcConfig(d_max=5))
    fitted_panels = []

    def counting_fit(dataset, config=None):
        fitted_panels.append((dataset.n_units, dataset.n_periods))
        assert config is fit.config
        return fit_ipc(dataset, config)

    monkeypatch.setattr(inference, "fit_ipc", counting_fit)
    out = inference.jackknife_bias_correct(ds, fit)
    assert fitted_panels == [(12, 25), (12, 25), (24, 13), (24, 12)]
    assert np.array_equal(out.beta_full, fit.beta)


def test_odd_even_split_bookkeeping():
    ds, _ = generate_dgp1(Dgp1Spec(12, 7, seed=3))
    odd = ds.select_periods(range(0, 7, 2))
    even = ds.select_periods(range(1, 7, 2))
    assert odd.n_periods == 4  # 1-based periods 1,3,5,7
    assert even.n_periods == 3  # 1-based periods 2,4,6
    assert odd.time_labels == ("t0", "t2", "t4", "t6")


def test_fixed_point_arithmetic():
    # all five estimates coinciding leaves the correction at the estimate
    b = np.array([1.0, -2.0])
    assert np.allclose(3.0 * b - 0.5 * (4.0 * b), b)
    halves = np.array([[1.1], [0.9], [1.2], [0.8]])
    assert 3.0 * 1.0 - 0.5 * halves.sum() == pytest.approx(1.0)


def test_sub_panel_failure_is_tagged():
    ds, _ = generate_dgp1(Dgp1Spec(12, 40, seed=4))
    # d_max valid on the full panel but too large for the unit halves
    config = IpcConfig(d_max=10)
    with pytest.raises(SubPanelError) as err:
        jackknife_bias_correct(ds, fit_ipc(ds, config))
    assert err.value.sub_panel == "units_first_half"


# --- strength gap ---------------------------------------------------------------------

def test_equal_norms_give_zero():
    rng = np.random.default_rng(5)
    loadings = rng.normal(size=(6, 1))
    groups = [make_group(1, loadings, 10), make_group(2, loadings.copy(), 10)]
    assert strength_gap_diagnostic(groups, 10, 1) == pytest.approx(0.0, abs=1e-14)


def test_ratio_t_gives_exactly_one():
    t = 17
    base = np.ones((4, 1))
    scaled = math.sqrt(t) * np.ones((4, 1))
    groups = [make_group(1, scaled, t), make_group(2, base, t)]
    assert strength_gap_diagnostic(groups, t, 1) == pytest.approx(1.0, rel=1e-12)


def test_reported_ratio_example():
    # loading-norm ratio 123.4 over 80 periods
    groups = [
        make_group(1, np.array([[math.sqrt(123.4)]]), 80),
        make_group(2, np.array([[1.0]]), 80),
    ]
    value = strength_gap_diagnostic(groups, 80, 1)
    assert value == pytest.approx(math.log(123.4) / math.log(80.0), rel=1e-12)
    assert round(value, 3) == 1.099


def test_strength_gap_errors():
    groups = [make_group(1, np.ones((3, 1)), 10)]
    with pytest.raises(EmptyGroupError):
        strength_gap_diagnostic(groups, 10, 1)
    zero = [make_group(1, np.zeros((3, 1)), 10), make_group(2, np.ones((3, 1)), 10)]
    with pytest.raises(ZeroLoadingsError):
        strength_gap_diagnostic(zero, 10, 1)
    with pytest.raises(InvalidDomainError):
        strength_gap_diagnostic(zero, 2, 1)
