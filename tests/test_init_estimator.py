import numpy as np
import pytest

from ipcpanel.errors import NotConvergedError, SingularDesignError
from ipcpanel.init_estimator import (
    beta_given_f,
    f_given_beta,
    fit_initial,
    ssr_value,
)
from ipcpanel.model import IpcConfig, PanelDataset

from conftest import dense_annihilator, dense_projector, dense_top_eigenpairs, random_panel


def test_no_factor_noiseless_regression_is_exact():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 9, 2))
    beta = np.array([1.5, -0.7])
    ds = PanelDataset(y=x @ beta, x=x)
    out = beta_given_f(ds, np.zeros((9, 0)))
    assert np.allclose(out, beta, atol=1e-12)


def test_scalar_formula_oracle():
    # d_x = 1: beta = sum_i X_i' M_F y_i / sum_i X_i' M_F X_i, all dense
    rng = np.random.default_rng(1)
    n, t = 3, 4
    x = rng.normal(size=(n, t, 1))
    y = rng.normal(size=(n, t))
    f = rng.normal(size=(t, 2))
    m = dense_annihilator(f)
    num = sum(x[i, :, 0] @ m @ y[i] for i in range(n))
    den = sum(x[i, :, 0] @ m @ x[i, :, 0] for i in range(n))
    out = beta_given_f(PanelDataset(y=y, x=x), f)
    assert out[0] == pytest.approx(num / den, rel=1e-12)


def test_stacked_least_squares_oracle():
    # beta solves OLS on the M_F-transformed stacked system
    rng = np.random.default_rng(2)
    n, t, d_x = 4, 8, 3
    x = rng.normal(size=(n, t, d_x))
    y = rng.normal(size=(n, t))
    f = rng.normal(size=(t, 2))
    m = dense_annihilator(f)
    xs = np.vstack([m @ x[i] for i in range(n)])
    ys = np.concatenate([m @ y[i] for i in range(n)])
    expected, *_ = np.linalg.lstsq(xs, ys, rcond=None)
    out = beta_given_f(PanelDataset(y=y, x=x), f)
    assert np.allclose(out, expected, atol=1e-10)
    # normal equations hold at the solution
    resid = sum(x[i].T @ m @ (y[i] - x[i] @ out) for i in range(n))
    rhs = sum(x[i].T @ m @ y[i] for i in range(n))
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(rhs)


def test_collinear_design_rejected():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(4, 6, 1))
    x = np.concatenate([base, 2.0 * base], axis=2)
    ds = PanelDataset(y=rng.normal(size=(4, 6)), x=x)
    with pytest.raises(SingularDesignError):
        beta_given_f(ds, np.zeros((6, 0)))


def test_rank_one_residual_recovers_factor_projector():
    rng = np.random.default_rng(4)
    n, t = 6, 10
    factor = rng.normal(size=(t, 1))
    loadings = rng.normal(size=(n, 1))
    x = rng.normal(size=(n, t, 1))
    beta = np.array([2.0])
    ds = PanelDataset(y=x @ beta + loadings @ factor.T, x=x)
    f = f_given_beta(ds, beta, 1, delta=1.0)
    assert np.allclose(dense_projector(f), dense_projector(factor), atol=1e-8)


def test_f_given_beta_normalization_and_delta_cancellation():
    ds, beta, *_ = random_panel(5, n=6, t=9)
    for delta in (0.0, 1.0, 2.0):
        f = f_given_beta(ds, beta, 3, delta)
        assert np.allclose(
            ds.n_periods ** (-delta) * f.T @ f, np.eye(3), atol=1e-8
        )
    p0 = dense_projector(f_given_beta(ds, beta, 3, 0.0))
    p2 = dense_projector(f_given_beta(ds, beta, 3, 2.0))
    assert np.allclose(p0, p2, atol=1e-8)


def test_long_panel_factors_match_primal_oracle():
    # T > 2N takes the SVD route; the oracle eigensolves the T x T covariance
    ds, beta, *_ = random_panel(8, n=12, t=300, n_factors=2)
    _, vectors = dense_top_eigenpairs(ds.y - ds.x @ beta, 3)
    f = f_given_beta(ds, beta, 3, delta=1.0)
    assert np.allclose(f, np.sqrt(ds.n_periods) * vectors, atol=1e-8)


def test_fit_initial_no_factor_data_converges_fast():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 12, 2))
    beta = np.array([1.0, 1.0])
    y = x @ beta + 1e-8 * rng.normal(size=(8, 12))
    config = IpcConfig(d_max=3)
    res = fit_initial(PanelDataset(y=y, x=x), config)
    assert res.converged
    assert len(res.ssr_path) <= 3
    assert np.allclose(res.beta0, beta, atol=1e-4)


def test_ssr_path_monotone_and_normalized_factors():
    ds, *_ = random_panel(7, n=10, t=12, n_factors=2, noise=1.0)
    config = IpcConfig(d_max=4, als_coef_tol=0.0)
    res = fit_initial(ds, config)
    diffs = np.diff(res.ssr_path)
    assert np.all(diffs <= 1e-10 * res.ssr_path[0])
    assert np.allclose(
        ds.n_periods ** (-config.delta) * res.f0.T @ res.f0,
        np.eye(config.d_max),
        atol=1e-8,
    )
    assert res.converged


def test_delta_invariance_of_initial_estimates():
    ds, *_ = random_panel(8, n=10, t=12, n_factors=2, noise=1.0)
    results = {
        delta: fit_initial(ds, IpcConfig(d_max=4, delta=delta)) for delta in (0.0, 1.0)
    }
    assert np.allclose(results[0.0].beta0, results[1.0].beta0, atol=1e-8)
    assert np.allclose(
        dense_projector(results[0.0].f0), dense_projector(results[1.0].f0), atol=1e-8
    )


def test_global_minimum_grid_check_toy_scale():
    # exact-minimization mode: best beta on a fine grid, with the factor
    # re-optimized at every grid point, cannot beat the ALS solution
    rng = np.random.default_rng(12)
    n, t = 4, 4
    x = rng.normal(size=(n, t, 1))
    y = x @ np.array([1.0]) + 0.5 * rng.normal(size=(n, t))
    ds = PanelDataset(y=y, x=x)
    config = IpcConfig(d_max=1, als_coef_tol=0.0, als_tol=1e-14)
    res = fit_initial(ds, config)
    best = ssr_value(ds, res.beta0, res.f0)
    for offset in np.linspace(-1.0, 1.0, 201):
        beta = res.beta0 + offset
        f = f_given_beta(ds, beta, 1, config.delta)
        assert best <= ssr_value(ds, beta, f) + 1e-9 * best


def test_not_converged_carries_partial_result():
    ds, *_ = random_panel(13, n=10, t=12, n_factors=2, noise=1.0)
    config = IpcConfig(d_max=3, als_coef_tol=0.0, als_tol=1e-16, als_max_iter=2)
    with pytest.raises(NotConvergedError) as err:
        fit_initial(ds, config)
    partial = err.value.result
    assert partial.iterations == 2
    assert not partial.converged
    assert partial.beta0.shape == (2,)
