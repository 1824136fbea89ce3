import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipcpanel import final_estimator, init_estimator, numerics
from ipcpanel.errors import (
    IpcError,
    NonFiniteError,
    RankDeficientError,
    SingularLoadingsError,
    SingularZGramError,
)
from ipcpanel.final_estimator import (
    fit_final,
    fit_ipc,
    loading_weights,
    z_matrices,
)
from ipcpanel.init_estimator import beta_given_f, fit_initial
from ipcpanel.model import IpcConfig, PanelDataset
from ipcpanel.simulation import Dgp1Spec, generate_dgp1

from conftest import dense_annihilator, dense_sandwich, random_panel, walk_groups


# --- loading_weights -----------------------------------------------------------

def test_identity_loadings_give_identity_projector():
    assert np.allclose(loading_weights(np.eye(4)), np.eye(4), atol=1e-12)


def test_empty_loadings_give_zero_matrix():
    out = loading_weights(np.zeros((5, 0)))
    assert out.shape == (5, 5)
    assert np.all(out == 0.0)


def test_matches_explicit_two_by_two_inversion():
    rng = np.random.default_rng(0)
    gamma = rng.normal(size=(5, 2))
    g = gamma.T @ gamma
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    g_inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det
    expected = gamma @ g_inv @ gamma.T
    assert np.allclose(loading_weights(gamma), expected, atol=1e-10)


def test_projector_invariants():
    rng = np.random.default_rng(1)
    gamma = rng.normal(size=(8, 3))
    a = loading_weights(gamma)
    assert np.allclose(a, a.T, atol=1e-10)
    assert np.allclose(a @ a, a, atol=1e-8)
    assert np.trace(a) == pytest.approx(3.0, abs=1e-6)


def test_collinear_loadings_rejected():
    gamma = np.ones((6, 2))
    with pytest.raises(SingularLoadingsError):
        loading_weights(gamma)


# --- z_matrices -----------------------------------------------------------------

def test_no_projection_no_weights_returns_regressors(tiny_panel):
    t = tiny_panel.n_periods
    z = z_matrices(tiny_panel, np.zeros((t, 0)), np.zeros((6, 0)))
    assert np.allclose(z, tiny_panel.x)


def test_full_weights_remove_everything(tiny_panel):
    t = tiny_panel.n_periods
    z = z_matrices(tiny_panel, np.zeros((t, 0)), np.eye(6))
    assert np.allclose(z, 0.0, atol=1e-12)


def test_matches_dense_projector_oracle():
    rng = np.random.default_rng(2)
    n, t, d_x = 3, 4, 1
    x = rng.normal(size=(n, t, d_x))
    y = rng.normal(size=(n, t))
    ds = PanelDataset(y=y, x=x)
    f = rng.normal(size=(t, 2))
    gamma = rng.normal(size=(n, 2))
    a = gamma @ np.linalg.inv(gamma.T @ gamma) @ gamma.T
    m = dense_annihilator(f)
    expected = np.empty((n, t, d_x))
    for i in range(n):
        acc = m @ x[i]
        for j in range(n):
            acc = acc - (m @ x[j]) * a[i, j]
        expected[i] = acc
    assert np.allclose(z_matrices(ds, f, gamma), expected, atol=1e-10)


def test_z_collinear_loadings_rejected(tiny_panel):
    t = tiny_panel.n_periods
    with pytest.raises(SingularLoadingsError):
        z_matrices(tiny_panel, np.zeros((t, 0)), np.ones((6, 2)))


def test_z_singular_factors_keep_their_error(tiny_panel):
    t = tiny_panel.n_periods
    with pytest.raises(RankDeficientError):
        z_matrices(tiny_panel, np.ones((t, 2)), np.eye(6)[:, :2])


def test_z_orthogonal_to_factors():
    ds, beta, *_ = random_panel(3, n=8, t=10)
    rng = np.random.default_rng(4)
    f = rng.normal(size=(10, 2))
    gamma = rng.normal(size=(8, 2))
    z = z_matrices(ds, f, gamma)
    for i in range(8):
        assert np.linalg.norm(f.T @ z[i]) <= 1e-6 * np.linalg.norm(ds.x[i])


# --- fit_final / fit_ipc ----------------------------------------------------------

def test_fixed_point_when_conditional_slope_equals_initial():
    ds, *_ = random_panel(5, n=12, t=14, n_factors=1, noise=1.0)
    config = IpcConfig(d_max=3)
    init = fit_initial(ds, config)
    groups = walk_groups(ds, init.beta0, config)
    fit = fit_final(ds, init, groups, config)
    forced = dataclasses.replace(init, beta0=fit.beta1)
    refit = fit_final(ds, forced, groups, config)
    assert np.allclose(refit.beta, refit.beta0, atol=1e-12)


def test_noiseless_panel_recovers_slope():
    spec = Dgp1Spec(40, 40, seed=2)
    ds, truth = generate_dgp1(spec)
    # rebuild the outcome without the disturbance term
    y = ds.x @ truth.beta_true + truth.loadings_true @ truth.factors_true.T
    clean = PanelDataset(y=y, x=ds.x)
    fit = fit_ipc(clean, IpcConfig())
    assert np.linalg.norm(fit.beta - truth.beta_true) < 1e-4
    assert fit.total_factors >= 3


def test_algebraic_identity_recomputed_from_stored_pieces():
    ds, _ = generate_dgp1(Dgp1Spec(30, 30, seed=3))
    fit = fit_ipc(ds, IpcConfig(d_max=6))
    mx = np.stack([dense_annihilator(fit.factors_combined) @ ds.x[i] for i in range(30)])
    a = loading_weights(fit.loadings_combined)
    z = mx - np.einsum("ij,jtd->itd", a, mx)
    z_gram = np.einsum("ntd,nte->de", z, z)
    x_gram = np.einsum("ntd,nte->de", mx, mx)
    lhs = z_gram @ (fit.beta - fit.beta0)
    rhs = x_gram @ (fit.beta1 - fit.beta0)
    scale = max(np.linalg.norm(rhs), 1.0)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale


def test_end_to_end_delta_invariance():
    ds, _ = generate_dgp1(Dgp1Spec(30, 30, seed=4))
    fits = {
        delta: fit_ipc(ds, IpcConfig(delta=delta, d_max=6)) for delta in (0.0, 1.0, 2.0)
    }
    dims = {delta: [g.dim for g in fit.groups] for delta, fit in fits.items()}
    assert dims[0.0] == dims[1.0] == dims[2.0]
    for delta in (1.0, 2.0):
        assert np.allclose(fits[0.0].beta, fits[delta].beta, atol=1e-8)
        assert np.allclose(fits[0.0].beta0, fits[delta].beta0, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.sampled_from(["units", "periods"]),
    st.sampled_from([(24, 26, 6), (8, 60, 3), (150, 8, 3)]),
)
def test_permutation_invariance(seed, perm_seed, axis, shape):
    # units and periods are exchangeable in every step: a reordered panel
    # selects the same dimensions and the same slope up to rounding. 8x60
    # has T > 2 * 3N and 150x8 has N > 4 * 3T, so step 1 runs on a
    # QR-compressed panel, along time and along units: permuting the axis
    # that is compressed reorders the rows that QR factors, permuting the
    # other axis its columns
    n, t, d_max = shape
    ds, _ = generate_dgp1(Dgp1Spec(n, t, seed=seed))
    rng = np.random.default_rng(perm_seed)
    if axis == "units":
        order = rng.permutation(ds.n_units)
        permuted = PanelDataset(y=ds.y[order], x=ds.x[order])
    else:
        order = rng.permutation(ds.n_periods)
        permuted = PanelDataset(y=ds.y[:, order], x=ds.x[:, order])
    config = IpcConfig(d_max=d_max)
    fit, fit_p = fit_ipc(ds, config), fit_ipc(permuted, config)
    assert [g.dim for g in fit_p.groups] == [g.dim for g in fit.groups]
    assert np.abs(fit_p.beta - fit.beta).max() <= 1e-10 * np.abs(fit.beta).max()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(1e-2, 1e2))
def test_y_scale_equivariance(seed, c):
    # beta0 scales with y; tau = 1/ln(max(mock, N)) does not once the mock
    # exceeds N, so the selected dimensions may change, and beta scales
    # whenever they do not
    ds, _ = generate_dgp1(Dgp1Spec(24, 26, seed=seed))
    scaled = PanelDataset(y=c * ds.y, x=ds.x)
    config = IpcConfig(d_max=6)
    fit, fit_c = fit_ipc(ds, config), fit_ipc(scaled, config)
    assert np.abs(fit_c.beta0 - c * fit.beta0).max() <= 1e-9 * c * np.abs(fit.beta0).max()
    if [g.dim for g in fit_c.groups] == [g.dim for g in fit.groups]:
        assert np.abs(fit_c.beta - c * fit.beta).max() <= 1e-9 * c * np.abs(fit.beta).max()


def test_y_scale_can_change_the_selected_dimensions():
    ds, _ = generate_dgp1(Dgp1Spec(30, 30, seed=5))
    dims = {}
    for c in (0.01, 1.0, 3.0, 100.0):
        fit = fit_ipc(PanelDataset(y=c * ds.y, x=ds.x), IpcConfig())
        dims[c] = [g.dim for g in fit.groups]
    assert dims == {0.01: [1], 1.0: [1], 3.0: [1, 2], 100.0: [1, 2]}


def test_no_factor_path_collapses_to_pooled_ols():
    rng = np.random.default_rng(6)
    n, t = 30, 30
    x = rng.normal(size=(n, t, 2))
    y = x @ np.array([0.5, -1.0]) + rng.normal(size=(n, t))
    ds = PanelDataset(y=y, x=x)
    fit = fit_ipc(ds, IpcConfig(d_max=5))
    assert fit.n_groups == 0
    assert fit.total_factors == 0
    pooled = beta_given_f(ds, np.zeros((t, 0)))
    assert np.allclose(fit.beta, pooled, atol=1e-12)
    assert np.allclose(fit.beta1, pooled, atol=1e-12)
    assert fit.factors_combined.shape == (t, 0)
    assert fit.loadings_combined.shape == (n, 0)


def test_fit_final_projects_once(monkeypatch):
    # X off the factors in time, Z across units, and the residual for sigma2
    ds, _ = generate_dgp1(Dgp1Spec(30, 30, seed=3))
    config = IpcConfig(d_max=6)
    init = fit_initial(ds, config)
    groups = walk_groups(ds, init.beta0, config)
    calls = []

    def counting(f, v):
        calls.append(v.shape)
        return numerics.annihilator_apply(f, v)

    monkeypatch.setattr(init_estimator, "annihilator_apply", counting)
    monkeypatch.setattr(final_estimator, "annihilator_apply", counting)
    fit = fit_final(ds, init, groups, config)
    assert fit.total_factors > 0
    assert calls == [(30, 30, 2), (30, 60), (30, 30)]


def test_fit_metadata_and_sigma2():
    ds, _ = generate_dgp1(Dgp1Spec(30, 30, seed=7))
    config = IpcConfig(d_max=6)
    fit = fit_ipc(ds, config)
    assert fit.total_factors == sum(g.dim for g in fit.groups)
    assert fit.n_groups == len(fit.groups)
    assert np.all(fit.sigma2_by_unit >= 0.0)
    assert fit.sigma2_by_unit.shape == (30,)
    assert fit.config == config
    assert fit.factors_initial.shape == (30, config.d_max)


def test_z_of_rounding_error_is_rejected():
    # six factors on six units use up the loading span: Z is rounding error
    # (Gram eigenvalues ~1e-29 against |x| up to 7) but well conditioned on
    # its own, and the slope it gave was about 1e16
    ds, _ = generate_dgp1(Dgp1Spec(6, 60, seed=5))
    with pytest.raises(SingularZGramError):
        fit_ipc(ds, IpcConfig(d_max=5))


@pytest.mark.parametrize(
    "n, t, scale",
    [(60, 60, 1e-160), (160, 160, 1e-160), (40, 1000, 1e150)],
    ids=["60x60-tiny", "160x160-tiny", "40x1000-huge"],
)
def test_gram_overflow_or_underflow_is_a_typed_error(n, t, scale):
    # a tiny y underflows a Gram to NaN, a huge one overflows the sandwich's
    # middle term; both used to reach scipy's bare ValueError
    ds, _ = generate_dgp1(Dgp1Spec(n, t, seed=5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(IpcError):
            fit_ipc(PanelDataset(y=scale * ds.y, x=ds.x), IpcConfig())


@pytest.mark.parametrize(
    "n, t", [(30, 30), (20, 300), (600, 20)], ids=["30x30", "20x300", "600x20"]
)
def test_slope_near_1e170_ends_in_a_nonfinite_covariance_error(n, t):
    # y x 1e120 and x x 1e-50 put the slope near 1e170 on each step-1 route
    # (direct, time- and unit-compressed): the ALS slope test still fires at the
    # unscaled panel's iteration, and the covariance, about 1e340, is a typed
    # error, with no overflow warning on the way
    ds, _ = generate_dgp1(Dgp1Spec(n, t, seed=3))
    big = PanelDataset(y=1e120 * ds.y, x=1e-50 * ds.x)
    config = IpcConfig(d_max=4)
    init, want = fit_initial(big, config), fit_initial(ds, config)
    assert init.converged and init.iterations == want.iterations
    assert np.allclose(init.beta0, 1e170 * want.beta0, rtol=1e-9)
    with pytest.raises(NonFiniteError, match="covariance overflows"):
        fit_ipc(big, config)


def test_wide_panel_recovers_the_slope():
    # N >> T known truth: the slope is found to well within 0.02 of (1, 1)
    ds, truth = generate_dgp1(Dgp1Spec(5000, 40, seed=100))
    fit = fit_ipc(ds, IpcConfig())
    assert np.all(np.isfinite(fit.beta))
    assert np.abs(fit.beta - truth.beta_true).max() < 0.02
    assert np.linalg.eigvalsh(fit.covariance)[0] > 0.0


def stronger_trend_panel(seed, n=60, t=60):
    """Known truth with trends stronger than DGP1's: a t^2 factor and an I(2)
    path, loadings N(1, 1), standard normal noise, slope (1, -0.5). Both
    regressors carry the common component, scaled to at most 0.5 in size."""
    rng = np.random.default_rng(seed)
    time = np.arange(1.0, t + 1.0)
    factors = np.column_stack([time**2, np.cumsum(np.cumsum(rng.standard_normal(t)))])
    common = rng.normal(1.0, 1.0, (n, 2)) @ factors.T
    x = 0.5 * (common / np.abs(common).max())[..., None] + rng.standard_normal((n, t, 2))
    beta = np.array([1.0, -0.5])
    return PanelDataset(y=x @ beta + common + rng.standard_normal((n, t)), x=x), beta


@pytest.mark.parametrize("seed", range(5))
def test_stronger_trends_recover_two_factors_and_the_slope(seed):
    # over seeds 0-19 the walk found the two factors as [2] 11 times and as
    # [1, 1] 9 times, with delta at its default; max |beta - truth| had a
    # median of 0.017 and a maximum of 0.033
    ds, beta = stronger_trend_panel(seed)
    fit = fit_ipc(ds, IpcConfig(d_max=5))
    assert fit.total_factors == 2
    assert np.abs(fit.beta - beta).max() < 0.05


def test_covariance_matches_dense_sandwich_oracle():
    ds, _ = generate_dgp1(Dgp1Spec(16, 18, seed=8))
    fit = fit_ipc(ds, IpcConfig(d_max=4))
    assert fit.total_factors > 0
    expected = dense_sandwich(ds, fit.beta, fit.factors_combined, fit.loadings_combined)
    assert fit.covariance.shape == (2, 2)
    assert np.allclose(fit.covariance, expected, rtol=1e-10, atol=0.0)
    assert np.array_equal(fit.std_errors, np.sqrt(np.diag(fit.covariance)))
