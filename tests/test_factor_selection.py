import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipcpanel import factor_selection, init_estimator
from ipcpanel.errors import (
    DegenerateThresholdError,
    GroupBudgetExceededError,
    InvalidDomainError,
    InvalidEigenvaluesError,
)
from ipcpanel.factor_selection import (
    eigen_ratio_select,
    extract_group,
    iterate_groups,
    mock_eigenvalue,
    threshold_tau,
)
from ipcpanel.final_estimator import fit_final, fit_ipc
from ipcpanel.init_estimator import fit_initial, residual_spectrum
from ipcpanel.model import IpcConfig, PanelDataset
from ipcpanel.simulation import Dgp1Spec, generate_dgp1

from conftest import (
    dense_annihilator,
    dense_projector,
    deflation_groups,
    random_panel,
    record_calls,
    walk_groups,
)


# --- eigen_ratio_select -------------------------------------------------------

def test_pure_noise_selects_zero():
    # every eigenvalue below tau * mock: all d >= 1 terms are 1, and the
    # mock ratio at d = 0 is below 1
    lam = np.array([0.4, 0.35, 0.3, 0.25, 0.2])
    out = eigen_ratio_select(lam, mock=50.0, tau=0.1)
    assert out.chosen_d == 0
    assert out.criterion_values[0] == pytest.approx(0.4 / 50.0)
    assert np.all(out.criterion_values[1:] == 1.0)


def test_single_dominant_eigenvalue():
    lam = np.array([100.0, 0.5, 0.45, 0.4, 0.35])
    out = eigen_ratio_select(lam, mock=50.0, tau=0.1)
    assert out.chosen_d == 1
    assert out.criterion_values[1] == pytest.approx(0.005)


def test_two_dominant_eigenvalues():
    lam = np.array([90.0, 80.0, 2.0, 1.9, 1.8])
    out = eigen_ratio_select(lam, mock=60.0, tau=0.1)
    assert out.chosen_d == 2
    assert out.criterion_values[2] == pytest.approx(2.0 / 80.0)


def test_indicator_failure_pins_criterion_at_one():
    lam = np.array([90.0, 80.0, 2.0, 1.9, 1.8])
    out = eigen_ratio_select(lam, mock=60.0, tau=0.1)
    # lam[2]/mock = 0.033 < 0.1, so the d = 3 term falls back to 1
    assert not out.passed_indicator[3]
    assert out.criterion_values[3] == 1.0
    assert out.passed_indicator[0]


def test_zero_mock_degenerate_cases():
    # nothing left at all: select zero outright
    out = eigen_ratio_select(np.zeros(4), mock=0.0, tau=0.3)
    assert out.chosen_d == 0
    # zero mock with structure left: the d = 0 term is infinite, so the
    # rule cannot stop prematurely on an exactly explained panel
    out = eigen_ratio_select(np.array([10.0, 1e-12, 0.9e-12]), mock=0.0, tau=0.3)
    assert np.isinf(out.criterion_values[0])
    assert out.chosen_d == 1


def test_invalid_eigenvalues_rejected():
    with pytest.raises(InvalidEigenvaluesError):
        eigen_ratio_select(np.array([1.0, 2.0, 0.5]), mock=1.0, tau=0.2)
    with pytest.raises(InvalidEigenvaluesError):
        eigen_ratio_select(np.array([1.0, -0.5]), mock=1.0, tau=0.2)
    # tiny negatives from floating point are clamped, not rejected
    out = eigen_ratio_select(np.array([1.0, 0.5, -1e-14]), mock=10.0, tau=0.01)
    assert out.criterion_values[2] == pytest.approx(0.0, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.floats(1e-6, 1e6),
    st.floats(0.01, 0.95),
)
def test_scale_invariance_with_fixed_tau(seed, scale, tau):
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.gamma(2.0, 1.0, 6))[::-1]
    mock = float(rng.gamma(2.0, 2.0)) + 1e-6
    base = eigen_ratio_select(lam, mock, tau)
    scaled = eigen_ratio_select(scale * lam, scale * mock, tau)
    assert base.chosen_d == scaled.chosen_d


# --- threshold_tau --------------------------------------------------------------

def test_threshold_examples():
    assert threshold_tau(1.0, math.e**2) == pytest.approx(0.5, rel=1e-9)
    assert threshold_tau(1e6, 100) == pytest.approx(1.0 / math.log(1e6), rel=1e-12)
    assert threshold_tau(50.0, 100) == pytest.approx(1.0 / math.log(100.0), rel=1e-12)
    assert 0.0 < threshold_tau(50.0, 100) < 1.0


def test_threshold_degenerate():
    with pytest.raises(DegenerateThresholdError):
        threshold_tau(1.0, 2)


# --- mock_eigenvalue -------------------------------------------------------------

def test_perfect_fit_mock_is_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 6, 1))
    beta = np.array([2.0])
    ds = PanelDataset(y=x @ beta, x=x)
    assert mock_eigenvalue(ds, beta, np.zeros((6, 0))) == 0.0


def test_single_unit_empty_prior():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 5, 1))
    y = np.vstack([x[0, :, 0] * 1.0 + np.arange(5.0), x[1, :, 0]])
    ds = PanelDataset(y=y, x=x)
    r = y - x @ np.array([1.0])
    expected = (np.sum(r[0] ** 2) + np.sum(r[1] ** 2)) / 2.0
    assert mock_eigenvalue(ds, np.array([1.0]), np.zeros((5, 0))) == pytest.approx(
        expected, rel=1e-12
    )


def test_mock_matches_dense_projector_oracle():
    ds, beta, *_ = random_panel(2, n=5, t=7)
    rng = np.random.default_rng(3)
    prior = rng.normal(size=(7, 2))
    m = dense_annihilator(prior)
    r = ds.y - ds.x @ beta
    expected = np.mean([r[i] @ m @ r[i] for i in range(5)])
    assert mock_eigenvalue(ds, beta, prior) == pytest.approx(expected, rel=1e-10)


# --- extract_group ----------------------------------------------------------------

def test_noiseless_single_trend_factor():
    rng = np.random.default_rng(4)
    n, t = 20, 30
    trend = np.arange(1.0, t + 1.0).reshape(-1, 1)
    loadings = rng.normal(1.0, 1.0, (n, 1))
    x = rng.normal(size=(n, t, 2))
    beta = np.array([1.0, 1.0])
    ds = PanelDataset(y=x @ beta + loadings @ trend.T, x=x)
    config = IpcConfig(d_max=5)
    [group] = walk_groups(ds, beta, config)
    assert group.dim == 1
    assert np.allclose(
        dense_projector(group.factors), dense_projector(trend), atol=1e-6
    )
    assert np.allclose(
        t ** (-config.delta) * group.factors.T @ group.factors, np.eye(1), atol=1e-8
    )


def test_pure_noise_rarely_yields_a_group():
    # residuals that are nothing but small i.i.d. noise: the first
    # extraction should come back empty almost always
    beta = np.ones(1)
    config = IpcConfig(d_max=5)
    empty = 0
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        x = rng.normal(size=(30, 30, 1))
        y = x @ beta + 0.05 * rng.standard_normal((30, 30))
        empty += not walk_groups(PanelDataset(y=y, x=x), beta, config)
    assert empty / 200 >= 0.95


def test_group_normalization_any_delta():
    ds, beta, *_ = random_panel(5, n=12, t=14, n_factors=2, noise=1.0)
    r = ds.y - ds.x @ beta
    spectrum = residual_spectrum(ds, beta, ds.n_periods)
    for delta in (0.0, 1.5):
        group = extract_group([], IpcConfig(d_max=4, delta=delta), r, spectrum)
        if group.dim:
            gram = ds.n_periods ** (-delta) * group.factors.T @ group.factors
            assert np.allclose(gram, np.eye(group.dim), atol=1e-8)
        assert np.all(group.eigenvalues >= 0.0)
        assert np.all(np.diff(group.eigenvalues) <= 1e-9 * group.eigenvalues[0])


def dgp1_panel(n, t, seed=100):
    return generate_dgp1(Dgp1Spec(n, t, seed=seed))[0]


ORACLE_PANELS = {
    **{f"dgp1-160x160-{s}": (lambda s=s: dgp1_panel(160, 160, s), 10) for s in range(100, 105)},
    "dgp1-2000x40": (lambda: dgp1_panel(2000, 40), 10),
    "dgp1-40x1000": (lambda: dgp1_panel(40, 1000), 10),
    "long-12x300": (lambda: random_panel(9, n=12, t=300, n_factors=2, noise=0.2)[0], 4),
    "noiseless-12x60": (lambda: random_panel(10, n=12, t=60, n_factors=1, noise=0.0)[0], 3),
}


@functools.cache
def oracle_panel(name):
    make, d_max = ORACLE_PANELS[name]
    ds = make()
    return ds, fit_initial(ds, IpcConfig(d_max=d_max)), d_max


def relative_gap(a, b):
    return np.abs(np.asarray(a) - b).max() / np.abs(b).max()


#: test ids keep the name of the selection rule, per-group, so they stay stable
PERGROUP_IDS = [f"{name}-pergroup" for name in ORACLE_PANELS]


@pytest.mark.parametrize("name", list(ORACLE_PANELS), ids=PERGROUP_IDS)
def test_groups_match_deflation_oracle(name):
    # one walk down the spectrum of r'r/N against per-group deflation and a
    # full eigensolve of each deflated covariance; 40x1000, 12x300 and the
    # noiseless 12x60 take the SVD route
    ds, init, d_max = oracle_panel(name)
    config = IpcConfig(d_max=d_max)
    groups = walk_groups(ds, init.beta0, config)
    oracle = deflation_groups(ds, init.beta0, config)
    assert [g.dim for g in groups] == [g.dim for g in oracle]
    assert groups, "every panel here has a factor"
    # group 1's mock, a tail sum of the spectrum, is the ALS objective's
    # last value: both project out the d_max initial factors
    assert relative_gap(groups[0].mock_eigenvalue, init.ssr_path[-1] / ds.n_units) <= 1e-10
    for got, want in zip(groups, oracle):
        assert relative_gap(got.eigenvalues, want.eigenvalues) <= 1e-8
        assert relative_gap(got.mock_eigenvalue, want.mock_eigenvalue) <= 1e-9
        gap = dense_projector(got.factors) - dense_projector(want.factors)
        assert np.abs(gap).max() <= 1e-10
        common = got.loadings @ got.factors.T
        assert relative_gap(common, want.loadings @ want.factors.T) <= 1e-10
    fit, oracle_fit = fit_final(ds, init, groups, config), fit_final(ds, init, oracle, config)
    assert relative_gap(fit.beta, oracle_fit.beta) <= 1e-10
    # the unit variances are squared norms |M_F r|^2 / T, which do not cancel
    # when M_F r is small next to r, so factors that differ at rounding level
    # move the covariance at rounding level even on the noiseless panel
    assert relative_gap(fit.covariance, oracle_fit.covariance) <= 1e-12


def test_exactly_explained_long_panel_fits():
    # no noise: the residual after one factor is zero up to rounding, so the
    # SVD route meets a rank-deficient residual. At 12x300 step 1 also
    # compresses the time axis, and W, which holds every y_i and x_ij, has
    # rank N d_x + 1 < 3N
    for t in (60, 300):
        ds, *_ = random_panel(10, n=12, t=t, n_factors=1, noise=0.0)
        fit = fit_ipc(ds, IpcConfig(d_max=3))
        assert [g.dim for g in fit.groups] == [1]
        assert np.all(np.isfinite(fit.beta))


# --- iterate_groups ----------------------------------------------------------------

def test_no_factor_data_gives_empty_list():
    rng = np.random.default_rng(6)
    n, t = 40, 40
    x = rng.normal(size=(n, t, 2))
    y = x @ np.ones(2) + rng.normal(size=(n, t))
    ds = PanelDataset(y=y, x=x)
    assert walk_groups(ds, np.ones(2), IpcConfig()) == []


def test_two_scale_construction_splits_groups():
    # trend plus an i.i.d. standard normal factor, orthogonal loadings,
    # disturbance far below both factor scales: the two scales come out
    # as two one-dimensional groups in magnitude order
    rng = np.random.default_rng(7)
    n, t = 20, 30
    trend = np.arange(1.0, t + 1.0)
    normal_factor = rng.standard_normal(t)
    g1 = rng.normal(1.0, 1.0, n)
    g2 = rng.standard_normal(n)
    g2 -= (g2 @ g1) / (g1 @ g1) * g1  # orthogonal loading vectors
    x = rng.normal(size=(n, t, 2))
    beta = np.ones(2)
    y = (
        x @ beta
        + np.outer(g1, trend)
        + np.outer(g2, normal_factor)
        + 0.2 * rng.standard_normal((n, t))
    )
    ds = PanelDataset(y=y, x=x)
    groups = walk_groups(ds, beta, IpcConfig())
    assert [g.dim for g in groups] == [1, 1]
    # magnitude ordering and span recovery of the dominant scale
    assert groups[0].eigenvalues[0] > groups[1].eigenvalues[0]
    gap = dense_projector(groups[0].factors) - dense_projector(trend.reshape(-1, 1))
    assert np.linalg.norm(gap) < 0.05


def test_group_ordering_on_simulated_panel():
    from ipcpanel.simulation import Dgp1Spec, generate_dgp1
    from ipcpanel.init_estimator import fit_initial

    ds, _ = generate_dgp1(Dgp1Spec(40, 40, seed=11))
    config = IpcConfig()
    init = fit_initial(ds, config)
    groups = walk_groups(ds, init.beta0, config)
    assert all(g.dim >= 1 for g in groups)
    tops = [g.eigenvalues[0] for g in groups]
    assert all(a >= b for a, b in zip(tops, tops[1:]))
    assert [g.group_index for g in groups] == list(range(1, len(groups) + 1))


def test_budget_exceeded_reports_partial_groups():
    # four exactly orthogonal rank-one components at separated scales,
    # no noise: each pass extracts one, and the group cap fires first
    rng = np.random.default_rng(8)
    n, t = 20, 20
    u, _ = np.linalg.qr(rng.normal(size=(n, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(t, 4)))
    energies = [1e12, 1e7, 1e3, 1.0]
    common = sum(
        math.sqrt(e * n) * np.outer(u[:, k], v[:, k]) for k, e in enumerate(energies)
    )
    x = rng.normal(size=(n, t, 1))
    beta = np.array([1.0])
    ds = PanelDataset(y=x @ beta + common, x=x)
    with pytest.raises(GroupBudgetExceededError) as err:
        walk_groups(ds, beta, IpcConfig(d_max=2))
    assert len(err.value.groups) == 3
    assert all(g.dim == 1 for g in err.value.groups)


@pytest.fixture(scope="module")
def dgp1_long():
    ds, _ = generate_dgp1(Dgp1Spec(40, 200, seed=1))
    return ds, fit_initial(ds, IpcConfig()).beta0


@pytest.mark.parametrize("config", [pytest.param(IpcConfig(), id="pergroup")])
def test_threshold_anchor_follows_rule(monkeypatch, dgp1_long, config):
    # each group's threshold is anchored at its own mock eigenvalue
    ds, beta0 = dgp1_long
    calls = record_calls(monkeypatch, "threshold_tau")
    groups = walk_groups(ds, beta0, config)
    anchors = [args[0] for args in calls]
    mocks = [g.mock_eigenvalue for g in groups]
    assert [g.dim for g in groups] == [1, 1, 1]
    assert len(set(mocks)) == 3  # an anchor read off another group would show
    assert anchors[: len(groups)] == mocks


#: every binding through which the package eigensolves r'r/N: the eigh
#: route's first, the SVD route's second
EIGENSOLVERS = [
    (init_estimator, "top_sym_eigh"),
    (init_estimator, "top_svd_pairs"),
    (factor_selection, "top_sym_eigh"),
]


def test_one_spectrum_per_walk(monkeypatch, dgp1_long):
    # the step that settles the slope takes the whole spectrum, and step 2
    # walks it: one eigensolve to start, one per ALS iteration, and none, nor
    # any projection, in step 2 (the mocks are tail sums of the spectrum)
    logs = [record_calls(monkeypatch, name, module) for module, name in EIGENSOLVERS]
    f_calls = record_calls(monkeypatch, "f_given_beta")
    projections = record_calls(monkeypatch, "annihilator_apply", init_estimator)
    for route, ds in [(0, dgp1_panel(40, 40)), (1, dgp1_long[0])]:
        fit = fit_ipc(ds, IpcConfig())
        assert len(logs[route]) == sum(map(len, logs)) == fit.als_iterations + 1
        init = fit_initial(ds, IpcConfig())
        for log in [*logs, f_calls, projections]:
            log.clear()
        groups = iterate_groups(ds, init.beta0, IpcConfig(), init.spectrum)
        assert [g.dim for g in groups] == [g.dim for g in fit.groups]
        assert sum(map(len, logs)) == len(f_calls) == len(projections) == 0


@pytest.mark.parametrize("k", ["d_max", "N"])
def test_truncated_spectrum_rejected(dgp1_long, k):
    # the mocks are tail sums of all T values: a top-d_max spectrum, or the
    # N values of the thin SVD without their padding, would understate them
    ds, beta0 = dgp1_long
    config = IpcConfig()
    spectrum = residual_spectrum(ds, beta0, config.d_max if k == "d_max" else ds.n_units)
    with pytest.raises(InvalidDomainError, match="T = 200"):
        iterate_groups(ds, beta0, config, spectrum)


def test_exactly_explained_walk_matches_oracle(monkeypatch):
    # at the true slope the noiseless residual has rank one, so the values
    # after the first group are rounding error: the walk stops on the
    # trailing sum without consulting the ratio rule a second time
    ds, beta, *_ = random_panel(10, n=12, t=60, n_factors=1, noise=0.0)
    config = IpcConfig(d_max=3)
    oracle = deflation_groups(ds, beta, config)
    calls = record_calls(monkeypatch, "eigen_ratio_select")
    groups = walk_groups(ds, beta, config)
    assert len(calls) == 1
    assert [g.dim for g in groups] == [g.dim for g in oracle] == [1]
    gap = dense_projector(groups[0].factors) - dense_projector(oracle[0].factors)
    assert np.abs(gap).max() <= 1e-10


@pytest.mark.parametrize("n, t, dims", [(30, 30, [2]), (40, 12, [1])], ids=["30x30", "40x12"])
def test_largest_d_max_exhausts_the_budget(n, t, dims):
    # d_max = min(N, T) - 1 leaves no room for a second window of the spectrum
    ds, _ = generate_dgp1(Dgp1Spec(n, t, seed=5))
    with pytest.raises(GroupBudgetExceededError) as err:
        fit_ipc(ds, IpcConfig(d_max=min(n, t) - 1))
    assert [g.dim for g in err.value.groups] == dims


def test_walk_past_the_svd_rank_fits():
    # N << T: the thin SVD gives N values and the rest of the T are zero
    # padding; the second group's window reads the padded value at index N
    ds, _ = generate_dgp1(Dgp1Spec(8, 60, seed=5))
    fit = fit_ipc(ds, IpcConfig(d_max=7))
    assert [g.dim for g in fit.groups] == [1, 1]
    assert np.all(np.isfinite(fit.beta))
    assert np.all(np.isfinite(fit.covariance))


def test_equal_magnitude_factors_form_one_group():
    # two i.i.d. standard normal factors with i.i.d. standard normal loadings
    ds, _, factors, _ = random_panel(0, n=40, t=60, n_factors=2, noise=0.3)
    fit = fit_ipc(ds, IpcConfig())
    assert [g.dim for g in fit.groups] == [2]
    gap = dense_projector(fit.groups[0].factors) - dense_projector(factors)
    assert np.linalg.norm(gap) < 0.15
