import numpy as np
import pytest

from ipcpanel import init_estimator
from ipcpanel.errors import IdenticalUnitsError, SingularDesignError
from ipcpanel.factor_selection import iterate_groups
from ipcpanel.final_estimator import fit_final, fit_ipc
from ipcpanel.init_estimator import (
    MONOTONICITY_RTOL,
    beta_given_f,
    f_given_beta,
    fit_initial,
    residual,
    unit_ssr,
)
from ipcpanel.model import IpcConfig, PanelDataset
from ipcpanel.simulation import Dgp1Spec, generate_dgp1

from conftest import (
    ALLOC_SLACK,
    dense_annihilator,
    dense_projector,
    dense_top_eigenpairs,
    random_panel,
    record_calls,
    traced_peak,
)


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


def test_nearly_collinear_design_rejected_by_the_pipeline():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(20, 15, 1))
    x = np.concatenate([base, 2.0 * base + 1e-9 * rng.normal(size=base.shape)], axis=2)
    ds = PanelDataset(y=rng.normal(size=(20, 15)), x=x)
    with pytest.raises(SingularDesignError):
        fit_ipc(ds, IpcConfig(d_max=3))


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


def test_ssr_path_monotone_and_normalized_factors(monkeypatch):
    monkeypatch.setattr(init_estimator, "ALS_COEF_TOL", 0.0)
    ds, *_ = random_panel(7, n=10, t=12, n_factors=2, noise=1.0)
    config = IpcConfig(d_max=4)
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


def test_global_minimum_grid_check_toy_scale(monkeypatch):
    # exact-minimization mode: best beta on a fine grid, with the factor
    # re-optimized at every grid point, cannot beat the ALS solution
    rng = np.random.default_rng(12)
    n, t = 4, 4
    x = rng.normal(size=(n, t, 1))
    y = x @ np.array([1.0]) + 0.5 * rng.normal(size=(n, t))
    ds = PanelDataset(y=y, x=x)
    monkeypatch.setattr(init_estimator, "ALS_COEF_TOL", 0.0)
    monkeypatch.setattr(init_estimator, "ALS_TOL", 1e-14)
    config = IpcConfig(d_max=1)
    res = fit_initial(ds, config)
    best = unit_ssr(ds, res.beta0, res.f0).sum()
    for offset in np.linspace(-1.0, 1.0, 201):
        beta = res.beta0 + offset
        f = f_given_beta(ds, beta, 1, config.delta)
        assert best <= unit_ssr(ds, beta, f).sum() + 1e-9 * best


def test_iteration_cap_returns_non_converged_result(monkeypatch):
    monkeypatch.setattr(init_estimator, "ALS_COEF_TOL", 0.0)
    monkeypatch.setattr(init_estimator, "ALS_TOL", 1e-16)
    monkeypatch.setattr(init_estimator, "ALS_MAX_ITER", 2)
    ds, *_ = random_panel(13, n=10, t=12, n_factors=2, noise=1.0)
    partial = fit_initial(ds, IpcConfig(d_max=3))
    assert partial.iterations == 2
    assert not partial.converged
    assert len(partial.ssr_path) == 3
    assert partial.beta0.shape == (2,)


# --- the spectrum handed to step 2 ------------------------------------------------

#: the three ways the alternating minimization ends, by the constants that force them
STOPS = {
    "slope": {},
    "objective": {"ALS_COEF_TOL": 0.0},
    "cap": {"ALS_MAX_ITER": 2},
}


#: eigensolves beyond one per iteration, by shape and stop: the start's, plus
#: one more at beta0 unless the settling step took the whole spectrum. 20x300
#: is compressed along time (T > 2 * 3N): its settling step takes all 60 pairs
#: of the 20 x 60 coordinate panel, but time is rotated, so every stop takes
#: the spectrum once more on the full panel
EXTRA_EIGENSOLVES = {
    "40x40": {"slope": 1, "objective": 2, "cap": 2},
    "20x60": {"slope": 1, "objective": 2, "cap": 2},
    "20x300": {"slope": 2, "objective": 2, "cap": 2},
}


@pytest.mark.parametrize("stop", list(STOPS))
@pytest.mark.parametrize("n, t", [(40, 40), (20, 60), (20, 300)], ids=list(EXTRA_EIGENSOLVES))
def test_handed_off_spectrum_matches_dense_oracle(monkeypatch, n, t, stop):
    # the slope stop's last eigensolve is the whole spectrum; after the other
    # two stops it is taken once more at beta0. 20x60 and 20x300 take the SVD
    # route
    for name, value in STOPS[stop].items():
        monkeypatch.setattr(init_estimator, name, value)
    logs = [record_calls(monkeypatch, name, init_estimator)
            for name in ("top_sym_eigh", "top_svd_pairs")]
    ds, _ = generate_dgp1(Dgp1Spec(n, t, seed=100))
    config = IpcConfig(d_max=5)
    init = fit_initial(ds, config)
    assert init.converged == (stop != "cap")
    if stop == "cap":
        assert init.iterations == 2
    assert sum(map(len, logs)) == init.iterations + EXTRA_EIGENSOLVES[f"{n}x{t}"][stop]

    values, vectors = init.spectrum
    want_values, want_vectors = dense_top_eigenpairs(ds.y - ds.x @ init.beta0, t)
    assert values.shape == (t,) and vectors.shape == (t, min(n, t))
    assert np.all(values >= 0.0)
    assert np.abs(values - want_values).max() <= 1e-12 * want_values[0]
    assert np.abs(vectors - want_vectors[:, : min(n, t)]).max() <= 1e-9
    refit = f_given_beta(ds, init.beta0, config.d_max, config.delta)
    assert np.abs(dense_projector(init.f0) - dense_projector(refit)).max() <= 1e-10
    assert np.all(np.diff(init.ssr_path) <= MONOTONICITY_RTOL * init.ssr_path[0])


# --- the compressed route for long panels ------------------------------------------

LONG_PANELS = {
    "dgp1-40x1000": (lambda: generate_dgp1(Dgp1Spec(40, 1000, seed=100))[0], 10),
    "long-12x300": (lambda: random_panel(9, n=12, t=300, n_factors=2, noise=0.2)[0], 4),
    "long-dx1-12x300": (lambda: random_panel(9, n=12, t=300, d_x=1, n_factors=2)[0], 4),
    "long-dx3-12x300": (
        lambda: random_panel(9, n=12, t=300, d_x=3, n_factors=2, noise=0.2)[0], 4
    ),
}


@pytest.mark.parametrize("name", list(LONG_PANELS))
def test_compressed_route_matches_the_direct_loop(monkeypatch, name):
    # T > 2m: the loop runs on the N x m coordinate panel, m = (1 + d_x) N, and
    # only the spectrum at beta0 is taken on the full panel. With d_x = 1 the
    # coordinate panel is 2N wide and eigensolves m x m; with d_x = 2 it takes
    # the thin SVD. The direct loop on the full panel is the oracle
    make, d_max = LONG_PANELS[name]
    ds = make()
    n, t, d_x = ds.n_units, ds.n_periods, ds.n_regressors
    m = (1 + d_x) * n
    config = IpcConfig(d_max=d_max)
    logs = {solver: record_calls(monkeypatch, solver, init_estimator)
            for solver in ("top_sym_eigh", "top_svd_pairs")}
    compressed = fit_initial(ds, config)
    widths = sorted(args[0].shape[1] for log in logs.values() for args in log)
    assert widths == [m] * (compressed.iterations + 1) + [t]
    assert len(logs["top_sym_eigh"]) == (compressed.iterations + 1 if d_x == 1 else 0)

    monkeypatch.setattr(init_estimator, "COMPRESS_ASPECT_RATIO", np.inf)
    direct = fit_initial(ds, config)
    assert compressed.iterations == direct.iterations
    assert compressed.converged and direct.converged
    np.testing.assert_allclose(compressed.beta0, direct.beta0, rtol=1e-10, atol=0)
    np.testing.assert_allclose(compressed.ssr_path, direct.ssr_path, rtol=1e-10, atol=0)
    assert np.abs(dense_projector(compressed.f0) - dense_projector(direct.f0)).max() <= 1e-10
    values, want = compressed.spectrum[0], direct.spectrum[0]
    assert values.shape == (t,) and np.abs(values - want).max() <= 1e-10 * want[0]


def test_compressed_fit_initial_allocation_budget():
    # W, the T x m matrix of every series, is the one panel-sized buffer: it is
    # built Fortran-ordered and factored in place, and the full-size spectrum
    # at beta0 comes after W is freed. The peak is 1.25 (y + x); a second copy
    # of W, as np.linalg.qr makes, would read 2.2 (y + x)
    ds, _ = generate_dgp1(Dgp1Spec(40, 1000, seed=100))
    panel = ds.y.nbytes + ds.x.nbytes
    assert traced_peak(fit_initial, ds, IpcConfig()) <= 1.5 * panel + ALLOC_SLACK


@pytest.mark.parametrize(
    "n, t", [(12, 300), (30, 60), (40, 40), (300, 12)], ids=["12x300", "30x60", "40x40", "300x12"]
)
def test_exactly_explained_panels_fit(n, t):
    # y = x[..., 0]: the objective starts at rounding level, so a slack relative
    # to it alone is rounding too. Steps rose by up to 5.7e5 times the starting
    # objective, and a slack of MONOTONICITY_RTOL times it alone raised
    # MonotonicityError in 12 to 15 of these 20 draws per shape. The rises stay
    # below 1.5e-14 * eps * sum(y**2), far inside the slack's floor, and every
    # draw fits the slope to rounding. 12x300 takes the long route and 300x12
    # the wide one; step 2 reads a rounding-level spectrum on either, so the
    # group dimensions are not pinned
    for seed in range(20):
        x = np.random.default_rng(seed).normal(size=(n, t, 2))
        fit = fit_ipc(PanelDataset(y=x[..., 0], x=x), IpcConfig(d_max=3))
        assert np.abs(fit.beta - [1.0, 0.0]).max() <= 1e-12


@pytest.mark.parametrize(
    "n, t", [(12, 300), (40, 40), (600, 30)], ids=["12x300", "40x40", "600x30"]
)
def test_identical_units_end_in_a_typed_error(n, t):
    # every unit the same series: nothing varies across units, so step 3 has no
    # information. Without the data check, over seeds 0-19, the fit ended in
    # SingularZGramError on the first two shapes, and on the wide 600x30, which
    # alternates on its coordinate panel, it returned a fit in 9 of 20 draws
    for seed in range(5):
        x = np.broadcast_to(np.random.default_rng(seed).normal(size=(1, t, 2)), (n, t, 2))
        with pytest.raises(IdenticalUnitsError):
            fit_ipc(PanelDataset(y=x[..., 0], x=x), IpcConfig(d_max=3))


# --- the compressed route for wide panels ------------------------------------------

WIDE_PANELS = {
    "dgp1-2000x40": (lambda: generate_dgp1(Dgp1Spec(2000, 40, seed=100))[0], 10),
    "wide-dx1-300x20": (lambda: random_panel(9, n=300, t=20, d_x=1, n_factors=2)[0], 4),
    "wide-dx3-400x20": (
        lambda: random_panel(9, n=400, t=20, d_x=3, n_factors=2, noise=0.2)[0], 4
    ),
}


@pytest.mark.parametrize("name", list(WIDE_PANELS))
def test_wide_compressed_route_matches_the_direct_loop(monkeypatch, name):
    # N > 4m: the loop runs on the m x T coordinate panel, m = (1 + d_x) T, and
    # its spectrum at beta0, values times m/N, goes to step 2, so every spectrum
    # is taken on the coordinate panel. The direct loop on the full panel is
    # the oracle
    make, d_max = WIDE_PANELS[name]
    ds = make()
    n, t, d_x = ds.n_units, ds.n_periods, ds.n_regressors
    config = IpcConfig(d_max=d_max)
    log = record_calls(monkeypatch, "residual_spectrum", init_estimator)
    compressed = fit_initial(ds, config)
    assert {args[0].n_units for args in log} == {(1 + d_x) * t}
    assert len(log) in (compressed.iterations + 1, compressed.iterations + 2)

    monkeypatch.setattr(init_estimator, "WIDE_COMPRESS_ASPECT_RATIO", np.inf)
    taken = len(log)
    direct = fit_initial(ds, config)
    assert {args[0].n_units for args in log[taken:]} == {n}
    assert compressed.iterations == direct.iterations
    assert compressed.converged and direct.converged
    np.testing.assert_allclose(compressed.beta0, direct.beta0, rtol=1e-10, atol=0)
    np.testing.assert_allclose(compressed.ssr_path, direct.ssr_path, rtol=1e-10, atol=0)
    assert np.abs(dense_projector(compressed.f0) - dense_projector(direct.f0)).max() <= 1e-10
    values, want = compressed.spectrum[0], direct.spectrum[0]
    assert values.shape == (t,) and np.abs(values - want).max() <= 1e-10 * want[0]


def test_wide_compressed_fit_initial_allocation_budget(wide_panel):
    # W, the N x m matrix of every unit's series, is the one panel-sized buffer:
    # it is built Fortran-ordered and factored in place, and the loop and its
    # spectra run on the m x T coordinate panel
    panel = wide_panel.y.nbytes + wide_panel.x.nbytes
    assert traced_peak(fit_initial, wide_panel, IpcConfig()) <= 1.5 * panel + ALLOC_SLACK


def test_fit_final_holds_two_regressor_stacks(wide_panel):
    # M_F X is dropped once Z is formed, so the sandwich's sigma2-scaled copy
    # of Z is the second N x T x d_x stack, not a third. The peak is Z plus
    # unit_ssr's r and M_F r' (2.10 stacks here, 3.10 with M_F X kept alive);
    # the budget adds eight N-long vectors for the loadings, sigma2 and the
    # k x N coefficient blocks
    config = IpcConfig()
    init = fit_initial(wide_panel, config)
    groups = iterate_groups(wide_panel, init.beta0, config, init.spectrum)
    stack, n = wide_panel.x.nbytes, wide_panel.n_units
    budget = 2 * stack + 8 * n * 8 + ALLOC_SLACK
    assert traced_peak(fit_final, wide_panel, init, groups, config) <= budget


@pytest.mark.parametrize(
    "n, t, axis",
    [(160, 160, None), (200, 200, None), (100, 200, None), (200, 100, None),
     (2000, 40, 0), (40, 1000, 1)],
    ids=["160x160", "200x200", "100x200", "200x100", "2000x40", "40x1000"],
)
def test_benchmark_shapes_take_their_route(monkeypatch, n, t, axis):
    # the benchmark's shapes, d_x = 2: the 160 and 200 squares and the
    # jackknife halves of 200 x 200 alternate on the panel itself, 2000 x 40
    # on its units' coordinates and 40 x 1000 on its periods'
    log = record_calls(monkeypatch, "_compress", init_estimator)
    ds, _ = generate_dgp1(Dgp1Spec(n, t, seed=100))
    fit_ipc(ds, IpcConfig())
    assert [args[1] for args in log] == ([] if axis is None else [axis])


def test_wide_fit_is_invariant_to_unit_order(wide_panel):
    # the coordinate panel depends on the order of W's rows only through Q
    perm = np.random.default_rng(0).permutation(wide_panel.n_units)
    fit = fit_ipc(wide_panel)
    permuted = fit_ipc(wide_panel.select_units(perm))
    assert [g.dim for g in permuted.groups] == [g.dim for g in fit.groups]
    np.testing.assert_allclose(permuted.beta, fit.beta, rtol=1e-10, atol=0)


# --- residual and unit_ssr -------------------------------------------------------

def test_residual_matches_the_inline_form_bitwise(tiny_panel, wide_panel):
    beta = np.array([0.7, -1.3])
    for ds in (tiny_panel, wide_panel):
        r = residual(ds, beta)
        assert np.array_equal(r, ds.y - ds.x @ beta)
        assert r.flags.writeable and not np.shares_memory(r, ds.y)


def test_residual_and_unit_ssr_allocation_budgets(wide_panel):
    # r is one N x T panel; unit_ssr adds M_F r' and the k x N block (F'F)^{-1}F'r',
    # squared in place (the parent held a third panel for mr * mr)
    n, t = wide_panel.y.shape
    beta = np.array([0.7, -1.3])
    f = np.random.default_rng(4).normal(size=(t, 10))
    panel = wide_panel.y.nbytes
    assert traced_peak(residual, wide_panel, beta) <= panel + ALLOC_SLACK
    assert traced_peak(unit_ssr, wide_panel, beta, f) <= 2 * panel + f.shape[1] * n * 8 + ALLOC_SLACK


def test_als_objective_cannot_cancel():
    # at the truth of a noiseless panel M_F r_i is rounding error next to r_i;
    # the r' M_F r form read -8.7e-11 here, against a true value of 5e-25
    ds, truth = generate_dgp1(Dgp1Spec(12, 60, seed=0))
    y = ds.x @ truth.beta_true + truth.loadings_true @ truth.factors_true.T
    clean = PanelDataset(y=y, x=ds.x)
    ssr = unit_ssr(clean, truth.beta_true, truth.factors_true).sum()
    assert 0.0 <= ssr < 1e-20
