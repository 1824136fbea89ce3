import tracemalloc

import numpy as np
import pytest

from ipcpanel import simulation
from ipcpanel.errors import MonteCarloError, RankDeficientError
from ipcpanel.model import IpcConfig
from ipcpanel.simulation import (
    Dgp1Spec,
    generate_dgp1,
    projector_distance,
    run_monte_carlo,
)

from conftest import dense_cross_unit_correlate, dense_projector


# --- generator -------------------------------------------------------------------

def test_same_seed_is_bit_identical():
    a, _ = generate_dgp1(Dgp1Spec(10, 12, seed=42))
    b, _ = generate_dgp1(Dgp1Spec(10, 12, seed=42))
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)
    c, _ = generate_dgp1(Dgp1Spec(10, 12, seed=43))
    assert not np.array_equal(a.y, c.y)


def test_trend_factor_is_the_time_index():
    _, truth = generate_dgp1(Dgp1Spec(6, 9, seed=0))
    assert truth.factors_true[4, 0] == 5.0
    assert truth.factors_true[:, 0].tolist() == list(range(1, 10))


def test_truth_metadata():
    ds, truth = generate_dgp1(Dgp1Spec(8, 10, seed=1))
    assert truth.group_dims == (1, 1, 1)
    assert truth.beta_true.tolist() == [1.0, 1.0]
    assert truth.factors_true.shape == (10, 3)
    assert truth.loadings_true.shape == (8, 3)
    assert ds.n_regressors == 2


def test_cycle_factor_definition():
    _, truth = generate_dgp1(Dgp1Spec(6, 40, seed=2))
    t_axis = np.arange(1, 41)
    assert np.allclose(truth.factors_true[:, 2], np.sin(8 * np.pi * t_axis / 40))


def test_walk_step_variance_long_run():
    # recover the random-walk steps by differencing; their sample
    # variance should sit at 1/4 by the law of large numbers
    _, truth = generate_dgp1(Dgp1Spec(4, 100_000, seed=3))
    walk = truth.factors_true[:, 1]
    steps = np.diff(walk, prepend=0.0)
    assert np.var(steps) == pytest.approx(0.25, abs=0.01)


@pytest.mark.parametrize(
    "shape", [(1,), (2,), (160, 160), (40, 2000)], ids=["1", "2", "160x160", "40x2000"]
)
def test_cross_unit_recursion_matches_dense_cholesky(shape):
    z = np.random.default_rng(8).standard_normal(shape)
    want = dense_cross_unit_correlate(z)
    got = simulation._correlate_units(z.copy())
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_draw_memory_stays_linear_in_units():
    """No N x N intermediate: the traced peak is a few panels, where the
    dense 4000 x 4000 correlation and its Cholesky factor took ~250 MiB."""
    tracemalloc.start()
    try:
        ds, _ = generate_dgp1(Dgp1Spec(4000, 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (ds.y.nbytes + ds.x.nbytes), peak


def test_regressor_outcome_consistency():
    ds, truth = generate_dgp1(Dgp1Spec(7, 11, seed=4))
    common = truth.loadings_true @ truth.factors_true.T
    noise = ds.y - ds.x @ truth.beta_true - common
    assert np.abs(noise).max() < 6.0  # standard normal disturbances


# --- projector distance --------------------------------------------------------------

def test_same_span_distance_zero():
    rng = np.random.default_rng(5)
    f = rng.normal(size=(10, 2))
    rotated = f @ np.array([[2.0, 1.0], [0.0, -1.0]])
    assert projector_distance(f, rotated) == pytest.approx(0.0, abs=1e-8)


def test_orthogonal_rank_one_spans():
    f1 = np.eye(10)[:, :1]
    f2 = np.eye(10)[:, 1:2]
    assert projector_distance(f1, f2) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_empty_side_gives_sqrt_rank():
    f = np.linalg.qr(np.random.default_rng(6).normal(size=(10, 3)))[0]
    empty = np.zeros((10, 0))
    assert projector_distance(empty, f) == pytest.approx(np.sqrt(3.0), rel=1e-12)
    assert projector_distance(f, empty) == pytest.approx(np.sqrt(3.0), rel=1e-12)
    assert projector_distance(empty, empty) == 0.0


def test_matches_dense_projector_subtraction():
    rng = np.random.default_rng(7)
    f1 = rng.normal(size=(10, 2))
    f2 = rng.normal(size=(10, 3))
    expected = np.linalg.norm(dense_projector(f1) - dense_projector(f2))
    assert projector_distance(f1, f2) == pytest.approx(expected, rel=1e-10)


def test_rank_deficient_inputs_rejected():
    f = np.ones((8, 2))
    with pytest.raises(RankDeficientError):
        projector_distance(f, np.eye(8)[:, :1])


# --- monte carlo -----------------------------------------------------------------------

def test_single_replication_is_bernoulli():
    out = run_monte_carlo(Dgp1Spec(24, 24, seed=11), 1, IpcConfig(d_max=5))
    assert out.joint_selection_freq in (0.0, 1.0)
    assert out.reps == 1
    assert out.n_failures == 0


def test_parallelism_does_not_change_results():
    spec = Dgp1Spec(24, 24, seed=12)
    config = IpcConfig(d_max=5)
    serial = run_monte_carlo(spec, 6, config, parallelism=1)
    parallel = run_monte_carlo(spec, 6, config, parallelism=4)
    assert serial == parallel


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stand in for ProcessPoolExecutor: record each pool's size and map in
    this process, so no process is started."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_worker_count_is_capped_by_replications(monkeypatch, pool_sizes):
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 64)
    spec = Dgp1Spec(24, 24, seed=12)
    config = IpcConfig(d_max=5)
    capped = run_monte_carlo(spec, 2, config, parallelism=10**6)
    assert pool_sizes == [2]
    for parallelism in (1, 0, -1):
        assert run_monte_carlo(spec, 2, config, parallelism=parallelism) == capped
    assert pool_sizes == [2]


@pytest.mark.parametrize("cpus, pools", [(3, [3]), (1, []), (None, [])])
def test_worker_count_is_capped_by_cpu_count(monkeypatch, pool_sizes, cpus, pools):
    # os.cpu_count() may return None; one CPU or an unknown count runs in process
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: cpus)
    spec = Dgp1Spec(24, 24, seed=12)
    config = IpcConfig(d_max=5)
    assert run_monte_carlo(spec, 4, config, parallelism=64) == run_monte_carlo(spec, 4, config)
    assert pool_sizes == pools


def test_aggregates_are_consistent():
    out = run_monte_carlo(Dgp1Spec(30, 30, seed=13), 8, IpcConfig(d_max=6))
    assert 0.0 <= out.joint_selection_freq <= 1.0
    assert all(0.0 <= f <= 1.0 for f in out.per_group_freq)
    assert out.joint_selection_freq <= min(out.per_group_freq) + 1e-12
    assert set(out.rmse_beta) == {"beta0", "beta1", "beta", "oracle"}
    assert set(out.wald_size) == {"beta0", "beta1", "beta", "oracle"}
    assert out.rmse_projector >= 0.0


def test_failure_budget_enforced():
    # d_max too large for the panel: every replication fails validation
    with pytest.raises(MonteCarloError):
        run_monte_carlo(Dgp1Spec(8, 8, seed=14), 2, IpcConfig(d_max=10))


def test_mid_size_study_magnitudes():
    # anchor the 80x80 cell: dominant group always found, initial slope
    # noticeably worse than the corrected one, selection just under 0.7
    out = run_monte_carlo(Dgp1Spec(80, 80, seed=15), 100, IpcConfig())
    assert out.per_group_freq[0] == 1.0
    assert 0.45 <= out.joint_selection_freq <= 0.85
    assert 0.015 <= out.rmse_beta["beta0"] <= 0.035
    assert out.rmse_beta["beta"] <= out.rmse_beta["beta0"]
    assert out.rmse_beta["oracle"] <= out.rmse_beta["beta"] * 1.1


def test_projector_accuracy_improves_with_size():
    small = run_monte_carlo(Dgp1Spec(40, 40, seed=16), 30, IpcConfig())
    large = run_monte_carlo(Dgp1Spec(80, 80, seed=16), 30, IpcConfig())
    assert large.rmse_projector < small.rmse_projector
