"""Shared fixtures and independent dense oracles used across the suite.

The oracle helpers deliberately use explicit matrix inverses and loops so
they stay independent of the library's solver paths.

BLAS and OpenMP are pinned to one thread before numpy is imported: the
suite's matrices are small, and two BLAS threads per process spend more
time contending than computing. A value already set in the environment wins.
"""

import os
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ipcpanel import factor_selection  # noqa: E402
from ipcpanel.errors import GroupBudgetExceededError  # noqa: E402
from ipcpanel.factor_selection import (  # noqa: E402
    eigen_ratio_select,
    iterate_groups,
    mock_eigenvalue,
    threshold_tau,
)
from ipcpanel.init_estimator import f_given_beta, residual_spectrum  # noqa: E402
from ipcpanel.model import FactorGroup, PanelDataset  # noqa: E402
from ipcpanel.simulation import Dgp1Spec, generate_dgp1  # noqa: E402

#: allocation budgets may be exceeded by this much (numpy and interpreter bookkeeping)
ALLOC_SLACK = 64 * 1024


def dense_annihilator(f: np.ndarray) -> np.ndarray:
    """I - F (F'F)^{-1} F' via explicit inversion (oracle path)."""
    t = f.shape[0]
    if f.shape[1] == 0:
        return np.eye(t)
    return np.eye(t) - f @ np.linalg.inv(f.T @ f) @ f.T


def dense_projector(f: np.ndarray) -> np.ndarray:
    t = f.shape[0]
    if f.shape[1] == 0:
        return np.zeros((t, t))
    return f @ np.linalg.inv(f.T @ f) @ f.T


def dense_sandwich(dataset, beta, f, gamma):
    """inv(sum Z'Z) (sum sigma2_i Z_i'Z_i) inv(sum Z'Z) with Z from the dense
    double loop over units and sigma2_i = max(r_i' M_F r_i / T, 0) (oracle path)."""
    n, t = dataset.n_units, dataset.n_periods
    m = dense_annihilator(f)
    a = gamma @ np.linalg.inv(gamma.T @ gamma) @ gamma.T
    mx = [m @ dataset.x[i] for i in range(n)]
    z = [mx[i] - sum(a[i, j] * mx[j] for j in range(n)) for i in range(n)]
    r = dataset.y - dataset.x @ beta
    sigma2 = [max(r[i] @ m @ r[i] / t, 0.0) for i in range(n)]
    gram_inv = np.linalg.inv(sum(zi.T @ zi for zi in z))
    middle = sum(s2 * zi.T @ zi for s2, zi in zip(sigma2, z))
    return gram_inv @ middle @ gram_inv


def dense_cross_unit_correlate(z: np.ndarray) -> np.ndarray:
    """DGP1's cross-unit correlation of the draws ``z`` (units on the last axis)
    as the product with the dense Cholesky factor of 0.5^|i-j| (oracle path)."""
    n = z.shape[-1]
    chol = np.linalg.cholesky(0.5 ** np.abs(np.subtract.outer(np.arange(n), np.arange(n))))
    return z @ chol.T


def dense_top_eigenpairs(u: np.ndarray, k: int):
    """Top k eigenpairs of the T x T matrix u'u/N by a full eigh (oracle path),
    descending, each vector's largest-magnitude entry made positive."""
    values, vectors = np.linalg.eigh(u.T @ u / u.shape[0])
    values, vectors = values[::-1][:k], vectors[:, ::-1][:, :k]
    return values, vectors * np.sign(vectors[np.argmax(np.abs(vectors), axis=0), np.arange(k)])


def walk_groups(dataset, beta0, config):
    """Step 2 at any slope: ``iterate_groups`` on the whole spectrum of r'r/N
    at ``beta0``, as ``fit_initial`` hands it over at its own slope."""
    spectrum = residual_spectrum(dataset, beta0, dataset.n_periods)
    return iterate_groups(dataset, beta0, config, spectrum)


def deflation_groups(dataset, beta0, config):
    """Step 2 by per-group deflation (oracle path).

    Each group subtracts the prior groups' common components from the
    residual, eigensolves the deflated covariance u'u/N in full, and selects
    its dimension by the eigenvalue-ratio rule; the first empty group ends
    the walk. The budget check is the library's; the "exactly explained"
    check compares the deflated residual's energy with the residual's.
    """
    n, t = dataset.n_units, dataset.n_periods
    r = dataset.y - dataset.x @ beta0
    k = config.d_max + 1
    groups = []
    while True:
        if groups:
            stacked = np.hstack([g.factors for g in groups])
        else:
            stacked = f_given_beta(dataset, beta0, config.d_max, config.delta)
        mock = mock_eigenvalue(dataset, beta0, stacked)
        tau = threshold_tau(mock, n)
        u = r - sum(g.loadings @ g.factors.T for g in groups)
        values, vectors = dense_top_eigenpairs(u, k)
        if np.sum(u * u) <= 1e-12 * np.sum(r * r):
            d = 0
        else:
            d = eigen_ratio_select(values, mock, tau).chosen_d
        if d == 0:
            return groups
        factors = t ** (config.delta / 2.0) * vectors[:, :d]
        groups.append(FactorGroup(
            group_index=len(groups) + 1,
            dim=d,
            eigenvalues=np.maximum(values[: config.d_max], 0.0),
            mock_eigenvalue=mock,
            factors=factors,
            loadings=t ** (-config.delta) * (u @ factors),
        ))
        total = sum(g.dim for g in groups)
        if len(groups) > config.d_max or total + config.d_max >= t:
            raise GroupBudgetExceededError(groups, "oracle budget exceeded")


def record_calls(monkeypatch, name, module=factor_selection):
    """Replace <module>.<name> by a wrapper that logs its arguments."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def random_panel(seed, n=6, t=7, d_x=2, n_factors=1, noise=0.5):
    """Small panel with a known factor structure for oracle comparisons."""
    rng = np.random.default_rng(seed)
    beta = rng.normal(1.0, 0.5, d_x)
    factors = rng.normal(0.0, 1.0, (t, n_factors))
    loadings = rng.normal(0.0, 1.0, (n, n_factors))
    x = rng.normal(0.0, 1.0, (n, t, d_x)) + rng.normal(0.0, 0.3, (n, 1, d_x))
    y = x @ beta + loadings @ factors.T + noise * rng.normal(0.0, 1.0, (n, t))
    return PanelDataset(y=y, x=x), beta, factors, loadings


@pytest.fixture
def tiny_panel():
    dataset, *_ = random_panel(11)
    return dataset


@pytest.fixture(scope="session")
def wide_panel():
    """A 2000 x 40 DGP1 panel, the N >> T shape whose temporaries page-fault."""
    return generate_dgp1(Dgp1Spec(n_units=2000, n_periods=40, seed=100))[0]


def traced_peak(fn, *args):
    """Peak bytes tracemalloc sees while ``fn(*args)`` runs, result included.

    One untraced call first, so lazy set-up is not counted. Unlike a timing,
    the peak repeats exactly from run to run.
    """
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
