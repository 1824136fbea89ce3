"""Shared fixtures and independent dense oracles used across the suite.

The oracle helpers deliberately use explicit matrix inverses and loops so
they stay independent of the library's solver paths.

BLAS and OpenMP are pinned to one thread before numpy is imported: the
suite's matrices are small, and two BLAS threads per process spend more
time contending than computing. A value already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ipcpanel.model import PanelDataset  # noqa: E402


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


def dense_top_eigenpairs(u: np.ndarray, k: int):
    """Top k eigenpairs of the T x T matrix u'u/N by a full eigh (oracle path),
    descending, each vector's largest-magnitude entry made positive."""
    values, vectors = np.linalg.eigh(u.T @ u / u.shape[0])
    values, vectors = values[::-1][:k], vectors[:, ::-1][:, :k]
    return values, vectors * np.sign(vectors[np.argmax(np.abs(vectors), axis=0), np.arange(k)])


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
