"""Step 1: joint minimization of the concentrated least-squares objective
over the slope vector and a d_max-dimensional factor space, by alternating
two closed-form updates.

Both half-steps minimize the objective exactly given the other block, so
the recorded objective path is nonincreasing up to floating-point slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MonotonicityError, NotConvergedError, SingularDesignError
from .model import IpcConfig, PanelDataset
from .numerics import (
    SVD_ASPECT_RATIO,
    annihilator_apply,
    check_gram_rank,
    top_svd_pairs,
    top_sym_eigh,
)

#: absolute slack, relative to the starting objective, allowed per iteration
MONOTONICITY_RTOL = 1e-10


@dataclass(frozen=True)
class InitResult:
    """Converged (or capped) state of the alternating minimization."""

    beta0: np.ndarray
    f0: np.ndarray
    ssr_path: np.ndarray
    iterations: int
    converged: bool


def annihilate_outcomes(y: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Apply M_F to every unit's outcome series; y is N x T."""
    if f.shape[1] == 0:
        return y.copy()
    return annihilator_apply(f, y.T).T


def annihilate_regressors(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Apply M_F to every unit's regressor block; x is N x T x d_x."""
    if f.shape[1] == 0:
        return x.copy()
    n, t, dx = x.shape
    flat = x.transpose(1, 0, 2).reshape(t, n * dx)
    return annihilator_apply(f, flat).reshape(t, n, dx).transpose(1, 0, 2)


def beta_given_f(dataset: PanelDataset, f: np.ndarray) -> np.ndarray:
    """Concentrated least-squares slope for a fixed factor matrix.

    Solves (sum_i X_i' M_F X_i) beta = sum_i X_i' M_F y_i; an empty ``f``
    gives pooled OLS.

    Raises
    ------
    SingularDesignError
        If the projected regressor Gram matrix is numerically singular.
    """
    f = np.asarray(f, dtype=float)
    mx = annihilate_regressors(dataset.x, f)
    my = annihilate_outcomes(dataset.y, f)
    gram = np.einsum("ntd,nte->de", mx, mx)
    rhs = np.einsum("ntd,nt->d", mx, my)
    check_gram_rank(gram, SingularDesignError, "projected regressors are numerically collinear")
    return np.linalg.solve(gram, rhs)


def f_given_beta(
    dataset: PanelDataset, beta: np.ndarray, k: int, delta: float
) -> np.ndarray:
    """Optimal k-dimensional factor matrix for a fixed slope.

    Columns are T^{delta/2} times the leading eigenvectors of the
    residual covariance N^{-1} sum_i (y_i - X_i beta)(y_i - X_i beta)'.
    Long panels (T > 2N, see ``numerics.SVD_ASPECT_RATIO``) take them from
    the thin SVD of the N x T residual, so no T x T matrix is formed.
    """
    n, t = dataset.n_units, dataset.n_periods
    w = dataset.y - dataset.x @ np.asarray(beta, dtype=float)
    _, vectors = (
        top_sym_eigh((w.T @ w) / n, k) if t <= SVD_ASPECT_RATIO * n else top_svd_pairs(w, k)
    )
    return t ** (delta / 2.0) * vectors


def ssr_value(dataset: PanelDataset, beta: np.ndarray, f: np.ndarray) -> float:
    """Sum of squared residuals after projecting out ``f``."""
    w = dataset.y - dataset.x @ np.asarray(beta, dtype=float)
    mw = annihilate_outcomes(w, np.asarray(f, dtype=float))
    return float(np.sum(mw * w))


def fit_initial(dataset: PanelDataset, config: IpcConfig) -> InitResult:
    """Alternate the two closed-form updates, starting from pooled OLS,
    until a stopping rule fires.

    Raises
    ------
    NotConvergedError
        When the iteration cap is hit; the partial result rides on the
        exception for callers that want it anyway.
    """
    beta = beta_given_f(dataset, np.zeros((dataset.n_periods, 0)))
    f = f_given_beta(dataset, beta, config.d_max, config.delta)
    path = [ssr_value(dataset, beta, f)]
    converged = False
    iterations = 0
    for iterations in range(1, config.als_max_iter + 1):
        beta_new = beta_given_f(dataset, f)
        f = f_given_beta(dataset, beta_new, config.d_max, config.delta)
        path.append(ssr_value(dataset, beta_new, f))
        if path[-1] > path[-2] + MONOTONICITY_RTOL * path[0]:
            raise MonotonicityError(
                f"objective rose from {path[-2]!r} to {path[-1]!r} at iteration {iterations}"
            )
        d_ssr = abs(path[-1] - path[-2]) / max(path[-2], 1e-300)
        d_coef = np.linalg.norm(beta_new - beta) / max(np.linalg.norm(beta), 1e-300)
        beta = beta_new
        if d_ssr < config.als_tol or (
            config.als_coef_tol > 0 and d_coef < config.als_coef_tol
        ):
            converged = True
            break
    result = InitResult(
        beta0=beta,
        f0=f,
        ssr_path=np.asarray(path),
        iterations=iterations,
        converged=converged,
    )
    if not converged:
        raise NotConvergedError(result)
    return result
