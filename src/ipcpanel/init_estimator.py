"""Step 1: joint minimization of the concentrated least-squares objective
over the slope vector and a d_max-dimensional factor space, by alternating
two closed-form updates.

Both half-steps minimize the objective exactly given the other block, so
the recorded objective path is nonincreasing up to floating-point slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MonotonicityError, SingularDesignError
from .model import IpcConfig, PanelDataset
from .numerics import (
    SVD_ASPECT_RATIO,
    annihilator_apply,
    check_gram_rank,
    stacked_gram,
    top_svd_pairs,
    top_sym_eigh,
)

#: absolute slack, relative to the starting objective, allowed per iteration
MONOTONICITY_RTOL = 1e-10
#: stop once the relative change in the sum of squared residuals is below this
ALS_TOL = 1e-8
#: ... or once the relative change in the slope is below this: the slope
#: settles at the percent level, which the bundled simulation study is
#: calibrated to; iterating to ALS_TOL brings the initial slope much closer
#: to the corrected one
ALS_COEF_TOL = 1e-2
#: iteration cap; a capped minimization returns with ``converged=False``
ALS_MAX_ITER = 1000


@dataclass(frozen=True)
class InitResult:
    """Converged (or capped) state of the alternating minimization; ``spectrum``
    is ``residual_spectrum(dataset, beta0, T)``, the eigenpairs step 2 walks."""

    beta0: np.ndarray
    f0: np.ndarray
    ssr_path: np.ndarray
    iterations: int
    converged: bool
    spectrum: tuple[np.ndarray, np.ndarray]


def residual(dataset: PanelDataset, beta: np.ndarray) -> np.ndarray:
    """r = y - X beta, fresh, formed in the buffer of X beta: the one place r is formed."""
    r = dataset.x @ np.asarray(beta, dtype=float)
    return np.subtract(dataset.y, r, out=r)


def unit_ssr(dataset: PanelDataset, beta: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Each unit's |M_F (y_i - X_i beta)|^2: the N column sums of (M_F r')^2.

    A squared norm: unlike r_i' M_F r_i it does not cancel when M_F r_i is
    small next to r_i, and it is never negative. M_F r' is squared in place.
    """
    mr = annihilator_apply(f, residual(dataset, beta).T)
    return np.sum(np.square(mr, out=mr), axis=0)


def beta_given_f(dataset: PanelDataset, f: np.ndarray) -> np.ndarray:
    """Concentrated least-squares slope for a fixed factor matrix.

    Solves (sum_i X_i' M_F X_i) beta = sum_i (M_F X_i)' y_i (M_F is
    idempotent, so y is not projected); an empty ``f`` gives pooled OLS.

    Raises
    ------
    SingularDesignError
        If the projected regressor Gram matrix is numerically singular.
    """
    mx = annihilator_apply(f, dataset.x)
    gram = stacked_gram(mx, mx)
    check_gram_rank(gram, SingularDesignError, "projected regressors are numerically collinear")
    return np.linalg.solve(gram, stacked_gram(mx, dataset.y[..., None])[:, 0])


def residual_spectrum(
    dataset: PanelDataset, beta: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top ``k`` eigenpairs of r'r/N, r = y - X beta, values descending, clamped
    at zero and zero-padded to length ``k``. For T > 2N (``numerics.SVD_ASPECT_RATIO``)
    they come from the thin SVD of r, so no T x T matrix is formed: at most N vectors."""
    n, t = dataset.n_units, dataset.n_periods
    r = residual(dataset, beta)
    svd = t > SVD_ASPECT_RATIO * n
    values, vectors = top_svd_pairs(r, min(k, n)) if svd else top_sym_eigh((r.T @ r) / n, k)
    return np.pad(np.maximum(values, 0.0), (0, k - values.size)), vectors


def f_given_beta(
    dataset: PanelDataset, beta: np.ndarray, k: int, delta: float
) -> np.ndarray:
    """Optimal k-dimensional factor matrix for a fixed slope.

    Columns are T^{delta/2} times the leading eigenvectors of the residual
    covariance r'r/N, r = y - X beta, from :func:`residual_spectrum`.
    """
    return dataset.n_periods ** (delta / 2.0) * residual_spectrum(dataset, beta, k)[1]


def fit_initial(dataset: PanelDataset, config: IpcConfig) -> InitResult:
    """Alternate the two closed-form updates, starting from pooled OLS,
    until the objective or the slope settles (``ALS_TOL``, ``ALS_COEF_TOL``)
    or ``ALS_MAX_ITER`` iterations have run. One eigensolve per iteration: the
    slope test runs first, so the step that settles the slope takes the whole
    spectrum at ``beta0`` (the other stops take it once more, at the end).

    Hitting the cap is not an error: the result comes back with
    ``converged=False``.
    """
    t, d_max = dataset.n_periods, config.d_max
    beta = beta_given_f(dataset, np.zeros((t, 0)))
    f = f_given_beta(dataset, beta, d_max, config.delta)
    path = [float(unit_ssr(dataset, beta, f).sum())]
    spectrum = None
    converged = False
    iterations = 0
    for iterations in range(1, ALS_MAX_ITER + 1):
        beta_new = beta_given_f(dataset, f)
        d_coef = np.linalg.norm(beta_new - beta) / max(np.linalg.norm(beta), 1e-300)
        spectrum = residual_spectrum(dataset, beta_new, t if d_coef < ALS_COEF_TOL else d_max)
        f = t ** (config.delta / 2.0) * spectrum[1][:, :d_max]
        path.append(float(unit_ssr(dataset, beta_new, f).sum()))
        if path[-1] > path[-2] + MONOTONICITY_RTOL * path[0]:
            raise MonotonicityError(
                f"objective rose from {path[-2]!r} to {path[-1]!r} at iteration {iterations}"
            )
        d_ssr = abs(path[-1] - path[-2]) / max(path[-2], 1e-300)
        beta = beta_new
        if d_ssr < ALS_TOL or d_coef < ALS_COEF_TOL:
            converged = True
            break
    if spectrum is None or spectrum[0].size < t:
        spectrum = residual_spectrum(dataset, beta, t)
    return InitResult(
        beta0=beta,
        f0=f,
        ssr_path=np.asarray(path),
        iterations=iterations,
        converged=converged,
        spectrum=spectrum,
    )
