"""Step 1: joint minimization of the concentrated least-squares objective
over the slope vector and a d_max-dimensional factor space, by alternating
two closed-form updates.

Both half-steps minimize the objective exactly given the other block, so
the recorded objective path is nonincreasing up to floating-point slack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

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

#: absolute slack allowed per iteration: this times the starting objective or,
#: when the panel is explained exactly and that objective is itself rounding,
#: times eps * sum(y**2). Such a fit's objective is the squared norm of a
#: rounding-level vector: over 20 draws each of y = x[..., 0] at 12 x 300,
#: 30 x 60 and 40 x 40 its steps rose by at most 1.5e-14 * eps * sum(y**2),
#: ~1e-4 of the floor. A DGP1 fit starts ~1e13 times above the floor.
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
#: a panel with T > COMPRESS_ASPECT_RATIO * m, m = (1 + d_x) N, alternates on its
#: N x m coordinate panel (:func:`_compress_time`). ``fit_initial`` in ms, never
#: vs always compressed, DGP1 with d_x = 2, T/m in brackets, median of 15 on a
#: 2-vCPU VM with OpenBLAS on one thread: 40 x 160 (1.33) 7.6 vs 9.2, 40 x 200
#: (1.67) 9.2 vs 10.1, 40 x 240 (2.0) 10.0 vs 10.1, 40 x 300 (2.5) 12.2 vs 11.1,
#: 40 x 600 (5) 17.2 vs 11.1, 40 x 1000 (8.3) 27.8 vs 13.7, 20 x 80 (1.33) 5.2
#: vs 6.3, 20 x 120 (2.0) 5.6 vs 6.4, 20 x 300 (5) 7.5 vs 7.0, 100 x 400 (1.33)
#: 35.4 vs 36.3, 100 x 600 (2.0) 46.8 vs 40.5, 100 x 1000 (3.3) 66.9 vs 43.9.
#: The QR pays for itself from about 2m on.
COMPRESS_ASPECT_RATIO = 2
#: a panel with N > WIDE_COMPRESS_ASPECT_RATIO * m, m = (1 + d_x) T, alternates
#: on its m x T coordinate panel (:func:`_compress_units`). Same set-up, N/m in
#: brackets: 250 x 40 (2.1) 4.8 vs 4.7, 480 x 40 (4) 4.6 vs 4.4, 600 x 40 (5)
#: 5.2 vs 4.5, 1000 x 40 (8.3) 5.6 vs 4.5, 2000 x 40 (16.7) 7.0 vs 5.5, 200 x 20
#: (3.3) 1.9 vs 2.3, 300 x 20 (5) 2.3 vs 2.4, 400 x 20 (6.7) 2.8 vs 2.5, 600 x 20
#: (10) 2.4 vs 2.1, 400 x 60 (2.2) 4.7 vs 5.4, 720 x 60 (4) 8.0 vs 7.2, 1000 x
#: 100 (3.3) 16.0 vs 15.7, 2000 x 100 (6.7) 26.7 vs 22.7. Below about 4m the
#: QR costs about what the smaller loop saves; at T = 20 it pays from about 6m.
WIDE_COMPRESS_ASPECT_RATIO = 4


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
    """r = y - X beta, fresh, formed in the buffer of X beta: the one place r is formed.

    X beta is one matrix-vector product on the (N T) x d_x view of X, not N
    stacked ones; the result is the same to the bit.
    """
    d_x = dataset.n_regressors
    r = (dataset.x.reshape(-1, d_x) @ np.asarray(beta, dtype=float)).reshape(dataset.y.shape)
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


def _r_factor(w: np.ndarray) -> np.ndarray:
    """R of W = QR, m x m, for a fresh Fortran-ordered tall W with m columns.

    LAPACK's compact-WY geqrt (block size min(32, m)) factors W in place and
    Q is never formed; at 2000 x 120 it takes 2.2 ms against geqrf's 5.3
    (one BLAS thread). A Cholesky factor of W'W would be cheaper but squares
    the condition number, and an exactly explained panel's residual would
    then sit at sqrt(eps) |y| instead of at rounding.
    """
    m = w.shape[1]
    return np.triu(scipy.linalg.lapack.dgeqrt(min(32, m), w, overwrite_a=True)[0][:m])


def _compress_time(dataset: PanelDataset) -> PanelDataset:
    """The panel in an orthonormal basis Q of the span of its m = (1 + d_x) N series.

    Takes only R of W = QR, where W is T x m and holds each unit's y_i and
    then its d_x regressor series. The coordinate panel is R' read back in
    that order, N x m for y and N x m x d_x for x: y~_i = Q'y_i, x~_ij = Q'x_ij.
    Every residual and regressor lies in col(Q), so the objective, the
    projections and the slope of the alternating minimization are the same
    on it, for factors F~ = Q'F. A rank-deficient W is fine: Q still has
    orthonormal columns.
    """
    n, t, d_x = dataset.n_units, dataset.n_periods, dataset.n_regressors
    w = np.empty((t, (1 + d_x) * n), order="F")
    series = w.T.reshape(n, 1 + d_x, t)
    series[:, 0] = dataset.y
    series[:, 1:] = dataset.x.transpose(0, 2, 1)
    coords = _r_factor(w).T.reshape(n, 1 + d_x, -1)
    return PanelDataset(y=coords[:, 0], x=coords[:, 1:].transpose(0, 2, 1))


def _compress_units(dataset: PanelDataset) -> PanelDataset:
    """The panel in an orthonormal basis Q of the span of its units' m = (1 + d_x) T columns.

    Takes only R of W = QR, where W is N x m and row i holds y_i and then x_i
    row-major. The coordinate panel is R read back in that order, m x T for
    y and m x T x d_x for x: m coordinate units of the same T periods, with
    y~ = Q'y and x~_j = Q'x_j for the N x T matrices y and x_j. Every column
    of r and of each x_j lies in col(Q), so sum_i |M_F r_i|^2, sum_i X_i'M_F X_i,
    sum_i X_i'M_F y_i and r'r are the same on it, for the same F: time is
    never rotated. Only N, the divisor of r'r/N, differs.
    """
    n, t, d_x = dataset.n_units, dataset.n_periods, dataset.n_regressors
    w = np.empty((n, (1 + d_x) * t), order="F")
    w[:, :t] = dataset.y
    w[:, t:] = dataset.x.reshape(n, -1)
    r = _r_factor(w)
    return PanelDataset(y=r[:, :t], x=r[:, t:].reshape(-1, t, d_x))


def _alternate(dataset: PanelDataset, config: IpcConfig, settle_k: int) -> InitResult:
    """The alternating minimization on ``dataset``. The step that settles the
    slope takes ``settle_k`` eigenpairs, every other step ``d_max``; the
    result's ``spectrum`` is the last one taken (None if no step ran)."""
    t, d_max = dataset.n_periods, config.d_max
    beta = beta_given_f(dataset, np.zeros((t, 0)))
    f = f_given_beta(dataset, beta, d_max, config.delta)
    path = [float(unit_ssr(dataset, beta, f).sum())]
    eps_energy = np.finfo(float).eps * float(np.vdot(dataset.y, dataset.y))
    slack = MONOTONICITY_RTOL * max(path[0], eps_energy)
    spectrum = None
    converged = False
    iterations = 0
    for iterations in range(1, ALS_MAX_ITER + 1):
        beta_new = beta_given_f(dataset, f)
        d_coef = np.linalg.norm(beta_new - beta) / max(np.linalg.norm(beta), 1e-300)
        spectrum = residual_spectrum(dataset, beta_new, settle_k if d_coef < ALS_COEF_TOL else d_max)
        f = t ** (config.delta / 2.0) * spectrum[1][:, :d_max]
        path.append(float(unit_ssr(dataset, beta_new, f).sum()))
        if path[-1] > path[-2] + slack:
            raise MonotonicityError(
                f"objective rose from {path[-2]!r} to {path[-1]!r} at iteration {iterations}"
            )
        d_ssr = abs(path[-1] - path[-2]) / max(path[-2], 1e-300)
        beta = beta_new
        if d_ssr < ALS_TOL or d_coef < ALS_COEF_TOL:
            converged = True
            break
    return InitResult(
        beta0=beta,
        f0=f,
        ssr_path=np.asarray(path),
        iterations=iterations,
        converged=converged,
        spectrum=spectrum,
    )


def fit_initial(dataset: PanelDataset, config: IpcConfig) -> InitResult:
    """Alternate the two closed-form updates, starting from pooled OLS,
    until the objective or the slope settles (``ALS_TOL``, ``ALS_COEF_TOL``)
    or ``ALS_MAX_ITER`` iterations have run. One eigensolve per iteration: the
    slope test runs first, so the step that settles the slope takes the whole
    spectrum at ``beta0`` (the other stops take it once more, at the end).

    A long panel, T > ``COMPRESS_ASPECT_RATIO`` * m with m = (1 + d_x) N,
    alternates on its N x m coordinate panel from one QR
    (:func:`_compress_time`) instead of on T-long vectors. That is exact in
    exact arithmetic: Q has orthonormal columns and holds every r_i and X_i,
    the optimal F lies in col(r') and so in col(Q), hence |M_F r_i|^2,
    sum X_i'M_F X_i and sum X_i'M_F y_i equal their compressed forms, and
    only the span of F matters, not its m^{delta/2} scale. The slopes,
    objective path and iteration count are the loop's own; the spectrum at
    ``beta0`` is then taken once on the full panel, and ``f0`` is
    T^{delta/2} times its top ``d_max`` vectors.

    A wide panel, N > ``WIDE_COMPRESS_ASPECT_RATIO`` * m with m = (1 + d_x) T,
    alternates on its m x T coordinate panel (:func:`_compress_units`), which
    rotates the units and keeps time, so ``f0`` is the loop's own and the
    coordinate spectrum, its values times m/N, is that of r'r/N: a wide fit
    makes no full-size eigensolve.

    Hitting the cap is not an error: the result comes back with
    ``converged=False``.
    """
    n, t, d_x = dataset.n_units, dataset.n_periods, dataset.n_regressors
    if t > COMPRESS_ASPECT_RATIO * (1 + d_x) * n:
        init = _alternate(_compress_time(dataset), config, config.d_max)
        spectrum = residual_spectrum(dataset, init.beta0, t)
        f0 = t ** (config.delta / 2.0) * spectrum[1][:, : config.d_max]
        return replace(init, f0=f0, spectrum=spectrum)
    wide = n > WIDE_COMPRESS_ASPECT_RATIO * (1 + d_x) * t
    panel = _compress_units(dataset) if wide else dataset
    init = _alternate(panel, config, t)
    if init.spectrum is not None and init.spectrum[0].size == t:
        values, vectors = init.spectrum
    else:
        values, vectors = residual_spectrum(panel, init.beta0, t)
    if wide:
        values = values * (panel.n_units / n)
    return replace(init, spectrum=(values, vectors))
