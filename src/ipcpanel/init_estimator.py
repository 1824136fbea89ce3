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
#: an N x T residual panel with T > SVD_ASPECT_RATIO * N takes the eigenpairs
#: of u'u/N from :func:`top_svd_pairs` instead of eigensolving the T x T matrix.
#: Top 11 pairs of a random u on a 2-vCPU Xeon VM, OpenBLAS on one thread,
#: median of 31 (eigh of u'u/N, GEMM included, vs svd(u')): 160 x 200 2.7 vs
#: 4.2 ms, 100 x 200 2.8 vs 2.7 ms, 160 x 320 7.0 vs 7.1 ms, 100 x 300 5.5 vs
#: 2.9 ms, 40 x 1000 97 vs 1.6 ms; the SVD wins once T exceeds about 2N.
SVD_ASPECT_RATIO = 2
#: a panel with T > COMPRESS_ASPECT_RATIO * m, m = (1 + d_x) N, alternates on its
#: N x m coordinate panel (:func:`_compress`, axis 1). ``fit_initial`` in ms, never
#: vs always compressed, DGP1 with d_x = 2, T/m in brackets, median of 15 on a
#: 2-vCPU VM with OpenBLAS on one thread: 40 x 160 (1.33) 7.6 vs 9.2, 40 x 200
#: (1.67) 9.2 vs 10.1, 40 x 240 (2.0) 10.0 vs 10.1, 40 x 300 (2.5) 12.2 vs 11.1,
#: 40 x 600 (5) 17.2 vs 11.1, 40 x 1000 (8.3) 27.8 vs 13.7, 20 x 80 (1.33) 5.2
#: vs 6.3, 20 x 120 (2.0) 5.6 vs 6.4, 20 x 300 (5) 7.5 vs 7.0, 100 x 400 (1.33)
#: 35.4 vs 36.3, 100 x 600 (2.0) 46.8 vs 40.5, 100 x 1000 (3.3) 66.9 vs 43.9.
#: The QR pays for itself from about 2m on.
COMPRESS_ASPECT_RATIO = 2
#: a panel with N > WIDE_COMPRESS_ASPECT_RATIO * m, m = (1 + d_x) T, alternates
#: on its m x T coordinate panel (:func:`_compress`, axis 0). Same set-up, N/m in
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
    at zero and zero-padded to length ``k``. For T > 2N (``SVD_ASPECT_RATIO``) they
    come from the thin SVD of r, so no T x T matrix is formed: at most N vectors."""
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


def _compress(dataset: PanelDataset, axis: int) -> PanelDataset:
    """The panel in an orthonormal basis Q of the span of its series along ``axis``
    (0: units, 1: periods).

    W has one row per unit (axis 0) or period (axis 1) and m = (1 + d_x) L
    columns, L the other dimension: the L series of y along ``axis``, then
    the L d_x series of x in x's own order. Only R of W = QR is kept, read
    back in that order as the coordinate panel: y~ = Q'y and x~_j = Q'x_j
    along ``axis``, so axis 0 gives m units of the same T periods and axis 1
    the N units over m periods. Every series lies in col(Q), so the
    projections, the objective and the slope of the alternating minimization
    are the same on it: along units r'r is kept and only N, the divisor of
    r'r/N, differs; along time the factors are F~ = Q'F. A rank-deficient W
    is fine: Q still has orthonormal columns.

    W is filled through views only and factored in place by LAPACK's
    compact-WY geqrt (block size min(32, m)); Q is never formed. At 2000 x
    120 it takes 2.2 ms against geqrf's 5.3 (one BLAS thread). A Cholesky
    factor of W'W would be cheaper but squares the condition number, and an
    exactly explained panel's residual would then sit at sqrt(eps) |y|
    instead of at rounding.
    """
    y, x, d_x = dataset.y, dataset.x, dataset.n_regressors
    rows, width = y.shape[axis], y.shape[1 - axis]
    m = (1 + d_x) * width
    w = np.empty((rows, m), order="F")
    series = w.T  # C-ordered, so every block and its reshape below is a view
    series[:width] = np.moveaxis(y, axis, -1)
    series[width:].reshape(width, d_x, rows)[...] = np.moveaxis(x, axis, -1)
    r = np.triu(scipy.linalg.lapack.dgeqrt(min(32, m), w, overwrite_a=True)[0][:m])
    return PanelDataset(
        y=np.moveaxis(r[:, :width], 0, axis),
        x=np.moveaxis(r[:, width:].reshape(m, width, d_x), 0, axis),
    )


def _alternate(dataset: PanelDataset, config: IpcConfig) -> InitResult:
    """The alternating minimization on ``dataset``. The step that settles the
    slope takes the panel's whole spectrum, every other step ``d_max`` pairs;
    the result's ``spectrum`` is the last one taken."""
    t, d_max = dataset.n_periods, config.d_max
    beta = beta_given_f(dataset, np.zeros((t, 0)))
    f = f_given_beta(dataset, beta, d_max, config.delta)
    path = [float(unit_ssr(dataset, beta, f).sum())]
    eps_energy = np.finfo(float).eps * float(np.vdot(dataset.y, dataset.y))
    slack = MONOTONICITY_RTOL * max(path[0], eps_energy)
    converged = False
    iterations = 0
    for iterations in range(1, ALS_MAX_ITER + 1):
        beta_new = beta_given_f(dataset, f)
        # |beta_new - beta| / max(|beta|, 1e-300) on both vectors divided by a power
        # of two above max|beta|: exact, so the ratio is the unscaled one to the bit,
        # but no square in the norms overflows (unscaled, a slope near 1e170 overflows them)
        scale = np.ldexp(1.0, np.frexp(np.abs(beta).max())[1])
        d_coef = np.linalg.norm((beta_new - beta) / scale) / max(
            np.linalg.norm(beta / scale), 1e-300 / scale
        )
        spectrum = residual_spectrum(dataset, beta_new, t if d_coef < ALS_COEF_TOL else d_max)
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

    A long panel, T > ``COMPRESS_ASPECT_RATIO`` * (1 + d_x) N, or a wide one,
    N > ``WIDE_COMPRESS_ASPECT_RATIO`` * (1 + d_x) T, alternates on its
    coordinate panel from one QR (:func:`_compress`) along time or along units.
    That is exact in exact arithmetic: Q has orthonormal columns and holds
    every r_i and X_i, the optimal F lies in col(r') and so, along time, in
    col(Q), hence |M_F r_i|^2, sum X_i'M_F X_i and sum X_i'M_F y_i equal their
    compressed forms, and only the span of F matters, not its scale. The
    slopes, objective path and iteration count are the loop's own.

    The tail hands step 2 the spectrum of r'r/N at ``beta0``. If time was
    rotated, it is taken once on the full panel, and ``f0`` is T^{delta/2}
    times its top ``d_max`` vectors. Otherwise time is the panel's own, so
    ``f0`` is the loop's and so is the spectrum, taken once more on the
    panel if the last stop was not the slope test, its values times
    ``panel.n_units / N`` (m/N along units, 1 uncompressed): a wide fit makes
    no full-size eigensolve.

    Hitting the cap is not an error: the result comes back with
    ``converged=False``.
    """
    n, t, d_x = dataset.n_units, dataset.n_periods, dataset.n_regressors
    if t > COMPRESS_ASPECT_RATIO * (1 + d_x) * n:
        axis = 1
    elif n > WIDE_COMPRESS_ASPECT_RATIO * (1 + d_x) * t:
        axis = 0
    else:
        axis = None
    panel = dataset if axis is None else _compress(dataset, axis)
    init = _alternate(panel, config)
    if axis == 1:
        values, vectors = residual_spectrum(dataset, init.beta0, t)
        f0 = t ** (config.delta / 2.0) * vectors[:, : config.d_max]
        return replace(init, f0=f0, spectrum=(values, vectors))
    values, vectors = init.spectrum
    if values.size < t:
        values, vectors = residual_spectrum(panel, init.beta0, t)
    return replace(init, spectrum=(values * (panel.n_units / n), vectors))
