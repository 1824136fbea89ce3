"""Step 3: the corrected slope estimator built from the initial slope, the
slope conditional on the extracted factors, and the regressors projected
off the factor span in time and off the loading span across units.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    RankDeficientError,
    SingularCovarianceError,
    SingularLoadingsError,
    SingularZGramError,
)
from .factor_selection import iterate_groups
from .init_estimator import (
    InitResult,
    annihilate_outcomes,
    annihilate_regressors,
    beta_given_f,
    fit_initial,
)
from .model import FactorGroup, IpcConfig, IpcFit, PanelDataset, validate
from .numerics import RANK_RTOL, annihilator_apply, check_gram_rank, solve_spd


def loading_weights(loadings_combined: np.ndarray) -> np.ndarray:
    """Projector a_ij = gamma_i' (Gamma'Gamma)^{-1} gamma_j onto the loading span.

    An empty loading matrix returns the zero matrix.

    Raises
    ------
    SingularLoadingsError
        If the loading Gram matrix is numerically singular.
    """
    gamma = np.asarray(loadings_combined, dtype=float)
    n = gamma.shape[0]
    if gamma.ndim != 2:
        raise SingularLoadingsError(f"loadings must be 2-d, got shape {gamma.shape}")
    if gamma.shape[1] == 0:
        return np.zeros((n, n))
    gram = gamma.T @ gamma
    check_gram_rank(gram, SingularLoadingsError, "loading Gram matrix is numerically singular")
    a = gamma @ np.linalg.solve(gram, gamma.T)
    return 0.5 * (a + a.T)


def z_matrices(dataset: PanelDataset, f_hat: np.ndarray, loadings: np.ndarray) -> np.ndarray:
    """Z_i = M_F X_i - sum_j a_ij M_F X_j for every unit, as N x T x d_x.

    ``a`` is the projector onto the span of ``loadings`` (N x k, see
    :func:`loading_weights`), so Z is M_Gamma applied across units to the
    stacked M_F X, and the N x N ``a`` itself is never formed.

    Raises
    ------
    SingularLoadingsError
        If the loading Gram matrix is numerically singular.
    """
    mx = annihilate_regressors(dataset.x, np.asarray(f_hat, dtype=float))
    try:
        z = annihilator_apply(loadings, mx.reshape(mx.shape[0], -1))
    except RankDeficientError as exc:
        raise SingularLoadingsError("loading Gram matrix is numerically singular") from exc
    return z.reshape(mx.shape)


def residual_variances(dataset: PanelDataset, beta: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Per-unit variances T^{-1} |M_F (y_i - X_i beta)|^2.

    The squared norm equals r_i' M_F r_i but does not cancel when M_F r_i
    is small next to r_i, and it is never negative.
    """
    r = dataset.y - dataset.x @ np.asarray(beta, dtype=float)
    mr = annihilate_outcomes(r, np.asarray(f, dtype=float))
    return np.sum(mr * mr, axis=1) / dataset.n_periods


def sandwich_covariance(z: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Self-normalizing sandwich (sum Z_i'Z_i)^{-1} (sum sigma2_i Z_i'Z_i) (sum Z_i'Z_i)^{-1}.

    ``z`` is N x T x d_x and ``sigma2`` holds the N per-unit variances.

    Raises
    ------
    SingularCovarianceError
        If the Z Gram matrix is numerically singular.
    """
    z_gram = np.einsum("ntd,nte->de", z, z)
    middle = np.einsum("n,ntd,nte->de", sigma2, z, z)
    half = solve_spd(z_gram, middle, SingularCovarianceError)
    cov = solve_spd(z_gram, half.T, SingularCovarianceError).T
    return 0.5 * (cov + cov.T)


def combine_groups(
    groups: list[FactorGroup] | tuple[FactorGroup, ...], n_units: int, n_periods: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stack group factors and loadings side by side (empty-safe)."""
    blocks = [g for g in groups if g.dim]
    if not blocks:
        return np.zeros((n_periods, 0)), np.zeros((n_units, 0))
    return (
        np.hstack([g.factors for g in blocks]),
        np.hstack([g.loadings for g in blocks]),
    )


def fit_final(
    dataset: PanelDataset,
    init: InitResult,
    groups: list[FactorGroup],
    config: IpcConfig,
) -> IpcFit:
    """Assemble the corrected slope estimate and the full fit object.

    beta = beta0 + (sum_i Z_i'Z_i)^{-1} sum_i X_i' M_F X_i (beta1 - beta0)
    with beta1 the slope conditional on the combined factors. With no
    factors selected the correction collapses and beta equals pooled OLS.
    The fit's covariance is the sandwich of beta from the same Z and the
    per-unit variances at beta.

    Raises
    ------
    SingularZGramError
        If the Z Gram matrix is numerically singular, by its own eigenvalue
        ratio or against the scale of the raw regressor Gram.
    """
    n, t = dataset.n_units, dataset.n_periods
    f_hat, gamma_hat = combine_groups(groups, n, t)
    beta1 = beta_given_f(dataset, f_hat)
    z = z_matrices(dataset, f_hat, gamma_hat)

    mx = annihilate_regressors(dataset.x, f_hat)
    z_gram = np.einsum("ntd,nte->de", z, z)
    # factors and loadings that use up the regressors leave a Z of rounding
    # error whose own Gram can still be well conditioned, so Z is also
    # judged against the scale of the raw regressor Gram sum_i X_i'X_i
    x_flat = dataset.x.reshape(-1, dataset.n_regressors)
    if np.linalg.eigvalsh(z_gram)[0] <= RANK_RTOL * np.linalg.eigvalsh(x_flat.T @ x_flat)[-1]:
        raise SingularZGramError("Z Gram matrix is numerically singular next to the regressors")
    x_gram = np.einsum("ntd,nte->de", mx, mx)
    beta = init.beta0 + solve_spd(z_gram, x_gram @ (beta1 - init.beta0), SingularZGramError)
    sigma2 = residual_variances(dataset, beta, f_hat)

    return IpcFit(
        beta0=init.beta0,
        beta1=beta1,
        beta=beta,
        covariance=sandwich_covariance(z, sigma2),
        groups=tuple(groups),
        factors_combined=f_hat,
        loadings_combined=gamma_hat,
        residuals=dataset.y - dataset.x @ beta - gamma_hat @ f_hat.T,
        sigma2_by_unit=sigma2,
        als_iterations=init.iterations,
        converged=init.converged,
        factors_initial=init.f0,
        config=config,
    )


def fit_ipc(dataset: PanelDataset, config: IpcConfig | None = None) -> IpcFit:
    """Run the full three-step pipeline on a validated dataset.

    An initial minimization that hit its iteration cap is used as-is;
    ``converged=False`` on the fit is the only sign of it.
    """
    config = config or IpcConfig()
    validate(dataset, config)
    init = fit_initial(dataset, config)
    groups = iterate_groups(dataset, init.beta0, config)
    return fit_final(dataset, init, groups, config)
