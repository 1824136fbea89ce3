"""Step 3: the corrected slope estimator built from the initial slope, the
slope conditional on the extracted factors, and the regressors projected
off the factor span in time and off the loading span across units.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    NonFiniteError,
    RankDeficientError,
    SingularCovarianceError,
    SingularDesignError,
    SingularLoadingsError,
    SingularZGramError,
)
from .factor_selection import iterate_groups
from .init_estimator import InitResult, fit_initial, residual, unit_ssr
from .model import FactorGroup, IpcConfig, IpcFit, PanelDataset, validate
from .numerics import RANK_RTOL, annihilator_apply, check_gram_rank, solve_spd, stacked_gram


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


def _across_units(mx: np.ndarray, loadings: np.ndarray) -> np.ndarray:
    """M_Gamma applied across units to the stacked N x T x d_x ``mx``."""
    try:
        z = annihilator_apply(loadings, mx.reshape(mx.shape[0], -1))
    except RankDeficientError as exc:
        raise SingularLoadingsError("loading Gram matrix is numerically singular") from exc
    return z.reshape(mx.shape)


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
    return _across_units(annihilator_apply(f_hat, dataset.x), loadings)


def sandwich_covariance(z: np.ndarray, z_gram: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Self-normalizing sandwich (sum Z_i'Z_i)^{-1} (sum sigma2_i Z_i'Z_i) (sum Z_i'Z_i)^{-1}.

    ``z`` is N x T x d_x, ``z_gram`` its Gram sum Z_i'Z_i, ``sigma2`` the N variances.

    Raises
    ------
    SingularCovarianceError
        If the Z Gram matrix is numerically singular.
    NonFiniteError
        If the covariance overflows, as when y is too large next to x.
    """
    middle = stacked_gram(z, sigma2[:, None, None] * z)
    half = solve_spd(z_gram, middle, SingularCovarianceError)
    cov = solve_spd(z_gram, half.T, SingularCovarianceError).T
    with np.errstate(over="ignore", invalid="ignore"):  # inf and inf - inf, checked below
        cov = 0.5 * (cov + cov.T)
    if not np.all(np.isfinite(cov)):
        raise NonFiniteError("the sandwich covariance overflows: y is too large next to x")
    return cov


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

    From g = sum_i X_i' M_F (y_i - X_i beta0), the factor-conditional slope
    is beta1 = beta0 + (sum_i X_i' M_F X_i)^{-1} g and the corrected one
    beta = beta0 + (sum_i Z_i'Z_i)^{-1} g; with no factors both are pooled
    OLS. The covariance is the sandwich of beta from the same Z and Gram.

    Raises
    ------
    SingularDesignError
        If the projected regressor Gram matrix is numerically singular.
    SingularZGramError
        If the Z Gram matrix is numerically singular, by its own eigenvalue
        ratio or against the scale of the raw regressor Gram.
    """
    n, t = dataset.n_units, dataset.n_periods
    f_hat, gamma_hat = combine_groups(groups, n, t)
    mx = annihilator_apply(f_hat, dataset.x)
    x_gram = stacked_gram(mx, mx)
    check_gram_rank(x_gram, SingularDesignError, "projected regressors are numerically collinear")
    g = stacked_gram(mx, residual(dataset, init.beta0)[..., None])[:, 0]
    beta1 = init.beta0 + np.linalg.solve(x_gram, g)

    z = _across_units(mx, gamma_hat)
    del mx  # so the sandwich's sigma2-scaled copy of z reuses its pages: two stacks live, not three
    z_gram = stacked_gram(z, z)
    # factors and loadings that use up the regressors leave a Z of rounding
    # error whose own Gram can still be well conditioned, so Z is also
    # judged against the scale of the raw regressor Gram sum_i X_i'X_i
    x_scale = np.linalg.eigvalsh(stacked_gram(dataset.x, dataset.x))[-1]
    if np.linalg.eigvalsh(z_gram)[0] <= RANK_RTOL * x_scale:
        raise SingularZGramError("Z Gram matrix is numerically singular next to the regressors")
    beta = init.beta0 + solve_spd(z_gram, g, SingularZGramError)
    sigma2 = unit_ssr(dataset, beta, f_hat) / t

    return IpcFit(
        beta0=init.beta0,
        beta1=beta1,
        beta=beta,
        covariance=sandwich_covariance(z, z_gram, sigma2),
        groups=tuple(groups),
        factors_combined=f_hat,
        loadings_combined=gamma_hat,
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
    groups = iterate_groups(dataset, init.beta0, config, init.spectrum)
    return fit_final(dataset, init, groups, config)
