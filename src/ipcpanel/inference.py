"""Sandwich covariance and Wald tests, hybrid half-panel jackknife bias
correction, and the loading-norm diagnostic for the gap in factor
strength between consecutive groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyGroupError,
    InvalidDomainError,
    IpcError,
    RankDeficientRError,
    SingularCovarianceError,
    SubPanelError,
    ZeroLoadingsError,
)
from .final_estimator import fit_ipc, residual_variances, sandwich_covariance, z_matrices
from .init_estimator import beta_given_f
from .model import FactorGroup, IpcFit, PanelDataset
from .numerics import RANK_RTOL, chi2_sf, solve_spd


@dataclass(frozen=True)
class WaldSpec:
    """Linear hypothesis R beta = r with R of full row rank r0 <= d_x."""

    r_matrix: np.ndarray
    r_vector: np.ndarray

    def __post_init__(self):
        r_matrix = np.atleast_2d(np.asarray(self.r_matrix, dtype=float))
        r_vector = np.atleast_1d(np.asarray(self.r_vector, dtype=float))
        if r_matrix.shape[0] != r_vector.shape[0]:
            raise RankDeficientRError(
                f"R has {r_matrix.shape[0]} rows but r has {r_vector.shape[0]} entries"
            )
        if r_matrix.shape[0] > r_matrix.shape[1]:
            raise RankDeficientRError("R cannot have more rows than columns")
        sv = np.linalg.svd(r_matrix, compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0] or sv[0] == 0:
            raise RankDeficientRError("R is numerically rank deficient")
        object.__setattr__(self, "r_matrix", r_matrix)
        object.__setattr__(self, "r_vector", r_vector)

    @property
    def dof(self) -> int:
        return self.r_matrix.shape[0]


@dataclass(frozen=True)
class InferenceResult:
    """The tested slope, its sandwich covariance, the Wald statistic and its p-value."""

    beta: np.ndarray
    covariance: np.ndarray
    wald_stat: float
    dof: int
    p_value: float

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))


@dataclass(frozen=True)
class JackknifeResult:
    """Hybrid half-panel bias correction and its ingredients.

    ``sub_estimates`` rows hold, in order, the estimates from the first
    and second unit halves and from the odd- and even-numbered periods.
    ``sub_converged`` tells, per half, whether its initial ALS step
    converged before the iteration cap.
    """

    beta_bc: np.ndarray
    sub_estimates: np.ndarray
    beta_full: np.ndarray
    sub_group_dims: dict[str, tuple[int, ...]]
    sub_converged: dict[str, bool]


def unit_variances(dataset: PanelDataset, fit: IpcFit) -> np.ndarray:
    """Per-unit residual variances T^{-1} (y_i - X_i beta)' M_F (y_i - X_i beta)."""
    return residual_variances(dataset, fit.beta, fit.factors_combined)


def _wald(beta: np.ndarray, cov: np.ndarray, spec: WaldSpec) -> InferenceResult:
    """Wald test of R beta = r for a slope and its covariance."""
    if spec.r_matrix.shape[1] != beta.shape[0]:
        raise DimensionMismatchError(
            f"R has {spec.r_matrix.shape[1]} columns but there are {beta.shape[0]} regressors"
        )
    gap = spec.r_matrix @ beta - spec.r_vector
    restricted = spec.r_matrix @ cov @ spec.r_matrix.T
    stat = float(gap @ solve_spd(restricted, gap, SingularCovarianceError))
    stat = max(stat, 0.0)
    return InferenceResult(
        beta=beta,
        covariance=cov,
        wald_stat=stat,
        dof=spec.dof,
        p_value=chi2_sf(stat, spec.dof),
    )


def wald_test(dataset: PanelDataset, fit: IpcFit, spec: WaldSpec) -> InferenceResult:
    """Wald test of R beta = r at the corrected slope estimate.

    The statistic is the quadratic form of R beta - r in R V R', where V is
    ``fit.covariance``, the sandwich the fit computed at ``fit.beta``; the
    p-value uses the chi-squared tail with r0 degrees of freedom. No
    projection is redone: ``dataset`` is only checked to be the fitted panel's
    shape.

    Raises
    ------
    DimensionMismatchError
        If ``dataset`` does not have the fit's N, T and d_x, or R does not
        have one column per regressor.
    """
    got = (dataset.n_units, dataset.n_periods, dataset.n_regressors)
    fitted = (fit.loadings_combined.shape[0], fit.factors_combined.shape[0], fit.beta.shape[0])
    if got != fitted:
        raise DimensionMismatchError(f"dataset has N, T, d_x = {got} but the fit has {fitted}")
    return _wald(fit.beta, fit.covariance, spec)


def wald_variants(
    dataset: PanelDataset,
    fit: IpcFit,
    spec: WaldSpec,
    variant: str,
    truth_factors: np.ndarray | None = None,
) -> InferenceResult:
    """Wald tests for the uncorrected estimators and the known-factor benchmark.

    ``variant`` selects the slope, factors and loadings: ``"beta0"`` uses
    the initial slope with the d_max-dimensional initial factor estimate,
    ``"beta1"`` the factor-conditional slope with the selected factors,
    and ``"oracle"`` the least-squares slope treating ``truth_factors``
    as known, with no loadings (so Z is the projected regressors); the
    other two variants ignore ``truth_factors``. The covariance is the
    sandwich of :func:`wald_test` at that slope.
    """
    if variant == "beta0":
        beta, f = fit.beta0, fit.factors_initial
        gamma = dataset.n_periods ** (-fit.config.delta) * ((dataset.y - dataset.x @ beta) @ f)
    elif variant == "beta1":
        beta, f, gamma = fit.beta1, fit.factors_combined, fit.loadings_combined
    elif variant == "oracle":
        if truth_factors is None:
            raise InvalidDomainError("the oracle variant needs the true factor matrix")
        f = np.asarray(truth_factors, dtype=float)
        beta, gamma = beta_given_f(dataset, f), np.zeros((dataset.n_units, 0))
    else:
        raise InvalidDomainError(f"unknown variant {variant!r}")
    z = z_matrices(dataset, f, gamma)
    return _wald(beta, sandwich_covariance(z, residual_variances(dataset, beta, f)), spec)


def jackknife_bias_correct(dataset: PanelDataset, fit: IpcFit) -> JackknifeResult:
    """Hybrid half-panel bias correction 3*beta - (sum of four halves)/2.

    ``fit`` is the full-panel fit of ``dataset``; its slope is the beta of
    the correction and its config is reused for the halves. The four
    sub-estimates rerun the entire pipeline (including group selection)
    on the first and second halves of the cross-section and on the odd-
    and even-numbered time periods (1-based). Differing group structures
    across sub-panels are accepted and reported.
    """
    n, t = dataset.n_units, dataset.n_periods
    subsets = {
        "units_first_half": dataset.select_units(range(n // 2)),
        "units_second_half": dataset.select_units(range(n // 2, n)),
        "periods_odd": dataset.select_periods(range(0, t, 2)),
        "periods_even": dataset.select_periods(range(1, t, 2)),
    }
    estimates = []
    dims = {}
    converged = {}
    for name, subset in subsets.items():
        try:
            sub_fit = fit_ipc(subset, fit.config)
        except (IpcError, np.linalg.LinAlgError) as exc:
            raise SubPanelError(name, exc) from exc
        estimates.append(sub_fit.beta)
        dims[name] = tuple(g.dim for g in sub_fit.groups)
        converged[name] = bool(sub_fit.converged)
    sub = np.asarray(estimates)
    return JackknifeResult(
        beta_bc=3.0 * fit.beta - 0.5 * sub.sum(axis=0),
        sub_estimates=sub,
        beta_full=fit.beta,
        sub_group_dims=dims,
        sub_converged=converged,
    )


def strength_gap_diagnostic(
    groups: list[FactorGroup] | tuple[FactorGroup, ...], n_periods: int, g: int
) -> float:
    """Estimate the magnitude-exponent gap between groups g and g+1 (1-based).

    Returns ln(sum_i ||gamma_{g,i}||^2 / sum_i ||gamma_{g+1,i}||^2) / ln T.
    """
    if n_periods < 3:
        raise InvalidDomainError("need at least 3 periods for the log-T scaling")
    if g < 1 or g + 1 > len(groups):
        raise EmptyGroupError(f"groups {g} and {g + 1} must both exist")
    top, nxt = groups[g - 1], groups[g]
    if top.dim == 0 or nxt.dim == 0:
        raise EmptyGroupError(f"groups {g} and {g + 1} must have positive dimension")
    num = float(np.sum(top.loadings**2))
    den = float(np.sum(nxt.loadings**2))
    if num <= 0.0 or den <= 0.0:
        raise ZeroLoadingsError("loading norms must be positive")
    return math.log(num / den) / math.log(n_periods)
