"""Step 2: extract factor groups in order of magnitude, choosing each
group's dimension with an eigenvalue-ratio rule anchored by a "mock"
eigenvalue, and stop when a group comes back empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateThresholdError,
    GroupBudgetExceededError,
    InvalidEigenvaluesError,
)
from .init_estimator import f_given_beta, ssr_value
from .model import THRESHOLD_GLOBAL, FactorGroup, IpcConfig, PanelDataset
from .numerics import SVD_ASPECT_RATIO, top_svd_pairs, top_sym_eigh

#: slack below zero tolerated in eigenvalue inputs before clamping
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class RatioDecision:
    """Outcome of the eigenvalue-ratio rule for one group.

    ``criterion_values[d]`` is the objective at candidate dimension d for
    d = 0..d_max; ``chosen_d`` is its argmin with ties broken downward.
    ``passed_indicator[d]`` records whether eigenvalue d cleared the
    threshold relative to the mock eigenvalue.
    """

    chosen_d: int
    criterion_values: np.ndarray
    threshold: float
    passed_indicator: np.ndarray


def eigen_ratio_select(eigenvalues: np.ndarray, mock: float, tau: float) -> RatioDecision:
    """Pick a dimension d in [0, d_max] minimizing the guarded eigenvalue ratio.

    ``eigenvalues`` must hold d_max + 1 values sorted descending (the
    extra one feeds the ratio at d = d_max). At d >= 1 the criterion is
    lam[d+1]/lam[d] when lam[d]/mock clears ``tau`` and 1 otherwise; at
    d = 0 it is lam[1]/mock, which lets the rule return zero. When the
    mock and every eigenvalue vanish there is nothing left and d = 0 is
    selected outright.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise InvalidEigenvaluesError("need a descending vector of at least 2 eigenvalues")
    if np.any(np.diff(lam) > 1e-10 * max(abs(lam[0]), 1.0)):
        raise InvalidEigenvaluesError("eigenvalues must be sorted descending")
    if lam[-1] < EIGENVALUE_FLOOR * max(abs(lam[0]), 1.0):
        raise InvalidEigenvaluesError("eigenvalues must be nonnegative up to tolerance")
    lam = np.maximum(lam, 0.0)
    d_max = lam.size - 1
    mock = max(float(mock), 0.0)

    criterion = np.ones(d_max + 1)
    passed = np.zeros(d_max + 1, dtype=bool)
    passed[0] = True  # lam[0]/lam[0] = 1 >= tau always
    if mock == 0.0 and lam[0] == 0.0:
        # genuinely nothing left: every eigenvalue and the mock vanish
        criterion[0] = 0.0
        return RatioDecision(0, criterion, tau, passed)

    # a zero mock with structure left makes the d = 0 term infinite, so
    # the rule can never stop prematurely on an exactly explained panel
    criterion[0] = lam[0] / mock if mock > 0 else np.inf
    for d in range(1, d_max + 1):
        cleared = lam[d - 1] / mock >= tau if mock > 0 else lam[d - 1] > 0
        if cleared:
            passed[d] = True
            # a zero denominator means the ratio is +inf; the criterion
            # value 1 then can never be the argmin ahead of d = 0
            criterion[d] = lam[d] / lam[d - 1] if lam[d - 1] > 0 else 1.0
    return RatioDecision(int(np.argmin(criterion)), criterion, tau, passed)


def threshold_tau(mock: float, n_units: int) -> float:
    """Selection threshold 1 / ln(max(mock, N)).

    Raises
    ------
    DegenerateThresholdError
        When max(mock, N) <= e so the threshold would leave (0, 1).
    """
    anchor = max(float(mock), float(n_units))
    if anchor <= math.e:
        raise DegenerateThresholdError(
            f"max(mock, N) = {anchor} <= e gives a threshold outside (0, 1)"
        )
    return 1.0 / math.log(anchor)


def mock_eigenvalue(
    dataset: PanelDataset, beta0: np.ndarray, prior_factors: np.ndarray
) -> float:
    """Average residual sum of squares after projecting out prior factors.

    ``prior_factors`` is T x k (possibly empty); for the first group the
    caller passes the full initial factor estimate.
    """
    return max(ssr_value(dataset, beta0, prior_factors) / dataset.n_units, 0.0)


def _deflated_residual(
    dataset: PanelDataset, beta0: np.ndarray, prior: list[FactorGroup]
) -> np.ndarray:
    u = dataset.y - dataset.x @ np.asarray(beta0, dtype=float)
    for g in prior:
        if g.dim:
            u = u - g.loadings @ g.factors.T
    return u


def extract_group(
    dataset: PanelDataset,
    beta0: np.ndarray,
    prior: list[FactorGroup],
    config: IpcConfig,
) -> FactorGroup:
    """Estimate the next factor group given all previously extracted ones.

    Eigensolves the covariance of the deflated residuals u'u/N, selects
    the dimension by :func:`eigen_ratio_select`, and scales the chosen
    eigenvectors by T^{delta/2}. Long panels (T > 2N, see
    ``numerics.SVD_ASPECT_RATIO``) take the eigenpairs from the thin SVD of
    the N x T residual, so no T x T matrix is formed. A zero dimension
    comes back as an empty group.

    The threshold is :func:`threshold_tau` of this group's mock eigenvalue;
    under the global rule, groups after the first read the first group's
    stored mock instead.
    """
    n, t = dataset.n_units, dataset.n_periods
    if prior:
        stacked = np.hstack([g.factors for g in prior])
    else:
        stacked = f_given_beta(dataset, beta0, config.d_max, config.delta)
    mock = mock_eigenvalue(dataset, beta0, stacked)
    global_anchor = prior and config.threshold_rule == THRESHOLD_GLOBAL
    tau = threshold_tau(prior[0].mock_eigenvalue if global_anchor else mock, n)

    u = _deflated_residual(dataset, beta0, prior)
    # the extracted groups explain the panel to rounding error: nothing
    # is left to estimate, so the group comes back empty
    r = dataset.y - dataset.x @ np.asarray(beta0, dtype=float)
    baseline = float(np.sum(r * r)) / n
    k = config.d_max + 1
    if float(np.sum(u * u)) / n <= 1e-12 * baseline:
        values = np.zeros(k)
        vectors = np.zeros((t, k))
        decision = eigen_ratio_select(values, 0.0, tau)
    else:
        values, vectors = (
            top_sym_eigh((u.T @ u) / n, k) if t <= SVD_ASPECT_RATIO * n else top_svd_pairs(u, k)
        )
        decision = eigen_ratio_select(values, mock, tau)
    d = decision.chosen_d
    factors = t ** (config.delta / 2.0) * vectors[:, :d]
    loadings = t ** (-config.delta) * (u @ factors)
    return FactorGroup(
        group_index=len(prior) + 1,
        dim=d,
        eigenvalues=np.maximum(values[: config.d_max], 0.0),
        mock_eigenvalue=mock,
        factors=factors,
        loadings=loadings,
    )


def iterate_groups(
    dataset: PanelDataset, beta0: np.ndarray, config: IpcConfig
) -> list[FactorGroup]:
    """Extract groups until one comes back empty; that sentinel is dropped.

    A hard stop guards against pathological data: extraction also ends,
    with an error, once the group count exceeds d_max or the accumulated
    dimensions leave no room for another d_max + 1 eigenvalues.

    Raises
    ------
    GroupBudgetExceededError
        When the hard stop fires before an empty group; the groups found
        so far ride on the exception.
    """
    t = dataset.n_periods
    groups: list[FactorGroup] = []
    while True:
        group = extract_group(dataset, beta0, groups, config)
        if group.dim == 0:
            return groups
        groups.append(group)
        total = sum(g.dim for g in groups)
        if len(groups) > config.d_max or total + config.d_max >= t:
            raise GroupBudgetExceededError(
                groups,
                f"extracted {len(groups)} groups with {total} factors without "
                f"hitting an empty group (T={t}, d_max={config.d_max})",
            )
