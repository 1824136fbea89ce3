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
    InvalidDomainError,
    InvalidEigenvaluesError,
)
# f_given_beta and top_sym_eigh are unused here; perfbench/selftest.py requires both bindings
from .init_estimator import f_given_beta, residual, unit_ssr  # noqa: F401
from .model import FactorGroup, IpcConfig, PanelDataset
from .numerics import top_sym_eigh  # noqa: F401

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

    ``prior_factors`` is T x k (possibly empty). This is the projection
    form of the mock; :func:`extract_group` reads the same value off the
    spectrum of r'r/N as the sum of its values past the projected dims.
    """
    return float(unit_ssr(dataset, beta0, prior_factors).sum()) / dataset.n_units


def extract_group(
    prior: list[FactorGroup],
    config: IpcConfig,
    residual: np.ndarray,
    spectrum: tuple[np.ndarray, np.ndarray],
) -> FactorGroup:
    """Estimate the next factor group given all previously extracted ones.

    ``spectrum`` is the T descending eigenvalues of r'r/N, r = ``residual``
    = y - X beta0, clamped at zero, and eigenvectors for at least its
    positive values. Deflating a group projects its factors out of r, so
    each group reads the next eigenpairs, from ``offset`` = the prior
    groups' total dim: :func:`eigen_ratio_select` picks d from d_max + 1
    values there, the factors are T^{delta/2} times the eigenvectors and
    the loadings T^{-delta} r F. A zero dimension comes back as an empty
    group.

    The mock eigenvalue, r's energy left once the leading factors are
    projected out, is the sum of the values from ``offset`` on (from d_max
    on for the first group: the initial step's d_max factors). The
    threshold is :func:`threshold_tau` of it.
    """
    n, t = residual.shape
    values, vectors = spectrum
    offset = sum(g.dim for g in prior)
    mock = float(np.sum(values[offset if prior else config.d_max :]))
    tau = threshold_tau(mock, n)

    window = values[offset : offset + config.d_max + 1]
    # trailing values at rounding level (a sum: no cancellation): nothing left
    explained = np.sum(values[offset:]) <= 1e-12 * np.sum(values)
    d = 0 if explained else eigen_ratio_select(window, mock, tau).chosen_d
    factors = t ** (config.delta / 2.0) * vectors[:, offset : offset + d]
    loadings = t ** (-config.delta) * (residual @ factors)
    return FactorGroup(
        group_index=len(prior) + 1,
        dim=d,
        eigenvalues=window[: config.d_max],
        mock_eigenvalue=mock,
        factors=factors,
        loadings=loadings,
    )


def iterate_groups(
    dataset: PanelDataset, beta0: np.ndarray, config: IpcConfig,
    spectrum: tuple[np.ndarray, np.ndarray],
) -> list[FactorGroup]:
    """Extract groups until one comes back empty; that sentinel is dropped.

    ``spectrum`` is the eigenpairs of r'r/N, r = y - X beta0: all T values,
    descending and clamped at zero, as ``InitResult.spectrum`` or
    ``init_estimator.residual_spectrum(dataset, beta0, T)`` gives them. It is
    walked d_max + 1 values at a time; step 2 makes no eigensolve of its own.

    A hard stop guards against pathological data: extraction also ends,
    with an error, once the group count exceeds d_max or the accumulated
    dimensions leave no room for another d_max + 1 eigenvalues.

    Raises
    ------
    InvalidDomainError
        When ``spectrum`` lacks some of the T values; every mock is a tail sum.
    GroupBudgetExceededError
        When the hard stop fires before an empty group; the groups found
        so far ride on the exception.
    """
    t = dataset.n_periods
    if np.shape(spectrum[0]) != (t,):
        raise InvalidDomainError(f"need the T = {t} values of r'r/N, got {np.size(spectrum[0])}")
    r = residual(dataset, beta0)
    groups: list[FactorGroup] = []
    while True:
        group = extract_group(groups, config, r, spectrum)
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
