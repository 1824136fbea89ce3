"""Domain types shared by the estimation modules.

All containers are frozen dataclasses over read-only numpy arrays, so
instances can be shared freely across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import (
    DataError,
    DeltaTooLargeError,
    DimensionMismatchError,
    DmaxTooLargeError,
    IdenticalUnitsError,
    NonFiniteDataError,
    TimeInvariantRegressorError,
)


def _freeze(a: np.ndarray, name: str) -> np.ndarray:
    """Read-only float copy; DataError naming ``name`` if complex or unconvertible."""
    try:
        if np.iscomplexobj(a):
            raise DataError(f"{name} is complex; the model is real-valued")
        out = np.array(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} does not convert to a float array: {exc}") from exc
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PanelDataset:
    """A balanced panel: outcomes ``y`` (N x T) and regressors ``x`` (N x T x d_x).

    Storage is unit-major: all T periods of unit i are contiguous.
    """

    y: np.ndarray
    x: np.ndarray
    unit_labels: tuple[str, ...] = ()
    time_labels: tuple[str, ...] = ()

    def __post_init__(self):
        y = _freeze(self.y, "y")
        x = _freeze(self.x, "x")
        if y.ndim != 2:
            raise DimensionMismatchError(f"y must be N x T, got shape {y.shape}")
        if x.ndim != 3:
            raise DimensionMismatchError(f"x must be N x T x d_x, got shape {x.shape}")
        if x.shape[:2] != y.shape:
            raise DimensionMismatchError(
                f"y shape {y.shape} does not match x shape {x.shape[:2]}"
            )
        n, t = y.shape
        units = tuple(self.unit_labels) or tuple(f"unit{i}" for i in range(n))
        times = tuple(self.time_labels) or tuple(f"t{s}" for s in range(t))
        if len(units) != n or len(times) != t:
            raise DimensionMismatchError("label lengths do not match data dimensions")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "unit_labels", units)
        object.__setattr__(self, "time_labels", times)

    @property
    def n_units(self) -> int:
        return self.y.shape[0]

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.x.shape[2]

    def select_units(self, idx: Sequence[int]) -> "PanelDataset":
        idx = list(idx)
        return PanelDataset(
            y=self.y[idx],
            x=self.x[idx],
            unit_labels=tuple(self.unit_labels[i] for i in idx),
            time_labels=self.time_labels,
        )

    def select_periods(self, idx: Sequence[int]) -> "PanelDataset":
        idx = list(idx)
        return PanelDataset(
            y=self.y[:, idx],
            x=self.x[:, idx],
            unit_labels=self.unit_labels,
            time_labels=tuple(self.time_labels[i] for i in idx),
        )


@dataclass(frozen=True)
class IpcConfig:
    """Tuning knobs for the three-step pipeline.

    The initial step's stopping rule is fixed: see ``ALS_TOL``,
    ``ALS_COEF_TOL`` and ``ALS_MAX_ITER`` in ``init_estimator``. So is the
    selection threshold: each group's comes from its own mock eigenvalue
    (``factor_selection.threshold_tau``).

    Parameters
    ----------
    delta : float
        Factor normalization exponent; estimates are invariant to it.
    d_max : int
        Number of factors carried in the initial step and the cap on each
        group's dimension.
    """

    delta: float = 1.0
    d_max: int = 10

    def __post_init__(self):
        if not np.isfinite(self.delta) or self.delta < 0:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        if self.d_max < 1:
            raise ValueError(f"d_max must be >= 1, got {self.d_max}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class FactorGroup:
    """One extracted factor group.

    ``factors`` is T x dim with T^{-delta} F'F = I; ``loadings`` is N x dim.
    ``eigenvalues`` holds d_max eigenvalues of r'r/N, r = y - X beta0,
    from the prior groups' total dim on. ``mock_eigenvalue`` anchors the
    selection rule: the average residual sum of squares left once the prior
    groups' factors (the d_max initial factors for group 1) are projected
    out, which is the sum of the eigenvalues of r'r/N past those factors.
    """

    group_index: int
    dim: int
    eigenvalues: np.ndarray
    mock_eigenvalue: float
    factors: np.ndarray
    loadings: np.ndarray

    def __post_init__(self):
        for name in ("eigenvalues", "factors", "loadings"):
            object.__setattr__(self, name, _freeze(getattr(self, name), name))


@dataclass(frozen=True)
class IpcFit:
    """Full output of the three-step pipeline.

    ``covariance`` is the d_x x d_x sandwich covariance of ``beta``,
    computed once by the fit; Wald tests of ``beta`` read it.
    """

    beta0: np.ndarray
    beta1: np.ndarray
    beta: np.ndarray
    covariance: np.ndarray
    groups: tuple[FactorGroup, ...]
    factors_combined: np.ndarray
    loadings_combined: np.ndarray
    sigma2_by_unit: np.ndarray
    als_iterations: int
    converged: bool
    factors_initial: np.ndarray
    config: IpcConfig

    def __post_init__(self):
        for name in ("beta0", "beta1", "beta", "covariance", "factors_combined",
                     "loadings_combined", "sigma2_by_unit",
                     "factors_initial"):
            object.__setattr__(self, name, _freeze(getattr(self, name), name))
        object.__setattr__(self, "groups", tuple(self.groups))

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def total_factors(self) -> int:
        return self.factors_combined.shape[1]

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))


@dataclass(frozen=True)
class TruthSpec:
    """Simulation ground truth."""

    beta_true: np.ndarray
    factors_true: np.ndarray
    loadings_true: np.ndarray
    group_dims: tuple[int, ...]

    def __post_init__(self):
        for name in ("beta_true", "factors_true", "loadings_true"):
            object.__setattr__(self, name, _freeze(getattr(self, name), name))
        object.__setattr__(self, "group_dims", tuple(int(d) for d in self.group_dims))
        if sum(self.group_dims) != self.factors_true.shape[1]:
            raise DimensionMismatchError(
                "group_dims must sum to the number of true factor columns"
            )


def validate_dataset(dataset: PanelDataset) -> None:
    """Check the dataset invariants alone.

    Raises the first violation found: DimensionMismatchError,
    NonFiniteDataError, or TimeInvariantRegressorError for the row-major
    first (unit, regressor) whose x has max == min over time.
    """
    n, t, dx = dataset.n_units, dataset.n_periods, dataset.n_regressors
    if n < 2 or t < 2 or dx < 1:
        raise DimensionMismatchError(
            f"need N >= 2, T >= 2, d_x >= 1; got N={n}, T={t}, d_x={dx}"
        )
    if not np.all(np.isfinite(dataset.y)):
        raise NonFiniteDataError("y contains non-finite entries")
    if not np.all(np.isfinite(dataset.x)):
        raise NonFiniteDataError("x contains non-finite entries")
    # exact-constant check: comparing the extremes cannot overflow as their difference can;
    # reducing each N x T view x[:, :, j] along T beats the strided middle axis, with no copy
    views = np.moveaxis(dataset.x, 2, 0)
    flat = np.argwhere(np.stack([v.max(axis=1) == v.min(axis=1) for v in views], axis=1))
    if flat.size:
        i, j = int(flat[0, 0]), int(flat[0, 1])
        raise TimeInvariantRegressorError(i, j, label=dataset.unit_labels[i])


def validate(dataset: PanelDataset, config: IpcConfig) -> None:
    """Check the dataset and configuration invariants jointly.

    Adds IdenticalUnitsError, DmaxTooLargeError and DeltaTooLargeError to
    the dataset-only checks. A panel whose units all have the same y and x
    series loads, but nothing in it varies across units, so it cannot be
    fitted: step 3's Z would be rounding error.
    """
    validate_dataset(dataset)
    # unit 1 is compared with unit 0 first, so a typical panel pays O(T)
    y, x = dataset.y, dataset.x
    if (np.array_equal(y[1], y[0]) and np.array_equal(x[1], x[0])
            and np.all(y == y[0]) and np.all(x == x[0])):
        raise IdenticalUnitsError(
            f"all {dataset.n_units} units have the same y and x series: "
            "nothing varies across units"
        )
    if config.d_max >= min(dataset.n_units, dataset.n_periods):
        raise DmaxTooLargeError(
            f"d_max={config.d_max} must be < min(N, T) = "
            f"{min(dataset.n_units, dataset.n_periods)}"
        )
    if config.delta * math.log(dataset.n_periods) >= math.log(sys.float_info.max):
        raise DeltaTooLargeError(
            f"delta={config.delta} makes T^delta overflow a float at T={dataset.n_periods}"
        )
