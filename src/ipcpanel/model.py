"""Domain types shared by the estimation modules.

All containers are frozen dataclasses over read-only numpy arrays, so
instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DmaxTooLargeError,
    NonFiniteDataError,
    TimeInvariantRegressorError,
)

#: threshold recomputed from each group's own mock eigenvalue
THRESHOLD_PER_GROUP = "pergroup"
#: single threshold from the first group's mock eigenvalue
THRESHOLD_GLOBAL = "global"


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
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
        y = _freeze(self.y)
        x = _freeze(self.x)
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
    ``ALS_COEF_TOL`` and ``ALS_MAX_ITER`` in ``init_estimator``.

    Parameters
    ----------
    delta : float
        Factor normalization exponent; estimates are invariant to it.
    d_max : int
        Number of factors carried in the initial step and the cap on each
        group's dimension.
    threshold_rule : str
        ``"pergroup"`` recomputes the selection threshold from each
        group's mock eigenvalue; ``"global"`` fixes it at group one's.
    """

    delta: float = 1.0
    d_max: int = 10
    threshold_rule: str = THRESHOLD_PER_GROUP

    def __post_init__(self):
        if not np.isfinite(self.delta) or self.delta < 0:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        if self.d_max < 1:
            raise ValueError(f"d_max must be >= 1, got {self.d_max}")
        if self.threshold_rule not in (THRESHOLD_PER_GROUP, THRESHOLD_GLOBAL):
            raise ValueError(f"unknown threshold_rule {self.threshold_rule!r}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class FactorGroup:
    """One extracted factor group.

    ``factors`` is T x dim with T^{-delta} F'F = I; ``loadings`` is N x dim.
    ``eigenvalues`` holds the d_max leading eigenvalues of the group's
    residual covariance, ``mock_eigenvalue`` the average projected
    residual sum of squares anchoring the selection rule.
    """

    group_index: int
    dim: int
    eigenvalues: np.ndarray
    mock_eigenvalue: float
    factors: np.ndarray
    loadings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(self.eigenvalues))
        object.__setattr__(self, "factors", _freeze(self.factors))
        object.__setattr__(self, "loadings", _freeze(self.loadings))


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
    residuals: np.ndarray
    sigma2_by_unit: np.ndarray
    als_iterations: int
    converged: bool
    factors_initial: np.ndarray
    config: IpcConfig

    def __post_init__(self):
        for name in ("beta0", "beta1", "beta", "covariance", "factors_combined",
                     "loadings_combined", "residuals", "sigma2_by_unit",
                     "factors_initial"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
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
        object.__setattr__(self, "beta_true", _freeze(self.beta_true))
        object.__setattr__(self, "factors_true", _freeze(self.factors_true))
        object.__setattr__(self, "loadings_true", _freeze(self.loadings_true))
        object.__setattr__(self, "group_dims", tuple(int(d) for d in self.group_dims))
        if sum(self.group_dims) != self.factors_true.shape[1]:
            raise DimensionMismatchError(
                "group_dims must sum to the number of true factor columns"
            )


def validate_dataset(dataset: PanelDataset) -> None:
    """Check the dataset invariants alone.

    Raises the first violation found: DimensionMismatchError,
    NonFiniteDataError, or TimeInvariantRegressorError.
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
    # exact-constant check: a regressor with no time variation for some unit;
    # comparing the extremes cannot overflow as their difference can
    flat = np.argwhere(dataset.x.max(axis=1) == dataset.x.min(axis=1))  # N x d_x
    if flat.size:
        i, j = int(flat[0, 0]), int(flat[0, 1])
        raise TimeInvariantRegressorError(i, j, label=dataset.unit_labels[i])


def validate(dataset: PanelDataset, config: IpcConfig) -> None:
    """Check the dataset and configuration invariants jointly.

    Adds DmaxTooLargeError to the dataset-only checks.
    """
    validate_dataset(dataset)
    if config.d_max >= min(dataset.n_units, dataset.n_periods):
        raise DmaxTooLargeError(
            f"d_max={config.d_max} must be < min(N, T) = "
            f"{min(dataset.n_units, dataset.n_periods)}"
        )
