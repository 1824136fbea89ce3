"""Artificial-panel generator with known ground truth, a seeded Monte
Carlo driver, and the accuracy metrics it aggregates (selection
frequencies, slope RMSEs, projector RMSE, Wald sizes).

Replication r always uses seed ``spec.seed + r`` with a counter-based
Philox generator and a fixed draw order, so results are bit-identical
across runs and parallelism levels.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import IpcError, MonteCarloError, RankDeficientError
from .final_estimator import fit_ipc
from .inference import WaldSpec, wald_test, wald_variants
from .model import IpcConfig, PanelDataset, TruthSpec
from .numerics import check_gram_rank

#: the study's estimators, the keys of the RMSE and size maps: the initial,
#: factor-conditional, corrected and known-factor slopes
ESTIMATORS = ("beta0", "beta1", "beta", "oracle")

#: DGP1's slope on its two regressors
_DGP1_BETA = (1.0, 1.0)
#: DGP1's three factor groups of one factor each
_DGP1_GROUP_DIMS = (1, 1, 1)
#: AR(1) coefficient of DGP1's regressor disturbances
_DGP1_AR_COEFFICIENT = 0.5
#: DGP1's disturbances of units i and j correlate at this base to the power |i - j|
_DGP1_CROSS_CORR_BASE = 0.5


@dataclass(frozen=True)
class Dgp1Spec:
    """Artificial design: linear trend, random walk, and cycle factors.

    Two regressors with slope one on both, three single-factor groups of
    decreasing magnitude, and weakly dependent AR(1) regressor noise; only
    the panel size and the seed vary.
    """

    n_units: int
    n_periods: int
    seed: int = 0


def generate_dgp1(spec: Dgp1Spec) -> tuple[PanelDataset, TruthSpec]:
    """Draw one panel. Deterministic given ``spec.seed``.

    Draw order (fixed for reproducibility): the three loading vectors,
    the random-walk steps, the noise matrix, then one stationary start
    and one innovation block per regressor.
    """
    n, t = spec.n_units, spec.n_periods
    d_x = len(_DGP1_BETA)
    rng = np.random.Generator(np.random.Philox(spec.seed))

    gamma = np.column_stack(
        [
            rng.normal(1.0, 1.0, n),
            rng.normal(0.0, 1.0, n),
            rng.normal(0.0, 1.0, n),
        ]
    )
    steps = rng.normal(0.0, 0.5, t)  # variance 1/4
    walk = np.cumsum(steps)
    trend = np.arange(1, t + 1, dtype=float)
    cycle = np.sin(8.0 * np.pi * trend / t)
    factors = np.column_stack([trend, walk, cycle])
    noise = rng.normal(0.0, 1.0, (n, t))

    # cross-sectionally correlated AR(1) regressor disturbances,
    # initialized at their stationary distribution
    rho = _DGP1_AR_COEFFICIENT
    cross_cov = _DGP1_CROSS_CORR_BASE ** np.abs(
        np.subtract.outer(np.arange(n), np.arange(n))
    )
    chol = np.linalg.cholesky(cross_cov)
    level = (np.abs(gamma).sum(axis=1)[:, None] + (np.abs(steps) + np.abs(cycle))[None, :]) / d_x

    x = np.empty((n, t, d_x))
    for j in range(d_x):
        v = np.sqrt(1.0 / (1.0 - rho**2)) * (chol @ rng.standard_normal(n))
        innovations = rng.standard_normal((t, n)) @ chol.T
        path = np.empty((t, n))
        for s in range(t):
            v = rho * v + innovations[s]
            path[s] = v
        x[:, :, j] = level + ((trend / 4.0) ** (j / 4.0))[None, :] + path.T

    beta = np.asarray(_DGP1_BETA)
    y = x @ beta + gamma @ factors.T + noise
    dataset = PanelDataset(y=y, x=x)
    truth = TruthSpec(
        beta_true=beta,
        factors_true=factors,
        loadings_true=gamma,
        group_dims=_DGP1_GROUP_DIMS,
    )
    return dataset, truth


def projector_distance(f_hat: np.ndarray, f_true: np.ndarray) -> float:
    """Frobenius distance between the projectors onto two column spans.

    Either matrix may be empty, in which case the distance is the square
    root of the other's rank.
    """

    def basis(f):
        f = np.asarray(f, dtype=float)
        if f.ndim != 2:
            raise RankDeficientError(f"expected a 2-d matrix, got shape {f.shape}")
        if f.shape[1] == 0:
            return f
        check_gram_rank(f.T @ f, RankDeficientError, "matrix is numerically rank deficient")
        return np.linalg.qr(f)[0]

    q_hat, q_true = basis(f_hat), basis(f_true)
    k, m = q_hat.shape[1], q_true.shape[1]
    if k == 0 or m == 0:
        return float(np.sqrt(k + m))
    # squared distance is k - m + 2 ||(I - P_hat) Q_true||_F^2, which is
    # stable near zero where the cosine-based identity cancels
    resid = q_true - q_hat @ (q_hat.T @ q_true)
    return float(np.sqrt(max(k - m + 2.0 * np.linalg.norm(resid) ** 2, 0.0)))


@dataclass(frozen=True)
class McResult:
    """Aggregates over successful replications.

    ``failure_messages`` names each failed replication and its error, in
    replication order.
    """

    reps: int
    n_failures: int
    joint_selection_freq: float
    per_group_freq: tuple[float, float, float]
    rmse_beta: dict[str, float]
    rmse_projector: float
    wald_size: dict[str, float]
    failure_messages: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _replicate(args: tuple[Dgp1Spec, IpcConfig, int]) -> dict | str:
    spec, config, rep = args
    rep_spec = dataclasses.replace(spec, seed=spec.seed + rep)
    try:
        dataset, truth = generate_dgp1(rep_spec)
        fit = fit_ipc(dataset, config)
        wald_spec = WaldSpec(
            r_matrix=np.eye(dataset.n_regressors), r_vector=truth.beta_true
        )
        tests = {"beta": wald_test(dataset, fit, wald_spec)}
        for variant in ("beta0", "beta1", "oracle"):
            tests[variant] = wald_variants(
                dataset, fit, wald_spec, variant, truth_factors=truth.factors_true
            )
        return {
            "dims": tuple(g.dim for g in fit.groups),
            "sq_err": {
                key: float(np.sum((r.beta - truth.beta_true) ** 2)) for key, r in tests.items()
            },
            "proj_sq": projector_distance(fit.factors_combined, truth.factors_true) ** 2,
            "reject": {key: r.p_value < 0.05 for key, r in tests.items()},
        }
    except (IpcError, np.linalg.LinAlgError) as exc:
        return f"{type(exc).__name__}: {exc}"


def run_monte_carlo(
    spec: Dgp1Spec, reps: int, config: IpcConfig | None = None, parallelism: int = 1
) -> McResult:
    """Run ``reps`` independent replications and fold their metrics.

    The fold is ordered by replication index, so the aggregate is a pure
    function of (spec, reps, config) regardless of ``parallelism``, which
    is the number of worker processes (at most ``reps``; 1 or less runs
    in this process). Failed replications are excluded; more than 1% of
    them fails the run.
    """
    if reps < 1:
        raise MonteCarloError("need at least one replication")
    config = config or IpcConfig()
    tasks = [(spec, config, r) for r in range(reps)]
    workers = min(parallelism, reps)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_replicate, tasks))
    else:
        outcomes = [_replicate(task) for task in tasks]

    records = []
    failures = []
    for rep, payload in enumerate(outcomes):
        if isinstance(payload, str):
            failures.append(f"rep {rep}: {payload}")
        else:
            records.append(payload)
    if len(failures) > 0.01 * reps:
        raise MonteCarloError(
            f"{len(failures)} of {reps} replications failed; first: {failures[0]}"
        )

    joint = float(np.mean([rec["dims"] == _DGP1_GROUP_DIMS for rec in records]))
    per_group = tuple(
        float(np.mean([len(rec["dims"]) > g and rec["dims"][g] == dim for rec in records]))
        for g, dim in enumerate(_DGP1_GROUP_DIMS)
    )
    rmse_beta = {
        key: float(np.sqrt(np.mean([rec["sq_err"][key] for rec in records])))
        for key in ESTIMATORS
    }
    wald_size = {
        key: float(np.mean([rec["reject"][key] for rec in records]))
        for key in ESTIMATORS
    }
    return McResult(
        reps=reps,
        n_failures=len(failures),
        joint_selection_freq=joint,
        per_group_freq=per_group,
        rmse_beta=rmse_beta,
        rmse_projector=float(np.sqrt(np.mean([rec["proj_sq"] for rec in records]))),
        wald_size=wald_size,
        failure_messages=tuple(failures),
    )
