"""Acceptance criteria for the estimation pipeline, run at desk scale.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run). The two Monte Carlo fixtures are
shared across criteria; every replication seeds its own counter-based
generator, so the numbers below are reproducible bit for bit.
"""

import dataclasses
import math
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from ipcpanel import init_estimator
from ipcpanel.factor_selection import mock_eigenvalue
from ipcpanel.final_estimator import fit_ipc, z_matrices
from ipcpanel.inference import (
    jackknife_bias_correct,
    strength_gap_diagnostic,
    unit_variances,
)
from ipcpanel.init_estimator import beta_given_f, fit_initial
from ipcpanel.model import FactorGroup, IpcConfig, PanelDataset
from ipcpanel.simulation import (
    Dgp1Spec,
    generate_dgp1,
    projector_distance,
    run_monte_carlo,
)

MC_CONFIG = IpcConfig()  # defaults are the simulation-study settings
SEED = 100
REPS = 200


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}", flush=True)
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def mc160():
    start = time.perf_counter()
    result = run_monte_carlo(Dgp1Spec(160, 160, seed=SEED), REPS, MC_CONFIG)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def mc320():
    result = run_monte_carlo(Dgp1Spec(320, 320, seed=SEED), REPS, MC_CONFIG)
    return result


def test_criterion_01_dominant_group_selection(mc160):
    result, elapsed = mc160
    freq = result.per_group_freq[0]
    ok = freq >= 0.99 and elapsed < 300.0
    report(
        "criterion 1 (dominant-group frequency, 160x160)",
        ok,
        f"freq(d1=1) = {freq:.3f} (need >= 0.99), runtime {elapsed:.0f}s (target < 300s)",
    )


def test_criterion_02_joint_selection(mc320):
    freq = mc320.joint_selection_freq
    report(
        "criterion 2 (joint group structure, 320x320)",
        0.92 <= freq <= 1.0,
        f"freq(dims = (1,1,1)) = {freq:.3f} (need within [0.92, 1.00])",
    )


def test_criterion_03_projector_rmse(mc320):
    rmse = mc320.rmse_projector
    report(
        "criterion 3 (factor-space projector RMSE, 320x320)",
        rmse <= 0.20,
        f"rmse = {rmse:.4f} (need <= 0.20)",
    )


def test_criterion_04_slope_rmse_and_ordering(mc320):
    rmse = mc320.rmse_beta
    in_band = 0.002 <= rmse["beta"] <= 0.005
    chain = ("oracle", "beta", "beta1", "beta0")
    ordered = all(
        rmse[a] <= 1.1 * rmse[b] for a, b in zip(chain, chain[1:])
    )
    report(
        "criterion 4 (slope RMSE band and ordering, 320x320)",
        in_band and ordered,
        "rmse "
        + " <= ".join(f"{key}={rmse[key]:.4f}" for key in chain)
        + " (band [0.002, 0.005] for the corrected slope, 10% slack per step)",
    )


def test_criterion_05_wald_sizes(mc320):
    size = mc320.wald_size
    ok = 0.03 <= size["beta"] <= 0.10 and size["beta0"] >= 0.60
    report(
        "criterion 5 (Wald sizes at the 5% level, 320x320)",
        ok,
        f"size(corrected) = {size['beta']:.3f} (need [0.03, 0.10]), "
        f"size(initial) = {size['beta0']:.3f} (need >= 0.60)",
    )


def test_criterion_06_strength_gap_value():
    t = 80
    groups = [
        FactorGroup(1, 1, np.array([2.0, 1.0]), 1.0,
                    math.sqrt(t) * np.eye(t)[:, :1], np.array([[math.sqrt(123.4)]])),
        FactorGroup(2, 1, np.array([2.0, 1.0]), 1.0,
                    math.sqrt(t) * np.eye(t)[:, 1:2], np.array([[1.0]])),
    ]
    value = strength_gap_diagnostic(groups, t, 1)
    report(
        "criterion 6 (strength-gap diagnostic)",
        round(value, 3) == 1.099,
        f"ratio 123.4 over T = 80 gives {value:.6f}, rounds to {round(value, 3)} (need 1.099)",
    )


def test_criterion_07_delta_invariance():
    worst_beta0 = worst_beta = 0.0
    dims_match = True
    for draw in range(20):
        ds, _ = generate_dgp1(Dgp1Spec(40, 40, seed=SEED + 1000 + draw))
        fits = {
            delta: fit_ipc(ds, dataclasses.replace(MC_CONFIG, delta=delta))
            for delta in (0.0, 1.0, 2.0)
        }
        dims = {d: [g.dim for g in fit.groups] for d, fit in fits.items()}
        dims_match &= dims[0.0] == dims[1.0] == dims[2.0]
        for delta in (1.0, 2.0):
            worst_beta0 = max(
                worst_beta0, float(np.abs(fits[0.0].beta0 - fits[delta].beta0).max())
            )
            worst_beta = max(
                worst_beta, float(np.abs(fits[0.0].beta - fits[delta].beta).max())
            )
    ok = dims_match and worst_beta0 <= 1e-8 and worst_beta <= 1e-8
    report(
        "criterion 7 (delta invariance over 20 draws, 40x40)",
        ok,
        f"max |beta0 gap| = {worst_beta0:.2e}, max |beta gap| = {worst_beta:.2e} "
        f"(need <= 1e-8), dims identical: {dims_match}",
    )


def tiny_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    t = int(rng.integers(3, 9))
    d_x = int(rng.integers(1, 3))
    x = rng.normal(size=(n, t, d_x))
    y = rng.normal(size=(n, t)) + x @ rng.normal(size=d_x)
    k = int(rng.integers(0, min(n, t) - 1))
    f = rng.normal(size=(t, k))
    return PanelDataset(y=y, x=x), f, rng


def test_criterion_08_oracle_equivalence():
    worst = 0.0
    for case in range(50):
        ds, f, rng = tiny_instance(SEED + 2000 + case)
        n, t, d_x = ds.n_units, ds.n_periods, ds.n_regressors
        m = np.eye(t) - (
            f @ np.linalg.inv(f.T @ f) @ f.T if f.shape[1] else np.zeros((t, t))
        )
        beta = rng.normal(size=d_x)

        # slope given factors: dense stacked least squares
        gram = sum(ds.x[i].T @ m @ ds.x[i] for i in range(n))
        rhs = sum(ds.x[i].T @ m @ ds.y[i] for i in range(n))
        worst = max(worst, np.abs(
            beta_given_f(ds, f) - np.linalg.solve(gram, rhs)
        ).max())

        # loading-weighted regressors: dense double loop
        gamma = rng.normal(size=(n, max(f.shape[1], 1)))
        a = gamma @ np.linalg.inv(gamma.T @ gamma) @ gamma.T
        z = z_matrices(ds, f, gamma)
        for i in range(n):
            dense = m @ ds.x[i] - sum(a[i, j] * (m @ ds.x[j]) for j in range(n))
            worst = max(worst, np.abs(z[i] - dense).max())

        # per-unit variances at an arbitrary slope
        fit_like = types.SimpleNamespace(beta=beta, factors_combined=f)
        dense_var = np.array(
            [(ds.y[i] - ds.x[i] @ beta) @ m @ (ds.y[i] - ds.x[i] @ beta) / t
             for i in range(n)]
        )
        worst = max(worst, np.abs(unit_variances(ds, fit_like) - np.maximum(dense_var, 0.0)).max())

        # mock eigenvalue
        r = ds.y - ds.x @ beta
        dense_mock = np.mean([r[i] @ m @ r[i] for i in range(n)])
        worst = max(worst, abs(mock_eigenvalue(ds, beta, f) - max(dense_mock, 0.0)))

        # projector distance
        other = rng.normal(size=(t, int(rng.integers(1, 3))))
        if f.shape[1]:
            p_f = f @ np.linalg.inv(f.T @ f) @ f.T
        else:
            p_f = np.zeros((t, t))
        p_o = other @ np.linalg.inv(other.T @ other) @ other.T
        worst = max(
            worst,
            abs(projector_distance(f, other) - np.linalg.norm(p_f - p_o)),
        )
    report(
        "criterion 8 (oracle equivalence on 50 tiny instances)",
        worst <= 1e-8,
        f"max |op - dense oracle| = {worst:.2e} (need <= 1e-8)",
    )


def test_criterion_09_als_monotonicity(monkeypatch):
    # fit_initial raises MonotonicityError the moment any step raises the
    # objective, so every fit in this suite enforces the property; verify
    # the recorded paths directly on a batch of fresh fits, with the default
    # stopping rule and iterated to ALS_TOL
    worst = -np.inf
    coef_tols = (init_estimator.ALS_COEF_TOL, 0.0)
    for draw in range(10):
        ds, _ = generate_dgp1(Dgp1Spec(40, 40, seed=SEED + 3000 + draw))
        for coef_tol in coef_tols:
            monkeypatch.setattr(init_estimator, "ALS_COEF_TOL", coef_tol)
            init = fit_initial(ds, MC_CONFIG)
            path = init.ssr_path
            worst = max(worst, float(np.max(np.diff(path) / path[0])))
    report(
        "criterion 9 (objective path monotone on every fit)",
        worst <= 1e-10,
        f"max relative increase across recorded paths = {worst:.2e} (need <= 1e-10)",
    )


def test_criterion_10_jackknife_identity():
    ds, _ = generate_dgp1(Dgp1Spec(28, 28, seed=SEED + 4000))
    out = jackknife_bias_correct(ds, fit_ipc(ds, dataclasses.replace(MC_CONFIG, d_max=5)))
    identical = np.array_equal(
        out.beta_bc, 3.0 * out.beta_full - 0.5 * out.sub_estimates.sum(axis=0)
    )
    b = np.array([0.4, -1.3])
    fixed_point = np.allclose(3.0 * b - 0.5 * (4.0 * b), b)
    report(
        "criterion 10 (jackknife arithmetic identity)",
        identical and fixed_point,
        f"stored correction equals 3*beta - sum(halves)/2 exactly: {identical}; "
        f"all-equal fixed point holds: {fixed_point}",
    )


def test_criterion_11_determinism(tmp_path):
    base = ["simulate", "--dgp1", "--n", "40", "--t", "40", "--reps", "8",
            "--seed", "7"]

    def run(out, threads):
        r = subprocess.run(
            [sys.executable, "-m", "ipcpanel", *base, "--threads", str(threads),
             "--out", str(tmp_path / out)],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        return (tmp_path / out / "mc_result.json").read_bytes()

    first = run("a", 1)
    second = run("b", 1)
    pooled = run("c", 4)
    ok = first == second == pooled
    report(
        "criterion 11 (byte-identical runs across repeats and parallelism)",
        ok,
        f"repeat identical: {first == second}; threads 1 vs 4 identical: {first == pooled}",
    )
