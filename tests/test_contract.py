"""Every panel ends in a finite fit or a typed error that the CLI maps to its exit code."""

import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipcpanel import io_cli
from ipcpanel.errors import DataError, IpcError
from ipcpanel.final_estimator import fit_ipc
from ipcpanel.inference import WaldSpec, wald_test
from ipcpanel.model import IpcConfig, PanelDataset

FAMILIES = (
    "noise", "noiseless", "collinear x", "constant unit", "duplicated units",
    "x is a factor", "zero y", "integer data", "rank-1 regressor", "extreme scales",
)
#: (y, x) scales of the extreme family: slopes from 1e-100 to 1e170 and
#: residual energies from 1e-200 to 1e240, each square still a normal float
SCALES = [(1e120, 1e-50), (1e100, 1e-100), (1e100, 1.0), (1e-100, 1.0), (1.0, 1e-100), (1.0, 1e50)]


def family_panel(family, n, t, d_x, seed, scales):
    rng = np.random.default_rng(seed)
    loadings, factors = rng.normal(size=(n, 2)), rng.normal(size=(t, 2))
    common = loadings @ factors.T
    x = rng.normal(size=(n, t, d_x)) + rng.normal(0.0, 0.3, (n, 1, d_x))
    if family == "collinear x":
        x[..., -1] = 2.0 * x[..., 0]
    elif family == "x is a factor":
        x[..., 0] = common
    elif family == "rank-1 regressor":
        x[..., 0] = np.outer(rng.normal(size=n), rng.normal(size=t))
    y = x.sum(axis=2) + common
    if family != "noiseless":
        y += rng.normal(size=(n, t))
    if family == "zero y":
        y[...] = 0.0
    elif family == "constant unit":
        y[0], x[0] = 1.0, 1.0
    elif family == "duplicated units":
        y[1], x[1] = y[0], x[0]
    elif family == "integer data":
        y, x = np.round(y), np.round(x)
    elif family == "extreme scales":
        y, x = scales[0] * y, scales[1] * x
    return PanelDataset(y=y, x=x)


@st.composite
def shapes(draw):
    """(N, T, d_x, d_max) for one of the three step-1 routes."""
    d_x = draw(st.integers(1, 3))
    route = draw(st.sampled_from(["direct", "time", "units"]))
    short = draw(st.integers(5, 10))
    if route == "direct":
        n = t = draw(st.integers(8, 30))
    elif route == "time":  # T > 2 (1 + d_x) N: compressed along time
        n, t = short, 2 * (1 + d_x) * short + draw(st.integers(1, 20))
    else:  # N > 4 (1 + d_x) T: compressed along units
        n, t = 4 * (1 + d_x) * short + draw(st.integers(1, 20)), short
    return n, t, d_x, draw(st.integers(1, min(n, t, 8)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(FAMILIES),
    shape=shapes(),
    scales=st.sampled_from(SCALES),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="extreme scales", shape=(30, 30, 2, 4), scales=(1e120, 1e-50), seed=3)
@example(family="extreme scales", shape=(20, 300, 2, 4), scales=(1e120, 1e-50), seed=3)
@example(family="extreme scales", shape=(600, 20, 2, 4), scales=(1e100, 1e-100), seed=3)
def test_every_panel_ends_in_a_finite_fit_or_a_typed_error(family, shape, scales, seed):
    n, t, d_x, d_max = shape
    ds = family_panel(family, n, t, d_x, seed, scales)
    try:
        fit = fit_ipc(ds, IpcConfig(d_max=d_max))
        wald_test(ds, fit, WaldSpec(np.eye(d_x)[:1], np.zeros(1)))
    except IpcError as exc:
        expected = 2 if isinstance(exc, DataError) else 3
    else:
        assert np.all(np.isfinite(fit.beta)) and np.all(np.isfinite(fit.covariance))
        return
    # the CLI on the same panel (its loader stubbed) fails with the mapped code
    names = ",".join(f"x{j + 1}" for j in range(d_x))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        io_cli, "load_long_csv", return_value=ds
    ):
        out = os.path.join(tmp, "fit")
        args = ["estimate", "--data", "panel.csv", "--x-cols", names, "--dmax", str(d_max)]
        assert io_cli.cli_main([*args, "--out", out]) == expected
        assert not os.path.exists(out)
