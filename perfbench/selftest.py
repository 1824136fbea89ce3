"""Self-test of the benchmark's failure accounting, tracing and names.

    python3 perfbench/selftest.py

Runs the op runner on inputs that must fail and checks that each failure
is counted in ``failed_frac`` rather than skipped:

- the CLI op on a CSV with a non-numeric cell (exit code 2);
- the fit op on a panel with d_max >= min(N, T) (DmaxTooLargeError);
- the fit op on a good panel, against a reference with one slope moved;
- the Monte Carlo op, against a reference with one Wald p-value moved.

It also checks that a good op passes, that the tracer wraps every module
binding and passes values and exceptions through unchanged, and that the
metric and workload names match ``BENCHMARK.json``. Exits non-zero on the
first failed check.
"""

from __future__ import annotations

import copy
import json
import shutil

import numpy as np

import worker  # pins BLAS threads before numpy loads
import run
import tracing
import workloads
from ipcpanel import errors, inference, init_estimator, numerics, simulation


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def failure_accounting(scratch) -> None:
    long_fit = workloads.WORKLOADS["long_fit"]
    cli = workloads.WORKLOADS["cli_estimate_jk"]
    references = json.loads(worker.REFERENCE.read_text(encoding="utf-8"))
    good_ref = references["long_fit"]["0"]
    long_fit.generate(0, scratch)
    good_panel = long_fit.load(0, scratch)

    small, _ = simulation.generate_dgp1(simulation.Dgp1Spec(8, 8, seed=1))
    moved_ref = copy.deepcopy(good_ref)
    moved_ref["beta"][0] *= 1.0 + 1e-4

    bad_csv = scratch / "bad.csv"
    panel, _ = simulation.generate_dgp1(simulation.Dgp1Spec(20, 20, seed=1))
    workloads.write_long_csv(panel, bad_csv)
    lines = bad_csv.read_text(encoding="utf-8").splitlines()
    lines[7] = ",".join(lines[7].split(",")[:3] + ["not-a-number", lines[7].split(",")[4]])
    bad_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")

    out = scratch / "out"
    cases = [
        ("good panel", long_fit, good_panel, good_ref, None),
        ("non-numeric CSV cell", cli, bad_csv, references["cli_estimate_jk"]["0"], "exit_code: 2 != 0"),
        ("d_max >= min(N, T)", long_fit, small, good_ref, "DmaxTooLargeError"),
        ("moved reference slope", long_fit, good_panel, moved_ref, "beta[0]"),
    ]
    mc = workloads.WORKLOADS["mc_dgp1_160"]
    mc_ref = references["mc_dgp1_160"]["0"]
    moved_mc_ref = copy.deepcopy(mc_ref)
    moved_mc_ref["p_value"][1] *= 1.0 + 1e-4
    cases += [
        ("Monte Carlo replication", mc, mc.load(0), mc_ref, None),
        ("moved reference Wald p-value", mc, mc.load(0), moved_mc_ref, "p_value[1]"),
    ]
    reports = []
    for label, workload, inp, ref, expected in cases:
        ops = worker.run_ops(workload, [inp], [ref], out, seconds=0.0)
        check(len(ops) == 1, f"{label}: the op runner ran one op")
        failure = ops[0][2]
        if expected is None:
            check(failure is None, f"{label}: passes ({failure})")
        else:
            check(failure is not None and expected in failure, f"{label}: fails with {failure!r}")
        reports.append(ops[0])

    # a failed probe warm-up, then a run whose warm-up passed and whose
    # timed ops are the six cases above
    merged = {"warmup_failure": None, "ops": reports}
    attempted, failures = run.outcomes([{"warmup_failure": "warm-up failed", "ops": []}, merged])
    check(attempted == 8 and len(failures) == 5,
          f"every failure is counted: {len(failures)} of {attempted} attempted")


def tracer_passthrough(scratch) -> None:
    tracer = tracing.Tracer()
    bound = set(tracer.bound_names())
    for name in ("ipcpanel.init_estimator.top_sym_eigh", "ipcpanel.factor_selection.top_sym_eigh",
                 "ipcpanel.factor_selection.f_given_beta", "ipcpanel.final_estimator.solve_spd",
                 "ipcpanel.inference.solve_spd", "ipcpanel.simulation.wald_variants"):
        check(name in bound, f"tracer wraps {name}")
    traced = {name.rsplit(".", 1)[1] for name in bound}
    check(traced == {fn for fns in tracing.TRACED.values() for fn in fns},
          "every traced function has at least one binding")

    original = numerics.top_sym_eigh
    a = np.random.Generator(np.random.Philox(3)).standard_normal((30, 30))
    a = a + a.T
    want = original(a, 3)
    tracer.install()
    try:
        tracer.begin_op(0)
        got = init_estimator.top_sym_eigh(a, 3)
        try:
            init_estimator.top_sym_eigh(a[:, :5], 3)
            raised = None
        except errors.IpcError as exc:
            raised = exc
        tracer.end_op(False)
    finally:
        tracer.uninstall()
    check(all(np.array_equal(g, w) for g, w in zip(got, want)), "wrapper returns the value unchanged")
    check(type(raised) is errors.NonSymmetricError, f"wrapper re-raises the exception ({raised!r})")
    check(init_estimator.top_sym_eigh is original, "uninstall restores the original binding")
    summary = tracer.summarize()["functions"]["numerics.top_sym_eigh"]
    check(summary["calls"] == 2 and summary["failed"] == 1, "spans count calls and failures")

    # the Monte Carlo op wraps simulation's Wald bindings over the tracer's
    mc = workloads.WORKLOADS["mc_dgp1_160"]
    reference = json.loads(worker.REFERENCE.read_text(encoding="utf-8"))["mc_dgp1_160"]["0"]
    tracer = tracing.Tracer()
    _, failure = worker.attempt(mc, mc.load(0), reference, scratch / "out", tracer)
    check(failure is None, f"a traced Monte Carlo op passes its check ({failure})")
    functions = tracer.summarize()["functions"]
    check(functions["inference.wald_test"]["calls"] == 1
          and functions["inference.wald_variants"]["calls"] == 3,
          "the tracer sees the Wald calls the op captures")
    check(simulation.wald_variants is inference.wald_variants,
          "the op and the tracer restore simulation's Wald bindings")


def names_match_benchmark() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS),
          "workload names match BENCHMARK.json")
    check(run.DEFAULT_SEED == workloads.DEFAULT_SEED, "run.py and workloads.py share the default seed")
    final = {"ops": [[False, 0.5, None]], "peak_rss_mb": 100.0}
    metrics, _ = run.end_to_end([1.0, 2.0, 3.0], final)
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]]
          == [(name, metric["unit"]) for name, metric in metrics.items()],
          "end-to-end metric names and units match BENCHMARK.json")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metric_names(),
          "per-layer metric names and units match BENCHMARK.json")


def main() -> None:
    worker.check_package_location()
    scratch = worker.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    failure_accounting(scratch)
    tracer_passthrough(scratch)
    names_match_benchmark()
    shutil.rmtree(scratch)
    print("selftest passed")


if __name__ == "__main__":
    main()
