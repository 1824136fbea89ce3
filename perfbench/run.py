"""Run one workload of the ipcpanel benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed 100] [--seconds 20] [--trace 0|1]

Each workload is one closed-loop client in fresh processes, with BLAS and
OpenMP pinned to one thread. Set-up is done ``SETUP_REPEATS`` times (once
when tracing): a fresh process writes the inputs drawn from the seed, then a
fresh worker imports numpy, scipy and the package, loads the inputs and runs
one untimed warm-up op. Input generation thus never sets the workers' peak
memory. The last worker goes on to run ops for ``--seconds``. Every op's
output is checked against ``reference.json``; an op that raises, exits
non-zero or mismatches counts as failed.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a run that alternates untraced and traced ops. The last line of
standard output is the result object; the line before it is the
environment. A human-readable summary and the trace report go to standard
error, and the full result to ``.perfbench_work/<workload>-<seed>-trace<k>/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_dgp1_160", "wide_fit", "long_fit", "cli_estimate_jk")
DEFAULT_SEED = 100  # workloads.DEFAULT_SEED; run.py stays free of numpy
SETUP_REPEATS = 3
#: p90 needs at least ten samples beyond it
P90_MIN_SAMPLES = 100
#: the whole run, builds and all, must end well within three minutes
DEADLINE_S = 170.0


def _worker(step: str, args, work: Path, deadline: float, *extra: str) -> None:
    command = [sys.executable, str(HERE / "worker.py"), step, "--workload", args.workload,
               "--seed", str(args.seed), "--work", str(work), *extra]
    subprocess.run(command, check=True, timeout=max(deadline - time.monotonic(), 1.0))


def measure(args, work: Path, deadline: float) -> tuple[list[float], list[dict]]:
    """Set up (and, the last time, run) the workload; returns set-up times and reports."""
    setups, reports = [], []
    repeats = 1 if args.trace else SETUP_REPEATS
    for repeat in range(repeats):
        probe = repeat < repeats - 1
        start = time.monotonic()
        _worker("gen", args, work, deadline)
        _worker("run", args, work, deadline, "--seconds", str(args.seconds),
                "--trace", str(args.trace), *(["--probe"] if probe else []))
        report = json.loads((work / "report.json").read_text(encoding="utf-8"))
        setups.append(report["ready_at"] - start)
        reports.append(report)
    return setups, reports


def outcomes(reports: list[dict]) -> tuple[int, list[str]]:
    """Ops attempted, and the failure of each op that failed.

    Every warm-up op counts, as does every timed op of the last report.
    """
    failures = [r["warmup_failure"] for r in reports if r["warmup_failure"] is not None]
    failures += [failure for *_, failure in reports[-1]["ops"] if failure is not None]
    return len(reports) + len(reports[-1]["ops"]), failures


def end_to_end(setups: list[float], final: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, and details kept in the result file only."""
    untraced = [op for op in final["ops"] if not op[0]]
    latencies = [latency for _, latency, _ in untraced]
    passing = sum(1 for *_, failure in untraced if failure is None)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": passing / sum(latencies), "unit": "1/s"},
        "op_s.p50": {"value": statistics.median(latencies), "unit": "s"},
        "peak_rss_mb": {"value": final["peak_rss_mb"], "unit": "MB"},
    }
    details = {"op_s.samples": len(latencies), "setup_s.samples": setups}
    if len(latencies) >= P90_MIN_SAMPLES:
        details["op_s.p90"] = statistics.quantiles(latencies, n=10)[-1]
    return metrics, details


def per_layer(final: dict) -> tuple[dict, list]:
    """Per-op layer metrics from the traced ops, and the self-time table."""
    trace = final["trace"]
    ops = trace["ops"]
    stats = trace["functions"]
    values = {}
    for fn, entry in stats.items():
        values[f"{fn}.calls"] = entry["calls"] / ops
        values[f"{fn}.busy_ms"] = 1e3 * entry["busy_s"] / ops
        values[f"{fn}.self_ms"] = 1e3 * entry["self_s"] / ops
        values[f"{fn}.failed"] = entry["failed"] / ops
    for name, total in trace["counts"].items():
        values[name] = total / ops
    untraced = statistics.median(lat for traced, lat, _ in final["ops"] if not traced)
    traced = statistics.median(lat for traced, lat, _ in final["ops"] if traced)
    values["trace.overhead_frac"] = (traced - untraced) / untraced
    values["trace.uncovered_frac"] = trace["uncovered_frac"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.per_layer_metric_names()}
    table = sorted(
        ((fn, values[f"{fn}.self_ms"], values[f"{fn}.busy_ms"], values[f"{fn}.calls"])
         for fn in stats),
        key=lambda row: -row[1],
    )
    return metrics, table


def print_trace_table(workload: str, table: list, metrics: dict) -> None:
    print(f"\ntrace report for {workload} (per traced op, by self time)", file=sys.stderr)
    print(f"{'function':42s} {'self_ms':>10s} {'busy_ms':>10s} {'calls':>8s}", file=sys.stderr)
    for fn, self_ms, busy_ms, calls in table:
        print(f"{fn:42s} {self_ms:10.3f} {busy_ms:10.3f} {calls:8.2f}", file=sys.stderr)
    for name in ("trace.overhead_frac", "trace.uncovered_frac"):
        print(f"{name:42s} {metrics[name]['value']:10.4f}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ipcpanel" / "__init__.py").is_file():
        print(f"perfbench: no ipcpanel source under {ROOT / 'src'}", file=sys.stderr)
        return 1

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups, reports = measure(args, work, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work / "inputs", ignore_errors=True)
        shutil.rmtree(work / "out", ignore_errors=True)
    final = reports[-1]
    attempted, failures = outcomes(reports)
    if args.trace:
        metrics, table = per_layer(final)
        details = {"trace_table": table, "bound_names": final["bound_names"]}
        print_trace_table(args.workload, table, metrics)
    else:
        metrics, details = end_to_end(setups, final)
    details["failed_frac"] = len(failures) / attempted
    details["failures"] = failures[:20]

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": final["environment"],
              "result": result, "details": details}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"\n{args.workload} seed={args.seed}: {attempted} ops attempted, "
          f"{len(failures)} failed", file=sys.stderr)
    for failure in failures[:5]:
        print(f"  failed: {failure}", file=sys.stderr)
    if not args.trace:
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
        for name in ("op_s.samples", "op_s.p90"):
            if name in details:
                print(f"  {name} = {details[name]:.6g}", file=sys.stderr)
    print(json.dumps({"environment": final["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
