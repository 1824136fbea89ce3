"""Worker process of the benchmark; ``run.py`` starts it, one fresh process
per step.

    worker.py gen --workload W --seed N --work DIR
        write the run's inputs into DIR/inputs
    worker.py run --workload W --seed N --work DIR --seconds S --trace 0|1 [--probe]
        load the inputs, run one untimed warm-up op, then ops in a closed
        loop for S seconds; write ``report.json`` (and, traced,
        ``spans.csv``) into DIR. ``--probe`` stops after the warm-up (a
        set-up measurement).

BLAS and OpenMP are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402, F401  (loads scipy's BLAS for the thread check)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
import ipcpanel  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"


def check_package_location() -> None:
    """Refuse to measure an ipcpanel that is not this checkout's source."""
    if not Path(ipcpanel.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported ipcpanel from {ipcpanel.__file__}, not {SRC}")


def blas_threads() -> dict[str, int]:
    """Threads each bundled OpenBLAS will use, asked of the library itself."""
    found = {}
    for package in (np, scipy):
        libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    found[lib.name] = int(fn())
                    break
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def environment() -> dict:
    """Versions, BLAS build and threads, cores, CPU and source revision."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{deps['blas']['name']} {deps['blas']['version']}",
        "lapack": f"{deps['lapack']['name']} {deps['lapack']['version']}",
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "blas_threads_in_effect": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": commit.strip() if commit else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
    }


def attempt(workload: workloads.Workload, inp, reference, out: Path, tracer=None, op_id=0):
    """Run and check one op. Returns (latency_s, failure message or None).

    The previous op's output directory is removed before the clock starts,
    so a failed op leaves no files that a stale check could read.
    """
    shutil.rmtree(out, ignore_errors=True)
    if tracer is not None:
        tracer.install()
        tracer.begin_op(op_id)
    start = time.perf_counter()
    try:
        output = workload.op(inp, out)
        error = None
    except Exception as exc:  # a raising op is a counted failure, not a crash
        output, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op(error is not None)
        tracer.uninstall()
    if error is not None:
        return latency, error
    if reference is None:
        return latency, "no reference for this input"
    try:
        problems = workloads.compare(workload.summarize(output, out), reference)
    except Exception as exc:  # unreadable output is a failed check
        problems = [f"{type(exc).__name__}: {exc}"]
    return latency, "; ".join(problems[:3]) if problems else None


def run_ops(workload, inputs, references, out: Path, seconds: float, tracer=None) -> list:
    """Closed loop of ops, cycling the inputs, until ``seconds`` have passed.

    Returns ``[traced, latency_s, failure or None]`` per op. At least one op
    runs. With a tracer, each input is run untraced and then traced, so both
    latency samples come from the same inputs.
    """
    ops = []
    loop_start = time.perf_counter()
    while not ops or time.perf_counter() - loop_start < seconds:
        r = len(ops)
        traced = tracer is not None and r % 2 == 1
        k = (r // 2 if tracer is not None else r) % len(inputs)
        latency, failure = attempt(workload, inputs[k], references[k], out,
                                   tracer if traced else None, op_id=r)
        ops.append([traced, latency, failure])
    return ops


def load_references(workload: workloads.Workload, indices: list[int]) -> list:
    entries = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]
    return [entries.get(str(i)) for i in indices]


def cmd_gen(args) -> None:
    workload = workloads.WORKLOADS[args.workload]
    (args.work / "inputs").mkdir(exist_ok=True)
    for i in workload.pool_indices(args.seed):
        workload.generate(i, args.work / "inputs")


def cmd_run(args) -> None:
    check_package_location()
    threads = blas_threads()
    if any(n != 1 for n in threads.values()):
        raise SystemExit(f"perfbench: BLAS is not pinned to one thread: {threads}")
    workload = workloads.WORKLOADS[args.workload]
    indices = workload.pool_indices(args.seed)
    inputs = [workload.load(i, args.work / "inputs") for i in indices]
    references = load_references(workload, indices)
    out = args.work / "out"
    _, warmup_failure = attempt(workload, inputs[0], references[0], out)
    report = {"ready_at": time.monotonic(), "warmup_failure": warmup_failure}
    if not args.probe:
        tracer = tracing.Tracer() if args.trace else None
        report["ops"] = run_ops(workload, inputs, references, out, args.seconds, tracer)
        report["environment"] = environment()
        if tracer is not None:
            report["trace"] = tracer.summarize()
            report["bound_names"] = tracer.bound_names()
            tracer.write_spans(args.work / "spans.csv")
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (args.work / "report.json").write_text(json.dumps(report), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("step", choices=("gen", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.step == "gen":
        cmd_gen(args)
    else:
        cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
