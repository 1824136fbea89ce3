"""Record ``reference.json``: the summarized output of every pool entry.

    python3 perfbench/record_reference.py

The references are the outputs of the commit that recorded them; later
commits are checked against them, so re-record only when an output change
is intended and say so. Every workload is recorded in one go, so all
references come from the same commit. That takes about four minutes on one
core.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import worker  # pins BLAS threads before numpy loads
import workloads


def record(workload: workloads.Workload) -> dict:
    scratch = worker.ROOT / ".perfbench_work" / "record" / workload.name
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    entries = {}
    for i in range(workload.pool):
        workload.generate(i, scratch)
        shutil.rmtree(scratch / "out", ignore_errors=True)
        output = workload.op(workload.load(i, scratch), scratch / "out")
        entries[str(i)] = workload.summarize(output, scratch / "out")
        print(f"{workload.name} {i + 1}/{workload.pool}", file=sys.stderr, flush=True)
    shutil.rmtree(scratch)
    return entries


def _dumps(doc: dict) -> str:
    """JSON with one pool entry per line."""
    blocks = []
    for name in sorted(doc):
        lines = [f"  {json.dumps(i)}: {json.dumps(entry, sort_keys=True)}"
                 for i, entry in sorted(doc[name].items(), key=lambda item: int(item[0]))]
        blocks.append(f"{json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    worker.check_package_location()
    doc = {name: record(workload) for name, workload in workloads.WORKLOADS.items()}
    worker.REFERENCE.write_text(_dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    main()
