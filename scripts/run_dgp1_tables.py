#!/usr/bin/env python3
"""Sweep the artificial design over a grid of panel sizes and print the
selection / accuracy / size summary, one row per (N, T) cell.

Example:
    python scripts/run_dgp1_tables.py --sizes 40,80 --reps 200 --seed 1 \
        --out results/dgp1_tables.csv
"""

import argparse
import csv
import sys
import time

from ipcpanel.io_cli import TABLE_COLUMNS, mc_table_row
from ipcpanel.model import IpcConfig
from ipcpanel.simulation import Dgp1Spec, run_monte_carlo


def parse_sizes(text):
    return [int(v) for v in text.split(",") if v.strip()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=parse_sizes, default="40,80",
                        help="comma list of N=T sizes")
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dmax", type=int, default=10)
    parser.add_argument("--delta", type=float, default=1.0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", default=None, help="optional CSV output path")
    args = parser.parse_args(argv)
    if args.reps < 1 or args.threads < 1:
        parser.error("--reps and --threads must be >= 1")
    try:
        config = IpcConfig(delta=args.delta, d_max=args.dmax)
    except ValueError as exc:
        parser.error(str(exc))
    if any(size <= config.d_max for size in args.sizes):
        parser.error(f"every --sizes entry must be > --dmax = {config.d_max}")
    rows = []
    print(
        f"{'N':>5} {'T':>5} {'joint':>6} {'d1':>6} {'d2':>6} {'d3':>6} "
        f"{'rmseP':>8} {'beta0':>8} {'beta1':>8} {'beta':>8} {'oracle':>8} "
        f"{'sz_b0':>6} {'sz_b1':>6} {'sz_b':>6} {'sz_or':>6} {'secs':>6}"
    )
    for size in args.sizes:
        spec = Dgp1Spec(n_units=size, n_periods=size, seed=args.seed)
        start = time.perf_counter()
        result = run_monte_carlo(spec, args.reps, config, parallelism=args.threads)
        elapsed = time.perf_counter() - start
        rows.append(mc_table_row(spec, result))
        freq = result.per_group_freq
        rb, ws = result.rmse_beta, result.wald_size
        print(
            f"{size:>5} {size:>5} {result.joint_selection_freq:>6.3f} "
            f"{freq[0]:>6.3f} {freq[1]:>6.3f} {freq[2]:>6.3f} "
            f"{result.rmse_projector:>8.4f} {rb['beta0']:>8.4f} {rb['beta1']:>8.4f} "
            f"{rb['beta']:>8.4f} {rb['oracle']:>8.4f} "
            f"{ws['beta0']:>6.3f} {ws['beta1']:>6.3f} {ws['beta']:>6.3f} "
            f"{ws['oracle']:>6.3f} {elapsed:>6.0f}"
        )
    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(TABLE_COLUMNS)
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
