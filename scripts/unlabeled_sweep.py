#!/usr/bin/env python3
"""Support recovery and classification error as a function of the unlabeled
sample count, at a fixed labeled budget.

At the desk-scale defaults (p = 20000) the vanilla_pca solves at the largest
n dominate the run (100-120 s per trial at n = 3200); raise --p/--trials to
approach the full protocol (p = 1e5, k = 100, lambda = 3, L = 200, M = 50).
The grid is geometric. Results land in a per-trial CSV plus an .agg.csv
sidecar with means and standard deviations, ready for plotting.
"""

import argparse
import sys

import numpy as np

from sslgauss.gmodel import ProblemParams, k_from_alpha, labeled_count
from sslgauss.harness import ExperimentConfig, run_sweep, write_aggregates, write_csv

DEFAULT_METHODS = "lspca,ls2pca,top_k_labeled,self_train,ul_diag_threshold_pca,vanilla_pca"


def geometric_grid(lo: int, hi: int, count: int) -> tuple[int, ...]:
    raw = np.geomspace(lo, hi, count)
    vals = sorted({int(round(v)) for v in raw})
    return tuple(vals)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    ap.add_argument("--p", type=int, default=20000)
    ap.add_argument("--alpha", type=float, default=0.4)
    ap.add_argument("--beta", type=float, default=0.45)
    ap.add_argument("--lambda", dest="lam", type=float, default=3.0)
    ap.add_argument("--L", type=int, default=None,
                    help="labeled count; overrides --beta when given")
    ap.add_argument("--n-min", type=int, default=100)
    ap.add_argument("--n-max", type=int, default=4000)
    ap.add_argument("--n-points", type=int, default=8)
    ap.add_argument("--methods", type=str, default=DEFAULT_METHODS)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--Gamma", type=float, default=0.8)
    ap.add_argument("--beta-tilde", type=str, default="auto")
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--f32", action="store_true")
    ap.add_argument("--out", type=str, default="unlabeled_sweep.csv")
    args = ap.parse_args(argv)

    k = k_from_alpha(args.p, args.alpha)
    L = args.L if args.L is not None else labeled_count(args.p, k, args.beta, args.lam)
    grid = geometric_grid(args.n_min, args.n_max, args.n_points)
    params = ProblemParams(p=args.p, k=k, lam=args.lam, L=L, n=grid[0], seed=args.seed)
    beta_tilde = args.beta_tilde if args.beta_tilde == "auto" else float(args.beta_tilde)
    config = ExperimentConfig(
        params=params, methods=tuple(args.methods.split(",")), trials=args.trials,
        sweep_axis="n", sweep_values=grid, gamma_threshold=args.Gamma,
        beta_tilde=beta_tilde, f32=args.f32, threads=args.threads)

    print(f"p={args.p} k={k} lambda={args.lam} L={L} n-grid={grid} "
          f"trials={args.trials} methods={config.methods}")
    records, aggs = run_sweep(config)
    write_csv(records, args.out)
    write_aggregates(aggs, args.out + ".agg.csv")
    print(f"wrote {args.out} and {args.out}.agg.csv")
    for row in aggs:
        print(f"{row.method:>22s} n={row.n:>6d}  overlap {row.overlap_mean:.3f}"
              f" +- {row.overlap_std:.3f}   error {row.gen_error_mean:.4f}")
    failures = sum(1 for r in records if r.failed)
    if failures:
        print(f"{failures} trials failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
