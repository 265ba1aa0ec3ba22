#!/usr/bin/env python3
"""Rasterize the (gamma, beta) phase map for a given sparsity exponent alpha.

Emits a CSV grid of region labels (rows: beta, columns: gamma) that can be
rendered as a heatmap by any plotting tool.
"""

import argparse
import sys

import numpy as np

from sslgauss.errors import SslgaussError
from sslgauss.theory import region_classify


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    ap.add_argument("--alpha", type=float, default=0.4)
    ap.add_argument("--beta-max", type=float, default=1.0)
    ap.add_argument("--gamma-max", type=float, default=3.0)
    ap.add_argument("--resolution", type=positive_int, default=60)
    ap.add_argument("--out", type=str, default="phase_map.csv")
    args = ap.parse_args(argv)

    betas = np.linspace(0.0, args.beta_max, args.resolution)
    gammas = np.linspace(0.0, args.gamma_max, args.resolution)
    try:
        labels = [[region_classify(args.alpha, float(b), float(g)).value for g in gammas]
                  for b in betas]
    except SslgaussError as err:  # nothing is written
        print(f"error: {err}", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        fh.write("beta\\gamma," + ",".join(f"{g:.4f}" for g in gammas) + "\n")
        for b, row in zip(betas, labels):
            fh.write(f"{b:.4f}," + ",".join(row) + "\n")
    print(f"wrote {args.out} (alpha={args.alpha}, {args.resolution}x{args.resolution})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
