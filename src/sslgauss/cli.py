"""Command-line front end.

Subcommands:
  simulate  run M trials at a single (L, n) point and write per-trial CSV
  sweep     run the full Monte Carlo grid over n or L
  region    classify an (alpha, beta, gamma) scaling point
  lowdeg    degree-D likelihood-ratio norm: exact value and closed-form bound
  bounds    labeled/unlabeled recovery thresholds and their fusion verdict

simulate and sweep echo every key the resolved config holds, in
harness.KEYS order and with raw counts in place of exponents, so output
files are self-describing; config-file values are overridden by explicit
flags.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import harness, theory
from .errors import BoundInapplicableError, ExactInfeasibleError, SslgaussError
from .gmodel import ProblemParams

_NUM_FMT = "%.12g"


def _fmt(x) -> str:
    if isinstance(x, float):
        return _NUM_FMT % x
    return str(x)


def _kv(key: str, value, width: int = 12) -> str:
    return f"{key + ':':<{width + 1}} {_fmt(value)}"


def _add_problem_flags(sub: argparse.ArgumentParser, sweep: bool) -> None:
    g = sub.add_argument_group(
        "experiment", "Config-file keys are these flags without --, with - spelled _. "
        "Raw counts and exponent forms are mutually exclusive per group.")
    for key, (convert, default, text) in harness.KEYS.items():
        if key.startswith("sweep_") and not sweep:
            continue
        flag = "--" + key.replace("_", "-")
        if convert is harness.switch:
            g.add_argument(flag, action="store_const", const=True, default=None, help=text)
            continue
        if default not in (None, ()):
            shown = ", ".join(default) if isinstance(default, tuple) else default
            text = f"{text} (default {shown})"
        g.add_argument(flag, type=convert, default=None, help=text)
    r = sub.add_argument_group("run")
    r.add_argument("--config", type=str, default=None,
                   help="config file; explicit flags override its values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sslgauss",
        description="Sparse Gaussian mixture classification with labeled and "
                    "unlabeled samples: estimators, thresholds, experiments.")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run trials at a single (L, n) point")
    _add_problem_flags(sim, sweep=False)

    swp = subs.add_parser("sweep", help="run a grid over n or L")
    _add_problem_flags(swp, sweep=True)

    reg = subs.add_parser("region", help="classify an (alpha, beta, gamma) point")
    reg.add_argument("--alpha", type=float, required=True, help="sparsity exponent in (0, 1/2)")
    reg.add_argument("--beta", type=float, required=True, help="labeled exponent >= 0")
    reg.add_argument("--gamma", type=float, required=True, help="unlabeled exponent >= 0")

    low = subs.add_parser("lowdeg", help="degree-D likelihood-ratio norm")
    low.add_argument("--p", type=int, required=True, help="ambient dimension")
    low.add_argument("--k", type=int, required=True, help="sparsity")
    low.add_argument("--L", type=int, default=0, help="labeled count (default 0)")
    low.add_argument("--n", type=int, default=0, help="unlabeled count (default 0)")
    low.add_argument("--lambda", dest="lam", type=float, default=3.0,
                     help="separation (default 3.0)")
    low.add_argument("--D", type=int, required=True, help="max polynomial degree")
    low.add_argument("--epsilon", type=float, default=None,
                     help="slack in the bound exponent (default 1/2 - alpha - beta)")

    bnd = subs.add_parser("bounds", help="recovery thresholds and fusion verdict")
    bnd.add_argument("--p", type=int, required=True, help="ambient dimension")
    bnd.add_argument("--k", type=int, required=True, help="sparsity")
    bnd.add_argument("--lambda", dest="lam", type=float, required=True, help="separation")
    bnd.add_argument("--delta", type=float, default=0.0,
                     help="confidence level in [0, 1] (default 0)")
    bnd.add_argument("--L", type=int, default=0, help="labeled count (default 0)")
    bnd.add_argument("--n", type=int, default=0, help="unlabeled count (default 0)")
    bnd.add_argument("--out", type=str, default=None, help="write the CSV row here")
    return parser


def _collect_experiment(args: argparse.Namespace) -> harness.ExperimentConfig:
    raw: dict = {}
    if args.config:
        with open(args.config) as fh:
            raw.update(harness.parse_config_text(fh.read(), source=args.config))
    twin = {a: b for group in harness._EXCLUSIVE_GROUPS for a, b in (group, group[::-1])}
    for key in harness.KEYS:
        value = getattr(args, key, None)  # sweep_* flags exist on `sweep` only
        if value is not None:
            # explicit flags override the config file; drop the file's twin
            # from the same exclusive parameter group
            if key in twin:
                raw.pop(twin[key], None)
            raw[key] = value
    return harness.config_from_dict(raw)


def _run_experiment(args: argparse.Namespace, sweep: bool) -> int:
    config = _collect_experiment(args)
    if sweep and config.sweep_axis is None:
        print("error: sweep requires --sweep-axis and --sweep-values", file=sys.stderr)
        return 2
    if not sweep and config.sweep_axis is not None:
        print("error: simulate runs one point; use sweep for a config that sets sweep_axis",
              file=sys.stderr)
        return 2
    # an unwritable output path fails here, before any trial runs; "a" truncates nothing
    for path in (config.out_path, config.out_path + ".agg.csv") if config.out_path else ():
        open(path, "a").close()
    for key, text in harness.config_items(config):
        print(_kv(key, text))
    records, aggs = harness.run_sweep(config)
    if config.out_path:
        harness.write_csv(records, config.out_path)
        harness.write_aggregates(aggs, config.out_path + ".agg.csv")
        print(_kv("out_agg", config.out_path + ".agg.csv"))
    print()
    print("method,L,n = overlap_mean gen_error_mean excess_risk_mean (count, failures)")
    for row in aggs:
        print(f"{row.method},{row.L},{row.n} = {_fmt(row.overlap_mean)} "
              f"{_fmt(row.gen_error_mean)} {_fmt(row.excess_risk_mean)} "
              f"({row.count}, {row.failures})")
    failures = sum(1 for r in records if r.failed)
    if failures:
        print(f"\n{failures} of {len(records)} trials failed:", file=sys.stderr)
        for rec in records:
            if rec.failed:
                print(f"  {rec.method} L={rec.L} n={rec.n} trial={rec.trial}: {rec.error}",
                      file=sys.stderr)
        return 1
    return 0


def _run_region(args: argparse.Namespace) -> int:
    label = theory.region_classify(args.alpha, args.beta, args.gamma)
    print(_kv("region", label.value))
    print(_kv("1-alpha", 1.0 - args.alpha))
    print(_kv("1-gamma*alpha", 1.0 - args.gamma * args.alpha))
    print(_kv("0.5-alpha", 0.5 - args.alpha))
    return 0


def _run_lowdeg(args: argparse.Namespace) -> int:
    params = ProblemParams(p=args.p, k=args.k, lam=args.lam, L=args.L, n=args.n)
    try:
        print(_kv("exact", theory.lowdeg_norm_exact(params, args.D), width=14))
    except ExactInfeasibleError as err:
        print(_kv("exact", f"infeasible ({err})", width=14))
    try:
        bound = theory.lowdeg_norm_upper_bound(params, epsilon=args.epsilon)
        print(_kv("bound", bound, width=14))
    except BoundInapplicableError as err:
        print(_kv("bound", f"inapplicable ({err})", width=14))
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    print(_kv("alpha_implied", alpha, width=14))
    print(_kv("beta_implied", beta, width=14))
    print(_kv("gamma_implied", gamma, width=14))
    hard = (math.isfinite(beta) and beta < 0.5 - alpha
            and math.isfinite(gamma) and gamma < 2.0)
    print(_kv("hard_regime", "true" if hard else "false", width=14))
    return 0


def _run_bounds(args: argparse.Namespace) -> int:
    report = theory.fusion_verdict(args.L, args.n, args.k, args.lam, args.p, args.delta)
    print(_kv("sl_max_L", report.sl_max_L))
    print(_kv("ul_max_n", report.ul_max_n))
    print(_kv("delta", report.delta))
    print(_kv("L", args.L))
    print(_kv("n", args.n))
    print(_kv("q", report.q))
    print(_kv("verdict", report.verdict.value))
    header = "p,k,lambda,delta,L,n,sl_max_L,ul_max_n,q,verdict"
    row = ",".join([str(args.p), str(args.k), repr(float(args.lam)),
                    repr(float(args.delta)), str(args.L), str(args.n),
                    repr(report.sl_max_L), repr(report.ul_max_n),
                    repr(report.q), report.verdict.value])
    print(header)
    print(row)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(header + "\n" + row + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "simulate":
            return _run_experiment(args, sweep=False)
        if args.command == "sweep":
            return _run_experiment(args, sweep=True)
        if args.command == "region":
            return _run_region(args)
        if args.command == "lowdeg":
            return _run_lowdeg(args)
        if args.command == "bounds":
            return _run_bounds(args)
    except SslgaussError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
