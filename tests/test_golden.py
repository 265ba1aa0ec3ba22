"""Per-trial records pinned against tests/data/golden_trials.csv.

A refactor must leave every record where it was: method, point, trial, seed,
overlap and failed exactly, gen_error and excess_risk to 1e-12 absolute. A
change that moves the numbers on purpose re-pins the file with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import csv
import pathlib

from sslgauss import harness
from sslgauss.gmodel import ProblemParams
from sslgauss.harness import ExperimentConfig, run_sweep

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_trials.csv"
FIELDS = ("config", "method", "L", "n", "trial", "seed", "overlap",
          "gen_error", "excess_risk", "failed")
ABS_TOL = 1e-12

CONFIGS = {
    # every method; vanilla_pca takes the Gram side at L+n = 240 < p and the
    # covariance side at L+n = 640 >= p
    "all_methods": ExperimentConfig(
        params=ProblemParams(p=400, k=8, lam=3.0, L=40, n=200, seed=4242),
        methods=tuple(harness.METHODS), trials=2, sweep_axis="n",
        sweep_values=(200, 600)),
    # few samples at a weak spike: the estimators miss part of the support
    "weak_spike": ExperimentConfig(
        params=ProblemParams(p=400, k=8, lam=1.5, L=20, n=120, seed=4242),
        methods=("lspca", "ls2pca", "top_k_labeled", "self_train"), trials=2),
    # float32 storage on the screening solves
    "f32_lspca": ExperimentConfig(
        params=ProblemParams(p=2000, k=20, lam=3.0, L=60, n=400, seed=4242),
        methods=("lspca", "ls2pca"), trials=2, f32=True),
}


def rows():
    out = []
    for name, config in CONFIGS.items():
        records, _ = run_sweep(config)
        out += [dict(config=name, method=r.method, L=str(r.L), n=str(r.n),
                     trial=str(r.trial), seed=str(r.seed), overlap=repr(r.overlap),
                     gen_error=repr(r.gen_error), excess_risk=repr(r.excess_risk),
                     failed=str(int(r.failed))) for r in records]
    return out


def test_records_match_golden():
    with open(GOLDEN, newline="") as fh:
        want = list(csv.DictReader(fh))
    # the pin covers a point where recovery is partial, and no failed rows
    assert min(float(r["overlap"]) for r in want if r["config"] == "weak_spike") < 1.0
    assert all(r["failed"] == "0" for r in want)
    got = rows()
    assert [tuple(r[f] for f in FIELDS[:6]) for r in got] \
        == [tuple(r[f] for f in FIELDS[:6]) for r in want]
    for g, w in zip(got, want):
        where = f"{g['config']} {g['method']} L={g['L']} n={g['n']} trial={g['trial']}"
        assert (g["overlap"], g["failed"]) == (w["overlap"], w["failed"]), where
        for key in ("gen_error", "excess_risk"):
            assert abs(float(g[key]) - float(w[key])) <= ABS_TOL, f"{where} {key}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows())
