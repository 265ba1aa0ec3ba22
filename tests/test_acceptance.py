"""Acceptance gate.

Each test exercises one numbered criterion at its stated tolerance and
prints one pass/fail line (bypassing capture so the lines always show).
The blue-region Monte Carlo configuration (the BLUE_* constants) is shared
between criteria 5, 6 and 10. Its unlabeled count uses prefactor c2 = 10 in
n = c2 * k**gamma / lambda**2, chosen so n stays below the full-covariance
detectability point p / lambda**2 (criterion 6 needs the unscreened PCA
baseline to fail). The paper lets any screening factor beta_tilde in
(1 - gamma*alpha, beta) work as p -> infinity; at p = 20000 the share of the
true support that screening keeps, which bounds the final overlap, is well
below 1. So beta sits near the top of the blue band (0.55, L = 192) and
beta_tilde near its bottom (0.29, 1132 coordinates kept, n*lambda**2/1132
about 11), where the closed-form retention is 0.915; criterion 5 asserts
that this prediction, less 3 standard errors of a 20-trial mean, meets its
0.85 target before it runs. The quarter-gap rule would keep 169
coordinates and predict 0.72.

Criterion 11 is optional and runs only with SSLGAUSS_PAPER_SCALE=1.
"""

import itertools
import math
import os

import numpy as np
import pytest

import conftest

from sslgauss import estimators
from sslgauss.cli import main as cli_main
from sslgauss.estimators import screened_count, top_k_labeled
from sslgauss.gmodel import ProblemParams, labeled_count, make_sparse_mean, \
    sample_dataset, unlabeled_count
from sslgauss.harness import ExperimentConfig, run_sweep, trial_ground_truth
from sslgauss.metrics import phi_c
from sslgauss.rng import generator
from sslgauss.spectral import top_k_indices
from sslgauss.theory import (RegionLabel, Verdict,
                             bound_dominates_exact, fusion_verdict,
                             hypergeom_overlap_pmf, lowdeg_norm_exact,
                             lowdeg_norm_upper_bound,
                             rademacher_sum_moment, region_classify,
                             sl_threshold, ul_threshold)

MASTER_SEED = 20260810
THREADS = min(8, os.cpu_count() or 1)


def _report(num: int, name: str, status, detail: str) -> None:
    if isinstance(status, bool):
        status = "PASS" if status else "FAIL"
    line = f"[criterion {num:02d}] {status}  {name}: {detail}"
    print(line)
    conftest.record_acceptance_line(line)


# ---------------------------------------------------------------------------
# criterion 1: Bayes error constant
# ---------------------------------------------------------------------------

def test_criterion_01_bayes_error():
    value = phi_c(math.sqrt(3.0))
    ok = abs(value - 0.0416) <= 0.0005
    _report(1, "bayes error", ok, f"phi_c(sqrt(3)) = {value:.6f} (0.0416 +- 0.0005)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: top-k of the signed mean is the exhaustive-search maximizer
# ---------------------------------------------------------------------------

def _brute_force_support(w: np.ndarray, k: int, lam: float) -> set:
    mag = math.sqrt(lam / k)
    best, best_support = -np.inf, None
    for support in itertools.combinations(range(w.size), k):
        for signs in itertools.product((-1.0, 1.0), repeat=k):
            val = mag * sum(s * w[j] for j, s in zip(support, signs))
            if val > best:
                best, best_support = val, set(support)
    return best_support


def test_criterion_02_mle_equivalence():
    rng = np.random.default_rng(MASTER_SEED + 2)
    matches = total = 0
    while total < 200:
        p = int(rng.integers(4, 11))
        k = int(rng.integers(1, 3))
        L = int(rng.integers(1, 7))
        lam = float(rng.choice([0.5, 1.0, 4.0]))
        seed = int(rng.integers(2 ** 32))
        pp = ProblemParams(p=p, k=k, lam=lam, L=L, n=0, seed=seed)
        mu = make_sparse_mean(pp, seed=seed)
        ds = sample_dataset(mu, L, 0, seed=seed + 1)
        _, w, _ = estimators._signed_sum(ds)
        mags = np.sort(np.abs(w))[::-1]
        if k < p and mags[k - 1] - mags[k] < 1e-9:
            continue  # near-tie at the cut: excluded, fresh draw instead
        total += 1
        got = set(top_k_labeled(ds, k).support.tolist())
        matches += got == _brute_force_support(w, k, lam)
    ok = matches == total
    _report(2, "labeled-only maximizer", ok, f"{matches}/{total} exhaustive matches")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: degree-D norm against a joint Monte Carlo oracle
# ---------------------------------------------------------------------------

def _mc_lowdeg_norm(params: ProblemParams, D: int, n_samples: int,
                    seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the truncated norm with its standard error.

    Samples the two supports' overlap (hypergeometric) and the sum of the n
    signs (binomial) directly, 200000 draws at a time, and averages the
    inner exponential series truncated at degree D. Needs k < p and n >= 1.
    """
    p, k, L, n, lam = params.p, params.k, params.L, params.n, params.lam
    rng = generator(seed)
    total = total_sq = 0.0
    for start in range(0, n_samples, 200_000):
        b = min(200_000, n_samples - start)
        g = rng.hypergeometric(k, p - k, k, size=b)
        r = 2.0 * rng.binomial(n, 0.5, size=b) - n
        x = (lam / k) * g * (L + r)
        acc = term = np.ones(b)
        for d in range(1, D + 1):
            term = term * x / d
            acc = acc + term
        total += float(np.sum(acc))
        total_sq += float(np.sum(acc * acc))
    mean = total / n_samples
    var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    return mean, math.sqrt(var / n_samples)


def test_criterion_03_lowdeg_oracle():
    instances = [  # (sizes, D)
        (ProblemParams(p=6, k=2, lam=1.0, L=1, n=2), 3),
        (ProblemParams(p=8, k=3, lam=0.5, L=2, n=3), 4),
        (ProblemParams(p=10, k=2, lam=2.0, L=0, n=4), 5),
    ]
    details = []
    ok = True
    bound_checked = 0
    for i, (params, D) in enumerate(instances):
        exact = lowdeg_norm_exact(params, D)
        est, se = _mc_lowdeg_norm(params, D, n_samples=10 ** 6, seed=MASTER_SEED + 30 + i)
        within = abs(est - exact) <= 3.0 * se
        ok = ok and within
        details.append(f"exact={exact:.6f} mc={est:.6f}+-{se:.1e}")
        if bound_dominates_exact(params, D):
            bound_checked += 1
            ok = ok and lowdeg_norm_upper_bound(params) >= exact - 1e-12
    suffix = (f"; bound clause vacuous (exponent condition fails on all 3)"
              if bound_checked == 0 else f"; bound checked on {bound_checked}")
    _report(3, "low-degree norm oracle", ok, "; ".join(details) + suffix)
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: combinatorics against exhaustive enumeration
# ---------------------------------------------------------------------------

def test_criterion_04_combinatorics_oracles():
    ok = True
    for p in range(2, 9):
        subsets = {k: list(itertools.combinations(range(p), k)) for k in range(1, p + 1)}
        for k in range(1, p + 1):
            counts = {}
            for a in subsets[k]:
                sa = set(a)
                for b in subsets[k]:
                    m = len(sa.intersection(b))
                    counts[m] = counts.get(m, 0) + 1
            denom = len(subsets[k]) ** 2
            for m in range(k + 1):
                want = counts.get(m, 0) / denom
                got = hypergeom_overlap_pmf(p, k, m)
                if want == 0.0:
                    ok = ok and got == 0.0
                else:
                    ok = ok and abs(got - want) <= 1e-12 * want
    for n in range(13):
        for d in range(9):
            total = sum(sum(signs) ** d
                        for signs in itertools.product((-1, 1), repeat=n))
            want = total / 2 ** n
            got = rademacher_sum_moment(n, d)
            if want == 0.0:
                ok = ok and got == 0.0
            else:
                ok = ok and abs(got - want) <= 1e-12 * abs(want)
    _report(4, "combinatorics oracles", ok,
            "hypergeometric p<=8 and sign-sum moments n<=12,d<=8 vs enumeration")
    assert ok


# ---------------------------------------------------------------------------
# criteria 5 + 6: blue-region Monte Carlo (shared 20-trial run)
# ---------------------------------------------------------------------------

BLUE_P, BLUE_K, BLUE_LAM = 20000, 53, 3.0
BLUE_ALPHA, BLUE_BETA, BLUE_GAMMA = 0.4, 0.55, 1.8
BLUE_L = labeled_count(BLUE_P, BLUE_K, BLUE_BETA, BLUE_LAM)            # 192
BLUE_N = unlabeled_count(BLUE_K, BLUE_GAMMA, BLUE_LAM, c2=10.0)        # 1410
BLUE_BETA_TILDE = 0.29            # inside (1 - gamma*alpha, beta) = (0.28, 0.55)
BLUE_TRIALS = 20
BLUE_SCREEN = screened_count(BLUE_P, BLUE_BETA_TILDE)  # 1132


def _screening_retention(p: int, k: int, lam: float, L: int, kept: int) -> float:
    """Predicted share of the true support that label screening keeps.

    With balanced classes the class-mean difference, scaled by its noise
    level 2/sqrt(L), is N(a, 1) on the support, a = sqrt(L*lam/k), and N(0, 1)
    off it. Keeping the `kept` largest magnitudes is a two-sided cut t with
    2(p-k) Phi_c(t) + k [Phi_c(t-a) + Phi_c(t+a)] = kept, found by bisection;
    a support coordinate survives it with probability Phi_c(t-a) + Phi_c(t+a).
    """
    a = math.sqrt(L * lam / k)

    def survives(t):
        return phi_c(t - a) + phi_c(t + a)

    lo, hi = 0.0, a + 40.0
    while hi - lo > 1e-12:
        t = 0.5 * (lo + hi)
        if 2.0 * (p - k) * phi_c(t) + k * survives(t) > kept:
            lo = t
        else:
            hi = t
    return survives(0.5 * (lo + hi))


BLUE_RETENTION = _screening_retention(BLUE_P, BLUE_K, BLUE_LAM, BLUE_L,
                                      BLUE_SCREEN)                      # 0.915
# standard error of the trials' mean overlap when each support coordinate
# survives screening independently with probability BLUE_RETENTION
BLUE_SE = math.sqrt(BLUE_RETENTION * (1 - BLUE_RETENTION)
                    / (BLUE_K * BLUE_TRIALS))                            # 0.0086


def _blue_config(methods: tuple[str, ...]) -> ExperimentConfig:
    params = ProblemParams(p=BLUE_P, k=BLUE_K, lam=BLUE_LAM,
                           L=BLUE_L, n=BLUE_N, seed=MASTER_SEED)
    return ExperimentConfig(params=params, methods=methods, trials=BLUE_TRIALS,
                            beta_tilde=BLUE_BETA_TILDE, threads=THREADS)


def _measured_retention() -> float:
    """Mean share of the true support that the fixture's screening step keeps,
    from the labeled rows of each trial (the same rows the run used)."""
    config = _blue_config(("lspca",))
    shares = []
    for trial in range(BLUE_TRIALS):
        mu, ds = trial_ground_truth(config, trial)
        w, _ = estimators._mean_difference(ds)
        screen = top_k_indices(np.abs(w), BLUE_SCREEN)
        shares.append(np.isin(mu.support, screen).mean())
    return float(np.mean(shares))


@pytest.fixture(scope="module")
def blue_region_aggregates():
    _, aggs = run_sweep(_blue_config(("lspca", "top_k_labeled", "vanilla_pca")))
    return {a.method: a for a in aggs}


def test_criterion_05_blue_region_success(request):
    region = region_classify(BLUE_ALPHA, BLUE_BETA, BLUE_GAMMA)
    assert region is RegionLabel.SSL_EASY_BLUE, region
    assert 1 - BLUE_GAMMA * BLUE_ALPHA < BLUE_BETA_TILDE < BLUE_BETA
    assert BLUE_N < BLUE_P / BLUE_LAM ** 2
    assert BLUE_RETENTION - 3 * BLUE_SE >= 0.85, (
        f"predicted screening retention {BLUE_RETENTION:.3f} is within 3 SE "
        f"({3 * BLUE_SE:.3f}) of the 0.85 target")

    agg = request.getfixturevalue("blue_region_aggregates")["lspca"]
    measured = _measured_retention()
    ok = agg.overlap_mean >= 0.85 and agg.excess_risk_mean <= 0.03
    _report(5, "blue-region success", ok,
            f"mean overlap {agg.overlap_mean:.3f} (>= 0.85 required), "
            f"mean excess risk {agg.excess_risk_mean:.4f} (<= 0.03 required) "
            f"at p={BLUE_P}, k={BLUE_K}, L={BLUE_L}, n={BLUE_N}, "
            f"beta_tilde={BLUE_BETA_TILDE}; screening retention "
            f"{measured:.3f} measured, {BLUE_RETENTION:.3f} +- {BLUE_SE:.3f} "
            f"predicted")
    assert agg.overlap_mean >= 0.85, (
        f"mean overlap {agg.overlap_mean:.3f} < 0.85: screening keeps "
        f"ceil(p**(1-beta_tilde)) = {BLUE_SCREEN} coordinates, which retain "
        f"{measured:.3f} of the true support ({BLUE_RETENTION:.3f} predicted "
        f"at L = {BLUE_L}); retention upper-bounds the final overlap")
    assert agg.excess_risk_mean <= 0.03, (
        f"mean excess risk {agg.excess_risk_mean:.4f} > 0.03")
    assert abs(agg.overlap_mean - BLUE_RETENTION) <= 3 * BLUE_SE, (
        f"mean overlap {agg.overlap_mean:.3f} is more than 3 SE from the "
        f"predicted screening retention {BLUE_RETENTION:.3f}")


def test_criterion_06_baseline_separation(blue_region_aggregates):
    lspca = blue_region_aggregates["lspca"].overlap_mean
    topk = blue_region_aggregates["top_k_labeled"].overlap_mean
    vanilla = blue_region_aggregates["vanilla_pca"].overlap_mean
    ok = (lspca - topk >= 0.2) and (lspca - vanilla >= 0.2)
    _report(6, "baseline separation", ok,
            f"lspca {lspca:.3f} vs top_k_labeled {topk:.3f} "
            f"(gap {lspca - topk:.3f}) vs vanilla_pca {vanilla:.3f} "
            f"(gap {lspca - vanilla:.3f}); both gaps must be >= 0.2")
    assert lspca - topk >= 0.2
    assert lspca - vanilla >= 0.2


# ---------------------------------------------------------------------------
# criterion 7: labeled-only phase transition
# ---------------------------------------------------------------------------

def test_criterion_07_sl_phase_transition():
    means = {}
    for beta in (1.3, 0.2):
        L = labeled_count(BLUE_P, BLUE_K, beta, BLUE_LAM)
        params = ProblemParams(p=BLUE_P, k=BLUE_K, lam=BLUE_LAM, L=L, n=0,
                               seed=777)
        config = ExperimentConfig(params=params, methods=("top_k_labeled",),
                                  trials=20, threads=THREADS)
        _, aggs = run_sweep(config)
        means[beta] = aggs[0].overlap_mean
    ok = means[1.3] >= 0.9 and means[0.2] <= 0.3
    _report(7, "labeled-only phase transition", ok,
            f"overlap {means[1.3]:.3f} at beta=1.3 (>= 0.9), "
            f"{means[0.2]:.3f} at beta=0.2 (<= 0.3)")
    assert means[1.3] >= 0.9
    assert means[0.2] <= 0.3


# ---------------------------------------------------------------------------
# criterion 8: unlabeled-easy regime
# ---------------------------------------------------------------------------

def test_criterion_08_ul_easy_region():
    p, k, lam = 2000, 10, 3.0
    n = math.ceil(8 * k ** 2 / lam ** 2) * 10  # 890
    params = ProblemParams(p=p, k=k, lam=lam, L=0, n=n, seed=MASTER_SEED + 8)
    config = ExperimentConfig(params=params, methods=("ul_diag_threshold_pca",),
                              trials=20, threads=THREADS)
    _, aggs = run_sweep(config)
    mean = aggs[0].overlap_mean
    ok = mean >= 0.8
    _report(8, "unlabeled-easy region", ok,
            f"variance-screened PCA overlap {mean:.3f} (>= 0.8) at n={n}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: threshold calculators
# ---------------------------------------------------------------------------

def test_criterion_09_threshold_calculators():
    k, lam, p = 100, 3.0, 10 ** 5
    ok = True
    for delta in (0.0, 0.5):
        want_sl = 2.0 * (1.0 - delta) * k * math.log(p - k + 1) / lam
        want_ul = 2.0 * (1.0 - delta) * k * math.log(p - k + 1) * max(1.0, lam) / lam ** 2
        ok = ok and abs(sl_threshold(k, lam, p, delta) - want_sl) <= 1e-9 * want_sl
        ok = ok and abs(ul_threshold(k, lam, p, delta) - want_ul) <= 1e-9 * want_ul
    L0 = sl_threshold(k, lam, p, 0.5)
    n0 = ul_threshold(k, lam, p, 0.5)
    ok = ok and fusion_verdict(int(L0 / 2), int(n0 / 2), k, lam, p, 0.5).verdict \
        is Verdict.BELOW_BOUND
    ok = ok and fusion_verdict(0, int(0.9 * n0), k, lam, p, 0.5).verdict \
        is Verdict.BELOW_BOUND
    ok = ok and fusion_verdict(int(0.9 * L0), 0, k, lam, p, 0.5).verdict \
        is Verdict.BELOW_BOUND
    ok = ok and fusion_verdict(math.ceil(L0), math.ceil(n0), k, lam, p, 0.5).verdict \
        is Verdict.ABOVE_BOUND
    _report(9, "threshold calculators", ok,
            "hand formulas at delta in {0, 0.5} to 1e-9 relative; "
            "q-split, L=0 and n=0 corner identities")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: worker-count determinism through the CLI
# ---------------------------------------------------------------------------

def _strip_runtime(text: str) -> str:
    rows = []
    for line in text.strip().splitlines():
        cells = line.split(",")
        del cells[11]
        rows.append(",".join(cells))
    return "\n".join(rows)


def test_criterion_10_thread_determinism(tmp_path):
    outputs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}.csv"
        code = cli_main([
            "sweep", "--p", str(BLUE_P), "--k", str(BLUE_K),
            "--lambda", str(BLUE_LAM), "--L", str(BLUE_L),
            "--sweep-axis", "n", "--sweep-values", str(BLUE_N),
            "--methods", "lspca", "--trials", "5",
            "--beta-tilde", str(BLUE_BETA_TILDE),
            "--seed", str(MASTER_SEED), "--threads", str(threads),
            "--out", str(out)])
        assert code == 0
        outputs[threads] = out.read_text()
    same = _strip_runtime(outputs[1]) == _strip_runtime(outputs[8])
    _report(10, "worker-count determinism", same,
            "CSV identical for --threads 1 vs 8 (runtime column excluded)"
            if same else "CSV mismatch between --threads 1 and 8")
    assert same


# ---------------------------------------------------------------------------
# criterion 11 (optional): full-scale smoke
# ---------------------------------------------------------------------------

def test_criterion_11_paper_scale_smoke():
    if os.environ.get("SSLGAUSS_PAPER_SCALE") != "1":
        _report(11, "full-scale smoke", "SKIP",
                "optional, not gating; set SSLGAUSS_PAPER_SCALE=1 to run")
        pytest.skip("set SSLGAUSS_PAPER_SCALE=1 to run the full-scale smoke")
    params = ProblemParams(p=10 ** 5, k=100, lam=3.0, L=200, n=4000,
                           seed=MASTER_SEED + 11)
    config = ExperimentConfig(params=params, methods=("lspca",), trials=5,
                              beta_tilde="auto", f32=True, threads=1)
    records, aggs = run_sweep(config)
    agg = aggs[0]
    ok = agg.failures == 0 and agg.excess_risk_mean < 0.05
    _report(11, "full-scale smoke", ok,
            f"5 trials, failures={agg.failures}, "
            f"mean excess risk {agg.excess_risk_mean:.4f} (< 0.05)")
    assert ok
