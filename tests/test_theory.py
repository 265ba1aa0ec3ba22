import functools
import inspect
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslgauss.errors import (BoundInapplicableError, ConfigError, ContractError,
                             ExactInfeasibleError)
from sslgauss.gmodel import ProblemParams
from sslgauss.theory import (RegionLabel, Verdict, bound_dominates_exact,
                             fusion_verdict, hypergeom_overlap_moment,
                             hypergeom_overlap_pmf, lowdeg_norm_exact, lowdeg_norm_upper_bound,
                             rademacher_sum_moment, region_classify, sl_threshold,
                             ul_threshold)


def enumerate_overlap_pmf(p: int, k: int) -> dict[int, Fraction]:
    """Oracle: exhaust all pairs of k-subsets of [p] and count overlaps."""
    subsets = list(itertools.combinations(range(p), k))
    counts: dict[int, int] = {}
    for a in subsets:
        sa = set(a)
        for b in subsets:
            m = len(sa.intersection(b))
            counts[m] = counts.get(m, 0) + 1
    total = len(subsets) ** 2
    return {m: Fraction(c, total) for m, c in counts.items()}


def enumerate_sign_sum_moment(n: int, d: int) -> Fraction:
    """Oracle: all 2^n sign patterns of the Rademacher sum."""
    total = 0
    for signs in itertools.product((-1, 1), repeat=n):
        total += sum(signs) ** d
    return Fraction(total, 2 ** n)


# Reference term sums: the k + 1 overlaps and the n + 1 sign counts, the
# formulas the closed-form recurrences replaced; exact, but linear in k and n.

@functools.lru_cache(maxsize=None)
def term_sum_overlap_moment(p: int, k: int, d: int) -> Fraction:
    """E[G^d] as the sum over overlaps m of m^d C(k, m) C(p-k, k-m) / C(p, k)."""
    total = sum(m ** d * math.comb(k, m) * math.comb(p - k, k - m)
                for m in range(max(0, 2 * k - p), k + 1))
    return Fraction(total, math.comb(p, k))


@functools.lru_cache(maxsize=None)
def term_sum_sign_moment(L: int, n: int, d: int) -> Fraction:
    """E[(L + R_1 + ... + R_n)^d] as the sum over the count t of plus signs
    of C(n, t) (L + 2t - n)^d / 2^n."""
    total = 0
    c = 1  # C(n, t), built from C(n, t - 1)
    for t in range(n + 1):
        total += c * (L + 2 * t - n) ** d
        c = c * (n - t) // (t + 1)
    return Fraction(total, 2 ** n)


def term_sum_lowdeg_norm(params: ProblemParams, D: int) -> float:
    """The truncated norm from the term sums, correctly rounded (inf beyond
    the float range)."""
    ratio = Fraction(params.lam) / params.k
    total = sum(ratio ** d * term_sum_overlap_moment(params.p, params.k, d)
                * term_sum_sign_moment(params.L, params.n, d) / math.factorial(d)
                for d in range(D + 1))
    try:
        return float(total)
    except OverflowError:
        return math.inf


class TestThresholds:
    def test_sl_reference_point(self):
        val = sl_threshold(100, 3.0, 10 ** 5, 0.0)
        assert abs(val - (200.0 / 3.0) * math.log(99901)) < 1e-9
        assert abs(val - 767.462) < 0.01

    def test_delta_one_gives_zero(self):
        assert sl_threshold(10, 1.0, 100, 1.0) == 0.0

    def test_linear_in_k(self):
        a = sl_threshold(50, 2.0, 10 ** 4, 0.1)
        # doubling k doubles the threshold, up to the log(p-k+1) factor
        b = sl_threshold(100, 2.0, 10 ** 4, 0.1)
        ratio = b / a
        expected = 2.0 * math.log(10 ** 4 - 100 + 1) / math.log(10 ** 4 - 50 + 1)
        assert abs(ratio - expected) < 1e-12

    def test_ul_equals_sl_at_lambda_one(self):
        assert ul_threshold(30, 1.0, 2000, 0.2) == sl_threshold(30, 1.0, 2000, 0.2)

    def test_ul_reference_point(self):
        val = ul_threshold(100, 3.0, 10 ** 5, 0.0)
        assert abs(val - (200.0 / 9.0) * math.log(99901) * 3.0) < 1e-9
        assert abs(val - sl_threshold(100, 3.0, 10 ** 5, 0.0)) < 1e-12

    def test_ul_small_lambda(self):
        # max{1, lambda} = 1, so the value is 2(1-d) k log(p-k+1) / lambda^2
        val = ul_threshold(10, 0.5, 100, 0.0)
        assert abs(val - 2 * 10 * math.log(91) / 0.25) < 1e-12

    def test_zero_lambda_sentinel(self):
        assert sl_threshold(10, 0.0, 100, 0.5) == math.inf
        assert ul_threshold(10, 0.0, 100, 0.5) == math.inf

    def test_domain_checks(self):
        with pytest.raises(ContractError):
            sl_threshold(100, 1.0, 100, 0.5)
        with pytest.raises(ContractError):
            sl_threshold(10, 1.0, 100, 1.5)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_lambda_must_be_finite(self, lam):
        for threshold in (sl_threshold, ul_threshold):
            with pytest.raises(ContractError):
                threshold(10, lam, 100, 0.5)
        with pytest.raises(ContractError):
            fusion_verdict(5, 7, 10, lam, 100, 0.5)


class TestFusionVerdict:
    def test_half_half_split_below(self):
        L0 = sl_threshold(100, 3.0, 10 ** 5, 0.5)
        n0 = ul_threshold(100, 3.0, 10 ** 5, 0.5)
        rep = fusion_verdict(int(L0 / 2), int(n0 / 2), 100, 3.0, 10 ** 5, 0.5)
        assert rep.verdict is Verdict.BELOW_BOUND
        assert 0.0 <= rep.q <= 0.5 + 1e-9

    def test_both_at_threshold_above(self):
        L0 = sl_threshold(100, 3.0, 10 ** 5, 0.5)
        n0 = ul_threshold(100, 3.0, 10 ** 5, 0.5)
        rep = fusion_verdict(math.ceil(L0), math.ceil(n0), 100, 3.0, 10 ** 5, 0.5)
        assert rep.verdict is Verdict.ABOVE_BOUND

    def test_labeled_corner_reduces_to_ul(self):
        n0 = ul_threshold(100, 3.0, 10 ** 5, 0.5)
        rep = fusion_verdict(0, int(n0 * 0.9), 100, 3.0, 10 ** 5, 0.5)
        assert rep.verdict is Verdict.BELOW_BOUND
        assert rep.q == 0.0
        rep2 = fusion_verdict(0, int(n0 * 1.1) + 1, 100, 3.0, 10 ** 5, 0.5)
        assert rep2.verdict is Verdict.ABOVE_BOUND

    def test_unlabeled_corner_reduces_to_sl(self):
        L0 = sl_threshold(100, 3.0, 10 ** 5, 0.5)
        assert fusion_verdict(int(L0 * 0.9), 0, 100, 3.0, 10 ** 5, 0.5).verdict \
            is Verdict.BELOW_BOUND
        assert fusion_verdict(int(L0 * 1.1) + 1, 0, 100, 3.0, 10 ** 5, 0.5).verdict \
            is Verdict.ABOVE_BOUND

    @pytest.mark.parametrize("L,n", [(10, 5), (10, 0)])
    def test_delta_one_any_labeled_sample_is_above(self, L, n):
        # both thresholds are 0: a positive count loads them infinitely
        rep = fusion_verdict(L, n, 5, 3.0, 100, 1.0)
        assert (rep.sl_max_L, rep.ul_max_n) == (0.0, 0.0)
        assert rep.verdict is Verdict.ABOVE_BOUND
        assert rep.q == 1.0

    def test_delta_one_is_below_only_with_no_samples(self):
        rep = fusion_verdict(0, 0, 5, 3.0, 100, 1.0)
        assert rep.verdict is Verdict.BELOW_BOUND
        assert rep.q == 0.0
        assert fusion_verdict(0, 3, 5, 3.0, 100, 1.0).verdict is Verdict.ABOVE_BOUND


class TestHypergeomOverlap:
    def test_normalization(self):
        total = sum(hypergeom_overlap_pmf(10, 3, m) for m in range(4))
        assert abs(total - 1.0) < 1e-12

    def test_mean_identity_small(self):
        mean = sum(m * hypergeom_overlap_pmf(4, 2, m) for m in range(3))
        assert abs(mean - 1.0) < 1e-12  # k^2/p = 4/4

    @pytest.mark.parametrize("p", range(2, 9))
    def test_matches_enumeration(self, p):
        for k in range(1, p + 1):
            oracle = enumerate_overlap_pmf(p, k)
            for m in range(k + 1):
                # exact: the correctly rounded value of the enumerated fraction
                assert hypergeom_overlap_pmf(p, k, m) == float(oracle.get(m, Fraction(0)))

    @pytest.mark.parametrize("p", [12, 25, 40])
    def test_mean_identity_sweep(self, p):
        for k in range(1, p + 1, 3):
            mean = sum(m * hypergeom_overlap_pmf(p, k, m) for m in range(k + 1))
            assert abs(mean - k * k / p) <= 1e-10 * max(1.0, k * k / p)

    def test_out_of_range_warns(self):
        with pytest.warns(UserWarning):
            assert hypergeom_overlap_pmf(10, 3, 5) == 0.0
        with pytest.warns(UserWarning):
            assert hypergeom_overlap_pmf(10, 3, -1) == 0.0

    def test_moment_matches_enumeration(self):
        oracle = enumerate_overlap_pmf(6, 2)
        for d in range(5):
            want = float(sum(Fraction(m) ** d * pr for m, pr in oracle.items()))
            assert abs(hypergeom_overlap_moment(6, 2, d) - want) <= 1e-12 * max(1.0, want)

    def test_moment_beyond_the_float_range_is_inf(self):
        # E[G^120] for k = 1000 is about 2e325
        assert hypergeom_overlap_moment(2000, 1000, 120) == math.inf


class TestRademacherMoments:
    def test_odd_is_exactly_zero(self):
        for n in (1, 5, 12, 100):
            for d in (1, 3, 7):
                assert rademacher_sum_moment(n, d) == 0.0

    def test_second_moment_is_n(self):
        for n in (1, 4, 17, 64, 65, 80, 100):
            assert rademacher_sum_moment(n, 2) == float(n)

    def test_n4_d4_enumeration(self):
        want = enumerate_sign_sum_moment(4, 4)
        assert want == Fraction(40)
        assert rademacher_sum_moment(4, 4) == 40.0

    def test_enumeration_sweep(self):
        for n in range(0, 13):
            for d in range(0, 9):
                want = float(enumerate_sign_sum_moment(n, d))
                got = rademacher_sum_moment(n, d)
                if want == 0.0:
                    assert got == 0.0
                else:
                    assert abs(got - want) <= 1e-12 * want

    def test_double_factorial_bound(self):
        for n in range(1, 31):
            for ell in range(1, 7):
                dd = math.prod(range(2 * ell - 1, 0, -2))
                assert rademacher_sum_moment(n, 2 * ell) <= n ** ell * dd * (1 + 1e-12)

    def test_large_n_log_space_path(self):
        # the moment is the correctly rounded term sum at n = 80 too
        n, d = 80, 6
        want = float(Fraction(sum(math.comb(n, t) * (2 * t - n) ** d
                                  for t in range(n + 1)), 2 ** n))
        assert rademacher_sum_moment(n, d) == want

    def test_beyond_the_float_range_is_inf(self):
        # E[S^400] at n = 100 is about 2e770
        assert rademacher_sum_moment(100, 400) == math.inf


class TestLowDegNorm:
    def test_degree_zero_is_one(self):
        assert lowdeg_norm_exact(ProblemParams(p=9, k=3, lam=2.0, L=4, n=5), 0) == 1.0

    def test_zero_signal_is_one(self):
        assert lowdeg_norm_exact(ProblemParams(p=9, k=3, lam=0.0, L=4, n=5), 7) == 1.0

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_lambda_must_be_finite(self, lam):
        with pytest.raises(ConfigError):
            ProblemParams(p=9, k=3, lam=lam, L=4, n=5)

    def test_no_samples_is_accepted(self):
        # the calculators take L = n = 0 (the lowdeg CLI's defaults)
        assert lowdeg_norm_exact(ProblemParams(p=6, k=2, lam=3.0, L=0, n=0), 3) == 1.0

    @pytest.mark.parametrize("calculator", [lowdeg_norm_exact, bound_dominates_exact])
    def test_negative_degree_rejected(self, calculator):
        with pytest.raises(ContractError, match="degree"):
            calculator(ProblemParams(p=9, k=3, lam=1.0, L=4, n=5), -1)

    def test_bound_takes_no_degree(self):
        assert list(inspect.signature(lowdeg_norm_upper_bound).parameters) == \
            ["params", "epsilon"]

    def test_small_case_hand_value(self):
        # p=6,k=2,L=1,n=2,lam=1,D=3 -> 1 + 1/3 + 3/10 + 7/45 = 161/90
        got = lowdeg_norm_exact(ProblemParams(p=6, k=2, lam=1.0, L=1, n=2), 3)
        assert abs(got - 161.0 / 90.0) < 1e-14

    def test_monotone_in_each_argument(self):
        base = ProblemParams(p=12, k=3, lam=1.5, L=2, n=4)
        val = lowdeg_norm_exact(base, 4)
        assert lowdeg_norm_exact(base, 6) >= val
        assert lowdeg_norm_exact(ProblemParams(12, 3, 2.5, 2, 4), 4) >= val
        assert lowdeg_norm_exact(base.with_counts(L=5), 4) >= val
        assert lowdeg_norm_exact(base.with_counts(n=9), 4) >= val

    def test_guard_raises(self):
        # the guard is on D alone: any k and n compute
        for params in (ProblemParams(p=200, k=100, lam=1.0, L=1, n=2),
                       ProblemParams(p=9, k=3, lam=1.0, L=1, n=100)):
            assert lowdeg_norm_exact(params, 3) == term_sum_lowdeg_norm(params, 3)
        params = ProblemParams(p=9, k=3, lam=1.0, L=1, n=2)
        assert lowdeg_norm_exact(params, 100) == term_sum_lowdeg_norm(params, 100)
        with pytest.raises(ExactInfeasibleError, match="D <= 100"):
            lowdeg_norm_exact(params, 101)

    def test_closed_forms_equal_the_term_sums(self):
        # k = p, L = 0, n = 0, lambda = 0 and a series beyond the float range
        # included; every float must be the term sums' correctly rounded value
        cases = 0
        for p in (2, 5, 9, 40, 300):
            for k in range(1, min(p, 12) + 1):
                for d in range(10):
                    want = float(term_sum_overlap_moment(p, k, d))
                    assert hypergeom_overlap_moment(p, k, d) == want, (p, k, d)
                for L, n, lam in itertools.product((0, 1, 3, 7), (0, 1, 5, 13, 40),
                                                   (0.0, 0.3, 3.0, 1e100)):
                    params = ProblemParams(p=p, k=k, lam=lam, L=L, n=n)
                    for D in (0, 1, 4, 9):
                        assert lowdeg_norm_exact(params, D) == \
                            term_sum_lowdeg_norm(params, D), (params, D)
                        cases += 1
        for n in range(41):
            for d in range(10):
                assert rademacher_sum_moment(n, d) == float(term_sum_sign_moment(0, n, d))
        assert cases == 12800

    def test_paper_scale_value(self):
        # p = 1e5, k = 100, L = 200, n = 4000, lambda = 3, D = 30
        params = ProblemParams(p=10 ** 5, k=100, lam=3.0, L=200, n=4000)
        got = lowdeg_norm_exact(params, 30)
        assert "%.12g" % got == "1.12715862408e+13"
        assert got == term_sum_lowdeg_norm(params, 30)

    def test_bound_dominates_exact_where_applicable(self):
        # search small instances whose finite-size domination condition holds
        checked = 0
        for p in (500, 2000, 8000):
            for k in (2, 3, 5):
                for L in (20, 60):
                    for n in (0, 10, 40):
                        for lam in (0.25, 0.5):
                            for D in (2, 4, 6):
                                params = ProblemParams(p=p, k=k, lam=lam, L=L, n=n)
                                if not bound_dominates_exact(params, D):
                                    continue
                                exact = lowdeg_norm_exact(params, D)
                                bound = lowdeg_norm_upper_bound(params)
                                assert bound >= exact - 1e-12
                                checked += 1
        assert checked >= 20

    def test_bound_tends_to_one(self):
        # implied beta ~ 2e-5
        params = ProblemParams(p=10 ** 6, k=2, lam=0.001, L=1, n=0)
        val = lowdeg_norm_upper_bound(params, epsilon=0.1)
        assert 1.0 <= val < 1.0 + 1e-3

    def test_bound_log_space_smoke(self):
        # implied alpha = 1/3, beta = 0.054, epsilon = 1/2 - alpha - beta
        params = ProblemParams(p=10 ** 6, k=100, lam=3.0, L=50, n=10)
        val = lowdeg_norm_upper_bound(params)
        assert math.isfinite(val) and val >= 1.0

    def test_bound_inapplicable_cases(self):
        with pytest.raises(BoundInapplicableError):
            lowdeg_norm_upper_bound(ProblemParams(p=10, k=2, lam=2.0, L=0, n=4))
        with pytest.raises(BoundInapplicableError):  # implied beta = 0.72: 2*beta >= 1
            lowdeg_norm_upper_bound(ProblemParams(p=10, k=2, lam=2.0, L=3, n=4),
                                    epsilon=0.1)

    def test_bound_dominates_exact_only_where_the_bound_applies(self):
        # the grid takes in k = p, L = 0, lambda = 0, a NaN or nonpositive
        # epsilon, and lambda = 5e-324, where the implied beta underflows to 0
        raised = 0
        for p, k, lam, L, n, epsilon in itertools.product(
                (10, 10 ** 4), (2, 10), (0.0, 5e-324, 0.01, 3.0), (0, 1, 50), (0, 10),
                (None, math.nan, 0.0, -0.1, 0.1, 0.9)):
            params = ProblemParams(p=p, k=k, lam=lam, L=L, n=n)
            try:
                lowdeg_norm_upper_bound(params, epsilon=epsilon)
            except BoundInapplicableError:
                raised += 1
                assert not bound_dominates_exact(params, 2, epsilon), params
        assert raised >= 300

    @pytest.mark.parametrize("epsilon", [math.nan, 0.0, -0.1])
    def test_bound_rejects_a_nonpositive_or_nan_epsilon(self, epsilon):
        # implied beta = 0.016, so 2*beta + epsilon < 1 holds for any epsilon below 0.96
        params = ProblemParams(p=10 ** 4, k=10, lam=3.0, L=1, n=0)
        assert math.isfinite(lowdeg_norm_upper_bound(params, epsilon=0.1))
        with pytest.raises(BoundInapplicableError, match="epsilon must be positive"):
            lowdeg_norm_upper_bound(params, epsilon=epsilon)


class TestRegionClassify:
    def test_reference_points(self):
        assert region_classify(0.4, 0.5, 1.5) is RegionLabel.SSL_EASY_BLUE
        assert region_classify(0.4, 0.05, 1.5) is RegionLabel.HARD_ORANGE
        assert region_classify(0.3, 0.9, 0.5) is RegionLabel.SL_EASY
        assert region_classify(0.4, 0.25, 1.5) is RegionLabel.UNKNOWN_WHITE

    def test_ul_easy_green(self):
        assert region_classify(0.3, 0.1, 2.0) is RegionLabel.UL_EASY
        assert region_classify(0.3, 0.1, 5.0) is RegionLabel.UL_EASY

    def test_impossible_red(self):
        assert region_classify(0.3, 0.2, 0.5) is RegionLabel.IMPOSSIBLE_RED
        assert region_classify(0.3, 0.2, 1.0) is RegionLabel.IMPOSSIBLE_RED

    def test_boundary_precedence(self):
        # gamma = 2 exactly goes to the earlier UL clause even with large beta <= 1-alpha
        assert region_classify(0.4, 0.6, 2.0) is RegionLabel.UL_EASY
        # beta = 1 - alpha exactly is not SL-easy (strict) and not blue (strict)
        assert region_classify(0.4, 0.6, 1.5) is RegionLabel.UNKNOWN_WHITE

    def test_domain_error(self):
        with pytest.raises(ContractError):
            region_classify(0.6, 0.1, 1.0)
        with pytest.raises(ContractError):
            region_classify(0.0, 0.1, 1.0)

    @pytest.mark.parametrize("alpha, beta, gamma", [
        (math.nan, 0.1, 1.0), (0.3, math.nan, 1.0), (0.3, 0.1, math.nan), (0.3, -0.1, 1.0),
        (0.3, 0.1, -1.0)])
    def test_nan_or_negative_exponent_rejected(self, alpha, beta, gamma):
        with pytest.raises(ContractError):
            region_classify(alpha, beta, gamma)

    @given(st.floats(0.01, 0.49), st.floats(0, 2), st.floats(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_total_on_domain(self, alpha, beta, gamma):
        label = region_classify(alpha, beta, gamma)
        assert isinstance(label, RegionLabel)
