import csv
import io
import math
import warnings

import pytest

from sslgauss import harness
from sslgauss.cli import _collect_experiment, build_parser, main
from sslgauss.harness import CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if ":" in line and "," not in line.split(":")[0]:
            key, _, value = line.partition(":")
            pairs[key.strip()] = value.strip()
    return pairs


class TestRegion:
    def test_blue_point(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--alpha", "0.4",
                               "--beta", "0.5", "--gamma", "1.5")
        assert code == 0
        values = kv(out)
        assert values["region"] == "SSL_EASY_BLUE"
        assert float(values["1-alpha"]) == pytest.approx(0.6)
        assert float(values["1-gamma*alpha"]) == pytest.approx(0.4)
        assert float(values["0.5-alpha"]) == pytest.approx(0.1)

    def test_domain_error_exit(self, capsys):
        code, _, err = run_cli(capsys, "region", "--alpha", "0.9",
                               "--beta", "0.5", "--gamma", "1.5")
        assert code == 1
        assert "alpha" in err

    @pytest.mark.parametrize("exponent", ["--alpha", "--beta", "--gamma"])
    def test_nan_exponent_is_an_error(self, capsys, exponent):
        argv = {"--alpha": "0.3", "--beta": "0.1", "--gamma": "1"}
        argv[exponent] = "nan"
        code, out, err = run_cli(capsys, "region", *[x for pair in argv.items() for x in pair])
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert "region" not in out


class TestBounds:
    def test_reference_thresholds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--p", "100000", "--k", "100",
                               "--lambda", "3", "--delta", "0")
        assert code == 0
        values = kv(out)
        want = (200.0 / 3.0) * math.log(99901)
        assert float(values["sl_max_L"]) == pytest.approx(want, rel=1e-9)
        assert float(values["ul_max_n"]) == pytest.approx(want, rel=1e-9)
        assert values["verdict"] == "below-bound"

    def test_csv_row_written(self, capsys, tmp_path):
        path = tmp_path / "bounds.csv"
        code, out, _ = run_cli(capsys, "bounds", "--p", "1000", "--k", "10",
                               "--lambda", "2", "--delta", "0.5",
                               "--L", "5", "--n", "7", "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "p,k,lambda,delta,L,n,sl_max_L,ul_max_n,q,verdict"
        row = lines[1].split(",")
        assert row[0] == "1000" and row[-1] in ("below-bound", "above-bound")

    def test_delta_one_gives_a_verdict(self, capsys):
        # both thresholds are 0 at delta = 1; the verdict must not divide by them
        code, out, err = run_cli(capsys, "bounds", "--p", "100", "--k", "5",
                                 "--lambda", "3", "--delta", "1", "--L", "10", "--n", "5")
        assert code == 0, err
        values = kv(out)
        assert (values["sl_max_L"], values["ul_max_n"]) == ("0", "0")
        assert values["verdict"] == "above-bound"

    def test_tiny_lambda_gives_infinite_thresholds(self, capsys):
        # lambda^2 underflows to 0 here; the thresholds are inf, as at lambda = 0
        code, out, err = run_cli(capsys, "bounds", "--p", "100", "--k", "5",
                                 "--lambda", "1e-320", "--L", "10", "--n", "5")
        assert code == 0, err
        values = kv(out)
        assert (values["sl_max_L"], values["ul_max_n"]) == ("inf", "inf")
        assert values["verdict"] == "below-bound"

    def test_huge_lambda_gives_finite_thresholds(self, capsys):
        # lambda^2 overflows here; both thresholds are 2 k log(p-k+1) / lambda
        code, out, err = run_cli(capsys, "bounds", "--p", "100", "--k", "5",
                                 "--lambda", "1e200", "--L", "10", "--n", "5")
        assert code == 0, err
        values = kv(out)
        want = 10.0 * math.log(96) / 1e200
        assert float(values["sl_max_L"]) == pytest.approx(want, rel=1e-12)
        assert float(values["ul_max_n"]) == pytest.approx(want, rel=1e-12)


class TestLowdeg:
    def test_degree_zero(self, capsys):
        code, out, _ = run_cli(capsys, "lowdeg", "--p", "6", "--k", "2",
                               "--L", "1", "--n", "2", "--lambda", "1", "--D", "0")
        assert code == 0
        assert float(kv(out)["exact"]) == 1.0

    def test_small_case(self, capsys):
        code, out, _ = run_cli(capsys, "lowdeg", "--p", "6", "--k", "2",
                               "--L", "1", "--n", "2", "--lambda", "1", "--D", "3")
        assert code == 0
        assert float(kv(out)["exact"]) == pytest.approx(161.0 / 90.0, rel=1e-9)

    def test_infeasible_falls_back_to_mc(self, capsys):
        # k = 80, n = 200 were past the exact path's old k, n <= 64 guard and
        # went to Monte Carlo; the exact sum now covers every size
        code, out, err = run_cli(capsys, "lowdeg", "--p", "2000", "--k", "80",
                               "--L", "10", "--n", "200", "--lambda", "0.5",
                               "--D", "4")
        assert code == 0 and err == ""
        assert "exact:          1.30089255569\n" in out
        assert "mc_" not in out

    def test_degree_past_the_guard_prints_the_bound(self, capsys):
        code, out, err = run_cli(capsys, "lowdeg", "--p", "10000", "--k", "2",
                                 "--L", "4", "--n", "3", "--D", "101")
        assert code == 0 and err == ""
        values = kv(out)
        assert values["exact"].startswith("infeasible (exact path requires D <= 100")
        assert float(values["bound"]) == pytest.approx(1.44210912753, rel=1e-11)

    def test_p_one_above_k_gives_nan_beta(self, capsys):
        # log(p - k) is 0 at p = k + 1: the implied beta is nan, not a crash
        code, out, err = run_cli(capsys, "lowdeg", "--p", "3", "--k", "2", "--L", "1",
                                 "--n", "1", "--D", "2")
        assert code == 0 and "Traceback" not in err, err
        values = kv(out)
        assert values["exact"] == "7.5" and values["beta_implied"] == "nan"
        assert values["bound"].startswith("inapplicable")
        assert values["hard_regime"] == "false"

    @pytest.mark.parametrize("size", [("--p", "10", "--L", "2"), ("--p", "10000", "--L", "1")])
    def test_nan_epsilon_bound_inapplicable(self, capsys, size):
        # at p = 10000 the bound holds with the default epsilon; NaN must not pass
        code, out, _ = run_cli(capsys, "lowdeg", "--k", "2", "--D", "3", *size)
        assert code == 0
        code, out, _ = run_cli(capsys, "lowdeg", "--k", "2", "--D", "3", *size,
                               "--epsilon", "nan")
        assert code == 0
        assert kv(out)["bound"].startswith("inapplicable (epsilon must be positive")

    def test_negative_degree_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "lowdeg", "--p", "6", "--k", "2", "--D", "-1")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_exact_beyond_float_range_is_inf(self, capsys):
        code, out, err = run_cli(capsys, "lowdeg", "--p", "6", "--k", "2", "--L", "1",
                                 "--n", "2", "--lambda", "1e100", "--D", "30")
        assert code == 0, err
        assert kv(out)["exact"] == "inf"

    @pytest.mark.parametrize("lam, want_exact", [("1e-320", 1.0), ("1e300", math.inf)])
    def test_gamma_where_lambda_squared_leaves_the_float_range(self, capsys, lam, want_exact):
        # n * lambda**2 under- (1e-320) or overflows (1e300); gamma takes logs
        code, out, err = run_cli(capsys, "lowdeg", "--p", "6", "--k", "2", "--L", "1",
                                 "--n", "2", "--lambda", lam, "--D", "3")
        assert code == 0 and "Traceback" not in err, err
        values = kv(out)
        assert float(values["exact"]) == want_exact
        want = (math.log(2) + 2.0 * math.log(float(lam))) / math.log(2)
        assert float(values["gamma_implied"]) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("mc", [[], ["--mc-samples", "1000"]])
    def test_mc_series_beyond_float_range_is_an_error(self, capsys, mc):
        # the Monte Carlo series refused this size; the exact sum is inf, and
        # the removed --mc-samples flag is a usage error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "lowdeg", "--p", "2000", "--k", "80", "--L", "10",
                                     "--n", "200", "--lambda", "1e300", "--D", "4", *mc)
        if mc:
            assert code == 2 and out == "" and "unrecognized arguments: --mc-samples" in err
        else:
            assert code == 0 and err == "" and kv(out)["exact"] == "inf"

    def test_mc_beyond_hypergeometric_limit_is_an_error(self, capsys):
        # p - k above 1e9 was past numpy's hypergeometric sampler; the exact
        # sum needs no sampler (and with L = n = 0 it is 1)
        code, out, err = run_cli(capsys, "lowdeg", "--p", "2000000000", "--k", "70",
                                 "--D", "3")
        assert code == 0 and err == ""
        assert kv(out)["exact"] == "1"

    def test_hard_regime_flag(self, capsys):
        # alpha ~ .333, beta small, gamma < 2 -> inside the hard rectangle
        code, out, _ = run_cli(capsys, "lowdeg", "--p", "1000", "--k", "10",
                               "--L", "4", "--n", "30", "--lambda", "1", "--D", "5")
        assert code == 0
        assert kv(out)["hard_regime"] == "true"


class TestExperimentCommands:
    def test_simulate_end_to_end(self, capsys, tmp_path):
        out_csv = tmp_path / "trials.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--p", "40", "--k", "4", "--lambda", "3",
            "--L", "30", "--n", "60", "--trials", "2", "--seed", "5",
            "--methods", "top_k_labeled,lspca", "--beta-tilde", "0.4",
            "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2
        assert (tmp_path / "trials.csv.agg.csv").exists()
        values = kv(out)
        assert values["p"] == "40" and values["k"] == "4"

    def test_echo_lists_every_key_the_config_holds(self, capsys, tmp_path):
        out_csv = tmp_path / "trials.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--p", "40", "--alpha", "0.4", "--L", "30", "--trials", "1",
            "--methods", "top_k_labeled,lspca", "--sweep-axis", "n",
            "--sweep-values", "10,20", "--out", str(out_csv))
        assert code == 0
        # in table order, counts in place of exponents; n keeps its default
        keys = [key for key in harness.KEYS
                if key not in ("alpha", "beta", "gamma", "c1", "c2")]
        assert [line.split(":")[0] for line in out.splitlines()][:len(keys)] == keys
        values = kv(out)
        assert values["k"] == "4"
        assert values["methods"] == "top_k_labeled, lspca"
        assert values["sweep_values"] == "10, 20"
        assert (values["out"], values["threads"], values["f32"]) == (str(out_csv), "1", "False")

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("p = 60\nk = 4\nlambda = 3.0\nL = 30\nn = 40\n"
                       "methods = top_k_labeled\ntrials = 1\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--p", "50", "--seed", "9")
        assert code == 0
        values = kv(out)
        assert values["p"] == "50"      # flag wins
        assert values["k"] == "4"       # file value survives
        assert values["seed"] == "9"

    def test_flag_overrides_config_twin_group(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("p = 64\nk = 4\nlambda = 3.0\nL = 20\nn = 30\n"
                       "methods = top_k_labeled\ntrials = 1\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--alpha", "0.5")
        assert code == 0
        assert kv(out)["k"] == "8"  # alpha flag replaces the file's raw k

    def test_sweep_requires_axis(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--p", "30", "--k", "3",
                               "--lambda", "2", "--L", "10", "--n", "10",
                               "--trials", "1", "--methods", "top_k_labeled")
        assert code == 2
        assert "sweep" in err

    def test_simulate_refuses_a_sweep_config(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("p = 30\nk = 3\nlambda = 2.0\nL = 10\nn = 10\n"
                       "methods = top_k_labeled\ntrials = 1\n"
                       "sweep_axis = n\nsweep_values = 10, 20\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "sweep_axis" in err
        assert "overlap_mean" not in out  # nothing ran

    def test_sweep_end_to_end(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--p", "40", "--k", "4", "--lambda", "3",
            "--L", "30", "--trials", "2", "--methods", "top_k_labeled",
            "--sweep-axis", "n", "--sweep-values", "10,30",
            "--out", str(out_csv))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
        assert len(rows) == 4
        assert {r["n"] for r in rows} == {"10", "30"}

    @pytest.mark.parametrize("sizes", [
        "--k 5 --L 40 --n 80 --lambda nan",
        "--k 5 --L 40 --n 80 --lambda inf",
        "--k 5 --L 40 --n 80 --Gamma nan",
        "--k 5 --L 40 --n 80 --Gamma inf",
        "--k 5 --beta inf --n 80",
        "--k 5 --beta nan --n 80",
        "--k 5 --L 40 --gamma inf",
        "--k 5 --L 40 --gamma nan",
        "--k 5 --L 40 --gamma 1000",  # 5**1000 overflows a float
        "--alpha 0.4 --c1 nan --L 40 --n 80",
        "--k 5 --L 40 --gamma 1.5 --c2 nan",
    ])
    def test_non_finite_input_is_an_error(self, capsys, sizes):
        # each stops before any trial runs: no traceback, no nan rows
        code, out, err = run_cli(capsys, "simulate", "--p", "200", "--lambda", "3",
                                 "--trials", "1", "--methods", "top_k_labeled,self_train",
                                 *sizes.split())
        assert code == 1, (out, err)
        assert err.startswith("error:") and "Traceback" not in err
        assert "overlap_mean" not in out

    @pytest.mark.parametrize("prefactor", [
        "--alpha 0.4 --c1 0 --L 40 --n 80",
        "--alpha 0.4 --c1 -5 --L 40 --n 80",
        "--k 5 --L 40 --gamma 1.5 --c2 0",
        "--k 5 --L 40 --gamma 1.5 --c2 -1",
    ])
    def test_nonpositive_prefactor_is_an_error(self, capsys, prefactor):
        # c1 <= 0 used to clamp to k = 1 and c2 = 0 to give n = 0, silently
        code, out, err = run_cli(capsys, "simulate", "--p", "200", "--lambda", "3",
                                 "--trials", "1", "--methods", "top_k_labeled,self_train",
                                 *prefactor.split())
        assert code == 1, (out, err)
        assert err.startswith("error:") and "Traceback" not in err
        assert ("c1" if "--c1" in prefactor else "c2") in err
        assert "overlap_mean" not in out

    def test_zero_sparsity_is_an_error(self, capsys):
        # floor(1e-9 * 200**0.4) = 0 used to run at k = 1
        code, out, err = run_cli(capsys, "simulate", "--p", "200", "--alpha", "0.4",
                                 "--c1", "1e-9", "--L", "20", "--n", "10", "--trials", "1")
        assert code == 1, (out, err)
        assert err.startswith("error:") and "alpha" in err and "c1" in err
        assert out == ""

    def test_empty_grid_point_is_an_error(self, capsys):
        # the L-sweep's first point is (0, 0); it used to fail only once
        # the trial ran, after the config echo
        code, out, err = run_cli(capsys, "sweep", "--p", "200", "--k", "5", "--n", "0",
                                 "--sweep-axis", "L", "--sweep-values", "0,10",
                                 "--trials", "1")
        assert code == 1, (out, err)
        assert err.startswith("error:") and "(0, 0)" in err
        assert out == ""

    def test_repeated_method_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--p", "30", "--k", "3",
                                 "--lambda", "2", "--L", "10", "--n", "10",
                                 "--trials", "2", "--methods", "lspca,lspca")
        assert code == 1
        assert err.startswith("error:") and "lspca" in err and "Traceback" not in err
        assert "overlap_mean" not in out

    def test_unwritable_out_fails_before_any_trial(self, capsys, tmp_path, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(harness, "run_sweep", spy)
        code, out, err = run_cli(
            capsys, "simulate", "--p", "40", "--k", "4", "--L", "30", "--n", "60",
            "--trials", "1", "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 1
        assert err.startswith("error:") and "x.csv" in err and "Traceback" not in err
        assert "overlap_mean" not in out

    def test_lanczos_norm_past_the_dot_product_range(self, capsys):
        # lambda = 1e160 puts covariance entries near 1e159, past the 1e154
        # at which a Lanczos vector's w . w overflows; a failed row exits 1
        code, _, err = run_cli(
            capsys, "simulate", "--p", "200", "--k", "5", "--L", "10", "--n", "50",
            "--trials", "1", "--lambda", "1e160")
        assert code == 0, err

    def test_float32_overflowing_separation_refused_before_any_draw(self, capsys,
                                                                    monkeypatch):
        # sqrt(1e160 / 5) ~ 4.5e79 is past float32's 3.4e38: the draw would
        # store inf, and ul_diag_threshold_pca reported a wrong answer as a success
        def no_draw(*args, **kwargs):
            raise AssertionError("a refused config must not draw")

        monkeypatch.setattr(harness, "trial_ground_truth", no_draw)
        code, out, err = run_cli(
            capsys, "simulate", "--p", "200", "--k", "5", "--L", "10", "--n", "50",
            "--trials", "1", "--lambda", "1e160", "--f32")
        assert code == 1
        assert err.startswith("error:") and "float32" in err and "3.403e+38" in err
        assert out == ""

    def test_float32_separation_in_range_runs(self, capsys):
        # lambda = 1e50 stores finite entries (~4.5e24); the estimators fail
        # or succeed on their own, no refusal
        code, _, err = run_cli(
            capsys, "simulate", "--p", "200", "--k", "5", "--L", "10", "--n", "50",
            "--trials", "1", "--lambda", "1e50", "--f32", "--methods", "top_k_labeled")
        assert code == 0, err

    def test_float32_overflowing_sparse_solve_is_a_failed_row(self, capsys, tmp_path):
        # lambda = 1e50: the float32 rows fit, but ls2pca's screened-set
        # products overflow; the row must say failed, not overlap 1.0
        out_csv = tmp_path / "nan.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, _, err = run_cli(
                capsys, "simulate", "--p", "200", "--k", "5", "--L", "10", "--n", "50",
                "--trials", "1", "--lambda", "1e50", "--f32", "--methods", "ls2pca",
                "--out", str(out_csv))
        assert code == 1
        assert "ConvergenceError" in err
        (row,) = csv.DictReader(io.StringIO(out_csv.read_text()))
        assert row["method"] == "ls2pca" and row["failed"] == "1"

    def test_failed_trials_nonzero_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--p", "30", "--k", "3", "--lambda", "2",
            "--L", "1", "--n", "20", "--trials", "2", "--methods", "lspca",
            "--beta-tilde", "0.4")
        assert code == 1
        assert "failed" in err


# A non-default value for every experiment key, so that a flag or a config
# key that is read wrongly or not at all shows as a mismatch.
KEY_VALUES = {
    "p": "500", "k": "6", "alpha": "0.3", "L": "40", "beta": "0.5", "n": "70",
    "gamma": "1.5", "c1": "2.0", "c2": "3.0", "lambda": "2.5",
    "methods": "lspca,top_k_labeled", "trials": "3", "seed": "77", "Gamma": "0.6",
    "beta_tilde": "0.35", "out": "res.csv", "threads": "2", "f32": "true",
    "sweep_axis": "n", "sweep_values": "10,20,40",
}


def flag(key: str) -> str:
    return "--" + key.replace("_", "-")


class TestKeyTable:
    def test_values_cover_every_key(self):
        assert set(KEY_VALUES) == set(harness.KEYS)

    @pytest.mark.parametrize("sub", ["simulate", "sweep"])
    def test_every_key_has_its_flag(self, sub):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        options = subparsers[sub]._option_string_actions
        for key in harness.KEYS:
            wanted = sub == "sweep" or not key.startswith("sweep_")
            assert (flag(key) in options) == wanted, (sub, key)

    @pytest.mark.parametrize("forms", [("k", "L", "n"), ("alpha", "beta", "gamma")])
    def test_config_file_equals_flags(self, tmp_path, forms):
        twins = {a: b for group in harness._EXCLUSIVE_GROUPS
                 for a, b in (group, group[::-1])}
        keys = [key for key in harness.KEYS if twins.get(key) not in forms]
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{key} = {KEY_VALUES[key]}\n" for key in keys))
        argv = ["sweep"]
        for key in keys:
            argv += [flag(key)] if key == "f32" else [flag(key), KEY_VALUES[key]]
        from_flags = _collect_experiment(build_parser().parse_args(argv))
        assert from_flags == harness.config_from_dict(
            harness.parse_config_text(path.read_text(), source=str(path)))

    def test_bad_int_flag_usage_exit(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--trials", "abc")
        assert code == 2
        assert "usage" in err and "--trials" in err

    def test_bad_sweep_axis_usage_exit(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--sweep-axis", "x")
        assert code == 2
        assert "usage" in err and "--sweep-axis" in err


class TestHelp:
    @pytest.mark.parametrize("sub,flags", [
        ("simulate", ["--p", "--k", "--lambda", "--L", "--n", "--alpha", "--beta",
                      "--gamma", "--beta-tilde", "--Gamma", "--trials", "--seed",
                      "--config", "--out", "--threads", "--f32"]),
        ("sweep", ["--sweep-axis", "--sweep-values", "--p", "--threads"]),
        ("region", ["--alpha", "--beta", "--gamma"]),
        ("lowdeg", ["--p", "--k", "--L", "--n", "--lambda", "--D", "--epsilon"]),
        ("bounds", ["--p", "--k", "--lambda", "--delta", "--L", "--n", "--out"]),
    ])
    def test_help_lists_flags_and_defaults(self, capsys, sub, flags):
        code, out, _ = run_cli(capsys, sub, "--help")
        assert code == 0
        for flag in flags:
            assert flag in out
        if sub != "region":  # region's flags are all required, no defaults
            assert "default" in out

    def test_lowdeg_has_no_monte_carlo_flags(self, capsys):
        code, out, _ = run_cli(capsys, "lowdeg", "--help")
        assert code == 0 and "--mc-samples" not in out and "--seed" not in out

    def test_unknown_flag_usage_exit(self, capsys):
        code, _, err = run_cli(capsys, "region", "--alpha", "0.3",
                               "--beta", "0.1", "--gamma", "1.0", "--warp", "9")
        assert code == 2
        assert "usage" in err

    def test_top_level_help(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        for sub in ("simulate", "sweep", "region", "lowdeg", "bounds"):
            assert sub in out
