import csv
import gc
import io
import math
import pathlib
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import strip_runtime
from sslgauss import estimators, harness
from sslgauss.errors import ConfigError
from sslgauss.estimators import EstimatorOutput
from sslgauss.gmodel import ProblemParams
from sslgauss.harness import (AGG_HEADER, CSV_HEADER, KEYS, ExperimentConfig,
                              TrialRecord, aggregate, config_from_dict, config_items,
                              parse_config_text, run_sweep, run_trial,
                              trial_ground_truth, write_aggregates, write_csv)
from sslgauss.metrics import score

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "configs"


def small_config(**kw):
    defaults = dict(
        params=ProblemParams(p=40, k=4, lam=3.0, L=30, n=80, seed=11),
        methods=("top_k_labeled", "lspca"),
        trials=3,
        beta_tilde=0.4,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunTrial:
    def test_repeat_identical_minus_runtime(self):
        cfg = small_config()
        a = run_trial(cfg, "lspca", (30, 80), 1)
        b = run_trial(cfg, "lspca", (30, 80), 1)
        assert (a.overlap, a.gen_error, a.excess_risk, a.seed) \
            == (b.overlap, b.gen_error, b.excess_risk, b.seed)
        assert a.failed is False

    def test_labeled_only_method_ignores_n(self):
        cfg = small_config(methods=("top_k_labeled",), sweep_axis="n",
                           sweep_values=(10, 80, 500))
        recs = [run_trial(cfg, "top_k_labeled", (30, n), 0) for n in (10, 80, 500)]
        metrics = {(r.overlap, r.gen_error, r.excess_risk, r.seed) for r in recs}
        assert len(metrics) == 1

    def test_fresh_ground_truth_per_trial(self):
        cfg = small_config()
        mu0, _ = trial_ground_truth(cfg, 0)
        mu1, _ = trial_ground_truth(cfg, 1)
        assert mu0.support != mu1.support or mu0.signs != mu1.signs

    def test_shared_data_across_methods(self):
        cfg = small_config()
        a = run_trial(cfg, "top_k_labeled", (30, 80), 2)
        b = run_trial(cfg, "lspca", (30, 80), 2)
        assert a.seed == b.seed

    def test_failure_recorded_not_raised(self):
        # L = 1 has a single labeled sample: one class is always missing
        cfg = small_config(params=ProblemParams(p=40, k=4, lam=3.0, L=1, n=80, seed=0),
                           methods=("lspca",))
        rec = run_trial(cfg, "lspca", (1, 80), 0)
        assert rec.failed is True
        assert math.isnan(rec.overlap)
        assert "class" in rec.error

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            run_trial(small_config(), "nope", (30, 80), 0)

    def test_f32_storage(self):
        cfg = small_config(f32=True)
        _, ds = trial_ground_truth(cfg, 0)
        assert ds.labeled_x.dtype == np.float32
        rec = run_trial(cfg, "lspca", (30, 80), 0)
        assert rec.failed is False and math.isfinite(rec.overlap)


class TestRunSweep:
    def test_single_point_passthrough(self):
        cfg = small_config(methods=("top_k_labeled",), trials=1)
        records, aggs = run_sweep(cfg)
        assert len(records) == 1 and len(aggs) == 1
        assert aggs[0].count == 1
        assert aggs[0].overlap_mean == records[0].overlap
        assert math.isnan(aggs[0].overlap_std)  # undefined for one sample

    def test_row_count(self):
        cfg = small_config(sweep_axis="n", sweep_values=(20, 60, 100), trials=2)
        records, aggs = run_sweep(cfg)
        assert len(records) == 2 * 3 * 2  # methods x points x trials
        assert len(aggs) == 2 * 3

    def test_estimator_exception_recorded(self, monkeypatch):
        def boom(ds, pp, beta_tilde, gamma_threshold):
            raise RuntimeError("solver blew up")

        monkeypatch.setitem(harness.METHODS, "lspca", boom)
        cfg = small_config(sweep_axis="n", sweep_values=(20, 60), trials=2)
        records, aggs = run_sweep(cfg)
        assert len(records) == 2 * 2 * 2
        for rec in records:
            if rec.method == "lspca":
                assert rec.failed and rec.error == "RuntimeError: solver blew up"
            else:
                assert not rec.failed and math.isfinite(rec.overlap)
        assert {(a.method, a.count, a.failures) for a in aggs} \
            == {("lspca", 0, 2), ("top_k_labeled", 2, 0)}

    def test_scoring_failure_recorded(self, monkeypatch):
        # the estimator returns, but its direction fails the unit-norm check
        # inside score(): the row fails and the other rows are untouched
        def nan_direction(ds, pp, beta_tilde, gamma_threshold):
            return EstimatorOutput(method="lspca", support=np.arange(pp.k),
                                   direction=np.full(pp.p, np.nan))

        cfg = small_config(sweep_axis="n", sweep_values=(20, 60), trials=2)
        clean, _ = run_sweep(cfg)
        monkeypatch.setitem(harness.METHODS, "lspca", nan_direction)
        records, aggs = run_sweep(cfg)
        assert len(records) == len(clean) == 2 * 2 * 2
        for rec, ref in zip(records, clean):
            if rec.method == "lspca":
                assert rec.failed and rec.error.startswith("ContractError")
                assert all(math.isnan(x) for x in (rec.overlap, rec.gen_error,
                                                   rec.excess_risk))
            else:
                assert rec == replace(ref, runtime_ms=rec.runtime_ms)
        assert {(a.method, a.count, a.failures) for a in aggs} \
            == {("lspca", 0, 2), ("top_k_labeled", 2, 0)}

    def test_parallel_equals_serial(self):
        cfg = small_config(sweep_axis="n", sweep_values=(20, 60), trials=2)
        serial_records, _ = run_sweep(cfg)
        parallel_records, _ = run_sweep(replace(cfg, threads=4))
        buf_a, buf_b = io.StringIO(), io.StringIO()
        for rec in serial_records:
            buf_a.write(rec.csv_row() + "\n")
        for rec in parallel_records:
            buf_b.write(rec.csv_row() + "\n")
        assert strip_runtime(buf_a.getvalue()) == strip_runtime(buf_b.getvalue())

    def test_worker_count_comes_only_from_the_config(self):
        # the second slot takes only the None that perfbench's launcher forwards
        with pytest.raises(ConfigError, match="config.threads"):
            run_sweep(small_config(), 4)


def per_point_reference(cfg, records):
    """Each record rerun on a config whose one point is the record's own, so
    run_trial serves it from a draw made at exactly that point."""
    return [run_trial(replace(cfg, sweep_axis=None, sweep_values=(),
                              params=replace(cfg.params, L=r.L, n=r.n)),
                      r.method, (r.L, r.n), r.trial) for r in records]


def results(records):
    return [(r.method, r.L, r.n, r.trial, r.seed, r.overlap, r.gen_error,
             r.excess_risk, r.failed) for r in records]


class TestOneDrawPerTrial:
    def test_one_draw_per_trial(self, monkeypatch):
        calls = []
        original = harness.trial_ground_truth

        def counted(config, t):
            mu, ds = original(config, t)
            calls.append((t, ds.L, ds.n))
            return mu, ds

        monkeypatch.setattr(harness, "trial_ground_truth", counted)
        cfg = small_config(methods=("top_k_labeled", "lspca", "self_train"),
                           sweep_axis="n", sweep_values=(20, 60, 100), trials=2)
        records, _ = run_sweep(cfg)
        assert len(records) == 3 * 3 * 2
        assert calls == [(0, 30, 100), (1, 30, 100)]
        assert harness._draw.cache_info().currsize == 0  # the draw is released

    @pytest.mark.parametrize("axis, values", [("L", (10, 20, 30)), ("n", (20, 60, 100))],
                             ids=["L", "n"])
    def test_sweep_matches_fresh_draws(self, axis, values):
        cfg = small_config(methods=tuple(harness.METHODS), sweep_axis=axis,
                           sweep_values=values, trials=2)
        records, _ = run_sweep(cfg)
        reference = per_point_reference(cfg, records)
        assert len(records) == 6 * 3 * 2
        assert not any(r.failed for r in records)
        assert results(records) == results(reference)

    def test_direct_calls_hold_one_draw(self, monkeypatch):
        # trials 1, 2, 1 each need a new draw; the held draw must be dropped
        # before the next one is made
        original = harness.trial_ground_truth
        draws, alive = [], []

        def tracked(config, t):
            gc.collect()
            alive.append(sum(ref() is not None for ref in draws))
            mu, ds = original(config, t)
            draws.append(weakref.ref(ds.unlabeled_x))
            return mu, ds

        monkeypatch.setattr(harness, "trial_ground_truth", tracked)
        cfg = small_config(sweep_axis="n", sweep_values=(20, 60))
        try:
            for t, point in [(1, (30, 60)), (2, (30, 20)), (1, (30, 20))]:
                run_trial(cfg, "lspca", point, t)
        finally:
            harness._draw.cache_clear()
        assert alive == [0, 0, 0]

    def test_off_grid_point_is_rejected(self):
        cfg = small_config(sweep_axis="n", sweep_values=(20, 60))
        for point in [(40, 200), (30, 40), (30, 80)]:
            with pytest.raises(ConfigError, match="not on the config's grid"):
                run_trial(cfg, "lspca", point, 1)


def csv_text(records) -> str:
    return strip_runtime("\n".join(rec.csv_row() for rec in records))


SHARING_METHODS = ("lspca", "ls2pca", "top_k_labeled", "self_train")


SHARING_SWEEPS = pytest.mark.parametrize(
    "axis, values", [("n", (30, 60, 120)), ("L", (10, 20, 40))], ids=["n", "L"])


def sharing_config(axis, values):
    """A sweep whose methods share labeled summaries and screened covariances."""
    return small_config(params=ProblemParams(p=300, k=5, lam=3.0, L=40, n=120, seed=23),
                        methods=SHARING_METHODS, sweep_axis=axis, sweep_values=values,
                        trials=2, beta_tilde=0.45)


class TestSharedStatistics:
    """Statistics computed once per trial must not change a record, whatever
    order the trial's (point, method) tasks run in."""

    @SHARING_SWEEPS
    def test_reversed_methods_give_identical_records(self, axis, values):
        cfg = sharing_config(axis, values)
        forward, _ = run_sweep(cfg)
        backward, _ = run_sweep(replace(cfg, methods=SHARING_METHODS[::-1]))
        assert not any(r.failed for r in forward)
        assert csv_text(forward) == csv_text(backward)

    @SHARING_SWEEPS
    def test_points_visited_in_reverse_give_identical_records(self, axis, values):
        cfg = sharing_config(axis, values)
        forward, _ = run_sweep(cfg)
        backward = []
        try:
            for trial in range(cfg.trials):
                for point in reversed(cfg.points()):
                    for method in SHARING_METHODS[::-1]:
                        backward.append(run_trial(cfg, method, point, trial))
        finally:
            harness._draw.cache_clear()
        backward.sort(key=lambda r: (r.method, r.L, r.n, r.trial))
        assert csv_text(forward) == csv_text(backward)

    @pytest.mark.parametrize("axis, values, per_trial",
                             [("n", (30, 60, 120), 1), ("L", (10, 20, 40), 3)], ids=["n", "L"])
    def test_mean_difference_once_per_labeled_prefix(self, monkeypatch, axis, values,
                                                      per_trial):
        calls = []
        original = estimators._difference

        def counted(sums, ys):
            calls.append(ys.shape[0])
            return original(sums, ys)

        monkeypatch.setattr(estimators, "_difference", counted)
        cfg = sharing_config(axis, values)
        run_sweep(cfg)
        assert len(calls) == cfg.trials * per_trial
        assert len(set(calls)) == per_trial

    def test_screened_covariance_once_per_point_and_held_alone(self, monkeypatch):
        # lspca and ls2pca share one covariance per point; the previous
        # point's covariance is gone before the next is built, and the last
        # one goes with the draw when the trial's task returns
        original = estimators.restricted_covariance
        made, alive_at_build = [], []

        def tracked(rows):
            alive_at_build.append(sum(ref() is not None for ref in made))
            cov = original(rows)
            made.append(weakref.ref(cov))
            return cov

        monkeypatch.setattr(estimators, "restricted_covariance", tracked)
        cfg = sharing_config("n", (30, 60, 120))
        for trial in range(cfg.trials):
            records = harness._run_trial_task((cfg, trial))
            assert not any(r.failed for r in records)
            assert len(made) == 3 * (trial + 1)
            assert not any(ref() is not None for ref in made)
        assert alive_at_build == [0] * 6


class TestTrialGroundTruth:
    """trial_ground_truth(config, t) is the draw the sweep slices."""

    def test_draws_at_the_largest_grid_point(self):
        # the base n (the default 1000) is not on the grid; the sweep draws n = 2000
        cfg = config_from_dict({"p": 50, "k": 3, "L": 4, "sweep_axis": "n",
                                "sweep_values": "5,2000"})
        _, ds = trial_ground_truth(cfg, 0)
        assert (ds.L, ds.n) == (4, 2000)

    def test_empty_base_point_with_a_grid(self):
        cfg = config_from_dict({"p": 50, "k": 3, "L": 0, "n": 0, "sweep_axis": "n",
                                "sweep_values": "5,10"})
        _, ds = trial_ground_truth(cfg, 0)
        assert (ds.L, ds.n) == (0, 10)

    def test_prefix_reproduces_the_sweep(self):
        cfg = small_config(methods=("lspca", "vanilla_pca", "self_train"),
                           sweep_axis="n", sweep_values=(20, 60, 100), trials=2)
        records, _ = run_sweep(cfg)
        truths = {t: trial_ground_truth(cfg, t) for t in range(cfg.trials)}
        assert not any(r.failed for r in records)
        for r in records:
            mu, ds = truths[r.trial]
            pp = replace(cfg.params, L=r.L, n=r.n)
            est = harness.METHODS[r.method](ds.prefix(r.L, r.n), pp, cfg.beta_tilde,
                                            cfg.gamma_threshold)
            assert score(mu, est.support, est.direction) \
                == (r.overlap, r.gen_error, r.excess_risk)


class TestAggregation:
    def _rec(self, method="m", overlap=0.5, failed=False, trial=0):
        return TrialRecord(method=method, p=10, k=2, lam=1.0, L=5, n=5,
                           trial=trial, seed=1, overlap=overlap,
                           gen_error=0.1, excess_risk=0.05, runtime_ms=1.0,
                           failed=failed, error="x" if failed else "")

    def test_constant_metrics(self):
        rows = aggregate([self._rec(trial=t, overlap=0.75) for t in range(4)])
        assert rows[0].overlap_mean == 0.75
        assert rows[0].overlap_std == 0.0
        assert rows[0].count == 4

    def test_unbiased_std(self):
        recs = [self._rec(trial=0, overlap=0.0), self._rec(trial=1, overlap=1.0)]
        rows = aggregate(recs)
        assert abs(rows[0].overlap_std - math.sqrt(0.5)) < 1e-15  # ddof=1

    def test_failures_excluded_and_counted(self):
        recs = [self._rec(trial=0, overlap=0.4),
                self._rec(trial=1, failed=True, overlap=math.nan)]
        rows = aggregate(recs)
        assert rows[0].count == 1 and rows[0].failures == 1
        assert rows[0].overlap_mean == 0.4


class TestCsv:
    def test_header_and_parseability(self, tmp_path):
        cfg = small_config(trials=2)
        records, aggs = run_sweep(cfg)
        path = tmp_path / "out.csv"
        write_csv(records, path)
        text = path.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(records)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(records)
        for row in parsed:
            float(row["overlap"]); float(row["runtime_ms"])
            assert row["failed"] in ("0", "1")
            int(row["trial"]); int(row["seed"])

    def test_aggregate_sidecar(self, tmp_path):
        cfg = small_config(trials=2)
        _, aggs = run_sweep(cfg)
        path = tmp_path / "out.agg.csv"
        write_aggregates(aggs, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("#") and "ddof=1" in lines[0]
        assert lines[1] == AGG_HEADER


class TestConfigFiles:
    def test_round_trip(self):
        cfg = small_config(sweep_axis="n", sweep_values=(10, 20),
                           out_path="res.csv", threads=2, f32=True,
                           beta_tilde=0.35)
        items = config_items(cfg)
        assert config_from_dict(dict(items)) == cfg
        # every key in table order, counts in place of exponents
        assert [key for key, _ in items] == [
            key for key in KEYS if key not in ("alpha", "beta", "gamma", "c1", "c2")]

    def test_round_trip_skips_unset_keys(self):
        cfg = small_config()
        items = dict(config_items(cfg))
        assert not items.keys() & {"out", "sweep_axis", "sweep_values"}
        assert config_from_dict(items) == cfg

    # the grids the files' comments document; L = 154 is
    # floor(2 * 0.45 * 52 * log(19948) / 3) at beta = 0.45
    @pytest.mark.parametrize("name,point,axis,values,methods", [
        ("labeled_sweep", (50, 1000), "L", (50, 100, 200, 400, 800),
         ("lspca", "ls2pca", "top_k_labeled", "self_train")),
        ("unlabeled_sweep", (154, 1000), "n", (100, 200, 400, 800, 1600, 3200),
         ("lspca", "ls2pca", "top_k_labeled", "self_train", "ul_diag_threshold_pca",
          "vanilla_pca")),
    ])
    def test_checked_in_sweep_configs(self, name, point, axis, values, methods):
        path = CONFIGS / f"{name}.cfg"
        cfg = config_from_dict(parse_config_text(path.read_text(), source=str(path)))
        pp = cfg.params
        assert (pp.p, pp.k, pp.lam, (pp.L, pp.n)) == (20000, 52, 3.0, point)
        assert (cfg.sweep_axis, cfg.sweep_values, cfg.methods) == (axis, values, methods)
        assert (cfg.trials, cfg.out_path) == (20, f"{name}.csv")
        assert config_from_dict(dict(config_items(cfg))) == cfg

    def test_parse_comments_and_lists(self):
        text = """
# comment line
p = 100          # trailing comment
k = 5
lambda = 2.0
methods = lspca, top_k_labeled
sweep_axis = n
sweep_values = 10, 20, 40
"""
        d = parse_config_text(text)
        cfg = config_from_dict(d)
        assert cfg.params.p == 100 and cfg.params.k == 5
        assert cfg.methods == ("lspca", "top_k_labeled")
        assert cfg.sweep_values == (10, 20, 40)

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError, match="unknown keys.*warp"):
            parse_config_text("p = 10\nwarp = 9\n")

    def test_parse_error_has_line_number(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("p = 10\nthis is not a pair\n")

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("p = 10\ntrials = abc\n")
        with pytest.raises(ConfigError, match="'trials'"):
            config_from_dict(parse_config_text(path.read_text(), source=str(path)))

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("p = 10\np = 20\n")

    def test_exclusive_groups(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            config_from_dict({"k": 5, "alpha": 0.4})
        with pytest.raises(ConfigError, match="mutually exclusive"):
            config_from_dict({"L": 5, "beta": 0.4})
        with pytest.raises(ConfigError, match="mutually exclusive"):
            config_from_dict({"n": 5, "gamma": 1.5})

    def test_exponent_form_resolution(self):
        cfg = config_from_dict({"p": 20000, "alpha": 0.4, "beta": 0.45,
                                "gamma": 1.8, "c2": 10.0, "lambda": 3.0})
        assert cfg.params.k == 52  # floor(20000 ** 0.4)
        assert cfg.params.L == 154  # floor(2 * .45 * 52 * log(19948) / 3)
        assert cfg.params.n == 1363  # floor(10 * 52**1.8 / 9)

    def test_mixed_groups(self):
        cfg = config_from_dict({"p": 20000, "k": 53, "beta": 0.45,
                                "gamma": 1.8, "c2": 10.0, "lambda": 3.0})
        assert cfg.params.k == 53
        assert cfg.params.L == 157
        assert cfg.params.n == 1410

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(params=ProblemParams(p=4, k=2, lam=1.0, L=2, n=2),
                             methods=("bogus",))
        with pytest.raises(ConfigError):
            ExperimentConfig(params=ProblemParams(p=4, k=2, lam=1.0, L=2, n=2),
                             sweep_axis="n", sweep_values=(5, 5))
        with pytest.raises(ConfigError):
            ExperimentConfig(params=ProblemParams(p=4, k=2, lam=1.0, L=2, n=2),
                             trials=0)

    def test_every_grid_point_needs_a_sample(self):
        empty = ProblemParams(p=4, k=2, lam=1.0, L=0, n=0)
        with pytest.raises(ConfigError, match=r"\(0, 0\)"):
            ExperimentConfig(params=empty)
        with pytest.raises(ConfigError, match=r"\(0, 0\)"):
            ExperimentConfig(params=empty, sweep_axis="L", sweep_values=(0, 10))
        # the base counts are not a point of a sweep over their axis
        cfg = ExperimentConfig(params=empty, sweep_axis="n", sweep_values=(5, 10))
        assert cfg.points() == [(0, 5), (0, 10)]

    def test_repeated_methods_rejected(self):
        # a repeated method would write each record twice under one key
        with pytest.raises(ConfigError, match=r"repeated: \['lspca'\]"):
            ExperimentConfig(params=ProblemParams(p=4, k=2, lam=1.0, L=2, n=2),
                             methods=("lspca", "top_k_labeled", "lspca"))
        with pytest.raises(ConfigError, match="repeated"):
            config_from_dict(parse_config_text("methods = vanilla_pca, vanilla_pca"))
