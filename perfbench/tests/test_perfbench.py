"""Tests of the benchmark itself, on a tiny problem (p = 200).

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402

TINY = dataclasses.replace(
    run.WORKLOADS["n_sweep"], name="tiny",
    cli_args=("sweep", "--p", "200", "--alpha", "0.4", "--beta", "0.45", "--lambda", "3",
              "--methods", ",".join(run.ALL_METHODS),
              "--sweep-axis", "n", "--sweep-values", "20,40"),
    records_per_trial=12)


def _spec_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A working directory that sees the package sources, with the tiny
    workload registered."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    return tmp_path


def _run(capsys, trace: int) -> dict:
    code = run.main(["--workload", TINY.name, "--seed", "7", "--seconds", "0.5",
                     "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(checkout, capsys, trace, section):
    result = _run(capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = _spec_units(section)
    assert list(result["metrics"]) == list(units)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert metric["unit"] == units[name], name
    if trace:
        from sslgauss import gmodel, harness
        assert harness.sample_dataset is gmodel.sample_dataset  # wrappers removed
        assert result["metrics"]["harness.draws_per_trial"]["value"] == 12
        assert (checkout / ".perfbench_out" / "tiny-seed7-trace1" / "spans.jsonl").stat().st_size


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "n_sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


@pytest.fixture(scope="module")
def tiny_output(tmp_path_factory):
    """Per-trial and aggregate CSV of a tiny sweep, as the CLI writes them."""
    from sslgauss.cli import main as cli_main
    out = tmp_path_factory.mktemp("tiny") / "tiny.csv"
    argv = run.cli_argv(TINY, 3, 11, 1, out)
    assert cli_main(argv) == 0
    return checks.read_records(out), checks.read_aggregates(f"{out}.agg.csv")


def _corrupt(rows, index, **changes):
    rows = [dict(r) for r in rows]
    rows[index].update(changes)
    return rows


def test_clean_output_passes(tiny_output):
    records, aggregates = tiny_output
    assert checks.check_run(records, aggregates, ("top_k_labeled",)) == (set(), set(), [])


@pytest.mark.parametrize("field,value", [
    ("overlap", lambda r: repr(float(r["overlap"]) + 0.5 / int(r["k"]))),
    ("overlap", lambda r: "1.25"),
    ("gen_error", lambda r: repr(float(r["gen_error"]) + 1e-9)),
    ("excess_risk", lambda r: "-0.001"),
    ("excess_risk", lambda r: "nan"),
    ("runtime_ms", lambda r: "inf"),
])
def test_corrupted_record_fails(tiny_output, field, value):
    records, aggregates = tiny_output
    index = next(i for i, r in enumerate(records) if r["method"] == "lspca")
    bad_rows = _corrupt(records, index, **{field: value(records[index])})
    failed, bad, reasons = checks.check_run(bad_rows, aggregates)
    assert checks.record_key(records[index]) in bad and reasons and not failed


def test_top_k_differing_across_n_fails(tiny_output):
    records, aggregates = tiny_output
    index = next(i for i, r in enumerate(records)
                 if r["method"] == "top_k_labeled" and r["n"] == "40")
    bad_rows = _corrupt(records, index, gen_error=repr(float(records[index]["gen_error"]) * 2))
    # the aggregate mean no longer matches either; check the invariant alone
    assert checks.check_invariant_across_n(bad_rows, "top_k_labeled")


def test_aggregate_mismatch_fails(tiny_output):
    records, aggregates = tiny_output
    aggs = _corrupt(aggregates, 0, overlap_mean=repr(float(aggregates[0]["overlap_mean"]) + 0.01))
    failed, bad, reasons = checks.check_run(records, aggs)
    assert bad and any("aggregate" in why for why in reasons)


def test_cross_check_finds_differing_record(tiny_output):
    records, _ = tiny_output
    assert checks.cross_check(records, records) == (set(), [])
    changed = _corrupt(records, 2, excess_risk=repr(float(records[2]["excess_risk"]) + 1e-15))
    bad, _ = checks.cross_check(records, changed)
    assert bad == {checks.record_key(records[2])}


@pytest.mark.parametrize("text", ["", "method,L\nlspca,x\n", "garbage"])
def test_unreadable_output_counts_every_record_failed(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    (tmp_path / "bad.csv.agg.csv").write_text("")
    tally, reasons = run.Tally(), []
    assert tally.add(TINY, path, reasons) == []
    assert tally.check_failed == tally.attempted == TINY.records_per_trial and reasons
