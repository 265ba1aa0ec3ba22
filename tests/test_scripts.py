import csv
import json
import pathlib
import runpy
import subprocess

import pytest

from sslgauss.theory import RegionLabel

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_phase_map_grid(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    assert phase_map_main()(["--alpha", "0.4", "--resolution", "5", "--out", str(out)]) == 0
    assert str(out) in capsys.readouterr().out
    header, *rows = list(csv.reader(out.open()))
    # gamma columns at linspace(0, 3, 5), beta rows at linspace(0, 1, 5)
    assert header == ["beta\\gamma", "0.0000", "0.7500", "1.5000", "2.2500", "3.0000"]
    assert [row[0] for row in rows] == ["0.0000", "0.2500", "0.5000", "0.7500", "1.0000"]
    assert all(len(row) == 6 for row in rows)
    labels = {label.value for label in RegionLabel}
    assert all(cell in labels for row in rows for cell in row[1:])
    assert rows[2][3] == RegionLabel.SSL_EASY_BLUE.value   # beta 0.5, gamma 1.5
    assert rows[0][3] == RegionLabel.HARD_ORANGE.value     # beta 0, gamma 1.5


def phase_map_main():
    return runpy.run_path(str(SCRIPTS / "phase_map.py"))["main"]


@pytest.mark.parametrize("resolution", ["0", "-2"])
def test_phase_map_rejects_a_resolution_below_one(tmp_path, capsys, resolution):
    # 0 used to write a header-only CSV, -2 to end in a numpy traceback
    out = tmp_path / "phase.csv"
    with pytest.raises(SystemExit) as exc:
        phase_map_main()(["--resolution", resolution, "--out", str(out)])
    assert exc.value.code == 2
    assert "--resolution" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [("--alpha", "0.6"), ("--beta-max", "-1")])
def test_phase_map_reports_a_domain_error(tmp_path, capsys, flag):
    # alpha = 0.6 used to end in a ContractError traceback after the header
    # was written
    out = tmp_path / "phase.csv"
    assert phase_map_main()([*flag, "--resolution", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def bench_record_main():
    return runpy.run_path(str(SCRIPTS / "bench_record.py"))["main"]


def test_bench_record_appends_a_correct_result(tmp_path):
    # a stubbed runner: the benchmark itself never runs
    calls = []
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"trials_per_s": {"value": 1.5, "unit": "1/s"}}}

    def run(root, workload, seed):
        calls.append((root, workload, seed))
        return "trials_per_s: 1.5 1/s\n" + json.dumps(result) + "\n"

    main = bench_record_main()
    for seed in (4, 5):
        assert main(["--workload", "blue_point", "--seed", str(seed), "--root", str(tmp_path)],
                    run=run, facts=lambda root: ("abc123", 2262), out_dir=tmp_path) == 0
    assert calls == [(tmp_path, "blue_point", 4), (tmp_path, "blue_point", 5)]
    entries = json.loads((tmp_path / "BENCH_blue_point.json").read_text())
    assert entries == [{"commit": "abc123", "src_lines": 2262, "workload": "blue_point",
                        "seed": seed, "seconds": 30.0, "result": result} for seed in (4, 5)]


@pytest.mark.parametrize("stdout", ["", "trials_per_s: 1.5 1/s\n", json.dumps({"correct": False}),
                                    "[1, 2]"])
def test_bench_record_appends_nothing_without_a_correct_result(tmp_path, capsys, stdout):
    bench = tmp_path / "BENCH_n_sweep.json"
    bench.write_text("[]\n")
    main = bench_record_main()
    assert main(["--workload", "n_sweep", "--seed", "1"],
                run=lambda *args: stdout, facts=lambda root: ("abc123", 1),
                out_dir=tmp_path) == 1
    assert "nothing recorded" in capsys.readouterr().err
    assert bench.read_text() == "[]\n"


def test_bench_record_names_the_head_commit(tmp_path):
    facts = runpy.run_path(str(SCRIPTS / "bench_record.py"))["checkout_facts"]
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\n")
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "."], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "a"], check=True)
    subprocess.run([*git, "tag", "v1"], check=True)  # a tag does not change the name
    head = subprocess.run([*git, "rev-parse", "HEAD"], stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()
    assert facts(tmp_path) == (head, 2)
    (tmp_path / "b.txt").write_text("")
    assert facts(tmp_path) == (head + "-dirty", 2)


def test_bench_record_reports_a_root_outside_git(tmp_path, capsys):
    def run(*args):
        raise AssertionError("the benchmark ran")

    assert bench_record_main()(["--workload", "n_sweep", "--seed", "1", "--root", str(tmp_path)],
                               run=run, out_dir=tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a git checkout" in err
    assert not (tmp_path / "BENCH_n_sweep.json").exists()
