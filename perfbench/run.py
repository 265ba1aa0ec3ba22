"""Monte Carlo sweep benchmark for sslgauss.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Untraced (--trace 0): launches the ``sslgauss`` CLI in fresh processes, one
trial per launch, each with its own master seed, until about S seconds of
sweep time are measured; checks every output file; prints the end-to-end
metrics, timings as medians over launches.

Traced (--trace 1): runs one trial three times: through the CLI with the
workload's worker count, then serially inside this process without and with
the layer wrappers of tracing.py. Checks the outputs, checks that serial and
parallel records agree exactly, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Work files go to
``.perfbench_out/`` in the checkout. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402

ALL_METHODS = ("lspca", "ls2pca", "top_k_labeled", "self_train",
               "ul_diag_threshold_pca", "vanilla_pca")

# The process must exit within 180 s; launches are cut at this deadline.
RUN_DEADLINE_S = 165.0
# Set-up-only launches per untraced run, besides the measured launches.
SETUP_PROBES = 3
# Trials per CLI launch and per traced run. One trial takes 5-11 s on every
# workload, so a run makes several launches and reports medians over them;
# one long launch per run read 8-17% apart between seeds on a 2-core machine.
LAUNCH_TRIALS = 1
# A median needs three launches to set one slow launch aside.
MIN_LAUNCHES = 3
RSS_POLL_S = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]   # without --trials, --seed, --threads, --out
    threads: int
    records_per_trial: int
    invariant_methods: tuple[str, ...] = ()


WORKLOADS = {w.name: w for w in (
    # Desk unlabeled sweep: 4 methods x 5 points, one fresh draw per task,
    # so sampling dominates and draw reuse has the most to save.
    Workload(
        name="n_sweep",
        cli_args=("sweep", "--p", "20000", "--alpha", "0.4", "--beta", "0.45",
                  "--lambda", "3", "--methods", "lspca,ls2pca,top_k_labeled,self_train",
                  "--sweep-axis", "n", "--sweep-values", "100,200,400,800,1600"),
        threads=2, records_per_trial=20,
        invariant_methods=("top_k_labeled",)),
    # Acceptance blue-region point with every method: estimator and
    # spectral work is heaviest, and every method reads all p columns.
    Workload(
        name="blue_point",
        cli_args=("simulate", "--p", "20000", "--k", "53", "--L", "157", "--n", "1410",
                  "--lambda", "3", "--beta-tilde", "0.4075",
                  "--methods", ",".join(ALL_METHODS)),
        threads=2, records_per_trial=6),
    # Paper-scale lspca smoke in float32: memory and the sampler set the
    # cost; one draw per trial already; BLAS runs without a process pool.
    Workload(
        name="paper_lspca",
        cli_args=("simulate", "--p", "100000", "--k", "100", "--L", "200", "--n", "4000",
                  "--lambda", "3", "--f32", "--methods", "lspca"),
        threads=1, records_per_trial=1),
)}

END_TO_END_UNITS = {"trials_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s",
                    "ok_frac": "fraction"}


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


def launch_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def cli_argv(wl: Workload, trials: int, seed: int, threads: int, out: Path) -> list[str]:
    return [*wl.cli_args, "--trials", str(trials), "--seed", str(seed),
            "--threads", str(threads), "--out", str(out)]


# ---------------------------------------------------------------------------
# launching the CLI
# ---------------------------------------------------------------------------

def _group_hwm_kb(pgid: int, hwm: dict[int, int]) -> None:
    """Update each live process of the group with its peak RSS (VmHWM)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            if int(fields[2]) != pgid:
                continue
            with open(f"/proc/{entry}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        pid = int(entry)
                        hwm[pid] = max(hwm.get(pid, 0), int(line.split()[1]))
                        break
        except (OSError, IndexError, ValueError):
            continue  # the process ended while being read


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


class Launcher:
    """Runs the CLI through launch.py in its own process group."""

    def __init__(self, root: Path, outdir: Path, deadline: float):
        self.root = root
        self.outdir = outdir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PERFBENCH_SRC=str(root / "src"))

    def __call__(self, argv: list[str], mode: str = "run") -> dict:
        """Return the launch report with ``setup_s``, ``sweep_s`` (run mode)
        and ``peak_rss_mb``: the summed peak RSS of the CLI process and its
        pool workers."""
        self.count += 1
        report = self.outdir / f"launch{self.count}.json"
        log = self.outdir / f"launch{self.count}.log"
        cmd = [sys.executable, str(HERE / "launch.py"), str(report), mode, "--", *argv]
        hwm: dict[int, int] = {}
        with open(log, "w") as out:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                while True:
                    _group_hwm_kb(proc.pid, hwm)
                    try:
                        code = proc.wait(timeout=RSS_POLL_S)
                        break
                    except subprocess.TimeoutExpired:
                        if time.monotonic() > self.deadline:
                            raise BenchError(f"launch {self.count} ran past the deadline; "
                                             f"see {log}") from None
            finally:
                _kill_group(proc.pid)  # pool workers left behind, if any
                proc.wait()
        if not report.exists() or code not in (0, 1):
            raise BenchError(f"CLI exited with code {code}; see {log}")
        marks = json.loads(report.read_text())
        hwm[proc.pid] = max(hwm.get(proc.pid, 0), marks["maxrss_kb"])
        marks["setup_s"] = marks["ready"] - start
        if mode == "run":
            marks["sweep_s"] = marks["done"] - marks["ready"]
        marks["peak_rss_mb"] = sum(hwm.values()) / 1024.0
        return marks


def run_in_process(argv: list[str], log: Path, clock=time.perf_counter) -> float:
    """Call cli.main in this process; return its wall time on `clock`."""
    from sslgauss import cli
    with open(log, "w") as out, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(out):
        start = clock()
        code = cli.main(argv)
        wall = clock() - start
    if code not in (0, 1):
        raise BenchError(f"in-process CLI exited with code {code}; see {log}")
    return wall


# ---------------------------------------------------------------------------
# checking outputs
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    ok: int = 0
    cli_failed: int = 0
    check_failed: int = 0

    def add(self, wl: Workload, csv_path: Path, reasons: list[str],
            extra_bad=frozenset()) -> list[dict]:
        """Check the CSV files of one run of LAUNCH_TRIALS trials; return
        its records."""
        expected = wl.records_per_trial * LAUNCH_TRIALS
        self.attempted += expected
        try:
            records = checks.read_records(csv_path)
            aggregates = checks.read_aggregates(f"{csv_path}.agg.csv")
        except (OSError, ValueError) as err:
            self.check_failed += expected
            reasons.append(f"{csv_path}: {err}")
            return []
        failed, bad, why = checks.check_run(records, aggregates, wl.invariant_methods)
        bad = (bad | set(extra_bad)) - failed
        present = {checks.record_key(r) for r in records}
        missing = max(0, expected - len(present))
        reasons.extend(why)
        if missing:
            reasons.append(f"{csv_path}: {missing} records missing")
        self.cli_failed += len(failed)
        self.check_failed += len(bad) + missing
        self.ok += len(present - failed - bad)
        return records

    @property
    def failed(self) -> int:
        return self.cli_failed + self.check_failed


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment(root: Path, workers: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "pool_workers": workers,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def measure(wl: Workload, seed: int, seconds: float, launcher: Launcher,
            outdir: Path) -> tuple[Tally, dict, list[str], dict]:
    """Untraced run: end-to-end metrics."""
    setups = []
    for _ in range(SETUP_PROBES):
        probe = launcher(cli_argv(wl, 1, seed, wl.threads, outdir / "probe.csv"), "setup")
        setups.append(probe["setup_s"])
    tally, reasons = Tally(), []
    rates, sweep_s, peak_mb, last_s = [], 0.0, 0.0, 0.0
    # stop once another launch would overshoot the target by more than
    # stopping now falls short of it
    while len(rates) < MIN_LAUNCHES or sweep_s + last_s / 2 < seconds:
        csv_path = outdir / f"run{len(rates)}.csv"
        marks = launcher(cli_argv(wl, LAUNCH_TRIALS, launch_seed(wl.name, seed, len(rates)),
                                  wl.threads, csv_path))
        ok_before = tally.ok
        tally.add(wl, csv_path, reasons)
        setups.append(marks["setup_s"])
        last_s = marks["sweep_s"]
        sweep_s += last_s
        rates.append((tally.ok - ok_before) / last_s)
        peak_mb = max(peak_mb, marks["peak_rss_mb"])
    metrics = {
        "trials_per_s": statistics.median(rates),
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setups),
        "ok_frac": tally.ok / tally.attempted,
    }
    info = {"launch_rates": rates, "sweep_s": sweep_s, "setup_samples": setups,
            "failed_frac": tally.failed / tally.attempted}
    return tally, metrics, reasons, info


def traced(wl: Workload, seed: int, launcher: Launcher,
           outdir: Path) -> tuple[Tally, dict, list[str], dict]:
    """Traced run: per-layer metrics, cross-check and tracing overhead."""
    run_seed = launch_seed(wl.name, seed, 0)
    tally, reasons = Tally(), []

    par_csv = outdir / "parallel.csv"
    par = launcher(cli_argv(wl, LAUNCH_TRIALS, run_seed, wl.threads, par_csv))
    par_records = tally.add(wl, par_csv, reasons)

    def untraced_serial() -> float:
        return run_in_process(cli_argv(wl, LAUNCH_TRIALS, run_seed, 1, outdir / "serial.csv"),
                              outdir / "serial.log")

    # untraced runs on both sides of the traced one, so that neither order
    # nor drift favours it
    untraced_s = [untraced_serial()]
    tracer = tracing.Tracer()
    traced_csv = outdir / "traced.csv"
    with tracing.instrument(tracer):
        with tracer.span("cli.main"):
            traced_s = run_in_process(cli_argv(wl, LAUNCH_TRIALS, run_seed, 1, traced_csv),
                                      outdir / "traced.log", clock=tracer.now)
    untraced_s.append(untraced_serial())
    tracer.write(outdir / "spans.jsonl")

    try:
        serial_records = checks.read_records(traced_csv)
    except (OSError, ValueError):
        serial_records = []  # Tally.add below reports the file
    mismatch, why = checks.cross_check(par_records, serial_records)
    reasons.extend(why)
    tally.add(wl, traced_csv, reasons, extra_bad=mismatch)

    self_s = tracer.self_times()
    counters = tracer.counters
    metrics = {
        "harness.draws_per_trial": counters["harness.draws"] / max(1, len(tracer.trials)),
        "harness.run_trial.self_s": self_s.get("harness.run_trial", 0.0),
        "harness.pool_efficiency":
            tracer.total_time("harness.run_trial") / (wl.threads * par["sweep_s"]),
        "gmodel.sample_dataset.calls": tracer.calls("gmodel.sample_dataset"),
        "gmodel.sample_dataset.self_s": self_s.get("gmodel.sample_dataset", 0.0),
        "gmodel.values_drawn": counters["gmodel.values_drawn"],
        "gmodel.bytes_materialized": counters["gmodel.bytes_materialized"],
        "gmodel.make_sparse_mean.self_s": self_s.get("gmodel.make_sparse_mean", 0.0),
        "gmodel.all_vectors.self_s": self_s.get("gmodel.all_vectors", 0.0),
        **{f"estimators.{m}.self_s": self_s.get(f"estimators.{m}", 0.0) for m in ALL_METHODS},
        "spectral.restricted_covariance.calls": tracer.calls("spectral.restricted_covariance"),
        "spectral.restricted_covariance.self_s": self_s.get("spectral.restricted_covariance", 0.0),
        **{f"spectral.{tag}.{part}": (self_s.get(f"spectral.{tag}", 0.0) if part == "self_s"
                                      else counters[f"spectral.{tag}.{part}"])
           for tag in ("power_iteration", "truncated_power")
           for part in ("self_s", "iterations", "restarts", "nonconverged")},
        "spectral.eig_mismatch": counters["spectral.eig_mismatch"],
        "spectral.eig_unchecked": counters["spectral.eig_unchecked"],
        "metrics.score.calls": tracer.calls("metrics.score"),
        "metrics.score.self_s": self_s.get("metrics.score", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "bench.trace_overhead": traced_s / statistics.mean(untraced_s) - 1.0,
    }
    info = {"parallel_sweep_s": par["sweep_s"], "serial_s": untraced_s,
            "traced_s": traced_s, "spans": len(tracer.spans),
            "eig_checked": counters["spectral.eig_checked"],
            "serial_equals_parallel": not mismatch}
    return tally, metrics, reasons, info


PER_LAYER_UNITS = {
    "harness.draws_per_trial": "draws/trial",
    "harness.pool_efficiency": "fraction",
    "gmodel.values_drawn": "count",
    "gmodel.bytes_materialized": "B",
    "bench.trace_overhead": "fraction",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith("self_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "sslgauss" / "cli.py").is_file():
        print(f"error: no sslgauss sources under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    outdir = root / ".perfbench_out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    sys.path.insert(0, str(root / "src"))
    launcher = Launcher(root, outdir, started + RUN_DEADLINE_S)

    try:
        if args.trace:
            tally, metrics, reasons, info = traced(wl, args.seed, launcher, outdir)
        else:
            tally, metrics, reasons, info = measure(wl, args.seed, args.seconds,
                                                    launcher, outdir)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    env = environment(root, wl.threads)
    result = {
        "correct": tally.check_failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    with open(outdir / "result.json", "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                   "env": env, "info": info, "reasons": reasons, **result}, fh, indent=1)
    for reason in reasons[:20]:
        print(f"check failed: {reason}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {unit_of(name)}")
    for name, value in info.items():
        print(f"{name}: {value:.6g}" if isinstance(value, float) else f"{name}: {value}")
    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
