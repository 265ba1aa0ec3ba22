"""The draw threads are one pool per process.

Every striped draw (labeled rows, unlabeled columns and tiles, the class
sums' chunks) runs on one pool of the process's draw threads, built on first
use and rebuilt only when the thread count changes or in a forked child. A
call returns or raises only once every one of its stripes has finished.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from conftest import strip_runtime
from sslgauss import gmodel, harness
from sslgauss.gmodel import ProblemParams, make_sparse_mean, sample_dataset
from sslgauss.harness import ExperimentConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def draw_everything(seed: int) -> list[bytes]:
    """A draw's labeled and unlabeled blocks, some columns, its tiles and a
    trial's class sums, as bytes."""
    mu = make_sparse_mean(ProblemParams(p=500, k=5, lam=3.0, L=30, n=40), seed=seed)
    ds = sample_dataset(mu, 30, 40, seed=seed)
    tiles = []
    ds.unlabeled_tiles(lambda lo, tile: tiles.append((lo, tile.tobytes())))
    got = [ds.labeled_rows(3, 30).tobytes(), ds.unlabeled_columns([0, 7, 499]).tobytes(),
           *(t for _, t in sorted(tiles)), ds.labeled_x.tobytes(), ds.unlabeled_x.tobytes()]
    config = ExperimentConfig(params=ProblemParams(p=500, k=5, lam=3.0, L=30, n=40, seed=seed),
                              methods=("top_k_labeled", "self_train"), trials=1)
    records = harness._run_trial_task((config, 0))
    return got + [strip_runtime("\n".join(rec.csv_row() for rec in records))]


def test_one_pool_serves_every_draw(monkeypatch, draw_pools):
    # a small budget cuts every read into many chunks and tiles; each
    # striped call used to start and join a pool of its own
    monkeypatch.setattr(gmodel, "_draw_threads", lambda: 2)
    monkeypatch.setattr(gmodel, "_DRAW_BYTES", 2 * 40 * 8)
    for seed in range(3):
        draw_everything(seed)
    assert [pool.threads for pool in draw_pools] == [2]


def test_pool_is_rebuilt_when_the_thread_count_changes(monkeypatch, draw_pools):
    monkeypatch.setattr(gmodel, "_DRAW_BYTES", 2 * 40 * 8)
    draws = []
    for threads in (2, 3, 3, 1, 2):
        monkeypatch.setattr(gmodel, "_draw_threads", lambda threads=threads: threads)
        draws.append(draw_everything(0))
    # one draw thread draws on the calling thread and leaves the pool alone
    assert [pool.threads for pool in draw_pools] == [2, 3, 2]
    assert all(d == draws[0] for d in draws)
    # a replaced pool is shut down; the live one takes work
    for pool in draw_pools[:2]:
        with pytest.raises(RuntimeError):
            pool.submit(int)
    assert draw_pools[2].submit(int, 4).result() == 4


def test_failing_stripe_raises_after_every_stripe_finishes(monkeypatch, draw_pools):
    monkeypatch.setattr(gmodel, "_draw_threads", lambda: 2)
    started, raised, finished = threading.Event(), threading.Event(), threading.Event()

    def stripe(first: int, step: int) -> None:
        if first == 0:
            assert started.wait(10)
            raised.set()
            raise ValueError("stripe 0")
        started.set()
        assert raised.wait(10)
        time.sleep(0.2)  # still running when stripe 0 has raised
        finished.set()

    with pytest.raises(ValueError, match="stripe 0"):
        gmodel._on_draw_threads(2, stripe)
    assert finished.is_set()
    # the pool survives a failed call
    done = []
    gmodel._on_draw_threads(5, lambda first, step: done.extend(range(first, 5, step)))
    assert sorted(done) == list(range(5))
    assert len(draw_pools) == 1


def test_pool_workers_after_the_parent_drew(tmp_path):
    # a forked pool worker inherits its parent's pool object but none of its
    # threads: reusing it would hang the worker's first draw. The timeout
    # turns such a hang into a failure.
    script = textwrap.dedent("""
        from dataclasses import replace
        from sslgauss import gmodel
        from sslgauss.gmodel import ProblemParams, make_sparse_mean, sample_dataset
        from sslgauss.harness import ExperimentConfig, run_sweep

        gmodel._draw_threads = lambda: 2  # two draw threads whatever the cores
        mu = make_sparse_mean(ProblemParams(p=500, k=5, lam=3.0, L=30, n=40), seed=1)
        sample_dataset(mu, 30, 40, seed=1).labeled_x
        assert gmodel._pool is not None
        config = ExperimentConfig(
            params=ProblemParams(p=2000, k=10, lam=3.0, L=40, n=100, seed=5),
            methods=("lspca", "top_k_labeled", "self_train"), trials=2,
            sweep_axis="n", sweep_values=(50, 100))
        pooled, _ = run_sweep(replace(config, threads=2))
        serial, _ = run_sweep(config)

        def stripped(records):
            rows = [r.csv_row().split(",") for r in records]
            for row in rows:
                del row[11]  # runtime_ms
            return rows

        assert stripped(pooled) == stripped(serial) and len(serial) == 12
        print("ok")
    """)
    # its own session, so that a hang's pool workers are killed with it
    proc = subprocess.Popen([sys.executable, "-c", script], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 0 and out.strip() == "ok", err
