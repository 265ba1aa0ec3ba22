"""Shared pytest plumbing: collects acceptance-criterion report lines and
echoes them in the terminal summary so they are visible in every run mode;
builds the dense mean vector the tests compare against, and datasets of
plain unlabeled rows; holds the oracles that several test files share."""

import itertools
import math

import numpy as np

from sslgauss.gmodel import Dataset

ACCEPTANCE_LINES: list = []


def record_acceptance_line(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def dense_mean(mu) -> np.ndarray:
    """The sparse mean as a dense float64 length-p vector."""
    dense = np.zeros(mu.p)
    dense[list(mu.support)] = np.asarray(mu.signs, dtype=np.float64) * mu.magnitude
    return dense


def unlabeled_only(rows: np.ndarray) -> Dataset:
    """A dataset of the rows alone: no labeled pairs."""
    return Dataset(np.empty((0, rows.shape[1])), np.empty(0, np.int8), rows)


def strip_runtime(csv_text: str) -> str:
    """Per-trial CSV text without its runtime_ms column."""
    out = []
    for line in csv_text.strip().splitlines():
        cells = line.split(",")
        del cells[11]  # runtime_ms column
        out.append(",".join(cells))
    return "\n".join(out)


def brute_force_mle_support(w: np.ndarray, k: int, lam: float) -> set[int]:
    """Oracle: maximize <w, mu'> over all (support, signs) candidate means."""
    p = w.size
    mag = math.sqrt(lam / k)
    best, best_support = -np.inf, None
    for support in itertools.combinations(range(p), k):
        for signs in itertools.product((-1.0, 1.0), repeat=k):
            val = mag * sum(s * w[j] for j, s in zip(support, signs))
            if val > best:
                best, best_support = val, set(support)
    return best_support
