"""Shared pytest plumbing: collects acceptance-criterion report lines and
echoes them in the terminal summary so they are visible in every run mode;
builds the dense mean vector the tests compare against."""

import numpy as np

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
