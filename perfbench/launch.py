"""Run the sslgauss CLI in this process as its console script does, and
report when the sweep starts and ends.

Usage: python launch.py REPORT {run,setup} -- CLI-ARGS...

REPORT receives a JSON object with ``ready`` and ``done`` (time.monotonic()
at entry to and exit from ``harness.run_sweep``; the clock is shared by all
processes of the machine), ``exit_code`` and ``maxrss_kb`` of this process.
With ``setup`` the process stops at ``ready``, before any trial runs.
"""

import json
import os
import resource
import sys
import time


class _SetupDone(BaseException):
    """Unwinds cli.main at the start of the sweep; not an SslgaussError, so
    the CLI's own handlers let it through."""


def main(argv: list[str]) -> int:
    report_path, mode, sep, *cli_args = argv
    if mode not in ("run", "setup") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    from sslgauss import cli, harness

    expected = os.environ.get("PERFBENCH_SRC")
    if expected and not os.path.realpath(cli.__file__).startswith(os.path.realpath(expected)):
        print(f"error: imported sslgauss from {cli.__file__}, not from {expected}",
              file=sys.stderr)
        return 2
    marks: dict = {}
    run_sweep = harness.run_sweep

    def timed_run_sweep(config, threads=None):
        marks["ready"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        try:
            return run_sweep(config, threads)
        finally:
            marks["done"] = time.monotonic()

    harness.run_sweep = timed_run_sweep
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    marks["exit_code"] = code
    marks["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(report_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
