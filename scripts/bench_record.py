#!/usr/bin/env python3
"""Run one untraced benchmark workload and append its result to the trajectory.

Runs `perfbench/run.py --workload W --seed S --seconds 30 --trace 0` in the
source checkout at --root (default: this one) and appends
{commit, src_lines, workload, seed, seconds, result} to BENCH_<W>.json at
the root of this repository, where `result` is the run's last-line JSON
and `commit` is the measured checkout's HEAD (with -dirty when it has
uncommitted changes). Every entry runs for SECONDS, so the entries of one
trajectory compare. A run without a JSON last line, or whose result is not
correct, or a --root that is not a git checkout, appends nothing and
exits 1.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SECONDS = 30.0


def run_benchmark(root: Path, workload: str, seed: int) -> str:
    """The benchmark's stdout; its stderr passes through."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    return subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True).stdout


def checkout_facts(root: Path) -> tuple[str, int]:
    """The checkout's commit and the line count of its src/ Python files;
    CalledProcessError when root is not a git checkout."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=True).stdout

    commit = git("rev-parse", "HEAD").strip() + ("-dirty" if git("status", "--porcelain") else "")
    lines = sum(len(f.read_text().splitlines()) for f in sorted((root / "src").rglob("*.py")))
    return commit, lines


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main(argv=None, run=run_benchmark, facts=checkout_facts, out_dir: Path = REPO) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", type=Path, default=REPO)
    args = ap.parse_args(argv)

    root = args.root.resolve()
    try:
        commit, src_lines = facts(root)  # before the run
    except subprocess.CalledProcessError:
        print(f"error: {root} is not a git checkout; nothing recorded", file=sys.stderr)
        return 1
    result = last_json(run(root, args.workload, args.seed))
    if not isinstance(result, dict) or result.get("correct") is not True:
        print(f"error: the {args.workload} run gave no correct result; nothing recorded",
              file=sys.stderr)
        return 1
    path = out_dir / f"BENCH_{args.workload}.json"
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append({"commit": commit, "src_lines": src_lines, "workload": args.workload,
                    "seed": args.seed, "seconds": SECONDS, "result": result})
    path.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"appended to {path}: trials_per_s "
          f"{result['metrics'].get('trials_per_s', {}).get('value')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
