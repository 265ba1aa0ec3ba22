"""Output checks on the CSV files a sweep writes.

Each check names the records it rejects by key (method, L, n, trial). A
record that fails any check, or that the CLI marked failed, counts against
``ok_frac``; only check failures make a run incorrect.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict

# excess_risk = gen_error - phi_c(sqrt(lambda)), with float noise in
# [-1e-12, 0) clamped to 0 by the package
RISK_TOL = 1e-12
# overlap * k must be an integer up to round-off in the division
OVERLAP_TOL = 1e-9
# the .agg.csv means are numpy means; fsum may differ in the last bits
MEAN_REL_TOL = 1e-12
RESULT_FIELDS = ("overlap", "gen_error", "excess_risk")
RECORD_FIELDS = ("method", "k", "lambda", "L", "n", "trial", *RESULT_FIELDS,
                 "runtime_ms", "failed")


def phi_c(t: float) -> float:
    """Upper tail P(Z > t) of the standard normal."""
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def record_key(row: dict) -> tuple:
    return (row["method"], int(row["L"]), int(row["n"]), int(row["trial"]))


def read_records(path) -> list[dict]:
    """Rows of a per-trial CSV; ValueError when a column is missing or a row
    has no valid key."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = set(RECORD_FIELDS) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"{path}: missing columns {sorted(missing)}")
    for row in rows:
        try:
            record_key(row)
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"{path}: malformed record {row}") from None
        if row.get("failed") not in ("0", "1"):
            raise ValueError(f"{path}: malformed failed flag in {row}")
    return rows


def read_aggregates(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def check_record(row: dict) -> str | None:
    """Why a non-failed record is wrong, or None."""
    try:
        k = int(row["k"])
        lam = float(row["lambda"])
        overlap, gen_error, excess = (float(row[f]) for f in RESULT_FIELDS)
        runtime = float(row["runtime_ms"])
    except (KeyError, TypeError, ValueError) as err:
        return f"unparsable record: {err}"
    if not all(math.isfinite(x) for x in (overlap, gen_error, excess, runtime)):
        return "non-finite value"
    if not 0.0 <= overlap <= 1.0:
        return f"overlap {overlap!r} outside [0, 1]"
    if abs(overlap * k - round(overlap * k)) > OVERLAP_TOL:
        return f"overlap {overlap!r} is not a multiple of 1/{k}"
    if excess < 0.0:
        return f"negative excess_risk {excess!r}"
    if abs(excess - (gen_error - phi_c(math.sqrt(lam)))) > RISK_TOL:
        return f"excess_risk {excess!r} != gen_error - phi_c(sqrt(lambda))"
    return None


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= MEAN_REL_TOL * max(abs(a), abs(b)) + 1e-300


def check_aggregates(records: list[dict], aggregates: list[dict]) -> dict[tuple, str]:
    """Recompute counts and means per (method, L, n); return the failing
    groups with the reason."""
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for row in records:
        groups[(row["method"], int(row["L"]), int(row["n"]))].append(row)
    bad: dict[tuple, str] = {}
    seen = set()
    for agg in aggregates:
        try:
            key = (agg["method"], int(agg["L"]), int(agg["n"]))
        except (KeyError, TypeError, ValueError):
            continue  # matches no group, which is then reported below
        seen.add(key)
        rows = groups.get(key)
        if rows is None:
            bad[key] = "aggregate row without records"
            continue
        ok = [r for r in rows if r["failed"] == "0"]
        try:
            if int(agg["count"]) != len(ok) or int(agg["failures"]) != len(rows) - len(ok):
                bad[key] = "aggregate count or failures differ from the records"
                continue
            for field in RESULT_FIELDS:
                want = math.fsum(float(r[field]) for r in ok) / len(ok) if ok else math.nan
                if not _close(float(agg[f"{field}_mean"]), want):
                    bad[key] = f"{field}_mean {agg[f'{field}_mean']} != {want!r}"
                    break
        except (KeyError, TypeError, ValueError) as err:
            bad[key] = f"unparsable aggregate row: {err}"
    for key in groups.keys() - seen:
        bad[key] = "records without an aggregate row"
    return bad


def check_invariant_across_n(records: list[dict], method: str) -> dict[tuple, str]:
    """A labeled-only method must report the same results at every n of a
    trial; return the failing (L, trial) groups."""
    values: dict[tuple, set] = defaultdict(set)
    for row in records:
        if row["method"] == method:
            values[(int(row["L"]), int(row["trial"]))].add(
                tuple(row[f] for f in RESULT_FIELDS))
    return {key: f"{method} differs across n" for key, vals in values.items()
            if len(vals) > 1}


def check_run(records: list[dict], aggregates: list[dict],
              invariant_methods: tuple[str, ...] = ()) -> tuple[set, set, list[str]]:
    """Return (keys the CLI marked failed, keys failing a check, reasons)."""
    failed, bad, reasons = set(), set(), []
    for row in records:
        if row.get("failed") == "1":
            failed.add(record_key(row))
            continue
        why = check_record(row)
        if why:
            bad.add(record_key(row))
            reasons.append(f"{record_key(row)}: {why}")
    for (method, L, n), why in check_aggregates(records, aggregates).items():
        reasons.append(f"aggregate {(method, L, n)}: {why}")
        bad.update(record_key(r) for r in records
                   if (r["method"], int(r["L"]), int(r["n"])) == (method, L, n))
    for method in invariant_methods:
        for (L, trial), why in check_invariant_across_n(records, method).items():
            reasons.append(f"{(method, L, trial)}: {why}")
            bad.update(record_key(r) for r in records if r["method"] == method
                       and (int(r["L"]), int(r["trial"])) == (L, trial))
    return failed, bad, reasons


def cross_check(left: list[dict], right: list[dict]) -> tuple[set, list[str]]:
    """Records of two runs of the same trials must agree exactly on every
    result field; return the differing or unmatched keys."""
    lhs = {record_key(r): tuple(r[f] for f in RESULT_FIELDS) for r in left}
    rhs = {record_key(r): tuple(r[f] for f in RESULT_FIELDS) for r in right}
    bad = {key for key in lhs.keys() | rhs.keys() if lhs.get(key) != rhs.get(key)}
    return bad, [f"{key}: serial and parallel results differ" for key in sorted(bad)]
