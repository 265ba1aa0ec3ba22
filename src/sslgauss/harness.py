"""Monte Carlo experiment orchestration.

Runs M independent trials, each with a freshly drawn sparse mean and
dataset, scores every (method, sweep point) of a trial with the closed-form
metrics, and persists plot-ready CSV. Trial seeds depend only on (master
seed, trial index), so all methods and sweep points of a trial share the
same data, and parallel execution is bit-identical to serial.

The trial is the unit of work: a trial draws its data once, at the sweep's
largest (L, n), and serves every point from prefix slices of that draw,
which the prefix stability of the sampler makes exact. With threads > 1
trials run in worker processes, each holding one draw at a time and
drawing on its share of the usable cores.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .estimators import METHODS, READS_WHOLE_BLOCKS
from .gmodel import (Dataset, ProblemParams, SparseMean, check_magnitude, k_from_alpha,
                     labeled_count, make_sparse_mean, sample_dataset, share_cores, unlabeled_count)
from .metrics import score
from .rng import mix64

STREAM_TRIAL = 0x54
STREAM_MEAN = 0x55
STREAM_DATA = 0x56

CSV_HEADER = "method,p,k,lambda,L,n,trial,seed,overlap,gen_error,excess_risk,runtime_ms,failed"
AGG_HEADER = ("method,L,n,count,failures,overlap_mean,overlap_std,"
              "gen_error_mean,gen_error_std,excess_risk_mean,excess_risk_std")
AGG_COMMENT = "# aggregates over non-failed trials; std is the sample standard deviation (ddof=1)"

SWEEP_AXES = ("L", "n")


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: base problem, optional sweep, methods, trial count."""

    params: ProblemParams
    methods: tuple[str, ...] = ("lspca",)
    trials: int = 50
    sweep_axis: str | None = None
    sweep_values: tuple[int, ...] = ()
    gamma_threshold: float = 0.8
    beta_tilde: float | str = "auto"
    out_path: str | None = None
    f32: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.sweep_axis is not None:
            if self.sweep_axis not in SWEEP_AXES:
                raise ConfigError(f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
            if not self.sweep_values:
                raise ConfigError("sweep_axis given but sweep_values is empty")
            vals = list(self.sweep_values)
            if any(v < 0 for v in vals):
                raise ConfigError("sweep values must be nonnegative")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ConfigError("sweep values must be strictly increasing")
        elif self.sweep_values:
            raise ConfigError("sweep_values given without sweep_axis")
        if (0, 0) in self.points():
            raise ConfigError("grid point (L, n) = (0, 0) has no samples; "
                              "every point needs L + n >= 1")
        if not self.methods:
            raise ConfigError("at least one method is required")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; registered: {sorted(METHODS)}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ConfigError(f"methods repeated: {repeated}")
        if self.beta_tilde != "auto" and not 0.0 < float(self.beta_tilde) < 1.0:
            raise ConfigError(f"beta_tilde must be 'auto' or in (0, 1), got {self.beta_tilde}")
        if not 0 <= self.gamma_threshold < math.inf:
            raise ConfigError(f"Gamma must be finite and nonnegative, got {self.gamma_threshold}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.f32:  # before any draw, which would store inf
            check_magnitude(math.sqrt(self.params.lam / self.params.k), np.float32)

    def points(self) -> list[tuple[int, int]]:
        """(L, n) pairs covered by the sweep (a single pair when no sweep)."""
        if self.sweep_axis is None:
            return [(self.params.L, self.params.n)]
        if self.sweep_axis == "n":
            return [(self.params.L, v) for v in self.sweep_values]
        return [(v, self.params.n) for v in self.sweep_values]


@dataclass(frozen=True)
class TrialRecord:
    method: str
    p: int
    k: int
    lam: float
    L: int
    n: int
    trial: int
    seed: int
    overlap: float
    gen_error: float
    excess_risk: float
    runtime_ms: float
    failed: bool
    error: str = ""  # not persisted in the CSV

    def csv_row(self) -> str:
        cells = [self.method, str(self.p), str(self.k), repr(float(self.lam)),
                 str(self.L), str(self.n), str(self.trial), str(self.seed),
                 repr(float(self.overlap)), repr(float(self.gen_error)),
                 repr(float(self.excess_risk)), repr(float(self.runtime_ms)),
                 "1" if self.failed else "0"]
        return ",".join(cells)


def trial_seed(config: ExperimentConfig, trial_index: int) -> int:
    return mix64(config.params.seed, STREAM_TRIAL, trial_index)


def trial_ground_truth(config: ExperimentConfig, trial_index: int
                       ) -> tuple[SparseMean, Dataset]:
    """Mean and dataset of one trial, drawn at the config's largest (L, n):
    the draw the sweep makes, whose prefixes are its grid points. Both
    depend only on (master seed, trial index) and the config's problem. The
    dataset's grid is the config's points, which self_train serves in one
    pass. The rows are drawn as estimators read them, except that both
    blocks are drawn here whole when a configured method reads them
    (READS_WHOLE_BLOCKS): the labeled class sums and self_train's tile pass
    then read the blocks instead of drawing their rows a second time."""
    points = config.points()
    pp = replace(config.params, L=max(L for L, _ in points), n=max(n for _, n in points))
    seed = trial_seed(config, trial_index)
    mu = make_sparse_mean(pp, seed=mix64(seed, STREAM_MEAN))
    dtype = np.float32 if config.f32 else np.float64
    ds = sample_dataset(mu, pp.L, pp.n, seed=mix64(seed, STREAM_DATA), dtype=dtype)
    ds.grid = tuple(points)
    if READS_WHOLE_BLOCKS.intersection(config.methods):
        ds.labeled_x, ds.unlabeled_x
    return mu, ds


@functools.lru_cache(maxsize=1)
def _draw(config: ExperimentConfig, trial_index: int) -> tuple[SparseMean, Dataset]:
    """One trial's draw, memoized so that every point of the trial slices it.
    lru_cache calls this only on a miss and would evict the old entry after
    the new draw is made, so the old one is dropped first: one draw is held
    at a time. _run_trial_task clears the cache after each trial."""
    _draw.cache_clear()
    return trial_ground_truth(config, trial_index)


def run_trial(config: ExperimentConfig, method: str, point: tuple[int, int],
              trial_index: int) -> TrialRecord:
    """One estimator on the trial's draw, sliced to the grid point; any
    exception the estimator or the scoring raises is recorded in the row,
    not raised."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if point not in config.points():
        raise ConfigError(f"point {point} is not on the config's grid {config.points()}")
    L, n = point
    pp = replace(config.params, L=L, n=n)
    mu, ds = _draw(config, trial_index)
    ds = ds.prefix(L, n)
    error = ""
    start = time.perf_counter()
    try:
        est = METHODS[method](ds, pp, config.beta_tilde, config.gamma_threshold)
        runtime_ms = (time.perf_counter() - start) * 1e3
        overlap, gen_error, excess = score(mu, est.support, est.direction)
    except Exception as err:  # one failing estimator must not end the sweep
        runtime_ms = (time.perf_counter() - start) * 1e3
        overlap = gen_error = excess = math.nan
        error = f"{type(err).__name__}: {err}"
    return TrialRecord(method=method, p=pp.p, k=pp.k, lam=pp.lam, L=L, n=n,
                       trial=trial_index, seed=trial_seed(config, trial_index),
                       overlap=overlap, gen_error=gen_error, excess_risk=excess,
                       runtime_ms=runtime_ms, failed=bool(error), error=error)


def _run_trial_task(task) -> list[TrialRecord]:
    """Every (point, method) of one trial, from one draw."""
    config, trial_index = task
    try:
        return [run_trial(config, method, point, trial_index)
                for point in config.points() for method in config.methods]
    finally:
        _draw.cache_clear()


@dataclass(frozen=True)
class AggregateRow:
    method: str
    L: int
    n: int
    count: int
    failures: int
    overlap_mean: float
    overlap_std: float
    gen_error_mean: float
    gen_error_std: float
    excess_risk_mean: float
    excess_risk_std: float

    def csv_row(self) -> str:
        return ",".join([self.method, str(self.L), str(self.n), str(self.count),
                         str(self.failures)] +
                        [repr(float(x)) for x in (self.overlap_mean, self.overlap_std,
                                                  self.gen_error_mean, self.gen_error_std,
                                                  self.excess_risk_mean, self.excess_risk_std)])


def _mean_std(values: list[float]) -> tuple[float, float]:
    if not values:
        return math.nan, math.nan
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else math.nan
    return mean, std


def aggregate(records: list[TrialRecord]) -> list[AggregateRow]:
    """Mean and unbiased std per (method, point), failures excluded and counted."""
    groups: dict[tuple[str, int, int], list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault((rec.method, rec.L, rec.n), []).append(rec)
    rows = []
    for (method, L, n), recs in sorted(groups.items()):
        ok = [r for r in recs if not r.failed]
        o_mean, o_std = _mean_std([r.overlap for r in ok])
        g_mean, g_std = _mean_std([r.gen_error for r in ok])
        e_mean, e_std = _mean_std([r.excess_risk for r in ok])
        rows.append(AggregateRow(method=method, L=L, n=n, count=len(ok),
                                 failures=len(recs) - len(ok),
                                 overlap_mean=o_mean, overlap_std=o_std,
                                 gen_error_mean=g_mean, gen_error_std=g_std,
                                 excess_risk_mean=e_mean, excess_risk_std=e_std))
    return rows


def run_sweep(config: ExperimentConfig, _forwarded: None = None
              ) -> tuple[list[TrialRecord], list[AggregateRow]]:
    """Execute trials x points x methods, one task per trial, on
    config.threads worker processes; results do not depend on the worker
    count (records are merged under a deterministic sort key).

    The second argument is only a slot for perfbench's launcher, which
    forwards a None there; anything else is refused."""
    if _forwarded is not None:
        raise ConfigError("run_sweep takes its worker count from config.threads")
    workers = min(config.threads, config.trials)
    tasks = [(config, t) for t in range(config.trials)]
    if workers > 1:
        # imported here: it pulls in multiprocessing, which a serial run
        # does not need
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=share_cores,
                                 initargs=(workers,)) as pool:
            per_trial = list(pool.map(_run_trial_task, tasks, chunksize=1))
    else:
        per_trial = [_run_trial_task(t) for t in tasks]
    records = [rec for recs in per_trial for rec in recs]
    records.sort(key=lambda r: (r.method, r.L, r.n, r.trial))
    return records, aggregate(records)


def write_csv(records: list[TrialRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def write_aggregates(rows: list[AggregateRow], path) -> None:
    with open(path, "w") as fh:
        fh.write(AGG_COMMENT + "\n")
        fh.write(AGG_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")


# ---------------------------------------------------------------------------
# experiment keys: one table drives config files and the CLI's flags
# ---------------------------------------------------------------------------

def _items(value) -> list[str]:
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return [part.strip() for part in str(value).split(",") if part.strip()]


# Converters take a flag's or a config file's text, or an already typed value,
# and raise ValueError on bad input; their names appear in argparse's errors.

def switch(value) -> bool:
    text = str(value).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {value!r}")


def names(value) -> tuple[str, ...]:
    return tuple(_items(value))


def integers(value) -> tuple[int, ...]:
    return tuple(int(v) for v in _items(value))


def screening(value) -> float | str:
    return value if value == "auto" else float(value)


def axis(value) -> str:
    if value not in SWEEP_AXES:
        raise ValueError(f"expected one of {SWEEP_AXES}, got {value!r}")
    return value


# key -> (converter, default, help). A key's CLI flag is "--" + key with "_"
# spelled "-"; sweep_* keys are flags of `sweep` only. Raw counts and their
# exponent forms (_EXCLUSIVE_GROUPS) exclude each other.
KEYS = {
    "p": (int, 100000, "ambient dimension"),
    "k": (int, None, "sparsity (group: k | alpha)"),
    "alpha": (float, 0.4, "sparsity exponent, k = floor(c1 * p**alpha)"),
    "L": (int, 200, "labeled count (group: L | beta)"),
    "beta": (float, None, "labeled exponent, L = floor(2 beta k log(p-k)/lambda)"),
    "n": (int, 1000, "unlabeled count (group: n | gamma)"),
    "gamma": (float, None, "unlabeled exponent, n = floor(c2 * k**gamma / lambda**2)"),
    "c1": (float, 1.0, "prefactor for k"),
    "c2": (float, 1.0, "prefactor for n"),
    "lambda": (float, 3.0, "separation ||mu||^2"),
    "methods": (names, tuple(METHODS), "comma-separated method tags"),
    "trials": (int, 50, "Monte Carlo trials M"),
    "seed": (int, 1729, "master seed"),
    "Gamma": (float, 0.8, "self-training confidence threshold"),
    "beta_tilde": (screening, "auto", "screening factor in (0,1) or 'auto'"),
    "out": (str, None, "per-trial CSV output path"),
    "threads": (int, 1, "worker processes"),
    "f32": (switch, False, "store datasets in float32 (metrics stay float64)"),
    "sweep_axis": (axis, None, "grid axis: n or L"),
    "sweep_values": (integers, (), "comma-separated strictly increasing grid values"),
}

_EXCLUSIVE_GROUPS = (("k", "alpha"), ("L", "beta"), ("n", "gamma"))


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse the flat key=value format into a string-valued dict."""
    out: dict = {}
    unknown = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key not in KEYS:
            unknown.append(f"{key} (line {lineno})")
            continue
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    if unknown:
        raise ConfigError(f"{source}: unknown keys: {', '.join(unknown)}")
    return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Resolve a (string-valued or typed) key mapping into an ExperimentConfig.

    Raw counts and exponent forms are mutually exclusive per parameter group
    (k|alpha, L|beta, n|gamma); groups can mix forms with each other.
    """
    for a, b in _EXCLUSIVE_GROUPS:
        if a in raw and b in raw:
            raise ConfigError(f"keys {a!r} and {b!r} are mutually exclusive")
    unknown = [key for key in raw if key not in KEYS]
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")
    v = {}
    for key, (convert, default, _) in KEYS.items():
        try:
            v[key] = convert(raw[key]) if key in raw else default
        except (TypeError, ValueError) as err:
            raise ConfigError(f"key {key!r}: {err}") from None

    p, lam = v["p"], v["lambda"]
    k = v["k"] if v["k"] is not None else k_from_alpha(p, v["alpha"], v["c1"])
    L = v["L"] if v["beta"] is None else labeled_count(p, k, v["beta"], lam)
    n = v["n"] if v["gamma"] is None else unlabeled_count(k, v["gamma"], lam, v["c2"])
    return ExperimentConfig(
        params=ProblemParams(p=p, k=k, lam=lam, L=L, n=n, seed=v["seed"]),
        methods=v["methods"], trials=v["trials"], sweep_axis=v["sweep_axis"],
        sweep_values=v["sweep_values"], gamma_threshold=v["Gamma"],
        beta_tilde=v["beta_tilde"], out_path=v["out"], f32=v["f32"],
        threads=v["threads"])


# ExperimentConfig and ProblemParams spell three keys differently; the
# exponent forms and their prefactors are resolved to counts and not kept.
_ATTRIBUTES = {"lambda": "lam", "Gamma": "gamma_threshold", "out": "out_path"}
_RESOLVED_AWAY = ("alpha", "beta", "gamma", "c1", "c2")


def config_items(config: ExperimentConfig) -> list[tuple[str, str]]:
    """(key, text) for every key of KEYS that the config holds, in table
    order, with counts in place of exponents and unset keys left out; each
    text converts back to the same value through the key's converter."""
    items = []
    for key in KEYS:
        if key in _RESOLVED_AWAY:
            continue
        name = _ATTRIBUTES.get(key, key)
        owner = config.params if hasattr(config.params, name) else config
        value = getattr(owner, name)
        if value is not None and value != ():
            items.append((key, ", ".join(map(str, value)) if isinstance(value, tuple)
                          else str(value)))
    return items
