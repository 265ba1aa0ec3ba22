"""In-memory span tracer and the wrappers that feed it.

Layers are measured from outside the package: each wrapper replaces a public
name in the module that calls it (for example ``harness.sample_dataset``,
which ``trial_ground_truth`` looks up at call time), records a span around
the call and restores the original name on exit. The package itself is not
modified.

A span is (name, start, end, parent, trial). The trial index is the request
id: every span opened inside ``harness.run_trial`` carries it.

Work done for the benchmark's own checks (the ``np.linalg.eigh`` reference
behind ``spectral.eig_mismatch``) runs with the clock paused, so it shows in
no span and in no wall time read from the tracer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

# A solve "falls short" when its Rayleigh value is below the largest
# eigenvalue by more than this share of that eigenvalue. Power iteration
# stops on a residual of 1e-9 (1e-6 for float32 data), and the Rayleigh
# error is of the order of the residual squared, so a correct solve stays
# far inside this margin.
EIG_REL_TOL = 1e-6
# Solves on larger matrices are counted in spectral.eig_unchecked instead:
# a dense eigh at the paper-scale screening size (about 8200) would take
# longer than the whole trial.
EIG_MAX_DIM = 2500


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: Counter = Counter()
        self.trials: set[int] = set()
        self._stack: list[int] = []
        self._paused = 0.0
        self._trial = -1

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-only work off the clock."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - start

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, self.now(), 0.0, parent, self._trial))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent_, trial = self.spans[index]
            self.spans[index] = (name_, start, self.now(), parent_, trial)

    def set_trial(self, trial: int) -> None:
        self._trial = trial
        self.trials.add(trial)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            totals[name] += end - start
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return dict(totals)

    def total_time(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, start, end, parent, trial) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "trial": trial}) + "\n")


def _rayleigh_reference(tracer: Tracer, operator, value: float) -> None:
    """Count a power-iteration solve whose Rayleigh value falls short of the
    largest eigenvalue that np.linalg.eigh finds on the same matrix."""
    dim = operator.dim if hasattr(operator, "dim") else np.shape(operator)[0]
    if dim > EIG_MAX_DIM:
        tracer.counters["spectral.eig_unchecked"] += 1
        return
    with tracer.paused():
        matrix = operator.matrix() if hasattr(operator, "matrix") else np.asarray(operator)
        top = float(np.linalg.eigh(np.asarray(matrix, dtype=np.float64))[0][-1])
        tracer.counters["spectral.eig_checked"] += 1
        if value < top - EIG_REL_TOL * max(abs(top), np.finfo(np.float64).tiny):
            tracer.counters["spectral.eig_mismatch"] += 1


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the package's layer boundaries for the duration of the block."""
    from sslgauss import estimators, gmodel, harness
    from sslgauss.errors import ConvergenceError

    patches: list[tuple[object, str, object]] = []

    def patch(owner, name: str, make):
        original = owner[name] if isinstance(owner, dict) else getattr(owner, name)
        wrapper = functools.wraps(original)(make(original))
        patches.append((owner, name, original))
        if isinstance(owner, dict):
            owner[name] = wrapper
        else:
            setattr(owner, name, wrapper)

    def spanned(span_name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.span(span_name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def run_trial(original):
        def wrapper(config, method, point, trial_index):
            tracer.set_trial(trial_index)
            with tracer.span("harness.run_trial"):
                return original(config, method, point, trial_index)
        return wrapper

    def counted(counter: str):
        def make(original):
            def wrapper(*args, **kwargs):
                tracer.counters[counter] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def sample_dataset(original):
        def wrapper(mu, L, n, seed, dtype=np.float64):
            with tracer.span("gmodel.sample_dataset"):
                ds = original(mu, L, n, seed, dtype=dtype)
            tracer.counters["gmodel.values_drawn"] += (L + n) * mu.p
            tracer.counters["gmodel.bytes_materialized"] += (
                ds.labeled_x.nbytes + ds.labeled_y.nbytes + ds.unlabeled_x.nbytes)
            return ds
        return wrapper

    def all_vectors(original):
        def wrapper(self):
            with tracer.span("gmodel.all_vectors"):
                rows = original(self)
            if rows is not self.labeled_x and rows is not self.unlabeled_x:
                tracer.counters["gmodel.bytes_materialized"] += rows.nbytes
            return rows
        return wrapper

    def solver(tag: str, reference: bool):
        def make(original):
            def wrapper(a, *args, **kwargs):
                try:
                    with tracer.span(f"spectral.{tag}"):
                        res = original(a, *args, **kwargs)
                except ConvergenceError as err:
                    # raised only after the run and its one restart both fail
                    tracer.counters[f"spectral.{tag}.nonconverged"] += 1
                    tracer.counters[f"spectral.{tag}.restarts"] += 1
                    if reference:
                        _rayleigh_reference(tracer, a, err.rayleigh)
                    raise
                tracer.counters[f"spectral.{tag}.iterations"] += res.iterations
                tracer.counters[f"spectral.{tag}.restarts"] += int(res.restarted)
                tracer.counters[f"spectral.{tag}.nonconverged"] += int(not res.converged)
                if reference:
                    _rayleigh_reference(tracer, a, res.value)
                return res
            return wrapper
        return make

    try:
        patch(harness, "run_sweep", spanned("harness.run_sweep"))
        patch(harness, "write_csv", spanned("harness.write_csv"))
        patch(harness, "write_aggregates", spanned("harness.write_aggregates"))
        patch(harness, "run_trial", run_trial)
        patch(harness, "trial_ground_truth", counted("harness.draws"))
        patch(harness, "make_sparse_mean", spanned("gmodel.make_sparse_mean"))
        patch(harness, "sample_dataset", sample_dataset)
        patch(harness, "score", spanned("metrics.score"))
        for method in list(harness.METHODS):
            patch(harness.METHODS, method, spanned(f"estimators.{method}"))
        patch(gmodel.Dataset, "all_vectors", all_vectors)
        patch(estimators, "restricted_covariance", spanned("spectral.restricted_covariance"))
        patch(estimators, "power_iteration", solver("power_iteration", reference=True))
        # The truncated power method solves a sparse problem, whose value is
        # below the dense top eigenvalue by design; it gets no eigh reference.
        patch(estimators, "truncated_power", solver("truncated_power", reference=False))
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
