"""Two-component spherical Gaussian mixture with a sparse mean.

The model: y ~ Unif{-1,+1}, x | y ~ N(y*mu, I_p) where mu has exactly k
nonzero entries, all of magnitude sqrt(lam/k), so that ||mu||^2 = lam.
Everything downstream (estimators, metrics, harness) consumes the types
defined here.

Both blocks of a draw take their noise from keyed Philox streams (Salmon et
al., SC'11): labeled row i from the key (labeled noise seed, i), unlabeled
column j from (unlabeled noise seed, j). Every read of a block goes
through its source (LabeledSource, UnlabeledSource), which draws only
what is read until a reader asks for the whole block: the labeled class
sums draw the rows in chunks, adding each and dropping it before the
next, lspca draws only its screened columns, and self_train's
pseudo-label sums draw their pilots' columns, then every column in one
pass of tiles, each dropped once reduced. Chunks, tiles and every float64
slab are cut to one byte budget per draw thread (_draws_that_fit), so
what such a reader holds of a draw depends on neither L nor n. A tile
pass's two tile buffers per draw thread are allocated on the calling
thread, so no draw thread's malloc arena keeps them after the pass. Once
whole() has drawn a block, its source keeps it and serves every read
from it with the same bits, rows and tiles as views.
Both are drawn on one pool of threads per process, as many as its share
of the usable cores (all of them outside a process pool), with the same
bits as a serial draw.
"""

from __future__ import annotations

import copy
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, EmptyDatasetError, InvalidSupportError
from .rng import MASK64, generator, mix64

# Stream tags for child-seed derivation; fixed constants, see rng.mix64.
STREAM_SUPPORT = 0x11
STREAM_SIGNS = 0x12
STREAM_LABELED_Y = 0x21
STREAM_LABELED_NOISE = 0x22
STREAM_UNLABELED_Y = 0x23
STREAM_UNLABELED_NOISE = 0x24

# Absorbs pow() rounding so that e.g. floor(1e6 ** (1/3)) lands on 100.
_FLOOR_EPS = 1e-9

# Bytes of fresh draws a draw thread fills at once (_draws_that_fit), so that
# what a draw holds depends on neither L nor n: a chunk of the labeled rows
# the class sums add is as many rows per draw thread as fit it, an unlabeled
# tile as many columns of n rows, and a float64 slab of a temporary as wide
# as its input (spectral, the variance screen) as many rows.
_DRAW_BYTES = 1 << 20


def _floor_count(x: float) -> int:
    if not math.isfinite(x):
        raise ConfigError(f"a count derived from an exponent is not finite: {x}")
    return int(math.floor(x + _FLOOR_EPS))


def k_from_alpha(p: int, alpha: float, c1: float = 1.0) -> int:
    """Sparsity from its exponent: floor(c1 * p**alpha)."""
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if not 0 < c1 < math.inf:
        raise ConfigError(f"c1 must be positive and finite, got {c1}")
    k = _floor_count(c1 * p ** alpha)
    if k < 1:
        raise ConfigError(f"k = floor(c1 * p**alpha) is 0 at alpha = {alpha}, c1 = {c1}")
    return k


def labeled_count(p: int, k: int, beta: float, lam: float) -> int:
    """Labeled samples from their exponent: floor(2 beta k log(p-k) / lam)."""
    if beta < 0:
        raise ConfigError(f"beta must be nonnegative, got {beta}")
    if lam <= 0:
        raise ConfigError("deriving L from beta requires lambda > 0")
    if k >= p:
        raise ConfigError(f"deriving L from beta requires k < p, got k={k}, p={p}")
    return _floor_count(2.0 * beta * k * math.log(p - k) / lam)


def unlabeled_count(k: int, gamma: float, lam: float, c2: float = 1.0) -> int:
    """Unlabeled samples from their exponent: floor(c2 * k**gamma / lam**2)."""
    if gamma < 0:
        raise ConfigError(f"gamma must be nonnegative, got {gamma}")
    if lam <= 0:
        raise ConfigError("deriving n from gamma requires lambda > 0")
    if not 0 < c2 < math.inf:
        raise ConfigError(f"c2 must be positive and finite, got {c2}")
    try:
        return _floor_count(c2 * k ** gamma / lam ** 2)
    except OverflowError:
        raise ConfigError(f"n = c2 * k**gamma / lambda**2 overflows at gamma = {gamma}, "
                          f"lambda = {lam}") from None


@dataclass(frozen=True)
class ProblemParams:
    """Problem size tuple (p, k, lam, L, n) plus the master seed.

    lam is the squared norm of the mean vector; L and n are the labeled and
    unlabeled sample counts, both of which may be 0 (sample_dataset and the
    experiment grid refuse L = n = 0; the calculators accept it).
    """

    p: int
    k: int
    lam: float
    L: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ConfigError(f"p must be positive, got {self.p}")
        if not 1 <= self.k <= self.p:
            raise ConfigError(f"k must be in [1, p={self.p}], got {self.k}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and nonnegative, got {self.lam}")
        if self.L < 0 or self.n < 0:
            raise ConfigError(f"sample counts must be nonnegative, got L={self.L}, n={self.n}")

    # Exponent read-backs use the c1 = c2 = 1 convention; they invert
    # k_from_alpha, labeled_count and unlabeled_count only at those constants.
    @property
    def alpha(self) -> float:
        """Sparsity exponent read back from k = p**alpha."""
        return math.log(self.k) / math.log(self.p) if self.p > 1 else 0.0

    @property
    def beta(self) -> float:
        """Labeled exponent read back from L = 2 beta k log(p-k) / lam; nan
        where lam = 0 or p - k < 2, which leaves log(p-k) no positive value."""
        if self.lam <= 0 or self.p - self.k < 2:
            return math.nan
        return self.L * self.lam / (2.0 * self.k * math.log(self.p - self.k))

    @property
    def gamma(self) -> float:
        """Unlabeled exponent read back from n = k**gamma / lam**2."""
        if self.lam <= 0 or self.k < 2 or self.n < 1:
            return math.nan
        try:
            product = self.n * self.lam ** 2
        except OverflowError:  # lam**2 leaves the float range
            product = math.inf
        if product == 0.0 or math.isinf(product):
            # a sum of logs can move the last bit, so it serves only where
            # the product under- or overflows
            return (math.log(self.n) + 2.0 * math.log(self.lam)) / math.log(self.k)
        return math.log(product) / math.log(self.k)


@dataclass(frozen=True)
class SparseMean:
    """k-sparse mean vector: support indices, their signs, one shared magnitude."""

    p: int
    support: tuple[int, ...]
    signs: tuple[int, ...]
    magnitude: float

    def __post_init__(self):
        k = len(self.support)
        if k == 0 or k > self.p:
            raise InvalidSupportError(f"support size {k} out of range for p={self.p}")
        if len(set(self.support)) != k:
            raise InvalidSupportError("support contains duplicate indices")
        if min(self.support) < 0 or max(self.support) >= self.p:
            raise InvalidSupportError("support index out of range")
        if len(self.signs) != k or any(s not in (-1, 1) for s in self.signs):
            raise InvalidSupportError("signs must be a length-k vector over {-1, +1}")

    @property
    def k(self) -> int:
        return len(self.support)

    @property
    def norm_sq(self) -> float:
        return self.k * self.magnitude ** 2


def make_sparse_mean(params: ProblemParams, seed: int) -> SparseMean:
    """Draw the sparse mean: a support uniform over k-subsets of [p], stored
    sorted, with i.i.d. uniform signs and magnitude sqrt(lam/k)."""
    k = params.k
    support = np.sort(generator(mix64(seed, STREAM_SUPPORT)).choice(params.p, k, replace=False))
    signs = generator(mix64(seed, STREAM_SIGNS)).integers(0, 2, size=k) * 2 - 1
    return SparseMean(p=params.p, support=tuple(int(i) for i in support),
                      signs=tuple(int(s) for s in signs),
                      magnitude=math.sqrt(params.lam / k))


def check_magnitude(magnitude: float, dtype) -> None:
    """Refuse a mean whose entries +-magnitude a draw in dtype would store as inf."""
    with np.errstate(over="ignore"):
        if np.isfinite(np.dtype(dtype).type(magnitude)):
            return
    raise ConfigError(f"the mean's entries sqrt(lambda/k) = {magnitude:.4g} overflow "
                      f"{np.dtype(dtype).name} (largest finite value {np.finfo(dtype).max:.4g})")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# Processes that draw at once on the usable cores (a process pool's workers);
# each draws on its share of the cores. See share_cores.
_processes = 1


def share_cores(processes: int) -> None:
    """Draw on 1/processes of the usable cores from now on in this process.

    A process pool's initializer calls it in each worker, so that the
    workers' draw threads together do not outnumber the cores."""
    global _processes
    _processes = max(1, processes)


def _draw_threads() -> int:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cores = os.cpu_count() or 1
    return max(1, cores // _processes)


def _draws_that_fit(length: int, dtype) -> int:
    """How many rows or columns of length entries of dtype fill _DRAW_BYTES:
    at least one, whatever their size."""
    return max(1, _DRAW_BYTES // max(1, length * np.dtype(dtype).itemsize))


# The draw threads: (pid, thread count, pool), one pool per process, so a
# chunk or a tile starts no threads (with a pool per call, 1 MiB chunks ran a
# paper-scale lspca trial about 16% slower on two cores). A forked child's
# copy of its parent's pool has no threads, so the pid keys it too.
_pool: tuple[int, int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _draw_pool(threads: int) -> ThreadPoolExecutor:
    """This process's pool of draw threads, as many as threads, built on
    first use and rebuilt when that count changes."""
    global _pool
    key = (os.getpid(), threads)
    with _pool_lock:
        if _pool is None or _pool[:2] != key:
            if _pool is not None and _pool[0] == key[0]:
                _pool[2].shutdown()
            _pool = (*key, ThreadPoolExecutor(max_workers=threads))
        return _pool[2]


def _stripes(count: int) -> int:
    """How many stripes count units are cut into: one per draw thread, at
    most one per unit."""
    return min(_draw_threads(), count)


def _on_draw_threads(stripes: int, stripe) -> None:
    """Run stripe(first, stripes), the units first, first + stripes, ... of
    a _stripes(count) cut, for each first in range(stripes) on this
    process's pool, and return or raise once every stripe has finished. A
    single stripe runs on the calling thread. A stripe fills buffers its
    caller allocated: a draw thread's freed arrays stay in its own malloc
    arena. A stripe must not call back into the pool: it would wait on the
    threads it occupies."""
    if stripes == 1:
        stripe(0, 1)
    elif stripes > 1:
        pool = _draw_pool(_draw_threads())
        futures = [pool.submit(stripe, first, stripes) for first in range(stripes)]
        wait(futures)
        for future in futures:
            future.result()


def _keyed_fill(gen: np.random.Generator, rows, seed: int, keys) -> None:
    """rows[r], a 1-d array, becomes its first len(rows[r]) normals of
    Philox under the 128-bit key (seed, keys[r]): gen, a Philox generator, is
    rekeyed per row through its state, so a row's bits do not depend on the
    other rows."""
    # plain lists: the state setter reads them faster than arrays
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": [seed & MASK64, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, j in zip(rows, keys):
        state["state"]["key"][1] = j
        gen.bit_generator.state = state
        gen.standard_normal(dtype=row.dtype, out=row)


def _labels(seed: int, count: int) -> np.ndarray:
    return (generator(seed).integers(0, 2, size=count) * 2 - 1).astype(np.int8)


class _Source:
    """Rows of one draw, drawn on read until whole() draws and keeps the
    block; every read then serves the held block and draws nothing."""

    block: np.ndarray | None = None

    @classmethod
    def held(cls, block: np.ndarray):
        """A source that holds block, a caller's array, as a read-only view
        (its own flags untouched) and never draws."""
        source = cls.__new__(cls)
        source.block = _freeze(block.view())
        source.dtype, source.shape = block.dtype, block.shape
        return source

    def whole(self) -> np.ndarray:
        """Every row and column, drawn on the first call and kept read-only."""
        if self.block is None:
            self.block = _freeze(self._draw_all())
        return self.block


class LabeledSource(_Source):
    """The L x p labeled rows x_i = y_i * mu + z_i of one draw, drawn on read.

    The noise of row i is the first p normals of Philox under the 128-bit
    key (noise_seed, i): a row's bits do not depend on which other rows are
    drawn, in what order or on how many threads, and L' < L rows are a
    prefix. rows() draws a range of rows, or views it in the held block;
    whole() draws every row once and keeps the block.
    """

    def __init__(self, mu: SparseMean, y: np.ndarray, noise_seed: int, dtype):
        self.dtype = np.dtype(dtype)
        self.shape = (y.shape[0], mu.p)
        self._y = y
        self._noise_seed = noise_seed
        self._support = list(mu.support)
        self._bump = None if mu.magnitude == 0.0 else (
            np.asarray(mu.signs, dtype=self.dtype) * self.dtype.type(mu.magnitude))

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows [lo, hi): a view of the held block, otherwise a new array
        drawn striped over the draw threads. Both give the same bits."""
        if self.block is not None:
            return self.block[lo:hi]
        out = np.empty((hi - lo, self.shape[1]), dtype=self.dtype)
        _on_draw_threads(_stripes(hi - lo), lambda first, step: self._fill(
            out[first::step], range(lo + first, hi, step)))
        return out

    def _draw_all(self) -> np.ndarray:
        return self.rows(0, self.shape[0])

    def _fill(self, out: np.ndarray, keys: range) -> None:
        """Rows keys into out, on the calling thread."""
        _keyed_fill(generator(0), out, self._noise_seed, keys)
        if self._bump is not None:
            out[:, self._support] += self._y[keys, None].astype(self.dtype) * self._bump


class UnlabeledSource(_Source):
    """The n x p unlabeled rows x_i = y_i * mu + z_i of one draw, drawn on read.

    The labels y come from one stream. The noise of column j is the first n
    normals of Philox under the 128-bit key (noise_seed, j), the keyed fill
    the labeled rows use: a column's bits do not depend on which other
    columns are drawn, in what order or on how many threads, and n' < n rows
    are a prefix. columns() draws a set of columns, or takes it from the
    held block; whole() draws every column once and keeps the block.
    """

    def __init__(self, mu: SparseMean, n: int, y_seed: int, noise_seed: int, dtype):
        self.dtype = np.dtype(dtype)
        self.shape = (n, mu.p)
        self._noise_seed = noise_seed
        self._y = _labels(y_seed, n).astype(self.dtype)
        scalar = self.dtype.type
        self._bumps = {} if mu.magnitude == 0.0 else {
            j: scalar(s) * scalar(mu.magnitude) for j, s in zip(mu.support, mu.signs)}

    def columns(self, idx, n: int) -> np.ndarray:
        """Rows [0, n) of columns idx (any order) as a new row-major
        (n, len(idx)) array, taken from the held block or drawn alone. Both
        give the same bits and the same layout, so what a reader computes
        from them does not depend on which one served it."""
        if not 0 <= n <= self.shape[0]:
            raise ConfigError(f"row count {n} out of range [0, {self.shape[0]}]")
        cols = np.asarray(idx, dtype=np.int64).ravel()
        if cols.size and (cols.min() < 0 or cols.max() >= self.shape[1]):
            raise InvalidSupportError(f"column index out of range for p={self.shape[1]}")
        if self.block is not None:
            # np.take lays the result out row-major; x[:, idx] would not
            return np.take(self.block[:n], cols, axis=1)
        return self._draw(cols.tolist(), n)

    def _draw_all(self) -> np.ndarray:
        return self._draw(range(self.shape[1]), self.shape[0])

    def _draw(self, cols, n: int) -> np.ndarray:
        out = np.empty((n, len(cols)), dtype=self.dtype)
        self.tiles(cols, n, None, out=out)
        return out

    def tiles(self, cols, n: int, use, out=None) -> None:
        """The tile pass over rows [0, n) of columns cols (any order), w =
        _draws_that_fit(n, dtype) columns at a time, striped over the draw
        threads, calling use(lo, tile) on each tile unless use is None. A
        held block serves each tile as its view block[:n, cols[lo]:...],
        so cols must then be a range of step 1 (ContractError otherwise).
        Otherwise each stripe keeps one Philox, fills a (w, n) buffer by
        column keys and copies it transposed into the tile, the view
        out[:, lo:lo + w] or an (n, w) scratch array the stripe reuses. The
        calling thread allocates each stripe's buffers before the pass, so
        no draw thread allocates a tile; a held block's pass allocates
        nothing. Every tile has adjacent columns and strided rows, as a
        view of the block has."""
        held = self.block
        if held is not None and not (isinstance(cols, range) and cols.step == 1):
            raise ContractError("a held block serves tiles of a column range of step 1 only")
        width = min(_draws_that_fit(n, self.dtype), len(cols))
        starts = range(0, len(cols), width or 1)
        stripes = _stripes(len(starts))
        buffers = [] if held is not None else [
            (np.empty((width, n), dtype=self.dtype),
             np.empty((n, width), dtype=self.dtype) if out is None else None)
            for _ in range(stripes)]

        def stripe(first: int, step: int) -> None:
            if held is None:
                gen = generator(0)
                buf, scratch = buffers[first]
            for lo in starts[first::step]:
                keys = cols[lo:lo + width]
                if held is not None:
                    tile = held[:n, keys.start:keys.stop]
                else:
                    self._fill(gen, buf[:len(keys)], keys)
                    tile = scratch[:, :len(keys)] if out is None else out[:, lo:lo + len(keys)]
                    tile[...] = buf[:len(keys)].T
                if use is not None:
                    use(lo, tile)

        _on_draw_threads(stripes, stripe)

    def _fill(self, gen: np.random.Generator, rows: np.ndarray, keys) -> None:
        """Column keys[r] into rows[r], on the calling thread."""
        _keyed_fill(gen, rows, self._noise_seed, keys)
        for row, j in zip(rows, keys):
            bump = self._bumps.get(j)
            if bump is not None:
                row += self._y[:row.size] * bump


class Dataset:
    """L labeled pairs and n unlabeled vectors, all of dimension p.

    The rows are a LabeledSource and an UnlabeledSource, which draw them on
    read (sample_dataset) or hold a caller's arrays, kept as read-only
    views with their own flags untouched; a dataset holds every row given,
    and prefix reads its first L and n. Every read forwards to the sources:
    labeled_x and unlabeled_x are the whole blocks, drawn and kept on
    first read; labeled_rows, labeled_chunks, unlabeled_columns and
    unlabeled_tiles draw only the rows, chunks, columns or tiles they
    read, none kept, until a block is held, and are served from it after.
    grid holds the (L, n) points that prefixes of the draw serve, its own
    (L, n) unless the caller sets it, so that a reader can serve them all
    in one pass. Datasets can be shared across workers.
    """

    def __init__(self, labeled_x, labeled_y: np.ndarray, unlabeled_x):
        self._labeled, self._unlabeled = (
            source.held(a) if isinstance(a, np.ndarray) else a
            for source, a in ((LabeledSource, labeled_x), (UnlabeledSource, unlabeled_x)))
        self._labels = _freeze(labeled_y.view())
        # statistics computed once per draw (estimators.shared_value)
        self.shared = {}
        if len(labeled_x.shape) != 2 or len(unlabeled_x.shape) != 2:
            raise ConfigError("data matrices must be 2-d (rows are samples)")
        self._L, self._n = labeled_x.shape[0], unlabeled_x.shape[0]
        self.grid = ((self._L, self._n),)
        if self._L != labeled_y.shape[0]:
            raise ConfigError("labeled_x and labeled_y row counts differ")
        if labeled_x.shape[1] != unlabeled_x.shape[1]:
            raise ConfigError("labeled and unlabeled dimensions differ")
        if labeled_y.size and not np.all(np.isin(labeled_y, (-1, 1))):
            raise ConfigError("labels must lie in {-1, +1}")

    @property
    def L(self) -> int:
        return self._L

    @property
    def n(self) -> int:
        return self._n

    @property
    def p(self) -> int:
        return self._unlabeled.shape[1]

    @property
    def labeled_y(self) -> np.ndarray:
        y = self._labels
        return y if y.shape[0] == self._L else y[:self._L]

    @property
    def labeled_x(self) -> np.ndarray:
        """The L x p labeled rows, drawn whole on first read."""
        block = self._labeled.whole()
        return block if block.shape[0] == self._L else block[:self._L]

    @property
    def unlabeled_x(self) -> np.ndarray:
        """The n x p unlabeled rows, drawn whole on first read."""
        block = self._unlabeled.whole()
        # the held array itself when all its rows are read: every read then
        # returns the same object, which identity checks and weakrefs rely on
        return block if block.shape[0] == self._n else block[:self._n]

    def labeled_rows(self, lo: int, hi: int) -> np.ndarray:
        """Labeled rows [lo, hi) (LabeledSource.rows), 0 <= lo <= hi <= L."""
        if not 0 <= lo <= hi <= self._L:
            raise ConfigError(f"labeled rows [{lo}, {hi}) out of range [0, {self._L}]")
        return self._labeled.rows(lo, hi)

    def labeled_chunks(self, start: int, use) -> None:
        """use(rows, labels) for the labeled rows [start, L) in row order, in
        chunks of _draws_that_fit(p, dtype) rows per draw thread, the rows
        that fit the draw budget: each chunk is labeled_rows(lo, hi), drawn
        on the process's one pool and dropped once use returns and before
        the next is drawn."""
        step = _draw_threads() * _draws_that_fit(self.p, self._labeled.dtype)
        for lo in range(start, self._L, step):
            hi = min(lo + step, self._L)
            use(self.labeled_rows(lo, hi), self._labels[lo:hi])

    def unlabeled_columns(self, idx) -> np.ndarray:
        """A new row-major n x len(idx) array of the unlabeled columns idx
        (UnlabeledSource.columns)."""
        return self._unlabeled.columns(idx, self._n)

    def unlabeled_tiles(self, use) -> None:
        """use(lo, tile) on the draw threads for each tile of w =
        _draws_that_fit(n, dtype) unlabeled columns [lo, lo + w), tile
        holding their n rows (UnlabeledSource.tiles): a view of the held
        block, or drawn and dropped."""
        self._unlabeled.tiles(range(self.p), self._n, use)

    def prefix(self, L: int, n: int) -> "Dataset":
        """The first L labeled pairs and n unlabeled vectors of the rows
        held, sharing this dataset's arrays, sources and shared statistics."""
        held, rows = self._labeled.shape[0], self._unlabeled.shape[0]
        if not 0 <= L <= held:
            raise ConfigError(f"L = {L} exceeds the {held} labeled rows held")
        if not 0 <= n <= rows:
            raise ConfigError(f"n = {n} exceeds the {rows} unlabeled rows held")
        view = copy.copy(self)
        view._L, view._n = L, n
        return view

    # No package code calls this; kept because perfbench's tracer patches it by name.
    def all_vectors(self) -> np.ndarray:
        """Labeled and unlabeled rows stacked, labels dropped."""
        if self.L == 0:
            return self.unlabeled_x
        if self.n == 0:
            return self.labeled_x
        return np.vstack([self.labeled_x, self.unlabeled_x])


def sample_dataset(mu: SparseMean, L: int, n: int, seed: int,
                   dtype=np.float64) -> Dataset:
    """Draw L labeled pairs and n unlabeled vectors i.i.d. from the mixture.

    Pure function of (mu, L, n, seed, dtype): labeled and unlabeled streams
    are keyed separately, so the labeled block does not depend on n and vice
    versa, and the first rows of a larger draw coincide with a smaller one.
    The labels are drawn here; the rows are a LabeledSource (row i keyed by
    i) and an UnlabeledSource (column j keyed by j), drawn when they are
    read.
    """
    if L < 0 or n < 0:
        raise ConfigError(f"sample counts must be nonnegative, got L={L}, n={n}")
    if L + n == 0:
        raise EmptyDatasetError("refusing to build a dataset with L = n = 0")
    check_magnitude(mu.magnitude, dtype)
    ly = _freeze(_labels(mix64(seed, STREAM_LABELED_Y), L))
    labeled = LabeledSource(mu, ly, mix64(seed, STREAM_LABELED_NOISE), dtype)
    unlabeled = UnlabeledSource(mu, n, mix64(seed, STREAM_UNLABELED_Y),
                                mix64(seed, STREAM_UNLABELED_NOISE), dtype)
    return Dataset(labeled_x=labeled, labeled_y=ly, unlabeled_x=unlabeled)
