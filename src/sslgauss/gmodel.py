"""Two-component spherical Gaussian mixture with a sparse mean.

The model: y ~ Unif{-1,+1}, x | y ~ N(y*mu, I_p) where mu has exactly k
nonzero entries, all of magnitude sqrt(lam/k), so that ||mu||^2 = lam.
Everything downstream (estimators, metrics, harness) consumes the types
defined here.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EmptyDatasetError, InvalidSupportError
from .rng import generator, mix64

# Stream tags for child-seed derivation; fixed constants, see rng.mix64.
STREAM_SUPPORT = 0x11
STREAM_SIGNS = 0x12
STREAM_LABELED_Y = 0x21
STREAM_LABELED_NOISE = 0x22
STREAM_UNLABELED_Y = 0x23
STREAM_UNLABELED_NOISE = 0x24

# Absorbs pow() rounding so that e.g. floor(1e6 ** (1/3)) lands on 100.
_FLOOR_EPS = 1e-9

_DUMP_MAGIC = b"SSLD"
_DUMP_VERSION = 1


def _floor_count(x: float) -> int:
    return int(math.floor(x + _FLOOR_EPS))


def k_from_alpha(p: int, alpha: float, c1: float = 1.0) -> int:
    """Sparsity from its exponent: floor(c1 * p**alpha), at least 1."""
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    return max(1, _floor_count(c1 * p ** alpha))


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
    return _floor_count(c2 * k ** gamma / lam ** 2)


# Exponent read-backs use the c1 = c2 = 1 convention; they are the inverse of
# the counts above only at those constants.
def implied_alpha(p: int, k: int) -> float:
    """Sparsity exponent read back from k = p**alpha."""
    return math.log(k) / math.log(p) if p > 1 else 0.0


def implied_beta(p: int, k: int, L: int, lam: float) -> float:
    """Labeled exponent read back from L = 2 beta k log(p-k) / lam."""
    if lam <= 0 or k >= p:
        return math.nan
    return L * lam / (2.0 * k * math.log(p - k))


def implied_gamma(k: int, n: int, lam: float) -> float:
    """Unlabeled exponent read back from n = k**gamma / lam**2."""
    if lam <= 0 or k < 2 or n < 1:
        return math.nan
    return math.log(n * lam ** 2) / math.log(k)


@dataclass(frozen=True)
class ProblemParams:
    """Problem size tuple (p, k, lam, L, n) plus the master seed.

    lam is the squared norm of the mean vector; L and n are the labeled and
    unlabeled sample counts.
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
        if self.lam < 0:
            raise ConfigError(f"lambda must be nonnegative, got {self.lam}")
        if self.L < 0 or self.n < 0:
            raise ConfigError(f"sample counts must be nonnegative, got L={self.L}, n={self.n}")
        if self.L + self.n < 1:
            raise ConfigError("need at least one sample: L + n >= 1")

    @classmethod
    def from_exponents(cls, p: int, alpha: float, beta: float, gamma: float,
                       lam: float, seed: int = 0, c1: float = 1.0, c2: float = 1.0
                       ) -> "ProblemParams":
        """Build counts from the scaling exponents.

        k = floor(c1 * p**alpha), L = floor(2*beta*k*log(p-k)/lam),
        n = floor(c2 * k**gamma / lam**2).
        """
        k = k_from_alpha(p, alpha, c1)
        L = labeled_count(p, k, beta, lam)
        n = unlabeled_count(k, gamma, lam, c2)
        return cls(p=p, k=k, lam=lam, L=L, n=n, seed=seed)

    @property
    def alpha(self) -> float:
        return implied_alpha(self.p, self.k)

    @property
    def beta(self) -> float:
        return implied_beta(self.p, self.k, self.L, self.lam)

    @property
    def gamma(self) -> float:
        return implied_gamma(self.k, self.n, self.lam)

    def with_counts(self, L: int | None = None, n: int | None = None) -> "ProblemParams":
        return replace(self, L=self.L if L is None else L, n=self.n if n is None else n)


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

    def to_dense(self, dtype=np.float64) -> np.ndarray:
        mu = np.zeros(self.p, dtype=dtype)
        mu[list(self.support)] = np.asarray(self.signs, dtype=dtype) * dtype(self.magnitude)
        return mu


def make_sparse_mean(params: ProblemParams, support=None, signs=None,
                     seed: int | None = None) -> SparseMean:
    """Draw (or fix) the sparse mean with nonzero entries +-sqrt(lam/k).

    With support=None the support is uniform over k-subsets of [p] and the
    signs are i.i.d. uniform; a fixed support must contain k distinct
    in-range indices (0-based).
    """
    base = params.seed if seed is None else seed
    k = params.k
    if support is None:
        rng = generator(mix64(base, STREAM_SUPPORT))
        support_list = [int(i) for i in np.sort(rng.choice(params.p, size=k, replace=False))]
    else:
        support_list = [int(i) for i in support]
        if len(support_list) != k:
            raise InvalidSupportError(f"fixed support has {len(support_list)} indices, expected k={k}")
    if signs is None:
        rng = generator(mix64(base, STREAM_SIGNS))
        signs_list = [int(s) for s in rng.integers(0, 2, size=k) * 2 - 1]
    else:
        if len(signs) != k:
            raise InvalidSupportError("signs length must match the support size")
        signs_list = [int(s) for s in signs]
    # signs align with the given support order; store sorted by index
    pairs = sorted(zip(support_list, signs_list))
    magnitude = math.sqrt(params.lam / k)
    return SparseMean(p=params.p, support=tuple(i for i, _ in pairs),
                      signs=tuple(s for _, s in pairs), magnitude=magnitude)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """L labeled pairs and n unlabeled vectors, all of dimension p.

    Arrays are marked read-only; datasets can be shared across workers.
    """

    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray

    def __post_init__(self):
        if self.labeled_x.ndim != 2 or self.unlabeled_x.ndim != 2:
            raise ConfigError("data matrices must be 2-d (rows are samples)")
        if self.labeled_x.shape[0] != self.labeled_y.shape[0]:
            raise ConfigError("labeled_x and labeled_y row counts differ")
        if self.labeled_x.shape[0] and self.unlabeled_x.shape[0] \
                and self.labeled_x.shape[1] != self.unlabeled_x.shape[1]:
            raise ConfigError("labeled and unlabeled dimensions differ")
        if self.labeled_y.size and not np.all(np.isin(self.labeled_y, (-1, 1))):
            raise ConfigError("labels must lie in {-1, +1}")

    @property
    def L(self) -> int:
        return self.labeled_x.shape[0]

    @property
    def n(self) -> int:
        return self.unlabeled_x.shape[0]

    @property
    def p(self) -> int:
        return self.labeled_x.shape[1] if self.L else self.unlabeled_x.shape[1]

    # No package code calls this; kept because perfbench's tracer patches it by name.
    def all_vectors(self) -> np.ndarray:
        """Labeled and unlabeled rows stacked, labels dropped."""
        if self.L == 0:
            return self.unlabeled_x
        if self.n == 0:
            return self.labeled_x
        return np.vstack([self.labeled_x, self.unlabeled_x])


def _sample_block(mu: SparseMean, count: int, y_seed: int, noise_seed: int,
                  dtype) -> tuple[np.ndarray, np.ndarray]:
    """count rows of x = y*mu + noise; separate streams keep the draw
    prefix-stable in count."""
    y = (generator(y_seed).integers(0, 2, size=count) * 2 - 1).astype(np.int8)
    x = generator(noise_seed).standard_normal((count, mu.p), dtype=dtype)
    if mu.magnitude != 0.0 and count:
        bump = np.asarray(mu.signs, dtype=dtype) * dtype(mu.magnitude)
        x[:, list(mu.support)] += y[:, None].astype(dtype) * bump
    return x, y


def sample_dataset(mu: SparseMean, L: int, n: int, seed: int,
                   dtype=np.float64) -> Dataset:
    """Draw L labeled pairs and n unlabeled vectors i.i.d. from the mixture.

    Pure function of (mu, L, n, seed, dtype): labeled and unlabeled streams
    are keyed separately, so the labeled block does not depend on n and vice
    versa, and the first rows of a larger draw coincide with a smaller one.
    """
    if L < 0 or n < 0:
        raise ConfigError(f"sample counts must be nonnegative, got L={L}, n={n}")
    if L + n == 0:
        raise EmptyDatasetError("refusing to build a dataset with L = n = 0")
    lx, ly = _sample_block(mu, L, mix64(seed, STREAM_LABELED_Y),
                           mix64(seed, STREAM_LABELED_NOISE), dtype)
    ux, _ = _sample_block(mu, n, mix64(seed, STREAM_UNLABELED_Y),
                          mix64(seed, STREAM_UNLABELED_NOISE), dtype)
    return Dataset(labeled_x=_freeze(lx), labeled_y=_freeze(ly), unlabeled_x=_freeze(ux))


def dump_dataset(ds: Dataset, path) -> None:
    """Binary dump: magic 'SSLD', u32 version, u64 p, L, n (little-endian),
    then labeled rows as f64, labels as i8, unlabeled rows as f64."""
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(struct.pack("<IQQQ", _DUMP_VERSION, ds.p, ds.L, ds.n))
        fh.write(np.ascontiguousarray(ds.labeled_x, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ds.labeled_y, dtype="i1").tobytes())
        fh.write(np.ascontiguousarray(ds.unlabeled_x, dtype="<f8").tobytes())


def load_dataset(path) -> Dataset:
    """Inverse of dump_dataset."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _DUMP_MAGIC:
            raise ConfigError(f"bad magic {magic!r} in dataset file {path}")
        version, p, L, n = struct.unpack("<IQQQ", fh.read(28))
        if version != _DUMP_VERSION:
            raise ConfigError(f"unsupported dataset file version {version}")
        lx = np.frombuffer(fh.read(8 * L * p), dtype="<f8").reshape(L, p).copy()
        ly = np.frombuffer(fh.read(L), dtype="i1").copy()
        ux = np.frombuffer(fh.read(8 * n * p), dtype="<f8").reshape(n, p).copy()
    return Dataset(labeled_x=_freeze(lx), labeled_y=_freeze(ly), unlabeled_x=_freeze(ux))
