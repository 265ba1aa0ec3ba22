"""Minimal dense linear algebra for spiked covariances.

`principal_direction` takes the exact top eigenpair of a sample covariance
with a dense symmetric solver; every dense PCA step uses it. It reads its
rows as one array or as a sequence of row blocks (a trial's labeled and
unlabeled rows) taken as if stacked, COLUMN_BLOCK columns at a time, so on
the Gram side (fewer rows than columns) they are never copied whole. The
one step too large for a dense solver, PCA on lspca's screened set, runs
one power loop: each step forms A v, keeps its k largest magnitudes (the
truncated power method; k = m is plain power iteration) and renormalizes,
until the iterate moves by at most 1e-6 for a RestrictedCovariance over
float32 rows and 1e-9 otherwise. The loop takes a symmetric PSD operator,
an implicit RestrictedCovariance or an ndarray, and uses only `a @ v` and
`a.diagonal()`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InsufficientSamplesError, InvalidSupportError

DEFAULT_MAX_ITER = 1000
# Step tolerances of the power loop. Products over float32 rows carry about
# 1e-7 relative error, so their iterates stop moving near 1e-6.
_TOL = 1e-9
_F32_TOL = 1e-6

# Columns per slab of a column-blocked read (column_slabs): readers hold the
# stacked rows COLUMN_BLOCK columns at a time.
COLUMN_BLOCK = 2048

_SYMMETRY_TOL = 1e-10


def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries; ties broken toward the lowest index."""
    order = np.argsort(-np.asarray(values), kind="stable")
    return order[:k]


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip so the largest-magnitude coordinate is nonnegative (ties: lowest index)."""
    j = int(np.argmax(np.abs(v)))
    return -v if v[j] < 0 else v


class RestrictedCovariance:
    """Sample covariance of a restricted block of rows (the columns of an
    index set T), centered by the empirical mean and normalized by 1/n.

    PSD by construction and never materialized: products are formed against
    the centered rows, kept in float32 when the rows are float32 and in
    float64 otherwise. The covariance takes the block over and centers it in
    place when it is writable and already in its storage dtype, and copies
    it otherwise.
    """

    def __init__(self, rows: np.ndarray):
        y = np.asarray(rows)
        if y.ndim != 2:
            raise ContractError("rows must be a 2-d array of samples")
        n, m = y.shape
        if n < 2:
            raise InsufficientSamplesError(f"covariance needs n >= 2 samples, got {n}")
        if m == 0:
            raise InvalidSupportError("index set must be nonempty")
        self.dim = m
        self.n_samples = n
        dtype = np.float32 if y.dtype == np.float32 else np.float64
        if y.dtype != dtype or not y.flags.writeable:
            y = y.astype(dtype)
        y -= y.mean(axis=0, dtype=dtype)
        self._rows = y
        self._diag = np.einsum("ij,ij->j", y, y, dtype=np.float64) / n

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        w = self._rows @ v.astype(self._rows.dtype, copy=False)
        return np.asarray(self._rows.T @ w, dtype=np.float64) / self.n_samples

    def diagonal(self) -> np.ndarray:
        return self._diag.copy()

    def matrix(self) -> np.ndarray:
        """Materialize the m x m matrix (intended for small m / tests)."""
        y = self._rows.astype(np.float64)
        return (y.T @ y) / self.n_samples


def restricted_covariance(rows: np.ndarray) -> RestrictedCovariance:
    """Empirical covariance of the restricted block `rows` (n x |T|), which
    it centers in place when it can."""
    return RestrictedCovariance(rows)


def row_blocks(rows) -> list[np.ndarray]:
    """One 2-d array, or a sequence of 2-d row blocks with a common column
    count, as a list of blocks; readers take the list as if stacked. One
    array is the one-block case."""
    blocks = [rows] if isinstance(rows, np.ndarray) else [np.asarray(b) for b in rows]
    if not blocks or any(b.ndim != 2 for b in blocks):
        raise InsufficientSamplesError("rows must be 2-d, one array or a sequence of row blocks")
    if len({b.shape[1] for b in blocks}) > 1:
        raise ContractError("row blocks must have the same number of columns")
    return blocks


def column_slabs(blocks: list[np.ndarray]):
    """Yield (cols, x): x holds columns cols of the stacked blocks, at most
    COLUMN_BLOCK of them, in one array, float32 when every block is float32
    and float64 otherwise. Empty blocks are skipped, and np.concatenate lays
    x out as the blocks are laid out: row-major blocks give a row-major x,
    column-major ones (as column indexing returns) a column-major x, so each
    column is summed in the order the stacked rows would give."""
    dtype = np.float32 if all(b.dtype == np.float32 for b in blocks) else np.float64
    filled = [b for b in blocks if b.shape[0]]
    for lo in range(0, blocks[0].shape[1], COLUMN_BLOCK):
        cols = slice(lo, lo + COLUMN_BLOCK)
        yield cols, np.concatenate([b[:, cols] for b in filled], dtype=dtype)


def principal_direction(rows) -> tuple[np.ndarray, float, bool]:
    """Exact leading eigenpair of the centered 1/n sample covariance of rows.

    `rows` is one array or a sequence of row blocks read as if stacked
    (row_blocks), in column slabs (column_slabs). A dense symmetric solver
    runs on the smaller side of the centered rows: the p x p covariance when
    n >= p, otherwise the n x n Gram matrix (same nonzero spectrum, identical
    eigenvector after mapping back). Returns the unit eigenvector in
    canonical sign (e1 for a zero covariance), its eigenvalue, and whether
    the Gram side was taken. The eigengap of a weak spike can be too small
    for power iteration to resolve.

    Memory: the Gram side holds two slabs (n x COLUMN_BLOCK) and the n x n
    Gram matrix at most; the covariance side (p <= n) centers all rows at
    once, in an n x p float64 array.
    """
    blocks = row_blocks(rows)
    n = sum(b.shape[0] for b in blocks)
    if n < 2:
        raise InsufficientSamplesError("covariance needs n >= 2 rows")
    p = blocks[0].shape[1]
    mean = np.empty(p)
    dual_gram = n < p
    if dual_gram:
        # the centered rows y = rows - mean are formed in float64, one slab
        # at a time; y.T @ u = rows.T @ u - sum(u) * mean maps u back
        gram = np.zeros((n, n))
        for cols, x in column_slabs(blocks):
            mean[cols] = x.mean(axis=0, dtype=np.float64)
            yb = x - mean[cols]
            gram += yb @ yb.T
        gram /= n
        values, vectors = np.linalg.eigh(gram)
        u = vectors[:, -1]
        v = np.empty(p)
        for cols, x in column_slabs(blocks):
            v[cols] = x.T @ u.astype(x.dtype, copy=False)
        v -= u.sum() * mean
    else:
        # p <= n: the centered rows are formed whole, in float64
        y = np.empty((n, p))
        for cols, x in column_slabs(blocks):
            mean[cols] = x.mean(axis=0, dtype=np.float64)
            np.subtract(x, mean[cols], out=y[:, cols])
        values, vectors = np.linalg.eigh((y.T @ y) / n)
        v = vectors[:, -1]
    if values[-1] <= 0.0:
        # a zero covariance: every vector is an eigenvector; return e1
        v = np.zeros(p)
        v[0] = 1.0
    else:
        v = canonical_sign(v / float(np.linalg.norm(v)))
    return v, float(values[-1]), dual_gram


def _psd_operator(a):
    """A RestrictedCovariance as it is; anything else as a float64 matrix
    checked to be square and symmetric (positive semidefiniteness is the
    caller's promise)."""
    if isinstance(a, RestrictedCovariance):
        return a
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {a.shape}")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale and float(np.max(np.abs(a - a.T))) > _SYMMETRY_TOL * scale:
        raise ContractError("matrix is not symmetric to tolerance")
    return a


@dataclass
class PowerResult:
    vector: np.ndarray
    value: float
    step: float
    iterations: int
    converged: bool
    # Always False (the solvers run once); kept for perfbench's tracer, which reads it.
    restarted: bool = False


def _power(a, v0: np.ndarray, k: int, max_iter: int) -> PowerResult:
    """The power loop of both solvers, from the unit start v0.

    Each step forms w = A v, keeps the k largest |w| when k < m (ties: lowest
    index), and renormalizes; it stops once ||v_new - v|| <= tol, with tol
    set by the operator's storage (float32 rows cap the accuracy of A v).
    `value` is the Rayleigh quotient of the iterate the last step started
    from. After max_iter steps without convergence, returns the last iterate
    with converged=False.
    """
    f32 = isinstance(a, RestrictedCovariance) and a._rows.dtype == np.float32
    tol = _F32_TOL if f32 else _TOL
    result = PowerResult(vector=v0, value=0.0, step=0.0, iterations=0, converged=False)
    v = v0
    for _ in range(max_iter):
        w = a @ v
        theta = float(v @ w)
        result.iterations += 1
        if k < v.size:
            w[np.argsort(-np.abs(w), kind="stable")[k:]] = 0.0
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            # A v = 0: for a PSD operator v leads only if A = 0, where every
            # vector is an eigenvector; return e1 then
            result.value = theta
            result.converged = not a.diagonal().any()
            if result.converged:
                result.vector = np.zeros(v.size)
                result.vector[0] = 1.0
            break
        v_new = w / norm
        result.vector, result.value = v_new, theta
        result.step = float(np.linalg.norm(v_new - v))
        if result.step <= tol:
            result.converged = True
            break
        v = v_new
    result.vector = canonical_sign(result.vector)
    return result


def power_iteration(a, max_iter: int = DEFAULT_MAX_ITER) -> PowerResult:
    """Leading eigenpair of a PSD operator by power iteration: the power loop
    at k = m, so nothing is truncated, started from the standard basis
    vector at the largest diagonal entry (ties: lowest index)."""
    a = _psd_operator(a)
    diag = a.diagonal()
    if diag.size < 1:
        raise ContractError("operator dimension must be >= 1")
    v0 = np.zeros(diag.size)
    v0[int(np.argmax(diag))] = 1.0
    return _power(a, v0, diag.size, max_iter)


def truncated_power(a, k: int, max_iter: int = DEFAULT_MAX_ITER) -> PowerResult:
    """Sparse leading eigenvector of a PSD operator by the truncated power
    method (Yuan & Zhang, JMLR 2013): the power loop keeping the k largest
    magnitudes, started from equal weights on the k largest diagonal entries."""
    a = _psd_operator(a)
    diag = a.diagonal()
    if not 1 <= k <= diag.size:
        raise ContractError(f"sparsity k must be in [1, {diag.size}], got {k}")
    v0 = np.zeros(diag.size)
    v0[top_k_indices(diag, k)] = 1.0 / np.sqrt(k)
    return _power(a, v0, k, max_iter)
