"""Minimal dense linear algebra for spiked covariances.

Every PCA step but ls2pca's sparse one takes its top pair by one solver,
`power_iteration`: Lanczos with full reorthogonalization, stopped once the
top Ritz pair's residual is at most tol times its value, with a flag when
it falls short. `principal_direction` serves every dense PCA step: it reads
a list of row blocks (a trial's labeled and unlabeled rows, or the refit's
unlabeled columns) as if stacked, and solves the explicit float64
covariance when there are at least as many rows as columns, else the n x n
Gram matrix, into which the blocks' products are written in place.
lspca's screened-set PCA solves an implicit RestrictedCovariance; ls2pca's
runs `truncated_power`, which forms A v, keeps its k largest magnitudes
and renormalizes until the iterate moves by at most tol (or a product is
not finite). tol is 1e-6 for a RestrictedCovariance over float32 rows and
1e-9 otherwise. Both solvers take a symmetric PSD operator, an implicit
RestrictedCovariance or an ndarray, and use only `a @ v` and
`a.diagonal()`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InsufficientSamplesError, InvalidSupportError

# Most products one solve forms, in either solver; read at each call.
MAX_ITER = 1000
# Stopping tolerances of both solvers. Products over float32 rows carry about
# 1e-7 relative error, so their solves settle near 1e-6.
_TOL = 1e-9
_F32_TOL = 1e-6
# Most Lanczos vectors power_iteration holds at once. A full basis starts over
# from its top Ritz vector, so neither the basis's memory nor the per-step
# eigh of the tridiagonal matrix grows with MAX_ITER.
LANCZOS_BASIS = 64

# Columns per slab of a cast to float64 (float64_slabs).
COLUMN_BLOCK = 2048
# Rows (columns) per slab of a float64 temporary as wide (tall) as its input.
NARROW_SLAB = 256
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


# The name lspca calls, which perfbench's tracer patches in `estimators`.
restricted_covariance = RestrictedCovariance


def float64_slabs(blocks: list[np.ndarray]):
    """Yield (cols, xs): xs[i] holds columns cols of blocks[i] in float64.
    When every block is float64 there is one slab, the blocks themselves;
    otherwise each slab is COLUMN_BLOCK columns wide and only the blocks
    that need a cast are copied, one slab at a time. The list xs is emptied
    before the next slab is cast, so a consumer that indexes it, rather than
    unpacking it, holds one slab at a time, and none once the loop ends."""
    p = blocks[0].shape[1]
    width = p if all(b.dtype == np.float64 for b in blocks) else COLUMN_BLOCK
    for lo in range(0, p, width):
        cols = slice(lo, lo + width)
        xs = [b[:, cols].astype(np.float64, copy=False) for b in blocks]
        yield cols, xs
        xs.clear()


def _norm(w: np.ndarray) -> float:
    """||w|| as s ||w / s||, with s = 4^j near max |w|: w . w overflows past
    about 1e154, and the exact scaling leaves np.linalg.norm's value there."""
    top = float(np.max(np.abs(w)))
    if not 0.0 < top < np.inf:
        return float(np.linalg.norm(w))
    s = math.ldexp(1.0, 2 * ((math.frexp(top)[1] - 1) // 2))  # max |w / s| in [1, 4)
    return s * float(np.linalg.norm(w / s))


def principal_direction(blocks: list[np.ndarray]) -> PowerResult:
    """Leading eigenpair of the centered 1/n sample covariance of rows, as
    power_iteration's PowerResult: a Ritz pair with residual at most 1e-9
    times its value when `converged`, the vector in p-space (canonical sign;
    e1 for a zero covariance).

    `blocks` is a list of 2-d row blocks of one column count, read as if
    stacked. When n >= p, the solve runs on the explicit p x p covariance.
    When n < p, it runs on the n x n Gram matrix (same nonzero spectrum;
    its top vector u maps back to Y' u): the uncentered Gram matrix is
    summed from the block products blocks[i] @ blocks[j].T in float64,
    mirrored across the diagonal, and centered by the rank-two
    correction G - r 1' - 1 r' + ||m||^2 1 1', with m the column mean,
    r = X m = G 1 / n and ||m||^2 = 1' G 1 / n^2, which leaves it exactly
    symmetric.

    Memory: the Gram side holds the n x n Gram matrix and a NARROW_SLAB x n
    centering temporary; rows that need a cast add a float64 slab (n x
    COLUMN_BLOCK) and a block product. The covariance side (p <= n) centers
    all rows at once, in an n x p float64 array, and holds the p x p matrix.
    """
    n = sum(b.shape[0] for b in blocks)
    if n < 2:
        raise InsufficientSamplesError("covariance needs n >= 2 rows")
    p = blocks[0].shape[1]
    if n < p:
        ends = np.cumsum([b.shape[0] for b in blocks])
        spans = [slice(end - b.shape[0], end) for b, end in zip(blocks, ends)]
        pairs = [(i, j) for i in range(len(blocks)) for j in range(i, len(blocks))]
        gram = np.empty((n, n))
        for cols, xs in float64_slabs(blocks):
            for i, j in pairs:
                if cols.start == 0:  # the first slab writes its products in place
                    np.matmul(xs[i], xs[j].T, out=gram[spans[i], spans[j]])
                else:
                    gram[spans[i], spans[j]] += xs[i] @ xs[j].T
        for i, j in pairs:
            if i < j:
                gram[spans[j], spans[i]] = gram[spans[i], spans[j]].T
        r = gram.sum(axis=1) / n
        r_mean = r.mean()
        for lo in range(0, n, NARROW_SLAB):
            g = gram[lo:lo + NARROW_SLAB]
            g -= r[lo:lo + NARROW_SLAB, None] + r  # r_i + r_j is r_j + r_i: symmetry holds
            g += r_mean
            g /= n
        result = power_iteration(gram)
    else:
        # p <= n: the centered rows are formed whole, in float64; empty
        # blocks stay out, as they would change the stacked array's layout
        y = np.concatenate([b for b in blocks if b.shape[0]], dtype=np.float64)
        y -= y.mean(axis=0)
        result = power_iteration((y.T @ y) / n)
    if result.value <= 0.0:
        # a zero covariance: every vector is an eigenvector; return e1
        result.vector = np.zeros(p)
        result.vector[0] = 1.0
    elif n < p:
        # Y' u = X' (u - mean(u) 1)
        u = result.vector - result.vector.mean()
        v = np.zeros(p)
        for cols, xs in float64_slabs(blocks):
            for i, span in enumerate(spans):
                v[cols] += xs[i].T @ u[span]
        result.vector = canonical_sign(v / _norm(v))
    return result


def _psd_operator(a):
    """A RestrictedCovariance as it is; anything else as a float64 matrix
    checked to be square and symmetric (positive semidefiniteness is the
    caller's promise)."""
    if isinstance(a, RestrictedCovariance):
        return a
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {a.shape}")
    scale = max(float(a.max()), -float(a.min())) if a.size else 0.0
    if scale:
        # a row slab at a time, so the check holds no n x n temporary
        for lo in range(0, a.shape[0], NARROW_SLAB):
            rows = slice(lo, lo + NARROW_SLAB)
            gap = a[rows] - a[:, rows].T
            if float(np.max(np.abs(gap, out=gap))) > _SYMMETRY_TOL * scale:
                raise ContractError("matrix is not symmetric to tolerance")
    return a


@dataclass
class PowerResult:
    vector: np.ndarray
    value: float
    step: float
    iterations: int
    converged: bool
    # Always False (a full Lanczos basis goes on from its Ritz vector, not from
    # a new start); kept for perfbench's tracer, which reads it.
    restarted: bool = False


def _tolerance(a) -> float:
    """Stopping tolerance for a solve on the operator a: float32 rows cap the
    accuracy of A v."""
    f32 = isinstance(a, RestrictedCovariance) and a._rows.dtype == np.float32
    return _F32_TOL if f32 else _TOL


def power_iteration(a) -> PowerResult:
    """Leading eigenpair of a PSD operator by Lanczos iteration (Lanczos, J.
    Res. NBS 1950), started from the standard basis vector at the largest
    diagonal entry (ties: lowest index).

    Each step forms one product A q, orthogonalizes it against the whole
    basis twice (full reorthogonalization; Parlett, The Symmetric Eigenvalue
    Problem, 1980) and takes the top Ritz pair (theta, y) of the tridiagonal
    matrix by a dense eigh. It stops once the Ritz residual
    ||A y - theta y|| = beta_j |s_last| is at most tol * theta, with tol set
    by the operator's storage as for truncated_power. A basis holds at most
    LANCZOS_BASIS vectors; a full one starts over from y. MAX_ITER counts
    products: after that many, returns the last Ritz pair with
    converged=False. `value` is theta and `step` the last residual over theta.
    A step whose product, alpha or norm is not finite ends the solve with
    converged=False, `value` nan and the vector it started the basis from.

    The start can fail: when its component along the top eigenvector is
    below about tol * theta / gap (gap: the top eigenvalue less theta), the
    solve may stop on a lower pair with converged=True. A start orthogonal
    to the top eigenvector always does: on [[1.5, 0, 0], [0, 1, 0.9],
    [0, 0.9, 1]] it starts at e_0, an eigenvector, and returns 1.5 with
    converged=True after one product, though the top eigenvalue is 1.9.
    """
    a = _psd_operator(a)
    diag = a.diagonal()
    if diag.size < 1:
        raise ContractError("operator dimension must be >= 1")
    tol = _tolerance(a)
    y = np.zeros(diag.size)
    y[int(np.argmax(diag))] = 1.0
    result = PowerResult(vector=y, value=0.0, step=0.0, iterations=0, converged=False)
    basis = np.empty((min(LANCZOS_BASIS, diag.size, MAX_ITER), diag.size))
    while result.iterations < MAX_ITER and not result.converged:
        basis[0] = y
        alpha: list[float] = []
        beta: list[float] = []
        for j in range(len(basis)):
            q = basis[:j + 1]
            w = a @ basis[j]
            result.iterations += 1
            h = q @ w
            w -= h @ q
            h2 = q @ w
            w -= h2 @ q
            alpha.append(float(h[j] + h2[j]))
            norm = _norm(w)  # not finite when an entry of w is not
            if not (math.isfinite(alpha[-1]) and math.isfinite(norm)):
                result.value = math.nan
                result.vector = canonical_sign(y)
                return result
            tri = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            values, vectors = np.linalg.eigh(tri)
            theta, s = float(values[-1]), vectors[:, -1]
            residual = norm * abs(float(s[-1]))
            result.value = theta
            result.step = residual / theta if theta > 0.0 else 0.0
            # a zero residual (an invariant subspace, or A = 0) always stops
            result.converged = residual <= tol * abs(theta)
            if result.converged or result.iterations == MAX_ITER or j + 1 == len(basis):
                break
            beta.append(norm)
            basis[j + 1] = w / norm
        y = s @ basis[:s.size]
        y /= float(np.linalg.norm(y))
    result.vector = canonical_sign(y)
    return result


def truncated_power(a, k: int) -> PowerResult:
    """Sparse leading eigenvector of a PSD operator by the truncated power
    method (Yuan & Zhang, JMLR 2013), started from equal weights on the k
    largest diagonal entries.

    Each step forms w = A v, keeps the k largest |w| when k < m (ties: lowest
    index), and renormalizes; it stops once ||v_new - v|| <= tol, with tol
    set by the operator's storage (float32 rows cap the accuracy of A v).
    `value` is the Rayleigh quotient of the iterate the last step started
    from. After MAX_ITER steps without convergence, returns the last iterate
    with converged=False, as does a step whose product or norm is not finite.
    """
    a = _psd_operator(a)
    diag = a.diagonal()
    if not 1 <= k <= diag.size:
        raise ContractError(f"sparsity k must be in [1, {diag.size}], got {k}")
    tol = _tolerance(a)
    v = np.zeros(diag.size)
    v[top_k_indices(diag, k)] = 1.0 / np.sqrt(k)
    result = PowerResult(vector=v, value=0.0, step=0.0, iterations=0, converged=False)
    for _ in range(MAX_ITER):
        w = a @ v
        result.value = theta = float(v @ w)
        result.iterations += 1
        if k < v.size:
            w[np.argsort(-np.abs(w), kind="stable")[k:]] = 0.0
        norm = _norm(w)
        if not (math.isfinite(theta) and math.isfinite(norm)):
            break
        if norm == 0.0:
            # A v = 0: for a PSD operator v leads only if A = 0, where every
            # vector is an eigenvector; return e1 then
            result.converged = not diag.any()
            if result.converged:
                result.vector = np.zeros(v.size)
                result.vector[0] = 1.0
            break
        v_new = w / norm
        result.vector = v_new
        result.step = float(np.linalg.norm(v_new - v))
        if result.step <= tol:
            result.converged = True
            break
        v = v_new
    result.vector = canonical_sign(result.vector)
    return result
