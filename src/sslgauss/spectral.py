"""Minimal dense linear algebra for spiked covariances.

Three pieces: the centered sample covariance restricted to an index set
(materialized for small dimension, kept as an implicit operator otherwise),
a deterministic power iteration for the leading eigenvector, and a truncated
power method that alternates a power step with hard thresholding for sparse
eigenvectors. Both solvers take a symmetric positive semidefinite operator,
a RestrictedCovariance or an ndarray, and use only `a @ v` and `a.diagonal()`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InsufficientSamplesError, InvalidSupportError

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 1000

# Above this dimension the restricted covariance stays implicit (matrix-vector
# products against the centered rows) to avoid m^2 memory.
EXPLICIT_MAX_DIM = 2000

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
    """Sample covariance of rows restricted to an index set T, centered by the
    empirical mean and normalized by 1/n.

    PSD by construction. Explicit when |T| <= explicit_max_dim, otherwise
    products are formed against the centered restricted rows.
    """

    def __init__(self, rows: np.ndarray, indices, explicit_max_dim: int = EXPLICIT_MAX_DIM):
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ContractError("rows must be a 2-d array of samples")
        n, p = rows.shape
        if n < 2:
            raise InsufficientSamplesError(f"covariance needs n >= 2 samples, got {n}")
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size == 0:
            raise InvalidSupportError("index set must be nonempty")
        if np.unique(idx).size != idx.size:
            raise InvalidSupportError("index set contains duplicates")
        if idx.min() < 0 or idx.max() >= p:
            raise InvalidSupportError(f"index out of range for dimension p={p}")

        self.indices = idx
        self.dim = int(idx.size)
        self.n_samples = n

        y = rows[:, idx]  # fancy indexing copies; safe to center in place
        if self.dim <= explicit_max_dim:
            y = y.astype(np.float64, copy=False)
            y -= y.mean(axis=0)
            self._matrix = (y.T @ y) / n
            self._rows = None
            self._diag = np.diag(self._matrix).copy()
        else:
            y -= y.mean(axis=0, dtype=y.dtype)
            self._matrix = None
            self._rows = y
            self._diag = np.einsum("ij,ij->j", y, y, dtype=np.float64) / n

    @property
    def is_explicit(self) -> bool:
        return self._matrix is not None

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix @ v
        w = self._rows @ v.astype(self._rows.dtype, copy=False)
        return np.asarray(self._rows.T @ w, dtype=np.float64) / self.n_samples

    def diagonal(self) -> np.ndarray:
        return self._diag.copy()

    def matrix(self) -> np.ndarray:
        """Materialize the m x m matrix (intended for small m / tests)."""
        if self._matrix is not None:
            return self._matrix.copy()
        y = self._rows.astype(np.float64)
        return (y.T @ y) / self.n_samples


def restricted_covariance(rows: np.ndarray, indices,
                          explicit_max_dim: int = EXPLICIT_MAX_DIM) -> RestrictedCovariance:
    """Empirical covariance of `rows` restricted to `indices` (0-based)."""
    return RestrictedCovariance(rows, indices, explicit_max_dim=explicit_max_dim)


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
    residual: float
    iterations: int
    converged: bool
    # Always False (the solvers run once); kept for perfbench's tracer, which reads it.
    restarted: bool = False


def _zero_operator_result(m: int) -> PowerResult:
    """The zero operator: every vector is an eigenvector; return e1."""
    e1 = np.zeros(m)
    e1[0] = 1.0
    return PowerResult(vector=e1, value=0.0, residual=0.0, iterations=0, converged=True)


def power_iteration(a, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> PowerResult:
    """Leading eigenpair of a PSD operator by power iteration.

    Starts from the standard basis vector at the largest diagonal entry
    (ties: lowest index) and stops when the residual ||A v - theta v|| falls
    below tol times the operator's scale. After max_iter steps without that,
    returns the last iterate with converged=False.
    """
    a = _psd_operator(a)
    diag = a.diagonal()
    m = diag.size
    if m < 1:
        raise ContractError("operator dimension must be >= 1")
    diag_scale = float(np.max(np.abs(diag)))
    if diag_scale == 0.0:
        return _zero_operator_result(m)

    result = PowerResult(vector=np.zeros(m), value=0.0, residual=0.0,
                         iterations=0, converged=False)
    v = np.zeros(m)
    v[int(np.argmax(diag))] = 1.0
    for _ in range(max_iter):
        w = a @ v
        theta = float(v @ w)
        resid = float(np.linalg.norm(w - theta * v))
        result.vector, result.value, result.residual = v, theta, resid
        result.iterations += 1
        if resid <= tol * max(abs(theta), diag_scale):
            result.converged = True
            break
        v = w / float(np.linalg.norm(w))
    result.vector = canonical_sign(result.vector)
    return result


def _truncate(w: np.ndarray, k: int) -> np.ndarray:
    keep = top_k_indices(np.abs(w), k)
    out = np.zeros_like(w)
    out[keep] = w[keep]
    return out


def truncated_power(a, k: int, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> PowerResult:
    """Sparse leading eigenvector of a PSD operator: power step, keep the k
    largest magnitudes, renormalize.

    Initialized from the k largest diagonal entries with equal weights.
    Converges when the iterate stops moving; otherwise, as in
    power_iteration, returns the last iterate with converged=False.
    """
    a = _psd_operator(a)
    diag = a.diagonal()
    m = diag.size
    if not 1 <= k <= m:
        raise ContractError(f"sparsity k must be in [1, {m}], got {k}")
    if float(np.max(np.abs(diag))) == 0.0:
        return _zero_operator_result(m)

    result = PowerResult(vector=np.zeros(m), value=0.0, residual=0.0,
                         iterations=0, converged=False)
    v = np.zeros(m)
    v[top_k_indices(diag, k)] = 1.0 / np.sqrt(k)
    for _ in range(max_iter):
        w = a @ v
        theta = float(v @ w)
        result.iterations += 1
        wb = _truncate(w, k)
        nb = float(np.linalg.norm(wb))
        if nb == 0.0:
            # the iterate lies in the null space of the operator
            result.vector, result.value = v, theta
            break
        v_new = wb / nb
        step = float(np.linalg.norm(v_new - v))
        result.vector, result.value, result.residual = v_new, theta, step
        if step <= tol:
            result.converged = True
            break
        v = v_new
    result.vector = canonical_sign(result.vector)
    return result
