"""Support and direction estimators for the sparse mixture.

Every estimator returns an EstimatorOutput with a size-k support and a unit
direction supported on it. Two labeled summaries coexist on purpose: the
class-mean difference (used for screening) and the label-signed mean (the
likelihood-maximizing statistic for the symmetric model); with balanced
classes one is exactly twice the other.

Statistics that several estimators read are computed once per draw and
shared by its prefixes (shared_value): per labeled prefix, the class-mean
difference and the label-signed sum, each with its descending-|.| order;
per grid point, the screened RestrictedCovariance that lspca and ls2pca
both only read, one held at a time. Every estimator reads the draw's row
blocks in place, gathering or casting at most a slab of columns at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (ContractError, ConvergenceError, InsufficientSamplesError,
                     MissingClassError, ScreeningTooSmallError)
from .gmodel import Dataset, ProblemParams
from .spectral import (COLUMN_BLOCK, NARROW_SLAB, PowerResult, float64_slabs, power_iteration,
                       principal_direction, restricted_covariance, row_blocks, top_k_indices,
                       truncated_power)

_DEFAULT_BETA_TILDE = 0.5


@dataclass(frozen=True)
class EstimatorOutput:
    """Size-k support estimate plus a unit-norm direction on that support."""

    method: str
    support: np.ndarray          # sorted, k indices into [p]
    direction: np.ndarray        # length p, float64, ||.|| = 1
    aux: dict = field(default_factory=dict)


def screened_count(p: int, beta_tilde: float) -> int:
    """Screening keeps ceil(p ** (1 - beta_tilde)) coordinates."""
    if not 0.0 < beta_tilde < 1.0:
        raise ContractError(f"beta_tilde must lie in (0, 1), got {beta_tilde}")
    return min(p, int(math.ceil(p ** (1.0 - beta_tilde) - 1e-9)))


def _as_labeled(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if xs.ndim != 2 or xs.shape[0] != ys.shape[0]:
        raise ContractError("labeled data must be (L, p) with L matching labels")
    if xs.shape[0] == 0:
        raise InsufficientSamplesError("need at least one labeled sample")
    return xs, ys


def labeled_direction(xs, ys) -> np.ndarray:
    """Class-mean difference: mean of the +1 class minus mean of the -1 class,
    accumulated in float64 whatever the rows' dtype. Each class's rows are
    gathered COLUMN_BLOCK columns at a time."""
    xs, ys = _as_labeled(xs, ys)
    pos = ys == 1
    neg = ys == -1
    if not pos.any() or not neg.any():
        raise MissingClassError("class-mean difference needs samples of both labels")
    w = np.empty(xs.shape[1])
    for lo in range(0, w.size, COLUMN_BLOCK):
        cols = slice(lo, lo + COLUMN_BLOCK)
        w[cols] = (xs[pos, cols].mean(axis=0, dtype=np.float64)
                   - xs[neg, cols].mean(axis=0, dtype=np.float64))
    return w


def signed_mean_direction(xs, ys) -> np.ndarray:
    """Label-signed empirical mean (1/L) sum_i y_i x_i."""
    xs, ys = _as_labeled(xs, ys)
    return (ys.astype(np.float64) @ xs.astype(np.float64)) / xs.shape[0]


def shared_value(dataset: Dataset, kind: str, key: tuple, make: Callable):
    """make(), once per draw and key (Dataset.shared); a new key drops its kind's old value first."""
    if dataset.shared.get(kind, (None,))[0] != key:
        dataset.shared.pop(kind, None)
        dataset.shared[kind] = (key, make())
    return dataset.shared[kind][1]


def _mean_difference(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Class-mean difference w and its stable descending-|w| order."""
    def make():
        w = labeled_direction(dataset.labeled_x, dataset.labeled_y)
        return w, top_k_indices(np.abs(w), w.size)
    return shared_value(dataset, "mean_difference", (dataset.L,), make)


def _signed_sum(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label-signed sum, its mean w and w's stable descending-|w| order."""
    def make():
        xs, ys = _as_labeled(dataset.labeled_x, dataset.labeled_y)
        total = np.concatenate([ys.astype(np.float64) @ slab[0] for _, slab in float64_slabs([xs])])
        w = total / xs.shape[0]
        return total, w, top_k_indices(np.abs(w), w.size)
    return shared_value(dataset, "signed_sum", (dataset.L,), make)


def _solve_aux(step: str, res: PowerResult) -> dict:
    """A solve's record in EstimatorOutput.aux: its convergence flag, product
    count and eigenvalue, under {step}_converged, _iterations, _eigenvalue."""
    return {f"{step}_converged": res.converged, f"{step}_iterations": res.iterations,
            f"{step}_eigenvalue": res.value}


def _finalize(method: str, p: int, support: np.ndarray, values: np.ndarray,
              aux: dict) -> EstimatorOutput:
    """Assemble the output contract: sorted support, embedded unit direction."""
    order = np.argsort(support, kind="stable")
    support = np.asarray(support, dtype=np.int64)[order]
    values = np.asarray(values, dtype=np.float64)[order]
    nrm = float(np.linalg.norm(values))
    if nrm == 0.0:
        values = np.full(support.size, 1.0 / math.sqrt(support.size))
    else:
        values = values / nrm
    direction = np.zeros(p, dtype=np.float64)
    direction[support] = values
    return EstimatorOutput(method=method, support=support, direction=direction, aux=aux)


def top_k_labeled(dataset: Dataset, k: int) -> EstimatorOutput:
    """Support = k largest magnitudes of the labeled rows' signed mean; the
    direction keeps the signed mean's entries there. Maximizes <w, mu'> over
    all candidate sparse means, i.e. the labeled-data likelihood."""
    _, w, order = _signed_sum(dataset)
    if k > w.size:
        raise ContractError(f"k={k} exceeds dimension {w.size}")
    support = order[:k]
    return _finalize("top_k_labeled", w.size, support, w[support], aux={})


def lspca(dataset: Dataset, k: int, beta_tilde: float,
          sparse_pca: bool = False) -> EstimatorOutput:
    """Label screening followed by PCA on the unlabeled covariance.

    Step I ranks coordinates by |class-mean difference| and keeps the top
    ceil(p**(1-beta_tilde)). Step II takes the leading eigenvector of the
    unlabeled covariance restricted to the screened set iteratively: by
    Lanczos (spectral.power_iteration), or by the truncated power method at
    k nonzeros when sparse_pca is set, with the stopping tolerance spectral
    derives from the rows' storage dtype. It reads the support off that
    vector's k largest magnitudes, then refits the principal direction of
    the unlabeled rows on the support (spectral.principal_direction); the
    final sign follows the labeled direction. Each solve's convergence flag,
    product count and eigenvalue go in aux, as pca_* for the screened-set
    solve and refit_* for the refit; either solve ending on a non-finite
    eigenpair raises ConvergenceError. Both steps read their unlabeled
    columns through Dataset.unlabeled_columns, so unless another reader has
    drawn the whole unlabeled block, only the screened columns are drawn.
    """
    if k < 1:
        raise ContractError(f"k must be positive, got {k}")
    w, order = _mean_difference(dataset)
    p = dataset.p
    retained = screened_count(p, beta_tilde)
    if retained < k:
        raise ScreeningTooSmallError(
            f"screening keeps {retained} < k = {k} coordinates (beta_tilde = {beta_tilde})")
    screen = order[:retained]

    cov_screen = shared_value(dataset, "screened_covariance", (dataset.L, dataset.n, retained),
                              lambda: restricted_covariance(dataset.unlabeled_columns(screen)))
    if sparse_pca:
        res = truncated_power(cov_screen, k)
    else:
        res = power_iteration(cov_screen)
    local = top_k_indices(np.abs(res.vector), k)
    support = screen[local]

    refit = principal_direction(dataset.unlabeled_columns(support))
    for step, solve in (("screened-set", res), ("refit", refit)):
        if not (math.isfinite(solve.value) and np.isfinite(solve.vector).all()):
            raise ConvergenceError(f"the {step} solve is not finite (eigenvalue {solve.value})")
    v_support = refit.vector
    aux = {"screening_size": int(retained), "sparse_pca": sparse_pca,
           **_solve_aux("pca", res), **_solve_aux("refit", refit)}
    side = float(v_support @ w[support])
    if side < 0.0:
        v_support = -v_support
    return _finalize("ls2pca" if sparse_pca else "lspca",
                     p, support, v_support, aux)


def self_train(dataset: Dataset, k: int, gamma_threshold: float) -> EstimatorOutput:
    """Pseudo-label the unlabeled data with the thresholded signed mean, keep
    confident points (|score| > threshold), refit the signed mean on the
    union, and read the support off its k largest magnitudes. The scores read
    only the pilot's k columns; the confident rows' sum is one product of
    the rows, in place, with weights sign(score) on them and 0 elsewhere
    (float32 rows are cast COLUMN_BLOCK columns at a time)."""
    if not gamma_threshold >= 0:
        raise ContractError(f"threshold must be nonnegative, got {gamma_threshold}")
    labeled_sum, w, order = _signed_sum(dataset)
    if k > w.size:
        raise ContractError(f"k={k} exceeds dimension {w.size}")
    pilot_support = order[:k]

    n_eff, pseudo_sum = 0, 0.0
    if dataset.n:
        ux = dataset.unlabeled_x
        scores = ux[:, pilot_support] @ w[pilot_support]
        weights = np.where(np.abs(scores) > gamma_threshold, np.sign(scores), 0.0)
        n_eff = int(np.count_nonzero(weights))
        pseudo_sum = np.concatenate([weights @ slab[0] for _, slab in float64_slabs([ux])])
    w_self = (labeled_sum + pseudo_sum) / (dataset.L + n_eff)
    support = top_k_indices(np.abs(w_self), k)
    return _finalize("self_train", w.size, support, w_self[support],
                     aux={"n_eff": n_eff})


def ul_diag_threshold_pca(rows, k: int) -> EstimatorOutput:
    """Unlabeled-only baseline: keep the ceil(k log p) largest-variance
    coordinates, take the leading eigenvector of the covariance there
    (spectral.principal_direction), and keep its k largest magnitudes.

    `rows` is one array or a sequence of row blocks read as if stacked, in
    place. The variances take two passes, the column means from the blocks'
    float64 sums, then the squared deviations in row order, from float64
    slabs of whole rows no larger than NARROW_SLAB columns of the block
    (E[x^2] - mean^2 would cancel when |mean| >> spread). Only the kept
    columns are copied out of the rows. The solve's convergence flag,
    product count and eigenvalue go in aux, on either side.
    """
    blocks = row_blocks(rows)
    n = sum(b.shape[0] for b in blocks)
    if n < 2:
        raise InsufficientSamplesError("variance screening needs n >= 2 rows")
    p = blocks[0].shape[1]
    if not 1 <= k <= p:
        raise ContractError(f"k={k} out of range for dimension {p}")
    m = min(p, max(k, int(math.ceil(k * math.log(p)))))
    mean = sum(b.sum(axis=0, dtype=np.float64) for b in blocks) / n
    squares = np.zeros(p)
    for b in blocks:
        total = np.zeros(p)
        step = max(1, NARROW_SLAB * b.shape[0] // p)
        for lo in range(0, b.shape[0], step):
            d = b[lo:lo + step] - mean
            for row in np.square(d, out=d):
                total += row
        squares += total
    keep = top_k_indices(squares / n, m)
    res = principal_direction([b[:, keep] for b in blocks])
    local = top_k_indices(np.abs(res.vector), k)
    return _finalize("ul_diag_threshold_pca", p, keep[local], res.vector[local],
                     aux={"screening_size": int(m), **_solve_aux("pca", res)})


def vanilla_pca(rows, k: int) -> EstimatorOutput:
    """Unlabeled-only baseline: the leading eigenvector of the full sample
    covariance (spectral.principal_direction), then its k largest
    magnitudes. `rows` is one array or a sequence of row blocks read as if
    stacked, in place. The solve's convergence flag, product count and
    eigenvalue go in aux, with dual_gram set when fewer rows than columns
    send it to the Gram side."""
    blocks = row_blocks(rows)
    res = principal_direction(blocks)
    v = res.vector
    if not 1 <= k <= v.size:
        raise ContractError(f"k={k} out of range for dimension {v.size}")
    local = top_k_indices(np.abs(v), k)
    return _finalize("vanilla_pca", v.size, local, v[local],
                     aux={"dual_gram": sum(b.shape[0] for b in blocks) < v.size,
                          **_solve_aux("pca", res)})


# ---------------------------------------------------------------------------
# method registry (harness-facing)
# ---------------------------------------------------------------------------

def resolve_beta_tilde(params: ProblemParams, setting: float | str) -> float:
    """Screening factor: explicit value, or the quarter-gap rule
    beta - (beta - (1 - gamma*alpha))/4 from the implied exponents.

    Falls back to 0.5 when the exponents are undefined (lambda = 0, k < 2,
    n = 0); always clamped so the screened set still covers k coordinates.

    The rule is asymptotic: in the blue band at p = 20000 it holds the
    expected share of the true support that screening keeps near 0.72,
    whatever beta; a beta_tilde nearer 1 - gamma*alpha keeps more.
    """
    hi = max(min(1.0 - params.alpha, 1.0 - 1e-9), 1e-9)
    if setting != "auto":
        value = float(setting)
        if not 0.0 < value < 1.0:
            raise ContractError(f"beta_tilde must lie in (0, 1), got {value}")
        return value
    a, b, g = params.alpha, params.beta, params.gamma
    if math.isfinite(b) and math.isfinite(g) and b > 0:
        value = b - (b - (1.0 - g * a)) / 4.0
    else:
        value = _DEFAULT_BETA_TILDE
    return min(max(value, 1e-9), hi)


# Every entry takes (dataset, params, beta_tilde, gamma_threshold): the two
# run-level options, passed as the config holds them.

def _run_lspca(ds: Dataset, pp: ProblemParams, beta_tilde, gamma_threshold) -> EstimatorOutput:
    return lspca(ds, pp.k, resolve_beta_tilde(pp, beta_tilde))


def _run_ls2pca(ds: Dataset, pp: ProblemParams, beta_tilde, gamma_threshold) -> EstimatorOutput:
    return lspca(ds, pp.k, resolve_beta_tilde(pp, beta_tilde), sparse_pca=True)


def _run_top_k(ds: Dataset, pp: ProblemParams, beta_tilde, gamma_threshold) -> EstimatorOutput:
    return top_k_labeled(ds, pp.k)


def _run_self_train(ds: Dataset, pp: ProblemParams, beta_tilde,
                    gamma_threshold) -> EstimatorOutput:
    return self_train(ds, pp.k, gamma_threshold)


def _run_ul_diag(ds: Dataset, pp: ProblemParams, beta_tilde, gamma_threshold) -> EstimatorOutput:
    # unlabeled baselines read every available vector in place, labels dropped
    return ul_diag_threshold_pca((ds.labeled_x, ds.unlabeled_x), pp.k)


def _run_vanilla(ds: Dataset, pp: ProblemParams, beta_tilde, gamma_threshold) -> EstimatorOutput:
    return vanilla_pca((ds.labeled_x, ds.unlabeled_x), pp.k)


METHODS: dict[str, Callable[[Dataset, ProblemParams, float | str, float], EstimatorOutput]] = {
    "lspca": _run_lspca,
    "ls2pca": _run_ls2pca,
    "top_k_labeled": _run_top_k,
    "self_train": _run_self_train,
    "ul_diag_threshold_pca": _run_ul_diag,
    "vanilla_pca": _run_vanilla,
}
