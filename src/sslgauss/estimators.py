"""Support and direction estimators for the sparse mixture.

Every estimator returns an EstimatorOutput with a size-k support and a unit
direction supported on it. Two labeled summaries coexist on purpose: the
class-mean difference (used for screening) and the label-signed mean (the
likelihood-maximizing statistic for the symmetric model); with balanced
classes one is exactly twice the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (ContractError, InsufficientSamplesError, MissingClassError,
                     ScreeningTooSmallError)
from .gmodel import Dataset, ProblemParams
from .spectral import (COLUMN_BLOCK, column_slabs, power_iteration, principal_direction,
                       restricted_covariance, row_blocks, top_k_indices, truncated_power)

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


def _as_labeled(xs, ys, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=dtype)
    ys = np.asarray(ys)
    if xs.ndim != 2 or xs.shape[0] != ys.shape[0]:
        raise ContractError("labeled data must be (L, p) with L matching labels")
    if xs.shape[0] == 0:
        raise InsufficientSamplesError("need at least one labeled sample")
    return xs, ys


def labeled_direction(xs, ys) -> np.ndarray:
    """Class-mean difference: mean of the +1 class minus mean of the -1 class,
    accumulated in float64 whatever the rows' dtype."""
    xs, ys = _as_labeled(xs, ys, dtype=None)
    pos = ys == 1
    neg = ys == -1
    if not pos.any() or not neg.any():
        raise MissingClassError("class-mean difference needs samples of both labels")
    return xs[pos].mean(axis=0, dtype=np.float64) - xs[neg].mean(axis=0, dtype=np.float64)


def signed_mean_direction(xs, ys) -> np.ndarray:
    """Label-signed empirical mean (1/L) sum_i y_i x_i."""
    xs, ys = _as_labeled(xs, ys)
    return (ys.astype(np.float64) @ xs) / xs.shape[0]


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


def top_k_labeled(xs, ys, k: int) -> EstimatorOutput:
    """Support = k largest magnitudes of the signed mean; the direction keeps
    the signed mean's entries there. Maximizes <w, mu'> over all candidate
    sparse means, i.e. the labeled-data likelihood."""
    w = signed_mean_direction(xs, ys)
    if k > w.size:
        raise ContractError(f"k={k} exceeds dimension {w.size}")
    support = top_k_indices(np.abs(w), k)
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
    vector's k largest magnitudes, then takes the exact principal direction
    of the unlabeled rows on the support; the final sign follows the labeled
    direction. The screened set is too large for a dense solver at paper
    scale, so only that step iterates; its convergence flag, product count
    and eigenvalue are recorded in aux. Both steps read their unlabeled
    columns through Dataset.unlabeled_columns, so unless another reader has
    drawn the whole unlabeled block, only the screened columns are drawn.
    """
    if k < 1:
        raise ContractError(f"k must be positive, got {k}")
    w = labeled_direction(dataset.labeled_x, dataset.labeled_y)
    p = dataset.p
    retained = screened_count(p, beta_tilde)
    if retained < k:
        raise ScreeningTooSmallError(
            f"screening keeps {retained} < k = {k} coordinates (beta_tilde = {beta_tilde})")
    screen = top_k_indices(np.abs(w), retained)

    cov_screen = restricted_covariance(dataset.unlabeled_columns(screen))
    if sparse_pca:
        res = truncated_power(cov_screen, k)
    else:
        res = power_iteration(cov_screen)
    local = top_k_indices(np.abs(res.vector), k)
    support = screen[local]

    v_support, value, _ = principal_direction(dataset.unlabeled_columns(support))
    aux = {"screening_size": int(retained), "sparse_pca": sparse_pca,
           "pca_converged": res.converged, "pca_iterations": res.iterations,
           "pca_eigenvalue": res.value, "refit_eigenvalue": value}
    side = float(v_support @ w[support])
    if side < 0.0:
        v_support = -v_support
    return _finalize("ls2pca" if sparse_pca else "lspca",
                     p, support, v_support, aux)


def self_train(dataset: Dataset, k: int, gamma_threshold: float) -> EstimatorOutput:
    """Pseudo-label the unlabeled data with the thresholded signed mean, keep
    confident points (|score| > threshold), refit the signed mean on the
    union, and read the support off its k largest magnitudes. The scores read
    only the pilot's k columns, and the confident rows' sum is formed
    COLUMN_BLOCK columns at a time: the rows are never copied whole."""
    if not gamma_threshold >= 0:
        raise ContractError(f"threshold must be nonnegative, got {gamma_threshold}")
    xs, ys = _as_labeled(dataset.labeled_x, dataset.labeled_y)
    labeled_sum = ys.astype(np.float64) @ xs
    w = labeled_sum / xs.shape[0]  # signed_mean_direction(xs, ys)
    if k > w.size:
        raise ContractError(f"k={k} exceeds dimension {w.size}")
    pilot_support = top_k_indices(np.abs(w), k)

    n_eff = 0
    pseudo_sum = 0.0
    if dataset.n:
        ux = dataset.unlabeled_x
        scores = ux[:, pilot_support] @ w[pilot_support]
        confident = np.abs(scores) > gamma_threshold
        n_eff = int(confident.sum())
        if n_eff:
            signs = np.sign(scores[confident])
            pseudo_sum = np.empty(w.size)
            for lo in range(0, w.size, COLUMN_BLOCK):
                cols = slice(lo, lo + COLUMN_BLOCK)
                pseudo_sum[cols] = signs @ ux[confident, cols].astype(np.float64, copy=False)
    w_self = (labeled_sum + pseudo_sum) / (xs.shape[0] + n_eff)
    support = top_k_indices(np.abs(w_self), k)
    return _finalize("self_train", w.size, support, w_self[support],
                     aux={"n_eff": n_eff})


def ul_diag_threshold_pca(rows, k: int) -> EstimatorOutput:
    """Unlabeled-only baseline: keep the ceil(k log p) largest-variance
    coordinates, take the exact leading eigenvector of the covariance there
    (spectral.principal_direction), and keep its k largest magnitudes.

    `rows` is one array or a sequence of row blocks read as if stacked. The
    variances are taken a column slab at a time; only the kept columns are
    copied out of the rows.
    """
    blocks = row_blocks(rows)
    n = sum(b.shape[0] for b in blocks)
    if n < 2:
        raise InsufficientSamplesError("variance screening needs n >= 2 rows")
    p = blocks[0].shape[1]
    if not 1 <= k <= p:
        raise ContractError(f"k={k} out of range for dimension {p}")
    m = min(p, max(k, int(math.ceil(k * math.log(p)))))
    variances = np.empty(p)
    for cols, x in column_slabs(blocks):
        variances[cols] = np.var(x, axis=0, dtype=np.float64)
    keep = top_k_indices(variances, m)
    v, value, _ = principal_direction([b[:, keep] for b in blocks])
    local = top_k_indices(np.abs(v), k)
    return _finalize("ul_diag_threshold_pca", p, keep[local], v[local],
                     aux={"screening_size": int(m), "pca_eigenvalue": value})


def vanilla_pca(rows, k: int) -> EstimatorOutput:
    """Unlabeled-only baseline: the exact leading eigenvector of the full
    sample covariance (spectral.principal_direction), then its k largest
    magnitudes. `rows` is one array or a sequence of row blocks read as if
    stacked, a column slab at a time."""
    v, value, dual_gram = principal_direction(rows)
    if not 1 <= k <= v.size:
        raise ContractError(f"k={k} out of range for dimension {v.size}")
    local = top_k_indices(np.abs(v), k)
    return _finalize("vanilla_pca", v.size, local, v[local],
                     aux={"dual_gram": dual_gram, "pca_eigenvalue": value})


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
    return top_k_labeled(ds.labeled_x, ds.labeled_y, pp.k)


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
