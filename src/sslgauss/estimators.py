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
from .spectral import (DEFAULT_TOL, power_iteration, principal_direction,
                       restricted_covariance, top_k_indices, truncated_power)

# Storage in float32 caps achievable matvec accuracy; the screening solver's
# tolerance is loosened accordingly.
_F32_TOL = 1e-6
_DEFAULT_BETA_TILDE = 0.5


@dataclass(frozen=True)
class EstimatorOutput:
    """Size-k support estimate plus a unit-norm direction on that support."""

    method: str
    support: np.ndarray          # sorted, k indices into [p]
    direction: np.ndarray        # length p, float64, ||.|| = 1
    aux: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return int(self.support.size)


@dataclass(frozen=True)
class LspcaConfig:
    """Inputs of the screening-then-PCA scheme: target sparsity, screening
    factor, and whether the PCA step itself enforces sparsity."""

    k: int
    beta_tilde: float
    sparse_pca: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ContractError(f"k must be positive, got {self.k}")
        if not 0.0 < self.beta_tilde < 1.0:
            raise ContractError(f"beta_tilde must lie in (0, 1), got {self.beta_tilde}")

    def retained_count(self, p: int) -> int:
        """Screening keeps ceil(p ** (1 - beta_tilde)) coordinates."""
        return min(p, int(math.ceil(p ** (1.0 - self.beta_tilde) - 1e-9)))


def _as_f64_labeled(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys)
    if xs.ndim != 2 or xs.shape[0] != ys.shape[0]:
        raise ContractError("labeled data must be (L, p) with L matching labels")
    if xs.shape[0] == 0:
        raise InsufficientSamplesError("need at least one labeled sample")
    return xs, ys


def labeled_direction(xs, ys) -> np.ndarray:
    """Class-mean difference: mean of the +1 class minus mean of the -1 class."""
    xs, ys = _as_f64_labeled(xs, ys)
    pos = ys == 1
    neg = ys == -1
    if not pos.any() or not neg.any():
        raise MissingClassError("class-mean difference needs samples of both labels")
    return xs[pos].mean(axis=0) - xs[neg].mean(axis=0)


def signed_mean_direction(xs, ys) -> np.ndarray:
    """Label-signed empirical mean (1/L) sum_i y_i x_i."""
    xs, ys = _as_f64_labeled(xs, ys)
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


def lspca(dataset: Dataset, config: LspcaConfig) -> EstimatorOutput:
    """Label screening followed by PCA on the unlabeled covariance.

    Step I ranks coordinates by |class-mean difference| and keeps the top
    ceil(p**(1-beta_tilde)). Step II takes the leading eigenvector of the
    unlabeled covariance restricted to the screened set by power iteration
    (truncated to k nonzeros when sparse_pca is set), reads the support off
    its k largest magnitudes, then takes the exact principal direction of
    the unlabeled rows on the support; the final sign follows the labeled
    direction. The screened set is too large for a dense solver at paper
    scale, so only that step iterates; its convergence flag, iteration count
    and eigenvalue are recorded in aux.
    """
    w = labeled_direction(dataset.labeled_x, dataset.labeled_y)
    p = dataset.p
    retained = config.retained_count(p)
    if retained < config.k:
        raise ScreeningTooSmallError(
            f"screening keeps {retained} < k = {config.k} coordinates "
            f"(beta_tilde = {config.beta_tilde})")
    screen = top_k_indices(np.abs(w), retained)
    tol = _F32_TOL if dataset.unlabeled_x.dtype == np.float32 else DEFAULT_TOL

    cov_screen = restricted_covariance(dataset.unlabeled_x, screen)
    if config.sparse_pca:
        res = truncated_power(cov_screen, config.k, tol=tol)
    else:
        res = power_iteration(cov_screen, tol=tol)
    local = top_k_indices(np.abs(res.vector), config.k)
    support = screen[local]

    v_support, value, _ = principal_direction(dataset.unlabeled_x[:, support])
    aux = {"screening_size": int(retained), "sparse_pca": config.sparse_pca,
           "pca_converged": res.converged, "pca_iterations": res.iterations,
           "pca_eigenvalue": res.value, "refit_eigenvalue": value}
    side = float(v_support @ w[support])
    if side < 0.0:
        v_support = -v_support
    return _finalize("ls2pca" if config.sparse_pca else "lspca",
                     p, support, v_support, aux)


def self_train(dataset: Dataset, k: int, gamma_threshold: float = 0.8) -> EstimatorOutput:
    """Pseudo-label the unlabeled data with the thresholded signed mean, keep
    confident points (|score| > threshold), refit the signed mean on the
    union, and read the support off its k largest magnitudes."""
    if gamma_threshold < 0:
        raise ContractError(f"threshold must be nonnegative, got {gamma_threshold}")
    xs, ys = _as_f64_labeled(dataset.labeled_x, dataset.labeled_y)
    w = signed_mean_direction(xs, ys)
    if k > w.size:
        raise ContractError(f"k={k} exceeds dimension {w.size}")
    pilot_support = top_k_indices(np.abs(w), k)
    pilot = np.zeros_like(w)
    pilot[pilot_support] = w[pilot_support]

    labeled_sum = ys.astype(np.float64) @ xs
    n_eff = 0
    pseudo_sum = 0.0
    if dataset.n:
        scores = dataset.unlabeled_x @ pilot
        confident = np.abs(scores) > gamma_threshold
        n_eff = int(confident.sum())
        if n_eff:
            signs = np.sign(scores[confident])
            pseudo_sum = signs @ dataset.unlabeled_x[confident].astype(np.float64, copy=False)
    w_self = (labeled_sum + pseudo_sum) / (xs.shape[0] + n_eff)
    support = top_k_indices(np.abs(w_self), k)
    return _finalize("self_train", w.size, support, w_self[support],
                     aux={"n_eff": n_eff})


def ul_diag_threshold_pca(xs: np.ndarray, k: int) -> EstimatorOutput:
    """Unlabeled-only baseline: keep the ceil(k log p) largest-variance
    coordinates, take the exact leading eigenvector of the covariance there
    (spectral.principal_direction), and keep its k largest magnitudes."""
    xs = np.asarray(xs)
    if xs.ndim != 2 or xs.shape[0] < 2:
        raise InsufficientSamplesError("variance screening needs n >= 2 rows")
    n, p = xs.shape
    if not 1 <= k <= p:
        raise ContractError(f"k={k} out of range for dimension {p}")
    m = min(p, max(k, int(math.ceil(k * math.log(p)))))
    variances = np.var(xs, axis=0, dtype=np.float64)
    keep = top_k_indices(variances, m)
    v, value, _ = principal_direction(xs[:, keep])
    local = top_k_indices(np.abs(v), k)
    return _finalize("ul_diag_threshold_pca", p, keep[local], v[local],
                     aux={"screening_size": int(m), "pca_eigenvalue": value})


def vanilla_pca(xs: np.ndarray, k: int) -> EstimatorOutput:
    """Unlabeled-only baseline: the exact leading eigenvector of the full
    sample covariance (spectral.principal_direction), then its k largest
    magnitudes."""
    v, value, dual_gram = principal_direction(xs)
    if not 1 <= k <= v.size:
        raise ContractError(f"k={k} out of range for dimension {v.size}")
    local = top_k_indices(np.abs(v), k)
    return _finalize("vanilla_pca", v.size, local, v[local],
                     aux={"dual_gram": dual_gram, "pca_eigenvalue": value})


# ---------------------------------------------------------------------------
# method registry (harness-facing)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodOptions:
    """Per-run estimator knobs shared across methods."""

    beta_tilde: float | str = "auto"
    gamma_threshold: float = 0.8


def resolve_beta_tilde(params: ProblemParams, setting: float | str = "auto") -> float:
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


def _run_lspca(ds: Dataset, pp: ProblemParams, opts: MethodOptions) -> EstimatorOutput:
    cfg = LspcaConfig(k=pp.k, beta_tilde=resolve_beta_tilde(pp, opts.beta_tilde))
    return lspca(ds, cfg)


def _run_ls2pca(ds: Dataset, pp: ProblemParams, opts: MethodOptions) -> EstimatorOutput:
    cfg = LspcaConfig(k=pp.k, beta_tilde=resolve_beta_tilde(pp, opts.beta_tilde),
                      sparse_pca=True)
    return lspca(ds, cfg)


def _run_top_k(ds: Dataset, pp: ProblemParams, opts: MethodOptions) -> EstimatorOutput:
    return top_k_labeled(ds.labeled_x, ds.labeled_y, pp.k)


def _run_self_train(ds: Dataset, pp: ProblemParams, opts: MethodOptions) -> EstimatorOutput:
    return self_train(ds, pp.k, gamma_threshold=opts.gamma_threshold)


def _run_ul_diag(ds: Dataset, pp: ProblemParams, opts: MethodOptions) -> EstimatorOutput:
    # unlabeled baselines consume every available vector, labels dropped
    return ul_diag_threshold_pca(ds.all_vectors(), pp.k)


def _run_vanilla(ds: Dataset, pp: ProblemParams, opts: MethodOptions) -> EstimatorOutput:
    return vanilla_pca(ds.all_vectors(), pp.k)


METHODS: dict[str, Callable[[Dataset, ProblemParams, MethodOptions], EstimatorOutput]] = {
    "lspca": _run_lspca,
    "ls2pca": _run_ls2pca,
    "top_k_labeled": _run_top_k,
    "self_train": _run_self_train,
    "ul_diag_threshold_pca": _run_ul_diag,
    "vanilla_pca": _run_vanilla,
}
