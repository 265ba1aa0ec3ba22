"""Support and direction estimators for the sparse mixture.

Every estimator returns an EstimatorOutput with a size-k support and a unit
direction supported on it. Two labeled summaries serve different
estimators: the class-mean difference pos/n_pos - neg/n_neg (used for
screening) and the label-signed sum pos - neg (the likelihood-maximizing
statistic for the symmetric model); with balanced classes the signed mean
is exactly half the difference. Both come from one statistic, the float64
sums pos and neg of each class's labeled rows, added in row order.

Statistics that several estimators read are computed once per draw and
shared by its prefixes (shared_value): the class sums, kept per labeled
prefix and extended from the largest smaller one, so an ascending L-sweep
reads each labeled row once; per labeled prefix, the class-mean difference
and the label-signed sum, each with its descending-|.| order; per grid
point, the screened RestrictedCovariance that lspca and ls2pca both only
read, one held at a time; and self_train's pseudo-label sums at every grid
point of the draw, from one pass of unlabeled column tiles. The class sums
take the rows they lack in chunks of a fixed byte budget
(Dataset.labeled_chunks) and the tile pass takes tiles of one, each
dropped once used; the draw's sources draw each chunk and tile, or serve
it as a view of a block the trial holds. So only the methods in
READS_WHOLE_BLOCKS keep a block: a reader of the sums alone holds one
chunk of labeled rows at a time, and none beside the screened columns
lspca draws after them, and self_train's pass holds two tile buffers per
draw thread, allocated on the calling thread, whatever L and n are. Every
estimator reads the draw's row blocks in place, casting at most a slab of
columns at once, and a float64 temporary as wide as a block takes as many
of its rows as fit the draw budget (gmodel._draws_that_fit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import (ContractError, ConvergenceError, InsufficientSamplesError,
                     MissingClassError, ScreeningTooSmallError)
from .gmodel import Dataset, ProblemParams, _draws_that_fit
from .spectral import (PowerResult, power_iteration, principal_direction, restricted_covariance,
                       top_k_indices, truncated_power)

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


def _add_by_class(sums: np.ndarray, rows, ys) -> None:
    """Add each row, in order, to its class's float64 sum: sums[0] for label
    +1, sums[1] for -1. Row by row, each sum has the bits of numpy's float64
    mean over the class's gathered rows times its count."""
    for row, y in zip(rows, ys):
        sums[0 if y == 1 else 1] += row


def _new_sums(p: int) -> np.ndarray:
    # -0.0 is the additive identity: a sum started there has the bits of one
    # started at its first row, even where that row holds -0.0
    return np.full((2, p), -0.0)


def _difference(sums: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Class-mean difference from the class sums of rows labeled ys."""
    n_pos = int(np.count_nonzero(ys == 1))
    if n_pos in (0, ys.size):
        raise MissingClassError("class-mean difference needs samples of both labels")
    return sums[0] / n_pos - sums[1] / (ys.size - n_pos)


def shared_value(dataset: Dataset, kind: str, key: tuple, make: Callable):
    """make(), once per draw and key (Dataset.shared); a new key drops its kind's old value first."""
    if dataset.shared.get(kind, (None,))[0] != key:
        dataset.shared.pop(kind, None)
        dataset.shared[kind] = (key, make())
    return dataset.shared[kind][1]


def _class_sums(dataset: Dataset) -> np.ndarray:
    """The class sums of the dataset's L labeled rows (_add_by_class), kept
    per draw and L: an L not yet summed copies the sums of the largest
    smaller L and adds only the rows it lacks. The rows come in row order
    from Dataset.labeled_chunks, views of the drawn block or chunks of a
    fixed byte budget drawn alone, each dropped once added."""
    if dataset.L == 0:
        raise InsufficientSamplesError("need at least one labeled sample")
    kept = dataset.shared.setdefault("class_sums", {})
    if dataset.L not in kept:
        done = max((L for L in kept if L < dataset.L), default=0)
        sums = kept[done].copy() if done else _new_sums(dataset.p)
        dataset.labeled_chunks(done, partial(_add_by_class, sums))
        kept[dataset.L] = sums
    return kept[dataset.L]


def _mean_difference(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Class-mean difference w and its stable descending-|w| order."""
    def make():
        w = _difference(_class_sums(dataset), dataset.labeled_y)
        return w, top_k_indices(np.abs(w), w.size)
    return shared_value(dataset, "mean_difference", (dataset.L,), make)


def _signed_sum(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label-signed sum, its mean w and w's stable descending-|w| order."""
    def make():
        sums = _class_sums(dataset)
        total = sums[0] - sums[1]
        w = total / dataset.L
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

    refit = principal_direction([dataset.unlabeled_columns(support)])
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
    only the pilot's k columns; the confident rows' sum, with weights
    sign(score) on them and 0 elsewhere, comes from _pseudo_label_sums."""
    if not gamma_threshold >= 0:
        raise ContractError(f"threshold must be nonnegative, got {gamma_threshold}")
    labeled_sum, w, _ = _signed_sum(dataset)
    if k > w.size:
        raise ContractError(f"k={k} exceeds dimension {w.size}")
    n_eff, pseudo_sum = 0, 0.0
    if dataset.n:
        n_eff, pseudo_sum = _pseudo_label_sums(dataset, k, gamma_threshold)[dataset.L, dataset.n]
    w_self = (labeled_sum + pseudo_sum) / (dataset.L + n_eff)
    support = top_k_indices(np.abs(w_self), k)
    return _finalize("self_train", w.size, support, w_self[support],
                     aux={"n_eff": n_eff})


def _pseudo_label_sums(dataset: Dataset, k: int, threshold: float) -> dict:
    """(n_eff, pseudo-label sum) at each point (L, n) of the draw's grid with
    L, n >= 1, or at the dataset's own point when it is off the grid, kept
    per draw. Each point's pilot is the top k of its signed mean, taken in
    ascending L from class sums that draw each labeled row once. Each
    distinct L draws its pilot's k columns to score its points' rows; then
    one tile pass (Dataset.unlabeled_tiles) draws every column and reduces
    each tile, in row order, over each point's own rows [0, n), so a
    point's sum depends only on its rows, whichever grid it is on."""
    points = dataset.grid if (dataset.L, dataset.n) in dataset.grid else ((dataset.L, dataset.n),)
    points = tuple((L, n) for L, n in points if L and n)

    def make():
        largest = dataset.prefix(dataset.L, max(n for _, n in points))
        pilots = {}
        for L in sorted({L for L, _ in points}):
            _, w, order = _signed_sum(largest.prefix(L, largest.n))
            pilots[L] = largest.unlabeled_columns(order[:k]), w[order[:k]]
        weights = {}
        for L, n in points:
            cols, values = pilots[L]
            scores = cols[:n] @ values
            weights[L, n] = np.where(np.abs(scores) > threshold, np.sign(scores), 0.0)
        del pilots  # the tile pass holds only the weights
        sums = {point: np.empty(dataset.p) for point in points}

        def reduce(lo, tile):
            # einsum, not BLAS: a row-order sum per column, whose bits do not
            # depend on where the tile came from, and no BLAS threads
            # contending with the draw threads
            for (L, n), wt in weights.items():
                sums[L, n][lo:lo + tile.shape[1]] = np.einsum("i,ij->j", wt, tile[:n])

        largest.unlabeled_tiles(reduce)
        return {point: (int(np.count_nonzero(weights[point])), sums[point]) for point in points}

    return shared_value(dataset, "pseudo_label_sums", (k, threshold, points), make)


def ul_diag_threshold_pca(dataset: Dataset, k: int) -> EstimatorOutput:
    """Unlabeled-only baseline: keep the ceil(k log p) largest-variance
    coordinates, take the leading eigenvector of the covariance there
    (spectral.principal_direction), and keep its k largest magnitudes.

    It reads all L + n feature vectors, labels dropped: the labeled and
    unlabeled blocks in place, as if stacked. The variances take two passes,
    the column means from the blocks' float64 sums, then the squared
    deviations in row order, from float64 slabs of as many whole rows as
    fit the draw budget (gmodel._draws_that_fit; E[x^2] - mean^2 would
    cancel when |mean| >> spread). Only the kept columns are copied out of
    the rows. The solve's convergence flag, product count and eigenvalue go
    in aux, on either side.
    """
    blocks = [dataset.labeled_x, dataset.unlabeled_x]
    n, p = dataset.L + dataset.n, dataset.p
    if n < 2:
        raise InsufficientSamplesError("variance screening needs n >= 2 rows")
    if not 1 <= k <= p:
        raise ContractError(f"k={k} out of range for dimension {p}")
    m = min(p, max(k, int(math.ceil(k * math.log(p)))))
    mean = sum(b.sum(axis=0, dtype=np.float64) for b in blocks) / n
    squares = np.zeros(p)
    for b in blocks:
        total = np.zeros(p)
        step = _draws_that_fit(p, np.float64)
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


def vanilla_pca(dataset: Dataset, k: int) -> EstimatorOutput:
    """Unlabeled-only baseline: the leading eigenvector of the full sample
    covariance (spectral.principal_direction), then its k largest
    magnitudes. It reads all L + n feature vectors, labels dropped: the
    labeled and unlabeled blocks in place, as if stacked. The solve's
    convergence flag, product count and eigenvalue go in aux, with
    dual_gram set when fewer rows than columns send it to the Gram side."""
    p = dataset.p
    res = principal_direction([dataset.labeled_x, dataset.unlabeled_x])
    if not 1 <= k <= p:
        raise ContractError(f"k={k} out of range for dimension {p}")
    local = top_k_indices(np.abs(res.vector), k)
    return _finalize("vanilla_pca", p, local, res.vector[local],
                     aux={"dual_gram": dataset.L + dataset.n < p, **_solve_aux("pca", res)})


# ---------------------------------------------------------------------------
# method registry (harness-facing)
# ---------------------------------------------------------------------------

def resolve_beta_tilde(params: ProblemParams, setting: float | str) -> float:
    """Screening factor: explicit value, or the quarter-gap rule
    beta - (beta - (1 - gamma*alpha))/4 from the implied exponents.

    Falls back to 0.5 when the rule has no value: an exponent is undefined
    (lambda = 0, k < 2, p - k < 2, n = 0) or beta = 0 (L = 0); always
    clamped so the screened set still covers k coordinates.

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
    return ul_diag_threshold_pca(ds, pp.k)


def _run_vanilla(ds: Dataset, pp: ProblemParams, beta_tilde, gamma_threshold) -> EstimatorOutput:
    return vanilla_pca(ds, pp.k)


METHODS: dict[str, Callable[[Dataset, ProblemParams, float | str, float], EstimatorOutput]] = {
    "lspca": _run_lspca,
    "ls2pca": _run_ls2pca,
    "top_k_labeled": _run_top_k,
    "self_train": _run_self_train,
    "ul_diag_threshold_pca": _run_ul_diag,
    "vanilla_pca": _run_vanilla,
}

# The methods that read both blocks whole; a trial that runs one draws them
# up front, and the class sums and self_train's tile pass read them in place.
READS_WHOLE_BLOCKS = frozenset({"ul_diag_threshold_pca", "vanilla_pca"})
