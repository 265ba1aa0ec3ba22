"""Semi-supervised sparse Gaussian classification toolkit.

Generative model, label-screening PCA and baseline estimators, closed-form
risk metrics, recovery-threshold and polynomial-hardness calculators, and a
reproducible Monte Carlo harness with a CLI front end.
"""

from . import errors
from .estimators import (EstimatorOutput, METHODS, labeled_direction, lspca,
                         resolve_beta_tilde, screened_count, self_train,
                         signed_mean_direction, top_k_labeled,
                         ul_diag_threshold_pca, vanilla_pca)
from .gmodel import (Dataset, ProblemParams, SparseMean, k_from_alpha, labeled_count,
                     make_sparse_mean, sample_dataset, unlabeled_count)
from .harness import (AggregateRow, ExperimentConfig, TrialRecord, aggregate,
                      read_config, run_sweep, run_trial, write_csv)
from .metrics import (empirical_error, excess_risk, generalization_error, phi_c,
                      support_overlap)
from .spectral import power_iteration, restricted_covariance, truncated_power
from .theory import (RegionLabel, ThresholdReport, Verdict, fusion_verdict,
                     hypergeom_overlap_moment, hypergeom_overlap_pmf, lowdeg_norm_exact,
                     lowdeg_norm_mc, lowdeg_norm_upper_bound, rademacher_sum_moment,
                     region_classify, sl_threshold, ul_threshold)

__version__ = "0.1.0"
