"""Transductive Boltzmann machines.

Exact maximum-likelihood learning of Gibbs distributions over a reduced,
data-derived sample space, with frequent-itemset parameter selection,
fully visible BM and PCD-1 RBM baselines, shared evaluation metrics, and an
information-geometry experiment harness.
"""

from .baselines import (
    FullBMModel,
    RBMConfig,
    RBMModel,
    fit_full_bm,
    fit_rbm_pcd1,
    matched_hidden_units,
)
from .experiments import (
    BiasVarianceConfig,
    BiasVarianceReport,
    SyntheticTruth,
    bias_variance_experiment,
    synth_dataset,
    tune_sigma,
)
from .fitting import FitConfig, FitReport, fit, fit_tbm, fit_to_moments
from .geometry import (
    fisher_information,
    m_projection,
    pythagorean_residual,
    variance_lower_bound,
)
from .metrics import (
    Evaluation,
    entropy,
    evaluate_gibbs,
    kl_divergence,
    reconstruction_error_proxy,
)
from .mining import (
    DomainSizeError,
    ParameterDomain,
    mine_parameter_domain,
    support_threshold,
)
from .model import (
    GibbsModel,
    SampleSpace,
    build_sample_space,
    incidence_matrix,
)
from .patterns import (
    BOTTOM,
    EmpiricalDistribution,
    FimiFormatError,
    Pattern,
    TransactionDataset,
    canonicalize,
    format_fimi,
    parse_fimi,
)
from .serialize import dumps_model, load_model, model_from_dict, save_model

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "BiasVarianceConfig",
    "BiasVarianceReport",
    "DomainSizeError",
    "EmpiricalDistribution",
    "Evaluation",
    "FimiFormatError",
    "FitConfig",
    "FitReport",
    "FullBMModel",
    "GibbsModel",
    "ParameterDomain",
    "Pattern",
    "RBMConfig",
    "RBMModel",
    "SampleSpace",
    "SyntheticTruth",
    "TransactionDataset",
    "bias_variance_experiment",
    "build_sample_space",
    "canonicalize",
    "dumps_model",
    "entropy",
    "evaluate_gibbs",
    "fisher_information",
    "fit",
    "fit_full_bm",
    "fit_rbm_pcd1",
    "fit_tbm",
    "fit_to_moments",
    "format_fimi",
    "incidence_matrix",
    "kl_divergence",
    "load_model",
    "m_projection",
    "matched_hidden_units",
    "mine_parameter_domain",
    "model_from_dict",
    "parse_fimi",
    "pythagorean_residual",
    "reconstruction_error_proxy",
    "save_model",
    "support_threshold",
    "synth_dataset",
    "tune_sigma",
    "variance_lower_bound",
]
