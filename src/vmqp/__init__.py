"""Bayesian circular regression with von Mises quasi-processes."""

from .circular import (
    CircularSummary,
    circular_distance,
    circular_summary,
    normalize_angle,
    sample_von_mises,
)
from .errors import ConfigError, DataError, NumericalError, VmqpError
from .evaluation import circular_crps, circular_ress, predictive_summary, ress
from .gibbs import Augmentation, ChainOutput, gibbs_sweep, make_augmentation, run_chain
from .inference import (
    BridgeConfig,
    FitConfig,
    ParamModel,
    PriorSpec,
    ProposalSpec,
    block_gibbs_fit,
    bridge_ladder,
    build_param_model,
    cd_gradient,
    dmh_step,
    sample_fictitious,
)
from .kernels import GramMatrix, KernelSpec, build_gram
from .model import (
    ConditionalParams,
    ParamVector,
    PrecisionModel,
    build_precision,
    conditional_params,
    energy,
    full_state_params,
)

__all__ = [
    "Augmentation",
    "BridgeConfig",
    "ChainOutput",
    "CircularSummary",
    "ConditionalParams",
    "ConfigError",
    "DataError",
    "FitConfig",
    "GramMatrix",
    "KernelSpec",
    "NumericalError",
    "ParamModel",
    "ParamVector",
    "PrecisionModel",
    "PriorSpec",
    "ProposalSpec",
    "VmqpError",
    "block_gibbs_fit",
    "bridge_ladder",
    "build_gram",
    "build_param_model",
    "build_precision",
    "cd_gradient",
    "circular_crps",
    "circular_distance",
    "circular_ress",
    "circular_summary",
    "conditional_params",
    "dmh_step",
    "energy",
    "full_state_params",
    "gibbs_sweep",
    "make_augmentation",
    "normalize_angle",
    "predictive_summary",
    "ress",
    "run_chain",
    "sample_fictitious",
    "sample_von_mises",
]

__version__ = "0.19.0"
