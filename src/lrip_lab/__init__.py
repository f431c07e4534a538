"""Numerical lab for instance-optimal decoding under a lower restricted isometry property.

The package provides union-of-subspaces signal models, random linear and
random-Fourier-feature measurement operators, the ideal model-constrained
decoder, and Monte-Carlo plus covering-bound certification of LRIP / BP / IOP
constants, together with a batch CLI harness (``lrip-lab``).
"""

__version__ = "0.1.0"

from .errors import ConfigError, InputError, LripLabError
from .spaces import Pseudometric, kernel_norm_equivalence
from .models import (
    CoveringBound,
    UnionOfSubspaces,
    covering_bound_model,
    covering_bound_secant,
    greedy_cover,
    project_to_model,
)
from .operators import (
    LinearGaussianOperator,
    NonlinearLripHypotheses,
    OperatorLaw,
    RandomFourierOperator,
    hypothesis_constants,
    weight_f,
)
from .decoder import DecodeResult, DecoderOptions, decode, decode_linear
from .certifier import (
    BpEstimate,
    ConcentrationEstimate,
    IopWitness,
    LripEstimate,
    Prop1Result,
    Prop2Result,
    RecommendedM,
    check_iop_inequality,
    estimate_bp,
    estimate_concentration,
    estimate_lrip,
    lrip_from_iop_witness,
    prop1_failure_bound,
    prop2_failure_bound,
    recommend_m,
)

__all__ = [
    "__version__",
    "LripLabError", "InputError", "ConfigError",
    "Pseudometric", "kernel_norm_equivalence",
    "UnionOfSubspaces", "CoveringBound", "project_to_model",
    "covering_bound_model", "covering_bound_secant", "greedy_cover",
    "LinearGaussianOperator", "RandomFourierOperator", "OperatorLaw",
    "NonlinearLripHypotheses", "weight_f", "hypothesis_constants",
    "DecoderOptions", "DecodeResult", "decode", "decode_linear",
    "LripEstimate", "BpEstimate", "IopWitness", "ConcentrationEstimate",
    "Prop1Result", "Prop2Result", "RecommendedM",
    "estimate_lrip", "estimate_bp", "check_iop_inequality", "lrip_from_iop_witness",
    "estimate_concentration", "prop1_failure_bound", "prop2_failure_bound",
    "recommend_m",
]
