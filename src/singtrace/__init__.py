"""Classification of compact-operator eigenvalue asymptotics.

Decay profiles (non-increasing rearrangements of singular values with
real multiplicities) are classified as trace class / regular / singularly
traceable via three equivalent criteria, tested for membership in
principal ideals and their kernels, and fed to the staircase
constructions that produce singularly traceable companions with
prescribed domination behavior.
"""

from .classify import (
    ClassificationReport,
    ClassifyConfig,
    DichotomyResult,
    classify,
    dichotomy,
    traceable_by_indices,
    traceable_by_liminf,
    traceable_by_ratio,
)
from .functions import (
    DistributionFunction,
    EigenvalueFunction,
    GFunction,
    SpectralData,
    dilate,
    exponential,
    g_inverse,
    g_step,
    g_transform,
    pointwise_min,
    power_log,
    pure_power,
    rearrange,
    sampled,
    shift,
    step_mu,
)
from .ideals import (
    FaceAxiomReport,
    IdealDecision,
    face_axioms_check,
    in_kernel,
    in_principal_ideal,
    regular_domination,
)
from .indices import (
    EstimatorConfig,
    LinearBoundWitness,
    MatuszewskaReport,
    is_regular,
    linear_bound_witness,
    matuszewska,
    verify_linear_bound,
)
from .integral import (
    S,
    TraceClassVerdict,
    branch_of,
    is_trace_class,
    log_S,
    mu_mass,
    mu_over_S,
    s_ratio,
)
from .staircase import (
    StaircaseConstruction,
    StaircaseVerification,
    construct_dominator,
    construct_vanisher,
    verify_construction,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "ClassifyConfig",
    "DichotomyResult",
    "DistributionFunction",
    "EigenvalueFunction",
    "EstimatorConfig",
    "FaceAxiomReport",
    "GFunction",
    "IdealDecision",
    "LinearBoundWitness",
    "MatuszewskaReport",
    "S",
    "SpectralData",
    "StaircaseConstruction",
    "StaircaseVerification",
    "TraceClassVerdict",
    "branch_of",
    "classify",
    "construct_dominator",
    "construct_vanisher",
    "dichotomy",
    "dilate",
    "exponential",
    "face_axioms_check",
    "g_inverse",
    "g_step",
    "g_transform",
    "in_kernel",
    "in_principal_ideal",
    "is_regular",
    "is_trace_class",
    "linear_bound_witness",
    "log_S",
    "matuszewska",
    "mu_mass",
    "mu_over_S",
    "pointwise_min",
    "power_log",
    "pure_power",
    "rearrange",
    "regular_domination",
    "s_ratio",
    "sampled",
    "shift",
    "step_mu",
    "traceable_by_indices",
    "traceable_by_liminf",
    "traceable_by_ratio",
    "verify_construction",
    "verify_linear_bound",
]
