"""Numerical optimal transport with econometric applications.

Exact discrete solvers with dual certificates, entropic and unbalanced
regularization, one-dimensional and Gaussian closed forms, semi-discrete
transport with vector ranks, partial-identification bounds, and inverse
optimal transport for matching markets.
"""

from .bounds import (
    BinaryRelation,
    Interval,
    binary_cost_ot,
    dro_expectation_bound,
    kaji_subgroup_bounds,
    rearrangement_bounds,
    winners_lower_bound,
)
from .closed_forms import (
    AffineMap,
    barycenter_1d,
    gaussian_ot_map,
    gaussian_w2,
    ot_value_1d,
    sliced_wasserstein,
    wasserstein_1d,
)
from .discrete import (
    DualPotentials,
    TransportPlan,
    extract_assignment,
    northwest_corner,
    solve_discrete_ot,
    verify_optimality,
)
from .entropic import EntropicSolution, eot_value, sinkhorn, unbalanced_sinkhorn
from .errors import (
    DomainError,
    ExpOverflowError,
    InfeasibleError,
    NonAssignmentError,
    NonIdentificationError,
    NotInvertibleError,
    NotPSDError,
    OteconError,
    ResourceError,
    SolverStallError,
)
from .matching import (
    MatchingTable,
    SurplusBasis,
    cs_equilibrium,
    cs_identify,
    moment_matching,
    poisson_loglik,
    sista,
)
from .measures import (
    CostMatrix,
    DiscreteMeasure,
    GaussianMeasure,
    HaltonSet,
    Sample1D,
    empirical_cdf,
    empirical_quantile,
    halton,
    spd_sqrt,
)
from .semidiscrete import (
    LaguerreDiagram,
    RankAssignment,
    laguerre_assign,
    semidiscrete_solve,
    vector_quantile,
    vector_rank,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "BinaryRelation",
    "CostMatrix",
    "DiscreteMeasure",
    "DomainError",
    "DualPotentials",
    "EntropicSolution",
    "ExpOverflowError",
    "GaussianMeasure",
    "HaltonSet",
    "InfeasibleError",
    "Interval",
    "LaguerreDiagram",
    "MatchingTable",
    "NonAssignmentError",
    "NonIdentificationError",
    "NotInvertibleError",
    "NotPSDError",
    "OteconError",
    "RankAssignment",
    "ResourceError",
    "Sample1D",
    "SolverStallError",
    "SurplusBasis",
    "TransportPlan",
    "barycenter_1d",
    "binary_cost_ot",
    "cs_equilibrium",
    "cs_identify",
    "dro_expectation_bound",
    "empirical_cdf",
    "empirical_quantile",
    "eot_value",
    "extract_assignment",
    "gaussian_ot_map",
    "gaussian_w2",
    "halton",
    "kaji_subgroup_bounds",
    "laguerre_assign",
    "moment_matching",
    "northwest_corner",
    "ot_value_1d",
    "poisson_loglik",
    "rearrangement_bounds",
    "semidiscrete_solve",
    "sinkhorn",
    "sista",
    "sliced_wasserstein",
    "solve_discrete_ot",
    "spd_sqrt",
    "unbalanced_sinkhorn",
    "vector_quantile",
    "vector_rank",
    "verify_optimality",
    "wasserstein_1d",
    "winners_lower_bound",
]
