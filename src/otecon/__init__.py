"""Numerical optimal transport with econometric applications.

Exact discrete solvers with dual certificates, entropic and unbalanced
regularization, one-dimensional and Gaussian closed forms, semi-discrete
transport with vector ranks, partial-identification bounds, and inverse
optimal transport for matching markets.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  A submodule is
# imported on the first lookup of one of its names, so that ``import otecon``
# and each command of the CLI load only the solvers they use.
_SUBMODULES = {
    "bounds": (
        "BinaryRelation", "Interval", "binary_cost_ot",
        "dro_expectation_bound", "kaji_subgroup_bounds",
        "rearrangement_bounds", "winners_lower_bound",
    ),
    "closed_forms": (
        "AffineMap", "barycenter_1d", "gaussian_ot_map", "gaussian_w2",
        "ot_value_1d", "sliced_wasserstein", "wasserstein_1d",
    ),
    "discrete": (
        "DualPotentials", "TransportPlan", "extract_assignment",
        "matrix_minimum", "solve_discrete_ot", "verify_optimality",
    ),
    "entropic": (
        "EntropicSolution", "eot_value", "sinkhorn", "unbalanced_sinkhorn",
    ),
    "errors": (
        "DomainError", "ExpOverflowError", "InfeasibleError",
        "NonAssignmentError", "NonIdentificationError", "NotInvertibleError",
        "NotPSDError", "OteconError", "ResourceError",
    ),
    "matching": (
        "MatchingTable", "SurplusBasis", "cs_equilibrium", "cs_identify",
        "moment_matching", "poisson_loglik", "sista",
    ),
    "measures": (
        "CostMatrix", "DiscreteMeasure", "GaussianMeasure", "HaltonSet",
        "Sample1D", "SolveReport", "empirical_cdf", "empirical_quantile",
        "halton", "spd_sqrt",
    ),
    "semidiscrete": (
        "LaguerreDiagram", "RankAssignment", "laguerre_assign",
        "semidiscrete_solve", "vector_quantile", "vector_rank",
    ),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
