"""Bounds on zero-error capacities of graphs and noncommutative graphs,
with machine-checkable exact certificates."""

from .certificates import (
    ExactDecision,
    HaemersCertificate,
    LowerBoundReport,
    TpMapCertificate,
    VerificationError,
    cohomomorphism_apply,
    compression_lower_bound,
    conjugate_certificate,
    direct_sum_certificate,
    from_tp_map,
    full_matrix_certificate,
    haemers_bound,
    haemers_exact_decide,
    haemers_lower,
    haemers_upper_search,
    homomorphism_kraus,
    identity_certificate,
    independent_witness_kraus,
    lift_graph_certificate,
    project_to_graph_certificate,
    random_certificate,
    tensor_certificate,
    to_tp_map,
    verify_certificate,
    verify_tp_map,
    verify_xi_certificate,
)
from .classical import (
    ClassicalBounds,
    FittingMatrix,
    bounds_report,
    gram_fitting_matrix,
    orthogonal_rank_verify,
    pentagon_representation,
    unit_diagonal_form,
    verify_fitting,
)
from .exactlinalg import (
    ExactMatrix,
    GaussianRational,
    format_scalar,
    parse_scalar,
    rationalize,
)
from .graphs import Graph, independence_number, shannon_lower, strong_power, strong_product
from .independence import IndependentSystem, alpha_lower_search, verify_independent
from .ncgraph import (
    ClassicalChannel,
    NcGraph,
    QuantumChannel,
    confusability_graph,
    corner_family,
    corner_family_reference,
    diagonal_system,
    full_matrix_system,
    scalar_identity_system,
)
from .theta import lovasz_theta


def __getattr__(name: str):
    # selftest is imported on first use of its names, so `import zerocap` stays light
    if name in ("CheckResult", "run_all", "run_check"):
        from . import selftest
        return getattr(selftest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CheckResult",
    "ClassicalBounds",
    "ClassicalChannel",
    "ExactDecision",
    "ExactMatrix",
    "FittingMatrix",
    "GaussianRational",
    "Graph",
    "HaemersCertificate",
    "IndependentSystem",
    "LowerBoundReport",
    "NcGraph",
    "QuantumChannel",
    "TpMapCertificate",
    "VerificationError",
    "alpha_lower_search",
    "bounds_report",
    "cohomomorphism_apply",
    "compression_lower_bound",
    "confusability_graph",
    "conjugate_certificate",
    "corner_family",
    "corner_family_reference",
    "diagonal_system",
    "direct_sum_certificate",
    "format_scalar",
    "from_tp_map",
    "full_matrix_certificate",
    "full_matrix_system",
    "gram_fitting_matrix",
    "haemers_bound",
    "haemers_exact_decide",
    "haemers_lower",
    "haemers_upper_search",
    "homomorphism_kraus",
    "identity_certificate",
    "independence_number",
    "independent_witness_kraus",
    "lift_graph_certificate",
    "lovasz_theta",
    "orthogonal_rank_verify",
    "parse_scalar",
    "pentagon_representation",
    "project_to_graph_certificate",
    "random_certificate",
    "rationalize",
    "run_all",
    "run_check",
    "scalar_identity_system",
    "shannon_lower",
    "strong_power",
    "strong_product",
    "tensor_certificate",
    "to_tp_map",
    "unit_diagonal_form",
    "verify_certificate",
    "verify_fitting",
    "verify_independent",
    "verify_tp_map",
    "verify_xi_certificate",
]

__version__ = "0.1.0"
