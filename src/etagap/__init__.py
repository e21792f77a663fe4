"""Weighted divergence-form elliptic operators: spectra and gap bounds.

The package discretizes L u = div(T(grad u)) - <grad eta, T(grad u)> with
Dirichlet conditions on masked box domains in Euclidean space or the
hyperbolic upper half-space, computes the low spectrum of the resulting
symmetric pencil, and verifies explicit eigenvalue-gap bounds and their
auxiliary inequalities at desk scale.
"""

from .assembly import OperatorPair, assemble, project_function
from .bounds import (
    GapConstant,
    GapReport,
    Lemma31Instance,
    a_nT,
    cor32_check,
    gap_check,
    lemma31_check,
    lemma31_suite,
    lemma32_check,
    theorem11_constant,
    theorem12_constant,
    theorem13_constant,
    yang_check,
)
from .fields import (
    FieldSample,
    OperatorConstants,
    ScalarField,
    TensorField,
    apply_operator_L,
    compute_C0,
    compute_T0,
    compute_eta_radial_constants,
    tensor_bounds,
    trace_nabla_T,
)
from .geometry import (
    GridDomain,
    MetricModel,
    domain_origin_distance,
    euclidean,
    geodesic_distance,
    hyperbolic_half_plane,
    make_box_domain,
    volume_weight,
)
from .scenario import (
    OracleSpectrum,
    ScenarioConfig,
    builtin_config,
    list_builtin_scenarios,
    load_config,
    oracle_eigenvalues,
    run_scenario,
)
from .spectral import SpectrumResult, parseval_defect, solve_lowest, validate_spectrum

__version__ = "0.1.0"

__all__ = [
    "FieldSample",
    "GapConstant",
    "GapReport",
    "GridDomain",
    "Lemma31Instance",
    "MetricModel",
    "OperatorConstants",
    "OperatorPair",
    "OracleSpectrum",
    "ScalarField",
    "ScenarioConfig",
    "SpectrumResult",
    "TensorField",
    "a_nT",
    "apply_operator_L",
    "assemble",
    "builtin_config",
    "compute_C0",
    "compute_T0",
    "compute_eta_radial_constants",
    "cor32_check",
    "domain_origin_distance",
    "euclidean",
    "gap_check",
    "geodesic_distance",
    "hyperbolic_half_plane",
    "lemma31_check",
    "lemma31_suite",
    "lemma32_check",
    "list_builtin_scenarios",
    "load_config",
    "make_box_domain",
    "oracle_eigenvalues",
    "parseval_defect",
    "project_function",
    "run_scenario",
    "solve_lowest",
    "tensor_bounds",
    "theorem11_constant",
    "theorem12_constant",
    "theorem13_constant",
    "trace_nabla_T",
    "validate_spectrum",
    "volume_weight",
    "yang_check",
]
