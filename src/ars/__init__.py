"""Exact analysis of almost-Riemannian structures given by polynomial frames.

Core objects are exact-rational polynomials and vector fields; on top of
them the package computes growth vectors and privileged weights, nilpotent
and solvable approximating frames, the generated Lie algebra with its
distinguished nilpotent ideal and field classification, the singular locus,
and polynomial flows, plus a small frame-description language and CLI.
"""

from .approx import (
    ApproximationSet,
    DegenerateApproximation,
    build_approximation,
    check_triangular_complete,
    nilpotent_approx,
    order_zero_component,
)
from .flows import (
    FlowResult,
    NonTriangularField,
    ProbeReport,
    completeness_probe,
    dilate,
    lie_series_flow,
    lie_series_flow_result,
    rk4_flow,
)
from .grading import (
    DegreeBoundExceeded,
    GrowthVector,
    RankConditionFailure,
    check_privileged,
    coordinate_orders,
    growth_vector,
    homogeneous_component,
    nonholonomic_order_vf,
    weighted_valuation,
)
from .liealg import (
    Classification,
    GradedFrameUnavailable,
    LieBasis,
    NotInvariant,
    adjoint_matrix,
    classify_fields,
    graded_frame,
    ideal_closure,
    is_solvable,
    lie_closure,
    nilpotent_step,
)
from .locus import (
    DegenerateZ1,
    NotOnZ1,
    StratumHit,
    StratumReport,
    corank_at,
    det_submersion_check,
    frame_determinant,
    genericity_codims,
    stratify_samples,
    tangency_check,
)
from .parser import FrameDocument, ParseError, parse_frame, print_frame
from .pipeline import AnalyzeOptions, NotPrivileged, Report, analyze
from .symcore import (
    ArsError,
    Frame,
    Polynomial,
    VectorField,
    frame_rank_at,
    lie_bracket,
    vf_apply,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyzeOptions",
    "ApproximationSet",
    "ArsError",
    "Classification",
    "DegenerateApproximation",
    "DegenerateZ1",
    "DegreeBoundExceeded",
    "FlowResult",
    "Frame",
    "FrameDocument",
    "GradedFrameUnavailable",
    "GrowthVector",
    "LieBasis",
    "NonTriangularField",
    "NotInvariant",
    "NotOnZ1",
    "NotPrivileged",
    "ParseError",
    "Polynomial",
    "ProbeReport",
    "RankConditionFailure",
    "Report",
    "StratumHit",
    "StratumReport",
    "VectorField",
    "adjoint_matrix",
    "analyze",
    "build_approximation",
    "check_privileged",
    "check_triangular_complete",
    "classify_fields",
    "completeness_probe",
    "coordinate_orders",
    "corank_at",
    "det_submersion_check",
    "dilate",
    "frame_determinant",
    "frame_rank_at",
    "genericity_codims",
    "graded_frame",
    "growth_vector",
    "homogeneous_component",
    "ideal_closure",
    "is_solvable",
    "lie_bracket",
    "lie_closure",
    "lie_series_flow",
    "lie_series_flow_result",
    "nilpotent_approx",
    "nilpotent_step",
    "nonholonomic_order_vf",
    "order_zero_component",
    "parse_frame",
    "print_frame",
    "rk4_flow",
    "stratify_samples",
    "tangency_check",
    "vf_apply",
    "weighted_valuation",
]
