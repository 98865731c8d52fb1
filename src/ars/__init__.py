"""Exact analysis of almost-Riemannian structures given by polynomial frames.

Core objects are exact-rational polynomials and vector fields; on top of
them the package computes growth vectors and privileged weights, nilpotent
and solvable approximating frames, the generated Lie algebra with its
distinguished nilpotent ideal and field classification, the singular locus,
and polynomial flows, plus a small frame-description language and CLI.

``__all__`` is the public list that the README's "Library" section states:
the pipeline, its stages, the types they take and return, and the errors
they raise.  Every other name is imported from its module.
"""

from .approx import DegenerateApproximation, build_approximation
from .flows import NonTriangularField, lie_series_flow
from .grading import DegreeBoundExceeded, RankConditionFailure, growth_vector
from .liealg import GradedFrameUnavailable, LieBasis, NotInvariant, classify_fields, ideal_closure, lie_closure
from .locus import frame_determinant
from .parser import FrameDocument, ParseError, parse_frame
from .pipeline import AnalyzeOptions, NotPrivileged, Report, analyze
from .symcore import ArsError, Frame, Polynomial, VectorField

__version__ = "0.1.0"

__all__ = [
    "AnalyzeOptions",
    "ArsError",
    "DegenerateApproximation",
    "DegreeBoundExceeded",
    "Frame",
    "FrameDocument",
    "GradedFrameUnavailable",
    "LieBasis",
    "NonTriangularField",
    "NotInvariant",
    "NotPrivileged",
    "ParseError",
    "Polynomial",
    "RankConditionFailure",
    "Report",
    "VectorField",
    "analyze",
    "build_approximation",
    "classify_fields",
    "frame_determinant",
    "growth_vector",
    "ideal_closure",
    "lie_closure",
    "lie_series_flow",
    "parse_frame",
]
