"""End-to-end analysis of a frame document and JSON report serialization.

``stages`` fills one report stage by stage, in the order its docstring
states, and ``analyze`` runs all of them.  The flow probe reports the exact
triangular-completeness certificate of each approximating field; no flow is
integrated numerically.  A failed precondition ends the stages with a
structured diagnostic; a degenerate approximation still yields a (partial)
report carrying the flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator, Sequence

from . import locus as locus_mod
from .approx import ApproximationSet, build_approximation, check_triangular_complete
from .grading import (
    DegreeBoundExceeded,
    GrowthVector,
    RankConditionFailure,
    check_weights,
    growth_vector,
)
from .liealg import Classification, GradedFrameUnavailable, classify_fields, graded_frame, ideal_closure, lie_closure
from .parser import FrameDocument
from .symcore import ArsError, Frame, VectorField

REPORT_SCHEMA = "ars-report/1"


class NotPrivileged(ArsError):
    """The coordinates are not privileged for the requested weights."""


@dataclass(frozen=True)
class AnalyzeOptions:
    weights: str | Sequence[int] = "auto"
    point: Sequence | None = None
    max_bracket_depth: int | None = None
    probe_flows: bool = False
    stratify: bool = False
    samples: int = 200
    seed: int = 0

    def describe(self) -> dict:
        return {
            "weights": "auto" if self.weights == "auto" else list(self.weights),
            "point": [str(Fraction(c)) for c in self.point] if self.point is not None else None,
            "max_bracket_depth": self.max_bracket_depth,
            "probe_flows": self.probe_flows,
            "stratify": self.stratify,
            "samples": self.samples,
            "seed": self.seed,
        }


@dataclass
class Report:
    schema: str
    vars: tuple[str, ...]
    base_point: tuple[Fraction, ...]
    options: dict
    growth: GrowthVector | None = None
    weights: tuple[int, ...] | None = None
    weights_source: str = "auto"
    privileged: bool | None = None
    coordinate_orders: tuple | None = None
    approximation: ApproximationSet | None = None
    classification: Classification | None = None
    ideal_full_rank: bool | None = None
    graded_frame_fields: tuple[VectorField, ...] | None = None
    determinant: dict | None = None
    flow_probe: list | None = None
    stratification: list | None = None
    warnings: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        names = self.vars
        rat = str

        def fmt_fields(fields):
            return [f.format(names) for f in fields]

        out: dict = {
            "schema": self.schema,
            "vars": list(names),
            "base_point": [rat(c) for c in self.base_point],
            "options": self.options,
            "warnings": list(self.warnings),
        }
        if self.growth is not None:
            out["growth"] = {"dims": list(self.growth.dims), "step": self.growth.step}
        if self.weights is not None:
            out["weights"] = list(self.weights)
            out["weights_source"] = self.weights_source
        if self.privileged is not None:
            out["privileged"] = self.privileged
        if self.coordinate_orders is not None:
            out["coordinate_orders"] = [o if o is not None else "unresolved" for o in self.coordinate_orders]
        if self.approximation is not None:
            A = self.approximation
            out["approximation"] = {
                "k": A.k,
                "m": A.m,
                "degenerate": A.degenerate,
                "hat_fields": fmt_fields(A.hat_fields),
                "tilde_fields": fmt_fields(A.tilde_fields),
                "transform": [[rat(c) for c in row] for row in A.transform],
                "source_order": list(A.source_order),
                "triangular_complete": [
                    check_triangular_complete(f, A.weights) for f in A.fields
                ],
            }
        if self.classification is not None:
            C = self.classification
            out["lie_algebra"] = {
                "dim": C.lie_dim,
                "ideal_dim": C.ideal_dim,
                "ideal_nilpotent_step": C.ideal_nilpotent_step,
                "solvable": C.solvable,
                "ideal_full_rank_at_base": self.ideal_full_rank,
                "classification": {
                    "labels": list(C.labels),
                    "k": C.k,
                    "l": C.l,
                    "m": C.m,
                    "order": list(C.order),
                },
            }
            if self.graded_frame_fields is not None:
                out["lie_algebra"]["graded_frame"] = fmt_fields(self.graded_frame_fields)
        if self.determinant is not None:
            out["determinant"] = self.determinant
        if self.flow_probe is not None:
            out["flow_probe"] = self.flow_probe
        if self.stratification is not None:
            out["stratification"] = self.stratification
        return out

    def to_json(self) -> str:
        return json_text(self.to_json_dict())


def json_text(payload: dict) -> str:
    """The one JSON layout of reports and diagnostics: sorted keys, indent 2, final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _determinant_summary(frame: Frame) -> tuple[dict, list[str]]:
    det = locus_mod.frame_determinant(frame)
    vanishes_at_base = det.evaluate(frame.base_point) == 0
    constant = det.total_degree() <= 0
    summary = {
        "polynomial": det.format(frame.var_names),
        "vanishes_at_base_point": vanishes_at_base,
        "identically_zero": det.is_zero,
        "never_vanishing": constant and not det.is_zero,
    }
    warnings = []
    if det.is_zero:
        warnings.append("determinant is identically zero: the fields are nowhere a frame")
    elif constant:
        warnings.append("empty singular locus: the determinant never vanishes")
    return summary, warnings


def stages(doc: FrameDocument, options: AnalyzeOptions | None = None) -> Iterator[tuple[str, Report]]:
    """Fill one report stage by stage and yield ``(name, report)`` after each.

    The stages, in order: ``"locus"``, the base point moved to the origin and
    the determinant, which every later partial report therefore carries;
    ``"weights"``, the growth vector, the weights, the coordinate orders and
    the privileged check; ``"approx"``, the approximating frame, where a
    degenerate one ends the stages; ``"liealg"``, L, its ideal G, the
    classification and G's graded frame.  The probes that ``options`` asks
    for then finish the report.  RankConditionFailure, NotPrivileged and
    DegreeBoundExceeded (a bracket of the flag or of the algebra past the
    degree cap) carry the report built up to the failure as ``exc.report``.
    """
    options = options or AnalyzeOptions()
    frame = doc.to_frame()
    if options.point is not None:
        frame = Frame(frame.var_names, frame.fields, options.point)
    center = frame.base_point
    frame = frame.translated_to_origin()
    report = Report(
        schema=REPORT_SCHEMA,
        vars=frame.var_names,
        base_point=center,
        options=options.describe(),
    )
    if any(c != 0 for c in center):
        report.warnings.append(
            "coordinates re-centered at the base point; reported fields and "
            "determinant use the shifted coordinates"
        )
    report.determinant, det_warnings = _determinant_summary(frame)
    report.warnings.extend(det_warnings)
    yield "locus", report

    try:
        growth, auto_weights = growth_vector(frame, max_depth=options.max_bracket_depth)
        # the report keeps the flag's dims, not its walk, which lie_closure may finish
        report.growth = replace(growth, walk=None)

        declared = options.weights if options.weights not in ("auto", None) else doc.weights
        weights = auto_weights if declared is None else check_weights(declared, frame.dim)
        report.weights, report.weights_source = weights, "auto" if declared is None else "declared"

        # the orders up to max(weights) are growth's orders cut at that bound
        bound = max(weights)
        orders = [o if o is not None and o <= bound else None for o in growth.orders]
        report.coordinate_orders = tuple(orders)
        report.privileged = all(o == w for o, w in zip(orders, weights))
        if not report.privileged:
            raise NotPrivileged(f"coordinate orders {orders} do not match weights {list(weights)}")
        yield "weights", report

        A = build_approximation(frame, weights)
        report.approximation = A
        if A.degenerate:
            report.warnings.append(
                "approximating fields are linearly dependent: the approximation is "
                "sub-Riemannian, not almost-Riemannian"
            )
        yield "approx", report
        if A.degenerate:
            return

        # a frame that is its own approximation has the flag's walk finished
        L = lie_closure(A.fields, walk=growth.walk)
        G = ideal_closure(L, A.hat_fields[: A.k])
        report.classification = classify_fields(A, L, G)
        # G is an ideal generated by homogeneous fields of a graded L, so it has
        # a graded frame exactly when its values at the base point span R^n
        try:
            report.graded_frame_fields = graded_frame(G, weights)
        except GradedFrameUnavailable:
            report.warnings.append("no graded frame: the ideal span is not homogeneous of full rank")
        report.ideal_full_rank = report.graded_frame_fields is not None
        yield "liealg", report

        if options.probe_flows:
            # The approximating fields have orders in {-1, 0}, so they are
            # triangular and their flows are complete: no trajectory blows up.
            report.flow_probe = [
                {
                    "field": f.format(frame.var_names),
                    "triangular": check_triangular_complete(f, weights),
                    "blowups": 0,
                }
                for f in A.fields
            ]

        if options.stratify:
            reports = locus_mod.stratify_samples(frame, options.samples, seed=options.seed)
            report.stratification = [
                {
                    "r": sr.r,
                    "predicted_codim": sr.predicted_codim,
                    "estimated_codim": sr.estimated_codim,
                    "sample_count": sr.sample_count,
                    "hits": len(sr.hits),
                    "exact_hits": sum(1 for h in sr.hits if h.exact),
                }
                for sr in reports
            ]
    except (RankConditionFailure, NotPrivileged, DegreeBoundExceeded) as exc:
        exc.report = report
        raise


def analyze(doc: FrameDocument, options: AnalyzeOptions | None = None) -> Report:
    """Run every stage of ``stages`` and return the report, or raise what a stage raises."""
    for _, report in stages(doc, options):
        pass
    return report
