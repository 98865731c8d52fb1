"""Command line interface.

Exit codes: 0 success, 2 parse or usage error (an option that does not fit
the frame), 3 rank-condition failure, 4 the coordinates are not privileged
for the weights, 5 degenerate approximation (the report is still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .grading import RankConditionFailure, check_weights
from .locus import genericity_codims
from .parser import ParseError, parse_frame
from .pipeline import REPORT_SCHEMA, AnalyzeOptions, NotPrivileged, Report, analyze
from .symcore import as_point

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_USAGE = 2
EXIT_RANK = 3
EXIT_NOT_PRIVILEGED = 4
EXIT_DEGENERATE = 5


def _parse_weights(text: str):
    if text == "auto":
        return "auto"
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad weights {text!r}: {exc}")


def _parse_point(text: str):
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad point {text!r}: {exc}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="frame description file")
    parser.add_argument("--weights", type=_parse_weights, default="auto",
                        help="'auto' or comma-separated positive integers")
    parser.add_argument("--point", type=_parse_point, default=None,
                        help="comma-separated rational coordinates of the base point")
    parser.add_argument("--max-bracket-depth", type=int, default=None)
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write the JSON report to this path")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ars", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    analyze_p = sub.add_parser("analyze", help="run the full pipeline")
    _add_common(analyze_p)
    analyze_p.add_argument("--probe-flows", action="store_true")
    analyze_p.add_argument("--stratify", action="store_true")
    analyze_p.add_argument("--samples", type=int, default=200)
    analyze_p.add_argument("--seed", type=int, default=0)

    for name, help_text in (
        ("weights", "growth vector and weights only"),
        ("approx", "approximating fields only"),
        ("liealg", "Lie algebra summary only"),
        ("locus", "singular locus summary only"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)

    codims = sub.add_parser("codims", help="generic stratification arithmetic")
    codims.add_argument("n", type=int)
    codims.add_argument("--json", dest="json_out", default=None)
    return p


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _diagnostic(kind: str, message: str, report: Report | None) -> dict:
    payload = {"schema": REPORT_SCHEMA, "error": {"kind": kind, "message": message}}
    if report is not None:
        payload["partial"] = report.to_json_dict()
    return payload


def _check_usage(options: AnalyzeOptions, dim: int) -> None:
    """Raise ValueError when an option does not fit a frame on R^dim."""
    if options.weights != "auto":
        check_weights(options.weights, dim)
    if options.point is not None:
        as_point(options.point, dim)
    if options.stratify and options.samples < 1:
        raise ValueError(f"--samples must be at least 1 with --stratify, got {options.samples}")


def _run_analysis(args, command: str) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        doc = parse_frame(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        _write_json(_diagnostic("parse_error", str(exc), None), args.json_out)
        return EXIT_PARSE

    options = AnalyzeOptions(
        weights=args.weights,
        point=args.point,
        max_bracket_depth=args.max_bracket_depth,
        probe_flows=getattr(args, "probe_flows", False),
        stratify=getattr(args, "stratify", False),
        samples=getattr(args, "samples", 200),
        seed=getattr(args, "seed", 0),
    )
    try:
        _check_usage(options, len(doc.var_names))
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        _write_json(_diagnostic("usage_error", str(exc), None), args.json_out)
        return EXIT_USAGE
    try:
        report = analyze(doc, options)
    except RankConditionFailure as exc:
        print(f"rank condition failure: {exc}", file=sys.stderr)
        _write_json(_diagnostic("rank_condition_failure", str(exc),
                                getattr(exc, "report", None)), args.json_out)
        return EXIT_RANK
    except NotPrivileged as exc:
        print(f"not privileged: {exc}", file=sys.stderr)
        _write_json(_diagnostic("not_privileged", str(exc),
                                getattr(exc, "report", None)), args.json_out)
        return EXIT_NOT_PRIVILEGED

    payload = report.to_json_dict()
    if command != "analyze":
        payload = _trim_payload(payload, command)
    _write_json(payload, args.json_out)
    if args.json_out:
        _print_summary(report, command)
    if report.approximation is not None and report.approximation.degenerate:
        return EXIT_DEGENERATE
    return EXIT_OK


_SECTION_KEYS = {
    "weights": {"schema", "vars", "base_point", "growth", "weights", "weights_source",
                "privileged", "coordinate_orders", "warnings"},
    "approx": {"schema", "vars", "base_point", "growth", "weights", "weights_source",
               "privileged", "approximation", "warnings"},
    "liealg": {"schema", "vars", "base_point", "weights", "approximation",
               "lie_algebra", "warnings"},
    "locus": {"schema", "vars", "base_point", "determinant", "stratification", "warnings"},
}


def _trim_payload(payload: dict, command: str) -> dict:
    keep = _SECTION_KEYS[command]
    return {k: v for k, v in payload.items() if k in keep}


def _print_summary(report: Report, command: str) -> None:
    bits = []
    if report.weights is not None:
        bits.append(f"weights={list(report.weights)}")
    if report.approximation is not None:
        bits.append(f"k={report.approximation.k} m={report.approximation.m}")
        if report.approximation.degenerate:
            bits.append("degenerate")
    if report.classification is not None:
        bits.append(
            f"dimL={report.classification.lie_dim} dimG={report.classification.ideal_dim}"
        )
    if report.determinant is not None:
        bits.append(f"det={report.determinant['polynomial']}")
    print(f"{command}: " + "  ".join(bits))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "codims":
        try:
            _write_json(genericity_codims(args.n), args.json_out)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        return EXIT_OK
    return _run_analysis(args, args.command)


if __name__ == "__main__":
    sys.exit(main())
