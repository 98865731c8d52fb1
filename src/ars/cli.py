"""Command line interface.

``analyze`` runs every stage of ``pipeline.stages``.  A view command (locus,
weights, approx, liealg) stops after the stage of its name and prints the
report built up to it, the ``partial`` that a failure in the next stage carries.

Exit codes: 0 success, 2 parse or usage error (a frame file that cannot be
read as UTF-8 text, a --json path that cannot be written, an option that
does not fit the frame, a --max-bracket-depth below 1, an ARS_MAX_DEGREE
that is not an integer >= 1, or codims n < 2), 3 rank-condition failure,
4 the coordinates are not privileged for the weights, 5 degenerate
approximation (the report is still written), 6 a bracket exceeded the
degree cap ARS_MAX_DEGREE.  Exits 3 to 6 come only from stages a command
runs, so locus exits 0 or 2.  Every exit 2, 3, 4 and 6 prints one
``label: message`` line on stderr and writes a JSON diagnostic, to stdout
when the --json path cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from .grading import DegreeBoundExceeded, RankConditionFailure, check_weights
from .locus import genericity_codims
from .parser import ParseError, parse_frame
from .pipeline import REPORT_SCHEMA, AnalyzeOptions, NotPrivileged, Report, json_text, stages
from .symcore import as_point, max_degree_cap

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_USAGE = 2
EXIT_RANK = 3
EXIT_NOT_PRIVILEGED = 4
EXIT_DEGENERATE = 5
EXIT_DEGREE_CAP = 6


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
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"bad point {text!r}: zero denominator")


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
    analyze_p.add_argument("--probe-flows", action="store_true",
                           help="report the exact completeness certificate of each approximating field")
    analyze_p.add_argument("--stratify", action="store_true")
    analyze_p.add_argument("--samples", type=int, default=AnalyzeOptions.samples)
    analyze_p.add_argument("--seed", type=int, default=AnalyzeOptions.seed)

    for name, help_text in (
        ("locus", "the report up to the determinant"),
        ("weights", "the report up to the growth vector and weights"),
        ("approx", "the report up to the approximating fields"),
        ("liealg", "the report up to the Lie algebra, without probes"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)

    codims = sub.add_parser("codims", help="generic stratification arithmetic")
    codims.add_argument("n", type=int)
    codims.add_argument("--json", dest="json_out", default=None)
    return p


def _write_json(payload: dict, path: str | None) -> None:
    text = json_text(payload)
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# analyze's failures: (stderr label, exit code)
_ANALYZE_FAILURES = {
    RankConditionFailure: ("rank condition failure", EXIT_RANK),
    NotPrivileged: ("not privileged", EXIT_NOT_PRIVILEGED),
    DegreeBoundExceeded: ("degree cap exceeded", EXIT_DEGREE_CAP),
}


def _fail(label: str, code: int, exc: Exception, json_out: str | None) -> int:
    """Print ``label: exc``, write a diagnostic of kind label in snake case with any partial report; return code.

    When json_out cannot be written, that is the failure reported instead:
    a usage error whose diagnostic goes to stdout.
    """
    payload = {"schema": REPORT_SCHEMA, "error": {"kind": label.replace(" ", "_"), "message": str(exc)}}
    report = getattr(exc, "report", None)
    if report is not None:
        payload["partial"] = report.to_json_dict()
    try:
        _write_json(payload, json_out)
    except OSError as unwritable:
        return _fail("usage error", EXIT_USAGE, unwritable, None)
    print(f"{label}: {exc}", file=sys.stderr)
    return code


def _check_usage(options: AnalyzeOptions, dim: int) -> None:
    """Raise ValueError when an option does not fit a frame on R^dim or ARS_MAX_DEGREE is invalid."""
    max_degree_cap()
    if options.weights != "auto":
        check_weights(options.weights, dim)
    if options.point is not None:
        as_point(options.point, dim)
    if options.stratify and options.samples < 1:
        raise ValueError(f"--samples must be at least 1 with --stratify, got {options.samples}")
    if options.max_bracket_depth is not None and options.max_bracket_depth < 1:
        raise ValueError(f"--max-bracket-depth must be at least 1, got {options.max_bracket_depth}")


def _run_analysis(args, command: str) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _fail("usage error", EXIT_USAGE, exc, args.json_out)
    try:
        doc = parse_frame(text)
    except ParseError as exc:
        return _fail("parse error", EXIT_PARSE, exc, args.json_out)

    # the view commands have no analyze-only flags, so they get the defaults
    options = AnalyzeOptions(**{f.name: getattr(args, f.name) for f in fields(AnalyzeOptions) if hasattr(args, f.name)})
    try:
        _check_usage(options, len(doc.var_names))
    except ValueError as exc:
        return _fail("usage error", EXIT_USAGE, exc, args.json_out)
    try:
        # a view stops after its own stage; analyze names none of them
        for stage, report in stages(doc, options):
            if stage == command:
                break
    except tuple(_ANALYZE_FAILURES) as exc:
        return _fail(*_ANALYZE_FAILURES[type(exc)], exc, args.json_out)

    try:
        _write_json(report.to_json_dict(), args.json_out)
    except OSError as exc:
        return _fail("usage error", EXIT_USAGE, exc, None)
    if args.json_out:
        _print_summary(report, command)
    if report.approximation is not None and report.approximation.degenerate:
        return EXIT_DEGENERATE
    return EXIT_OK


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
            table = genericity_codims(args.n)
        except ValueError as exc:
            return _fail("usage error", EXIT_USAGE, exc, args.json_out)
        try:
            _write_json(table, args.json_out)
        except OSError as exc:
            return _fail("usage error", EXIT_USAGE, exc, None)
        return EXIT_OK
    return _run_analysis(args, args.command)


if __name__ == "__main__":
    sys.exit(main())
