"""Catalogue of mutations that the test suite must kill, and its runner.

Each entry is ``(id, file, old, new, tests)``: ``old`` occurs exactly once in
``file`` (a path from the repository root), the mutant replaces it by
``new``, and the mutant is killed when one of ``tests`` (pytest node ids)
fails on it.  Run from the repository root::

    python tests/mutations.py            # every entry
    python tests/mutations.py ID [ID ...]

For each entry the runner copies ``src/`` and ``tests/`` (with
``pyproject.toml``, which holds the pytest settings) to a temporary
directory, applies the entry there and runs its tests with
``-x -q -p no:cacheprovider``, one process at a time.  It prints killed,
survived or does-not-apply for each entry (error when pytest ends without
running a failing test, e.g. on a collection error), and exits 1 unless
every entry it ran was killed.  pytest does not collect this file;
``tests/test_mutation_catalogue.py`` checks that every ``old`` still occurs
exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ENTRIES: list[tuple[str, str, str, str, list[str]]] = [
    # one stage sequence: a view stops after its own stage
    (
        "cli-view-never-stops",
        "src/ars/cli.py",
        "            if stage == command:\n                break\n",
        "            if stage == command:\n                pass\n",
        ["tests/test_pipeline.py::test_cli_locus_runs_no_algebra"],
    ),
    (
        "stages-weights-before-privileged-check",
        "src/ars/pipeline.py",
        "        if not report.privileged:\n"
        '            raise NotPrivileged(f"coordinate orders {orders} do not match weights {list(weights)}")\n'
        '        yield "weights", report\n',
        '        yield "weights", report\n'
        "        if not report.privileged:\n"
        '            raise NotPrivileged(f"coordinate orders {orders} do not match weights {list(weights)}")\n',
        ["tests/test_pipeline.py::test_cli_subcommands"],
    ),
    (
        "stages-no-partial-report",
        "src/ars/pipeline.py",
        "        exc.report = report\n        raise\n",
        "        raise\n",
        ["tests/test_pipeline.py::test_analyze_rank_failure_attaches_partial_report"],
    ),
    (
        "stages-locus-after-the-flag",
        "src/ars/pipeline.py",
        '    yield "locus", report\n\n    try:\n'
        "        growth, auto_weights = growth_vector(frame, max_depth=options.max_bracket_depth)\n",
        "\n    try:\n"
        "        growth, auto_weights = growth_vector(frame, max_depth=options.max_bracket_depth)\n"
        '        yield "locus", report\n',
        ["tests/test_pipeline.py::test_cli_locus_runs_no_algebra"],
    ),
    # the locus sampler: corank 1 from the adjugate, draws from getrandbits
    (
        "sampler-corank-one-without-minors",
        "src/ars/locus.py",
        "r = corank_at(frame, pt) if all(c.vanishes_at(ratios) for c in adjugate()) else 1",
        "r = 1",
        ["tests/test_locus.py::test_sampler_ranks_where_the_gradient_vanishes"],
    ),
    (
        "adjugate-row-0-only",
        "src/ars/locus.py",
        "for rows in drop for cols in drop if",
        "for rows in drop[:1] for cols in drop if",
        ["tests/test_locus.py::test_adjugate_decides_corank_one_at_locus_points"],
    ),
    (
        "adjugate-single-minor",
        "src/ars/locus.py",
        "for rows in drop for cols in drop if not (m := minor(rows, cols)).is_zero]",
        "for rows in drop for cols in drop if not (m := minor(rows, cols)).is_zero][:1]",
        ["tests/test_locus.py::test_adjugate_decides_corank_one_at_locus_points"],
    ),
    (
        "draws-one-bit-short",
        "src/ars/locus.py",
        "    k = n.bit_length()\n",
        "    k = (n - 1).bit_length()\n",
        ["tests/test_locus.py::test_draws_are_the_standard_librarys"],
    ),
    # one base-point elimination in the approximation, one --json writer, one parser term state
    (
        "approx-selects-every-nonzero-value",
        "src/ars/approx.py",
        "    selected = [i for i in range(n) if solutions[i][i]]\n"
        "    rest = [i for i in range(n) if not solutions[i][i]]\n",
        "    selected = [i for i in range(n) if any(at_origin[i])]\n"
        "    rest = [i for i in range(n) if not any(at_origin[i])]\n",
        ["tests/test_approx.py::test_transform_pins"],
    ),
    (
        "approx-subtracts-from-selected-rows",
        "src/ars/approx.py",
        "    for i in rest:\n        rows[i] = ",
        "    for i in range(n):\n        rows[i] = ",
        ["tests/test_approx.py::test_transform_pins"],
    ),
    (
        "approx-subtracts-zero-coefficients",
        "src/ars/approx.py",
        "[r - c if c else r for r, c in zip(rows[i], solutions[i])]",
        "[r - c for r, c in zip(rows[i], solutions[i])]",
        ["tests/test_approx.py::test_transform_pins"],
    ),
    (
        "write-json-catches-stdout-errors",
        "src/ars/cli.py",
        "        sys.stdout.write(text)\n        return EXIT_OK\n",
        "        try:\n            sys.stdout.write(text)\n        except OSError as exc:\n"
        '            return _fail("usage error", EXIT_USAGE, exc, None)\n        return EXIT_OK\n',
        ["tests/test_pipeline.py::test_cli_stdout_error_propagates"],
    ),
    (
        "parser-sign-check-without-factor",
        "src/ars/parser.py",
        "            if coef is not None or has_factor:\n                raise ParseError(\"unexpected sign",
        "            if coef is not None:\n                raise ParseError(\"unexpected sign",
        ["tests/test_parser.py::test_term_state_errors"],
    ),
    # the elimination kernel and its one reader of ad
    (
        "span-trusts-its-vectors",
        "src/ars/linalg.py",
        "        for v in vectors:\n            self.insert(v)\n",
        "        self._rows = {max(v): dict(v) for v in vectors if v}\n",
        ["tests/test_linalg.py::test_span_basis_contract"],
    ),
    (
        "insert-without-back-elimination",
        "src/ars/linalg.py",
        "        for other in self._rows.values():\n            if lead in other:\n"
        "                self._subtract(other, other[lead], row)\n",
        "",
        ["tests/test_linalg.py::test_span_basis_contract"],
    ),
    (
        "ad-reads-the-first-entry-only",
        "src/ars/liealg.py",
        "sorted({v for i in w for v in table[i]}.difference(skip))",
        "sorted(set(table[next(iter(w))]).difference(skip))",
        ["tests/test_liealg.py::test_ideal_is_ad_invariant"],
    ),
    # one analysis point, the frame's base point, and one privileged verdict
    (
        "privileged-cut-at-the-step",
        "src/ars/pipeline.py",
        "        bound = max(weights)\n",
        "        bound = growth.step\n",
        ["tests/test_pipeline.py::test_report_orders_match_direct_computation"],
    ),
    (
        "orders-at-the-origin",
        "src/ars/grading.py",
        "values = _values(frame.base_point, terms, len(level) * n)",
        "values = _values((0,) * n, terms, len(level) * n)",
        ["tests/test_grading.py::test_coordinate_orders_match_every_frame_word"],
    ),
    (
        "flag-at-the-origin",
        "src/ars/grading.py",
        "    n, point = frame.dim, frame.base_point\n",
        "    n, point = frame.dim, (0,) * frame.dim\n",
        ["tests/test_grading.py::test_growth_vector_away_from_locus"],
    ),
    (
        "flag-walks-at-a-regular-point",
        "src/ars/grading.py",
        "    if values.dim == n:\n        return dims, 1, None\n",
        "",
        ["tests/test_grading.py::test_regular_point_flag_forms_only_the_values_span"],
    ),
    (
        "options-keep-weights-unchecked",
        "src/ars/pipeline.py",
        'list(as_integers(self.weights, "weights"))',
        "list(self.weights)",
        ["tests/test_pipeline.py::test_weights_neither_auto_nor_a_sequence_are_refused_before_any_stage"],
    ),
    (
        "integers-error-path-iterates",
        "src/ars/symcore.py",
        'raise ValueError(f"{what} must be integers, got {values!r}")',
        'raise ValueError(f"{what} must be integers, got {tuple(values)}")',
        ["tests/test_grading.py::test_weights_that_are_not_integers_are_refused"],
    ),
    (
        "parser-dangling-sign-accepted",
        "src/ars/parser.py",
        '    if tokens[-1][0] in ("+", "-"):\n        raise ParseError("dangling sign without a term", lineno, tokens[-1][1])\n',
        "",
        ["tests/test_parser.py::test_term_state_errors"],
    ),
]


def run(entry: tuple[str, str, str, str, list[str]]) -> str:
    """Apply one entry to a copy of src/ and tests/ and run its tests there; the outcome's name."""
    _, file, old, new, tests = entry
    with tempfile.TemporaryDirectory(prefix="ars-mutant-") as tmp:
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, Path(tmp) / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = Path(tmp) / file
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "does-not-apply"
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        code = subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    # pytest exits 1 when a test failed and 0 when all passed; anything else is no verdict
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main(ids: list[str]) -> int:
    known = {entry[0]: entry for entry in ENTRIES}
    unknown = [i for i in ids if i not in known]
    if unknown:
        print(f"unknown mutation ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[i] for i in ids] if ids else ENTRIES
    outcomes = []
    for entry in chosen:
        start = time.perf_counter()
        outcomes.append(run(entry))
        print(f"{entry[0]}: {outcomes[-1]} ({time.perf_counter() - start:.1f} s)", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(outcomes)} killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
