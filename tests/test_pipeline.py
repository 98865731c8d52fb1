from __future__ import annotations

import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import ars.grading
import ars.liealg
import ars.linalg
import ars.pipeline
import ars.symcore
from ars.cli import main
from ars.approx import build_approximation
from ars.grading import DegreeBoundExceeded, RankConditionFailure, coordinate_orders, growth_vector
from ars.liealg import ideal_closure, is_solvable, lie_closure
from ars.parser import parse_frame
from ars.pipeline import AnalyzeOptions, NotPrivileged, analyze, stages
from ars.symcore import frame_rank_at

from conftest import (
    AFFINE_TEXT,
    DEGENERATE_TEXT,
    E1_TEXT,
    E2_TEXT,
    E3_TEXT,
    GRUSHIN_TEXT,
    NOT_PRIVILEGED_TEXT,
    RANK_FAIL_TEXT,
    TANGENTIAL_TEXT,
    time_limit,
)


def test_analyze_e1(e1_doc):
    report = analyze(e1_doc)
    assert report.weights == (1, 2, 5)
    assert report.privileged
    assert report.growth.dims == (1, 2, 2, 2, 3)
    assert report.approximation.k == 1 and report.approximation.m == 3
    assert report.classification.lie_dim == 9
    assert report.classification.ideal_dim == 5
    assert report.classification.labels == ("invariant", "linear", "linear")
    assert report.ideal_full_rank
    assert report.determinant["polynomial"] == "x y^2"
    assert report.determinant["vanishes_at_base_point"]
    assert not report.warnings


def test_analyze_e3(e3_doc):
    report = analyze(e3_doc)
    assert report.weights == (1, 1, 2, 1, 2)
    assert not report.classification.solvable
    assert report.classification.ideal_nilpotent_step == 2
    assert report.determinant["polynomial"] == "-1/2 x y^2 w"


def test_analyze_declared_weights_checked(e1_doc):
    report = analyze(e1_doc, AnalyzeOptions(weights=(1, 2, 5)))
    assert report.weights_source == "declared"
    with pytest.raises(NotPrivileged):
        analyze(e1_doc, AnalyzeOptions(weights=(1, 1, 1)))


def test_analyze_single_field_document():
    doc = parse_frame("vars x\nfield X1 = d/dx\n")
    report = analyze(doc)
    assert report.weights == (1,)
    assert report.determinant["never_vanishing"]
    assert any("empty singular locus" in w for w in report.warnings)


def test_analyze_at_riemannian_point(e1_doc):
    report = analyze(e1_doc, AnalyzeOptions(point=(1, 1, 1)))
    assert report.weights == (1, 1, 1)
    assert report.approximation.k == 3
    assert report.classification.labels == ("invariant", "invariant", "invariant")


def test_analyze_rank_failure_attaches_partial_report():
    doc = parse_frame(RANK_FAIL_TEXT)
    with pytest.raises(RankConditionFailure) as err:
        analyze(doc)
    assert getattr(err.value, "report").determinant is not None


def test_analyze_not_privileged():
    doc = parse_frame(NOT_PRIVILEGED_TEXT)
    with pytest.raises(NotPrivileged):
        analyze(doc)


def test_analyze_degenerate_still_reports():
    doc = parse_frame(DEGENERATE_TEXT)
    report = analyze(doc)
    assert report.approximation.degenerate
    assert report.classification is None
    assert any("sub-Riemannian" in w for w in report.warnings)


def test_analyze_probes_and_stratification(e1_doc):
    report = analyze(
        e1_doc, AnalyzeOptions(probe_flows=True, stratify=True, samples=40, seed=9)
    )
    assert all(entry["blowups"] == 0 for entry in report.flow_probe)
    assert all(entry["triangular"] for entry in report.flow_probe)
    assert report.stratification


def test_probe_flows_reports_exact_certificate():
    # z d/dz has the complete flow z e^t, which a long float integration
    # reports as a blowup; the probe reports the exact certificate instead
    doc = parse_frame(
        "vars x y z\nfield X1 = d/dx\nfield X2 = z d/dz\nfield X3 = z d/dz + x d/dy + y d/dz\n"
    )
    out = analyze(doc, AnalyzeOptions(probe_flows=True)).to_json_dict()
    assert [entry["blowups"] for entry in out["flow_probe"]] == [0, 0, 0]
    triangular = [entry["triangular"] for entry in out["flow_probe"]]
    assert triangular == out["approximation"]["triangular_complete"]


def test_analyze_deterministic_bytes(e1_doc, e3_doc):
    for doc in (e1_doc, e3_doc):
        opts = AnalyzeOptions(probe_flows=True, stratify=True, samples=30, seed=7)
        one = analyze(doc, opts).to_json()
        two = analyze(doc, opts).to_json()
        assert one == two


@pytest.mark.parametrize("doc_name", ["e1_doc", "e2_doc", "e3_doc"])
def test_report_orders_match_direct_computation(doc_name, request):
    # analyze cuts the orders that growth_vector found at bound `step`;
    # declared weights put max(w) below, at and above `step`, e.g. E1 with
    # (1, 1, 1), (1, 2, 5) and (1, 2, 6)
    doc = request.getfixturevalue(doc_name)
    frame = doc.to_frame()
    auto = analyze(doc)
    n, step = frame.dim, auto.growth.step
    bumped = tuple(w + (j == n - 1) for j, w in enumerate(auto.weights))
    assert max((1,) * n) < step == max(auto.weights) < max(bumped)
    for weights in ((1,) * n, auto.weights, bumped):
        try:
            report = analyze(doc, AnalyzeOptions(weights=weights))
        except NotPrivileged as exc:
            report = exc.report
        assert report.coordinate_orders == tuple(coordinate_orders(frame, max_length=max(weights)))


def _grushin_pow_text(n: int) -> str:
    # X1 = d/dx1, Xi = x1^(i-1) d/dxi
    names = [f"x{i}" for i in range(1, n + 1)]
    fields = ["d/dx1"] + [f"x1^{i - 1} d/dx{i}" for i in range(2, n + 1)]
    return "vars " + " ".join(names) + "\n" + "".join(f"field X{i + 1} = {f}\n" for i, f in enumerate(fields))


@pytest.mark.parametrize(
    "text, expected",
    [
        (E3_TEXT, {"grading": 7, "lie_closure": 11, "from_span": 15}),
        (_grushin_pow_text(9), {"grading": 36, "from_span": 36}),
    ],
    ids=["E3", "grushin_pow(9)"],
)
def test_bracket_counts_by_caller(text, expected, monkeypatch):
    # pairs that commute by support are never bracketed, the flag brackets
    # each generator pair once, and from_span tabulates L only, since G and
    # L_0 read their tables off L's.  Both frames are their own approximation,
    # so lie_closure finishes the flag's walk: E3 makes 33 brackets, and
    # grushin_pow(9) 72, with none left for lie_closure (a key with no count)
    callers = {"_flag_levels": "grading", "lie_closure": "lie_closure", "from_span": "from_span"}
    counts: Counter = Counter()
    bracket = ars.liealg.lie_bracket

    def counting(X, Y):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in callers:
            frame = frame.f_back
        counts[callers[frame.f_code.co_name] if frame is not None else "other"] += 1
        return bracket(X, Y)

    monkeypatch.setattr(ars.grading, "lie_bracket", counting)
    monkeypatch.setattr(ars.liealg, "lie_bracket", counting)
    analyze(parse_frame(text))
    assert dict(counts) == expected


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        (E3_TEXT, 93),
        ("vars x y\nfield X1 = d/dx\nfield X2 = 3/7 x^40 d/dy\n", 252),
        ("vars x y\nfield X1 = d/dx\nfield X2 = 3/7 x^300 d/dy\npoint 9/8 -7/9\n", 14),
    ],
    ids=["E3", "3/7 x^40 d/dy", "3/7 x^300 d/dy @regular"],
)
def test_span_inserts_per_analyze(text, expected, monkeypatch):
    # subalgebra and classify_fields take rows that are already canonical as
    # they are, ideal_closure inserts each layer's nonzero brackets once, and
    # coordinate_orders inserts each level's fields only to build the next level;
    # graded_frame inserts the values of G's basis at the origin once, for
    # every coordinate, and no separate rank of G is taken; at a regular
    # point the flag inserts the fields' values only
    calls = []
    insert = ars.linalg.SpanBasis.insert

    def counting(self, vec):
        calls.append(vec)
        return insert(self, vec)

    monkeypatch.setattr(ars.linalg.SpanBasis, "insert", counting)
    analyze(parse_frame(text))
    assert len(calls) == expected


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        (E3_TEXT, 9),
        ("vars x y\nfield X1 = d/dx\nfield X2 = 3/7 x^40 d/dy\n", 40),
        ("vars x y z\nfield X1 = d/dx\nfield X2 = x d/dy + x^2 d/dz\nfield X3 = 2 x d/dy + 2 x^2 d/dz\n", 2),
    ],
    ids=["E3", "3/7 x^40 d/dy", "X3 = 2 X2"],
)
def test_vf_apply_calls_per_analyze(text, expected, monkeypatch):
    # coordinate_orders makes one walk over fields for every coordinate, and
    # drops the components whose order it has found from longer words; a
    # level is pruned to a basis before its successors are made, so the
    # frame's own dependent field X3 = 2 X2 makes no words
    calls = []
    apply = ars.symcore.vf_apply

    def counting(X, f):
        calls.append(f)
        return apply(X, f)

    for name, module in list(sys.modules.items()):
        if (name == "ars" or name.startswith("ars.")) and getattr(module, "vf_apply", None) is apply:
            monkeypatch.setattr(module, "vf_apply", counting)
    analyze(parse_frame(text))
    assert len(calls) == expected


def _chain_text(n: int) -> str:
    # X1 = d/dx1, Xi = x(i-1) d/dxi
    names = [f"x{i}" for i in range(1, n + 1)]
    fields = ["d/dx1"] + [f"x{i - 1} d/dx{i}" for i in range(2, n + 1)]
    return "vars " + " ".join(names) + "\n" + "".join(f"field X{i + 1} = {f}\n" for i, f in enumerate(fields))


@pytest.mark.parametrize(
    "text",
    [E1_TEXT, E2_TEXT, E3_TEXT, AFFINE_TEXT, DEGENERATE_TEXT, GRUSHIN_TEXT, TANGENTIAL_TEXT]
    + [_grushin_pow_text(n) for n in (5, 6, 7)]
    + [_chain_text(n) for n in (5, 6)]
    + [f"vars x y\nfield X1 = d/dx\nfield X2 = 3/7 x^{k} d/dy\n" for k in range(1, 17)],
)
def test_ideal_full_rank_is_the_rank_of_g_at_the_base_point(text):
    # analyze reads ideal_full_rank off the graded frame's elimination, not off a rank of G
    doc = parse_frame(text)
    report = analyze(doc)
    if report.classification is None:
        assert report.ideal_full_rank is None
        return
    frame, A = doc.to_frame(), report.approximation
    G = ideal_closure(lie_closure(A.fields), A.hat_fields[: A.k])
    assert report.ideal_full_rank == (frame_rank_at(G.basis, frame.base_point) == frame.dim)
    assert (report.graded_frame_fields is not None) == report.ideal_full_rank


def test_analyze_refuses_weights_that_are_not_integers():
    # int() used to truncate them: (1.5, 2.9) read as (1, 2), privileged
    with pytest.raises(ValueError, match=re.escape("weights must be integers, got (1.5, 2.9)")):
        analyze(parse_frame(GRUSHIN_TEXT), AnalyzeOptions(weights=(1.5, 2.9)))


@pytest.mark.parametrize("weights", [None, 5])
def test_weights_neither_auto_nor_a_sequence_are_refused_before_any_stage(weights):
    # "auto" is the one spelling of automatic weights; any other value must
    # be a sequence of integers, checked before the locus stage
    with pytest.raises(ValueError, match=re.escape(f"weights must be integers, got {weights}")):
        next(stages(parse_frame(GRUSHIN_TEXT), AnalyzeOptions(weights=weights)))


def _count_solvability_brackets(monkeypatch) -> Counter:
    """Counter of the LieBasis._bracket calls made inside is_solvable from now on."""
    counts: Counter = Counter()
    bracket = ars.liealg.LieBasis._bracket

    def counting(self, u, v):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "is_solvable":
            frame = frame.f_back
        counts["is_solvable" if frame is not None else "other"] += 1
        return bracket(self, u, v)

    monkeypatch.setattr(ars.liealg.LieBasis, "_bracket", counting)
    return counts


@pytest.mark.parametrize(
    "text, expected",
    [(E3_TEXT, 14), (_grushin_pow_text(9), 0), (_chain_text(7), 20)],
    ids=["E3", "grushin_pow(9)", "chain(7)"],
)
def test_solvability_brackets_skip_by_support(text, expected, monkeypatch):
    # is_solvable brackets a pair of derived rows only when the table rows
    # of the first reach a coordinate of the second; every pair would be
    # 36, 630 and 255 brackets.  L is the algebra that analyze builds.
    frame = parse_frame(text).to_frame()
    _, weights = growth_vector(frame)
    L = lie_closure(build_approximation(frame, weights).fields)
    counts = _count_solvability_brackets(monkeypatch)
    is_solvable(L)
    assert counts["is_solvable"] == expected


@pytest.mark.parametrize(
    "text, lie_dim, order_zero_dim, solvable, expected",
    [(E3_TEXT, 11, 3, False, 0), (_grushin_pow_text(9), 45, 0, True, 0), (_chain_text(7), 28, 0, True, 0)],
    ids=["E3", "grushin_pow(9)", "chain(7)"],
)
def test_analyze_decides_solvability_on_order_zero_part(text, lie_dim, order_zero_dim, solvable, expected, monkeypatch):
    # analyze runs the derived series of L_0 only: zero on the scaling
    # families, and sl2 for E3, whose first derived term is all of it, so no
    # pair of rows is bracketed (is_solvable(L) brackets 14, 0 and 20)
    counts = _count_solvability_brackets(monkeypatch)
    calls = []
    for name in ("nilpotent_step", "is_solvable"):
        original = getattr(ars.liealg, name)
        recording = lambda L, name=name, original=original: calls.append((name, len(L))) or original(L)
        monkeypatch.setattr(ars.liealg, name, recording)
    report = analyze(parse_frame(text))
    assert counts["is_solvable"] == expected
    assert report.classification.lie_dim == lie_dim
    assert report.classification.solvable is solvable
    # nilpotent_step(G), then is_solvable(L_0)
    assert calls == [("nilpotent_step", report.classification.ideal_dim), ("is_solvable", order_zero_dim)]


# --- CLI ----------------------------------------------------------------------


def _write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_analyze_success(tmp_path, capsys):
    src = _write(tmp_path, "e1.frame", E1_TEXT)
    out = tmp_path / "report.json"
    assert main(["analyze", src, "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "ars-report/1"
    assert payload["weights"] == [1, 2, 5]
    assert payload["lie_algebra"]["dim"] == 9
    summary = capsys.readouterr().out
    assert "weights=[1, 2, 5]" in summary


def test_cli_reports_are_byte_identical(tmp_path):
    src = _write(tmp_path, "e3.frame", E3_TEXT)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", src, "--json", str(out1), "--stratify", "--seed", "5"]) == 0
    assert main(["analyze", src, "--json", str(out2), "--stratify", "--seed", "5"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_stratify_with_a_coefficient_beyond_float_range(tmp_path, capsys):
    # the determinant 10^400 x restricts to lines whose quotients leave float
    # range; the bisection takes them divided by one power of two
    src = _write(tmp_path, "big.frame", f"vars x y\nfield X1 = d/dx\nfield X2 = {10**400} x d/dy\n")
    with time_limit(20):
        assert main(["analyze", src, "--stratify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["weights"] == [1, 2] and report["stratification"][0]["r"] == 1


def test_cli_reads_a_frame_file_with_a_byte_order_mark(tmp_path, capsys):
    # editors on some systems save UTF-8 with a leading BOM; the report must not see it
    plain, marked, out = tmp_path / "e1.frame", tmp_path / "e1-bom.frame", tmp_path / "report.json"
    plain.write_text(E1_TEXT, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + E1_TEXT.encode("utf-8"))
    assert main(["analyze", str(plain), "--json", str(out)]) == 0
    expected = out.read_bytes()
    assert main(["analyze", str(marked), "--json", str(out)]) == 0
    assert out.read_bytes() == expected
    # a BOM does not make bytes that are not UTF-8 readable
    marked.write_bytes(b"\xef\xbb\xbfvars x\xe9\n")
    assert main(["analyze", str(marked)]) == 2
    assert "usage error" in capsys.readouterr().err


def test_cli_exit_code_parse_error(tmp_path, capsys):
    src = _write(tmp_path, "bad.frame", "vars x\nfield X1 = d/dy\n")
    assert main(["analyze", src]) == 2
    assert "undeclared" in capsys.readouterr().err


def test_cli_exit_code_rank_failure(tmp_path, capsys):
    src = _write(tmp_path, "rank.frame", RANK_FAIL_TEXT)
    out = tmp_path / "diag.json"
    assert main(["analyze", src, "--json", str(out)]) == 3
    payload = json.loads(out.read_text())
    assert payload["error"]["kind"] == "rank_condition_failure"


@pytest.mark.parametrize(
    ("flags", "max_degree"),
    [
        (["--weights", "1,2"], None),
        (["--point", "0,0"], None),
        (["--stratify", "--samples", "0"], None),
        ([], "abc"),
        ([], "-5"),
    ],
    ids=["weights_length", "point_length", "zero_samples", "max_degree_not_int", "max_degree_negative"],
)
def test_cli_exit_code_usage_error(tmp_path, capsys, monkeypatch, flags, max_degree):
    if max_degree is not None:
        monkeypatch.setenv("ARS_MAX_DEGREE", max_degree)
    src = _write(tmp_path, "e1.frame", E1_TEXT)
    out = tmp_path / "diag.json"
    assert main(["analyze", src, "--json", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert json.loads(out.read_text())["error"]["kind"] == "usage_error"


# the --json option of each target; an unwritable path is itself a usage
# error, whose diagnostic goes to stdout
JSON_TARGETS = {
    "json_file": ["--json", "diag.json"],
    "stdout": [],
    "json_is_dir": ["--json", "."],
    "json_dir_missing": ["--json", "missing/diag.json"],
}
FAILING_ARGV = {
    "missing_file": ["analyze", "missing.frame"],
    "not_utf8": ["analyze", "latin1.frame"],
    "codims_below_2": ["codims", "1"],
}
RUNNING_ARGV = {"analyze_e1": ["analyze", "e1.frame"], "codims_3": ["codims", "3"]}


@pytest.mark.parametrize(
    ("argv", "target"),
    [pytest.param(argv, target, id=f"{name}-{target}") for name, argv in FAILING_ARGV.items() for target in JSON_TARGETS]
    + [pytest.param(argv, target, id=f"{name}-{target}") for name, argv in RUNNING_ARGV.items()
       for target in ("json_is_dir", "json_dir_missing")],
)
def test_cli_usage_error_writes_diagnostic(tmp_path, capsys, monkeypatch, argv, target):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.frame").write_bytes(b"vars x\xe9\n")
    (tmp_path / "e1.frame").write_text(E1_TEXT)
    assert main([*argv, *JSON_TARGETS[target]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    diagnostic = json.loads((tmp_path / "diag.json").read_text() if target == "json_file" else captured.out)
    assert diagnostic["error"]["kind"] == "usage_error"
    assert diagnostic["error"]["message"] == captured.err.removeprefix("usage error: ").rstrip("\n")


class _BrokenStdout:
    def write(self, text):
        raise BrokenPipeError("stdout is closed")

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [["analyze", "e1.frame"], ["analyze", "missing.frame"], ["analyze", "e1.frame", "--json", "missing/diag.json"],
     ["codims", "3"], ["codims", "1"]],
    ids=["report", "usage_error", "unwritable_json", "codims", "codims_below_2"],
)
def test_cli_stdout_error_propagates(tmp_path, monkeypatch, argv):
    # only an unwritable --json path falls back to stdout; stdout itself has no fallback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e1.frame").write_text(E1_TEXT)
    monkeypatch.setattr(sys, "stdout", _BrokenStdout())
    with pytest.raises(BrokenPipeError, match="stdout is closed"):
        main(argv)


@pytest.mark.parametrize(
    ("text", "max_degree", "message"),
    [
        (E3_TEXT, "1", "bracket components reached degree 2 > cap 1"),
        ("vars x y\nfield X1 = d/dx\nfield X2 = x^80 d/dy\n", None,
         "bracket components reached degree 79 > cap 64"),
    ],
    ids=["E3_cap_1_in_lie_closure", "x80_in_flag"],
)
def test_cli_exit_code_degree_cap(tmp_path, capsys, monkeypatch, text, max_degree, message):
    if max_degree is not None:
        monkeypatch.setenv("ARS_MAX_DEGREE", max_degree)
    src = _write(tmp_path, "cap.frame", text)
    out = tmp_path / "diag.json"
    assert main(["analyze", src, "--json", str(out)]) == 6
    err = capsys.readouterr().err
    assert err == f"degree cap exceeded: {message}\n"
    payload = json.loads(out.read_text())
    assert payload["error"] == {"kind": "degree_cap_exceeded", "message": message}
    assert payload["partial"]["vars"]


def test_cli_exit_code_not_privileged(tmp_path):
    src = _write(tmp_path, "np.frame", NOT_PRIVILEGED_TEXT)
    assert main(["analyze", src]) == 4


def test_cli_exit_code_degenerate_writes_report(tmp_path):
    src = _write(tmp_path, "deg.frame", DEGENERATE_TEXT)
    out = tmp_path / "deg.json"
    assert main(["analyze", src, "--json", str(out)]) == 5
    payload = json.loads(out.read_text())
    assert payload["approximation"]["degenerate"] is True


# the views in stage order, the keys of each on E1, and the first call of the
# stage after each, which the reference run below makes fail
VIEWS = ("locus", "weights", "approx", "liealg")
_LOCUS_KEYS = {"schema", "vars", "base_point", "options", "warnings", "determinant"}
_WEIGHTS_KEYS = _LOCUS_KEYS | {"growth", "weights", "weights_source", "privileged", "coordinate_orders"}
VIEW_KEYS = {
    "locus": _LOCUS_KEYS,
    "weights": _WEIGHTS_KEYS,
    "approx": _WEIGHTS_KEYS | {"approximation"},
    "liealg": _WEIGHTS_KEYS | {"approximation", "lie_algebra"},
}
NEXT_STAGE_CALL = {"locus": "growth_vector", "weights": "build_approximation", "approx": "lie_closure"}
# frame text, ARS_MAX_DEGREE, and the exit of each view in VIEWS order
VIEW_FRAMES = {
    "E1": (E1_TEXT, None, (0, 0, 0, 0)),
    "rank_failure": (RANK_FAIL_TEXT, None, (0, 3, 3, 3)),
    "not_privileged": (NOT_PRIVILEGED_TEXT, None, (0, 4, 4, 4)),
    "x80_cap_in_flag": ("vars x y\nfield X1 = d/dx\nfield X2 = x^80 d/dy\n", None, (0, 6, 6, 6)),
    "E3_cap_1_in_lie_closure": (E3_TEXT, "1", (0, 0, 0, 6)),
    "degenerate": (DEGENERATE_TEXT, None, (0, 0, 5, 5)),
}


@pytest.mark.parametrize("frame", VIEW_FRAMES)
@pytest.mark.parametrize("view", VIEWS)
def test_cli_subcommands(tmp_path, capsys, monkeypatch, view, frame):
    # a view prints the report built up to its stage and never runs a later
    # one: the partial that analyze carries when the next stage fails, which
    # the reference run forces by making that stage's first call raise
    text, max_degree, exits = VIEW_FRAMES[frame]
    if max_degree is not None:
        monkeypatch.setenv("ARS_MAX_DEGREE", max_degree)
    src = _write(tmp_path, "view.frame", text)
    out, ref = tmp_path / "view.json", tmp_path / "analyze.json"
    code = main([view, src, "--json", str(out)])
    assert code == exits[VIEWS.index(view)]
    if code in (3, 4, 6):
        # a failure in the view's own stages is analyze's failure
        assert main(["analyze", src, "--json", str(ref)]) == code
        assert out.read_bytes() == ref.read_bytes()
        return
    if view in NEXT_STAGE_CALL:
        def next_stage_fails(*args, **kwargs):
            raise DegreeBoundExceeded("the next stage failed")

        monkeypatch.setattr(ars.pipeline, NEXT_STAGE_CALL[view], next_stage_fails)
    main(["analyze", src, "--json", str(ref)])
    reference = json.loads(ref.read_text())
    payload = json.loads(out.read_text())
    assert payload == reference.get("partial", reference)
    if frame == "E1":
        assert set(payload) == VIEW_KEYS[view]
        assert capsys.readouterr().out.startswith(f"{view}: ")


def test_cli_locus_runs_no_algebra(tmp_path, capsys, monkeypatch):
    def no_flag(*args, **kwargs):
        raise AssertionError("the locus view built the bracket flag")

    monkeypatch.setattr(ars.pipeline, "growth_vector", no_flag)
    src = _write(tmp_path, "e1.frame", E1_TEXT)
    assert main(["locus", src]) == 0
    assert json.loads(capsys.readouterr().out)["determinant"]["polynomial"] == "x y^2"


def test_cli_codims(capsys):
    assert main(["codims", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["R"] == 2
    assert payload["strata"][1]["m"] == 2


def test_cli_explicit_weights_flag(tmp_path):
    src = _write(tmp_path, "e1.frame", E1_TEXT)
    assert main(["analyze", src, "--weights", "1,2,5"]) == 0
    assert main(["analyze", src, "--weights", "1,1,1"]) == 4


@pytest.mark.parametrize(
    ("text", "message"),
    [
        (E1_TEXT + "weights 1 2 \u00b2\n", "line 5, column 13: weights must be positive integers, got '\u00b2'"),
        (E1_TEXT + "point 0 1/0 0\n", "line 5, column 9: zero denominator in '1/0'"),
        ("vars x y\nfield X1 = 1/0 d/dx\nfield X2 = x d/dy\n", "line 2, column 12: zero denominator in '1/0'"),
    ],
    ids=["superscript_weight", "point_zero_denominator", "coefficient_zero_denominator"],
)
def test_cli_literals_that_int_or_fraction_refuse_are_parse_errors(tmp_path, capsys, text, message):
    src = _write(tmp_path, "literal.frame", text)
    out = tmp_path / "diag.json"
    assert main(["analyze", src, "--json", str(out)]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"
    assert json.loads(out.read_text())["error"] == {"kind": "parse_error", "message": message}


@pytest.mark.parametrize("point", ["a,b", "0,1/0"])
def test_cli_point_that_is_not_rational_is_an_argparse_error(tmp_path, capsys, point):
    # a zero denominator fails the way a non-number does, not with a traceback
    src = _write(tmp_path, "e1.frame", E1_TEXT)
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", src, "--point", point])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --point: bad point '{point}'" in err
    assert "Traceback" not in err


def test_cli_point_flag(tmp_path, capsys):
    src = _write(tmp_path, "e1.frame", E1_TEXT)
    assert main(["analyze", src, "--point", "1,1,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["weights"] == [1, 1, 1]


def test_analyze_document_point_line():
    doc = parse_frame(
        "vars x y z\nfield X1 = d/dx\nfield X2 = x d/dy\nfield X3 = y^2 d/dz\npoint 1 1 1\n"
    )
    report = analyze(doc)
    assert report.base_point == (1, 1, 1)
    assert report.weights == (1, 1, 1)
    assert any("re-centered" in w for w in report.warnings)


def _child_env() -> dict:
    """The environment of a child that imports the same ars package as this process, installed or not."""
    import os

    import ars

    package_root = str(Path(ars.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def test_console_script_smoke(tmp_path):
    import subprocess
    import sys

    src = _write(tmp_path, "e1.frame", E1_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "ars.cli", "analyze", src],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["weights"] == [1, 2, 5]


def test_cli_loads_none_of_the_test_extra():
    import subprocess
    import sys

    # pyproject.toml declares dependencies = []: the console script must not load the test extra
    code = 'import sys, ars.cli; print(sorted({"numpy", "sympy", "hypothesis", "pytest"} & set(sys.modules)))'
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


def test_document_weights_line_overrides_auto():
    good = parse_frame(
        "vars x y z\nfield X1 = d/dx\nfield X2 = x d/dy\nfield X3 = y^2 d/dz\nweights 1 2 5\n"
    )
    report = analyze(good)
    assert report.weights == (1, 2, 5)
    assert report.weights_source == "declared"
    bad = parse_frame(
        "vars x y z\nfield X1 = d/dx\nfield X2 = x d/dy\nfield X3 = y^2 d/dz\nweights 1 1 1\n"
    )
    with pytest.raises(NotPrivileged):
        analyze(bad)


def test_cli_max_bracket_depth(tmp_path, capsys):
    src = _write(tmp_path, "e1.frame", E1_TEXT)
    assert main(["analyze", src, "--max-bracket-depth", "2"]) == 3
    assert main(["analyze", src, "--max-bracket-depth", "8"]) == 0
    # a depth below 1 is a usage error, not a rank-condition failure, even
    # on a frame whose flag needs one bracket
    grushin = _write(tmp_path, "grushin.frame", "vars x y\nfield X1 = d/dx\nfield X2 = x d/dy\n")
    for depth in ("0", "-3"):
        capsys.readouterr()
        out = tmp_path / "diag.json"
        assert main(["analyze", grushin, "--max-bracket-depth", depth, "--json", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: --max-bracket-depth must be at least 1, got {depth}\n"
        assert json.loads(out.read_text())["error"]["kind"] == "usage_error"


def test_analyze_e2_records_convention(e2_doc):
    # the fourth field has a nonzero order -1 part (x d/dz), so the whole
    # frame survives as hat fields and the run lands in the m = n case
    report = analyze(e2_doc)
    assert report.weights == (1, 1, 2, 2)
    assert report.approximation.k == 2
    assert report.approximation.m == 4
    assert report.approximation.tilde_fields == ()
    assert report.classification.lie_dim == 6
    assert report.classification.ideal_dim == 4
    assert report.classification.labels == ("invariant", "invariant", "linear", "linear")
    assert report.classification.solvable
    assert report.ideal_full_rank
    assert report.determinant["polynomial"] == "-x y"


def test_analyze_warns_on_identically_zero_determinant():
    doc = parse_frame(
        "vars x y\nfield A = x d/dy\nfield B = 2 x d/dy\n"
    )
    with pytest.raises(RankConditionFailure) as err:
        analyze(doc)
    partial = getattr(err.value, "report")
    assert partial.determinant["identically_zero"]
    assert any("identically zero" in w for w in partial.warnings)
