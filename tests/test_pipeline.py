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
import ars.symcore
from ars.cli import main
from ars.approx import build_approximation
from ars.grading import RankConditionFailure, coordinate_orders, growth_vector
from ars.liealg import ideal_closure, is_solvable, lie_closure
from ars.parser import parse_frame
from ars.pipeline import AnalyzeOptions, NotPrivileged, analyze
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
    [(E3_TEXT, 102), ("vars x y\nfield X1 = d/dx\nfield X2 = 3/7 x^40 d/dy\n", 252)],
    ids=["E3", "3/7 x^40 d/dy"],
)
def test_span_inserts_per_analyze(text, expected, monkeypatch):
    # subalgebra and classify_fields take rows that are already canonical as
    # they are, ideal_closure inserts each layer's nonzero brackets once, and
    # coordinate_orders inserts each level's fields before reading their values;
    # graded_frame inserts the values of G's basis at the origin once, for
    # every coordinate, and no separate rank of G is taken
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
    [(E3_TEXT, 9), ("vars x y\nfield X1 = d/dx\nfield X2 = 3/7 x^40 d/dy\n", 40)],
    ids=["E3", "3/7 x^40 d/dy"],
)
def test_vf_apply_calls_per_analyze(text, expected, monkeypatch):
    # coordinate_orders makes one walk over fields for every coordinate, and
    # drops the components whose order it has found from longer words
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


def test_cli_subcommands(tmp_path, capsys):
    src = _write(tmp_path, "e1.frame", E1_TEXT)
    assert main(["weights", src]) == 0
    weights_payload = json.loads(capsys.readouterr().out)
    assert weights_payload["weights"] == [1, 2, 5]
    assert "approximation" not in weights_payload

    assert main(["approx", src]) == 0
    approx_payload = json.loads(capsys.readouterr().out)
    assert approx_payload["approximation"]["k"] == 1

    assert main(["liealg", src]) == 0
    liealg_payload = json.loads(capsys.readouterr().out)
    assert liealg_payload["lie_algebra"]["ideal_dim"] == 5

    assert main(["locus", src]) == 0
    locus_payload = json.loads(capsys.readouterr().out)
    assert locus_payload["determinant"]["polynomial"] == "x y^2"


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


def test_console_script_smoke(tmp_path):
    import os
    import subprocess
    import sys

    import ars

    # the child imports the same ars package as this process, installed or not
    package_root = str(Path(ars.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))
    src = _write(tmp_path, "e1.frame", E1_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "ars.cli", "analyze", src],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["weights"] == [1, 2, 5]


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
