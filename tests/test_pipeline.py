from __future__ import annotations

import json
from pathlib import Path

import pytest

from ars.cli import main
from ars.grading import RankConditionFailure
from ars.parser import parse_frame
from ars.pipeline import AnalyzeOptions, NotPrivileged, analyze

from conftest import (
    DEGENERATE_TEXT,
    E1_TEXT,
    E3_TEXT,
    NOT_PRIVILEGED_TEXT,
    RANK_FAIL_TEXT,
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


def test_analyze_deterministic_bytes(e1_doc, e3_doc):
    for doc in (e1_doc, e3_doc):
        opts = AnalyzeOptions(probe_flows=True, stratify=True, samples=30, seed=7)
        one = analyze(doc, opts).to_json()
        two = analyze(doc, opts).to_json()
        assert one == two


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
    "flags",
    [["--weights", "1,2"], ["--point", "0,0"], ["--stratify", "--samples", "0"]],
    ids=["weights_length", "point_length", "zero_samples"],
)
def test_cli_exit_code_usage_error(tmp_path, capsys, flags):
    src = _write(tmp_path, "e1.frame", E1_TEXT)
    out = tmp_path / "diag.json"
    assert main(["analyze", src, "--json", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert json.loads(out.read_text())["error"]["kind"] == "usage_error"


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


def test_cli_max_bracket_depth(tmp_path):
    src = _write(tmp_path, "e1.frame", E1_TEXT)
    assert main(["analyze", src, "--max-bracket-depth", "2"]) == 3
    assert main(["analyze", src, "--max-bracket-depth", "8"]) == 0


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
