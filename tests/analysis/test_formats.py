"""Report renderers: github annotations and SARIF, plus CLI wiring."""

import json

import pytest

from repro.analysis import Finding
from repro.analysis.formats import render, render_github, render_sarif
from repro.cli import main as repro_main


def cli_main(argv):
    return repro_main(["lint", *argv])


FINDINGS = [
    Finding(
        rule="SIM001",
        path="src/repro/sim/mod.py",
        module="sim/mod.py",
        line=5,
        col=12,
        message="wall-clock read: time.time()",
        snippet="return time.time()",
    ),
    Finding(
        rule="EXEC102",
        path="src/repro/core/worker.py",
        module="core/worker.py",
        line=9,
        col=5,
        message="yields a non-protocol value\nsecond line, with % and ::",
        snippet="yield 42",
    ),
]


def write_bad_package(tmp_path):
    package = tmp_path / "pkg"
    (package / "sim").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "sim" / "__init__.py").write_text("")
    (package / "sim" / "mod.py").write_text(
        "import time\n\ndef f():\n    return time.time()\n"
    )
    return package


# -- github ------------------------------------------------------------------


def test_github_format_emits_one_error_command_per_finding():
    out = render_github(FINDINGS, [])
    lines = out.splitlines()
    assert lines[0] == (
        "::error file=src/repro/sim/mod.py,line=5,col=12,"
        "title=SIM001::SIM001: wall-clock read: time.time()"
    )
    assert lines[-1] == "sim-lint: 2 finding(s)"


def test_github_format_escapes_newlines_in_messages():
    out = render_github(FINDINGS, [])
    # workflow commands are single-line by contract
    assert all(line.startswith(("::error", "sim-lint:")) for line in out.splitlines())
    assert "%0A" in out and "%25" in out


def test_github_format_reports_grandfathered_in_summary():
    out = render_github([], FINDINGS)
    assert out == "sim-lint: 0 finding(s), 2 grandfathered by baseline"


# -- sarif -------------------------------------------------------------------


def test_sarif_log_shape_and_fingerprints():
    log = json.loads(render_sarif(FINDINGS, []))
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "sim-lint"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["EXEC102", "SIM001"]
    assert len(run["results"]) == 2
    result = run["results"][0]
    assert result["ruleId"] == "SIM001"
    assert run["tool"]["driver"]["rules"][result["ruleIndex"]]["id"] == "SIM001"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "src/repro/sim/mod.py"
    assert loc["region"] == {
        "startLine": 5,
        "startColumn": 12,
        "snippet": {"text": "return time.time()"},
    }
    assert result["partialFingerprints"] == {
        "simLintFingerprint/v1": FINDINGS[0].fingerprint
    }


def test_sarif_empty_run_is_valid_and_counts_grandfathered():
    log = json.loads(render_sarif([], FINDINGS))
    run = log["runs"][0]
    assert run["results"] == []
    assert run["properties"]["grandfathered"] == 2


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        render("yaml", [], [])


# -- CLI wiring --------------------------------------------------------------


def test_cli_format_github(tmp_path, capsys):
    package = write_bad_package(tmp_path)
    assert cli_main([str(package), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=" in out and "title=SIM001" in out


def test_cli_format_sarif_to_output_file(tmp_path, capsys):
    package = write_bad_package(tmp_path)
    sarif_path = tmp_path / "sim-lint.sarif"
    assert cli_main(
        [str(package), "--format", "sarif", "--output", str(sarif_path)]
    ) == 1
    log = json.loads(sarif_path.read_text())
    assert log["runs"][0]["results"][0]["ruleId"] == "SIM001"
    assert json.loads(capsys.readouterr().out) == log


def test_cli_json_flag_still_works_as_shorthand(tmp_path, capsys):
    package = write_bad_package(tmp_path)
    assert cli_main([str(package), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["by_rule"] == {"SIM001": 1}
