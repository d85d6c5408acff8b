"""CLI surface: the ``repro scenario`` subcommands, exit codes and
report writing."""

import json

import pytest

from repro.cli import main as repro_main


def main(argv):
    return repro_main(["scenario", *argv])


QUICK_TOML = """\
[scenario]
name = "cli-quick"
kind = "single-job"
seed = 3

[workload]
name = "pmf-ml10m"
workers = 2
max_steps = 5
"""


@pytest.fixture
def quick_spec(tmp_path):
    path = tmp_path / "cli_quick.toml"
    path.write_text(QUICK_TOML, encoding="utf-8")
    return path


def test_list_names_all_templates(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fault-storm", "diurnal-multi-tenant",
                 "spot-capacity-crunch", "rightsize-sweep"):
        assert name in out


def test_validate_template_by_name(capsys):
    assert main(["validate", "fault-storm"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK: fault-storm [single-job]")


def test_validate_spec_file_by_path(quick_spec, capsys):
    assert main(["validate", str(quick_spec)]) == 0
    assert "OK: cli-quick" in capsys.readouterr().out


def test_unknown_scenario_is_exit_2(capsys):
    assert main(["validate", "no-such-scenario"]) == 2
    err = capsys.readouterr().err
    assert "no such template or spec file" in err
    assert "fault-storm" in err  # the error lists what IS available


def test_invalid_spec_is_exit_2_with_origin(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text(
        QUICK_TOML + "\n[faults]\ncrash_rate = -0.2\n", encoding="utf-8"
    )
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.toml: faults.crash_rate: must be >= 0.0, got -0.2" in err


def test_run_writes_report_json(quick_spec, tmp_path, capsys):
    report = tmp_path / "out" / "kpi.json"
    assert main(["run", str(quick_spec), "--report", str(report)]) == 0
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["name"] == "cli-quick"
    assert payload["digest"]
    assert payload["reconciliation"]["checked_runs"] == 1
    out = capsys.readouterr().out
    assert "scenario cli-quick [single-job]" in out
    assert f"report written to {report}" in out


def test_run_seed_override(quick_spec, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["run", str(quick_spec), "--seed", "7", "--report", str(a)]) == 0
    assert main(["run", str(quick_spec), "--seed", "7", "--report", str(b)]) == 0
    pa = json.loads(a.read_text(encoding="utf-8"))
    pb = json.loads(b.read_text(encoding="utf-8"))
    assert pa["seed"] == 7
    assert pa["digest"] == pb["digest"]


def test_run_rerun_check_passes_for_deterministic_spec(quick_spec, capsys):
    assert main(["run", str(quick_spec), "--rerun-check"]) == 0
    assert "digest stable across reruns" in capsys.readouterr().out


def test_budget_violation_is_exit_3(tmp_path, capsys):
    broke = tmp_path / "broke.toml"
    broke.write_text(
        QUICK_TOML + "\n[budget]\nmax_cost_usd = 0.0\n", encoding="utf-8"
    )
    assert main(["run", str(broke)]) == 3
    assert "BUDGET VIOLATION" in capsys.readouterr().out


def test_repro_cli_forwards_scenario_subcommand(capsys):
    assert repro_main(["scenario", "list"]) == 0
    assert "fault-storm" in capsys.readouterr().out


def test_repro_cli_forwards_validate_errors(capsys):
    assert repro_main(["scenario", "validate", "no-such-scenario"]) == 2
