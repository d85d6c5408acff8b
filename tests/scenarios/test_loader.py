"""Loader: TOML/JSON text -> spec -> text round-trips, origin prefixes."""

import json

import pytest

from repro.scenarios import SpecError, load_spec_text
from repro.scenarios.cli import list_templates
from repro.scenarios.loader import detect_format, dump_spec_json, dump_spec_toml

MINIMAL_TOML = """\
[scenario]
name = "mini"
kind = "single-job"
seed = 5

[workload]
name = "pmf-ml10m"
workers = 2
max_steps = 10
"""


def test_load_toml_text():
    spec = load_spec_text(MINIMAL_TOML, origin="mini.toml")
    assert spec.name == "mini"
    assert spec.seed == 5
    assert spec.workload.workers == 2


def test_load_json_text():
    data = {
        "scenario": {"name": "mini", "kind": "single-job"},
        "workload": {"name": "pmf-ml10m"},
    }
    spec = load_spec_text(json.dumps(data), origin="mini.json")
    assert spec.name == "mini"


def test_detect_format():
    assert detect_format("x.json") == "json"
    assert detect_format("x.JSON") == "json"
    assert detect_format("x.toml") == "toml"
    assert detect_format("<spec>") == "toml"


def test_validation_error_is_origin_prefixed():
    bad = MINIMAL_TOML + "\n[faults]\ncrash_rate = -0.2\n"
    with pytest.raises(SpecError) as excinfo:
        load_spec_text(bad, origin="scenarios/fault_storm.toml")
    assert str(excinfo.value) == (
        "scenarios/fault_storm.toml: faults.crash_rate: "
        "must be >= 0.0, got -0.2"
    )


def test_parse_error_is_origin_prefixed():
    with pytest.raises(SpecError) as excinfo:
        load_spec_text("{not json", origin="broken.json")
    assert str(excinfo.value).startswith("broken.json: unparseable json: ")


def test_unknown_format_rejected():
    with pytest.raises(SpecError) as excinfo:
        load_spec_text(MINIMAL_TOML, origin="x.toml", fmt="yaml")
    assert "unknown spec format 'yaml'" in str(excinfo.value)


# -- dump -> load round trips ------------------------------------------------


def _template_specs():
    return [
        (name, load_spec_text(path.read_text(encoding="utf-8"), origin=path.name))
        for name, path in list_templates()
    ]


def test_templates_exist():
    names = [name for name, _ in list_templates()]
    assert names == sorted(names)
    for required in ("fault-storm", "diurnal-multi-tenant",
                     "spot-capacity-crunch", "rightsize-sweep"):
        assert required in names, required


@pytest.mark.parametrize(
    "name", [name for name, _ in list_templates()]
)
def test_toml_dump_reload_round_trip(name):
    spec = dict(_template_specs())[name]
    dumped = dump_spec_toml(spec)
    assert load_spec_text(dumped, origin=f"{name}.toml") == spec


@pytest.mark.parametrize(
    "name", [name for name, _ in list_templates()]
)
def test_json_dump_reload_round_trip(name):
    spec = dict(_template_specs())[name]
    dumped = dump_spec_json(spec)
    assert load_spec_text(dumped, origin=f"{name}.json") == spec


def test_file_round_trip_through_disk(tmp_path):
    """ISSUE acceptance: file -> dataclasses -> dict -> file, losslessly."""
    src = tmp_path / "scn.toml"
    src.write_text(MINIMAL_TOML, encoding="utf-8")
    spec = load_spec_text(src.read_text(encoding="utf-8"), origin=src.name)
    out = tmp_path / "out.toml"
    out.write_text(dump_spec_toml(spec), encoding="utf-8")
    reloaded = load_spec_text(out.read_text(encoding="utf-8"), origin=out.name)
    assert reloaded == spec
    assert reloaded.to_dict() == spec.to_dict()

