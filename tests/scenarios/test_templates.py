"""Committed template library: every template validates, runs end-to-end,
reconciles 100% of the bill, and yields the same digest twice.

This is the acceptance gate from the issue: >= 4 templates, seed-stable
KPI digests, exact invoice/billing reconciliation on every run.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.scenarios import dump_spec_toml, load_spec_text, run_scenario_spec
from repro.scenarios.cli import list_templates

TEMPLATES = list_templates()
NAMES = [name for name, _ in TEMPLATES]


def load(name):
    path = dict(TEMPLATES)[name]
    return load_spec_text(path.read_text(encoding="utf-8"), origin=path.name)


def test_library_ships_all_four_categories():
    assert len(TEMPLATES) >= 4
    assert {"fault-storm", "diurnal-multi-tenant", "spot-capacity-crunch",
            "rightsize-sweep"} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_template_validates_and_is_deterministic(name):
    spec = load(name)
    assert spec.name == name, "template file name must match scenario.name"
    assert spec.description, "committed templates document themselves"
    assert spec.deterministic, "committed templates must be digest-gateable"


#: sha256 of each template's spec echo: (compact JSON of ``to_dict()`` in
#: insertion order — so key order is held too — , ``dump_spec_toml`` text)
DUMP_PINS = {
    "diurnal-multi-tenant": (
        "3eec5c48d229545978ebfb36e9cab39b3690f8fada588fea8829cfeaf40a9891",
        "b7cd6bdf6934277fd5e721bdb1169f683d01f6ecd19d5e85117bd994ec3b080e",
    ),
    "fault-storm": (
        "ca6ea57827abe9950a6a8442280c74fd85234f2ce46bbe7f018bb539b1e2017d",
        "4b2dbf9a41b1c791ab448ba4537cb08f474acac58842229a8c4e14d6ae7dedd5",
    ),
    "pipeline-mlp": (
        "d74c68a9c46fa0fa565295794882537a4a9e836a1e8e54f16c8863c702cfd526",
        "524bfe5717281bb654cc49e7f427393f1e38d543257fa59953faafedb8d3b5c3",
    ),
    "rightsize-sweep": (
        "a40c17b169076e4217f89c25ff59ae43cc8355d8bf3935c998006e44362d2b0b",
        "5b35c7292091b01bf0051401f03b328be11b474904601e22c7811f4a525e3720",
    ),
    "spot-capacity-crunch": (
        "4fef8805eba734dc17afd2a7716df903c98b1607b403a7026a4c50940d57063c",
        "947f7d320da2ff6befe23ead924444974107374b02ddbd792042f3b65c0eb979",
    ),
}


@pytest.mark.parametrize("name", NAMES)
def test_template_dump_is_pinned(name):
    spec = load(name)
    as_json = json.dumps(spec.to_dict(), separators=(",", ":"))
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest()
        for text in (as_json, dump_spec_toml(spec))
    )
    assert digests == DUMP_PINS[name]


#: every template's whole KPI payload digest.  The two platform templates
#: run no ML and no BLAS, so their literals are portable; the three
#: single-job templates train a model, so theirs also depend on NumPy's
#: arithmetic and a failure names ``numpy.__version__``.  A moved literal
#: is a behaviour change in the platform, the job builders, the compiler
#: or the KPI roll-up.
KPI_PINS = {
    "diurnal-multi-tenant": (
        "746df721c30e8c645203cd95c46106d109d790e779cd24376ba4f94f3835a49e"
    ),
    "fault-storm": (
        "192565bc89e37e09e393234e6923987feeb9bf4cf8273bbb2d6dc8294af6e3f7"
    ),
    "pipeline-mlp": (
        "dfe3cb1e15c21c41e4523cee2f9b43bf5f87f35efc68088447c806e07902a8ce"
    ),
    "rightsize-sweep": (
        "a4bc0e79986d06e785b59b787773d66d8ff47ad6f801164700eaf2e90186ff52"
    ),
    "spot-capacity-crunch": (
        "ee2a4547ccc02d5fe4fc71eebb60f7813d5f0434eea6eb9731fbefb4c16aa259"
    ),
}


def test_every_template_has_a_kpi_pin():
    assert sorted(KPI_PINS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_template_digest_stable_across_reruns(name):
    spec = load(name)
    first = run_scenario_spec(spec)
    second = run_scenario_spec(spec)
    assert first["digest"] == second["digest"], (
        f"template {name!r} is not seed-deterministic"
    )
    assert first["digest"] == KPI_PINS[name], (
        f"{name} moved (numpy {np.__version__})"
    )
    # reconciliation ran (it raises on any mismatch, so presence == pass)
    assert first["reconciliation"]
    if spec.kind == "platform":
        assert first["kpis"]["attributed_fraction"] == pytest.approx(1.0)
    else:
        assert first["reconciliation"]["checked_runs"] == len(first["runs"])
        assert first["reconciliation"]["max_abs_error_usd"] <= 1e-9
    # committed templates must fit their own declared budgets
    assert first["budget"]["ok"], first["budget"]["violations"]


def test_fault_storm_absorbs_every_injected_fault():
    payload = run_scenario_spec(load("fault-storm"))
    kpis = payload["kpis"]
    assert kpis["faults_injected"] > 0, "a fault storm with no faults"
    assert kpis["faults_recovered"] == kpis["faults_injected"]
    (run,) = payload["runs"]
    assert run["critical_path"]["steps"] == run["steps"]


def test_rightsize_sweep_recommends_a_grid_member():
    payload = run_scenario_spec(load("rightsize-sweep"))
    spec = load("rightsize-sweep")
    grid = spec.sweep.combos(spec.workload.workers, spec.workload.isp_threshold)
    assert len(payload["runs"]) == len(grid)
    rec = payload["recommendation"]
    assert (rec["workers"], rec["isp_threshold"]) in grid


def test_diurnal_template_beats_isolation():
    payload = run_scenario_spec(load("diurnal-multi-tenant"))
    assert payload["kpis"]["isolated_savings_pct"] > 0, (
        "the shared pool should be cheaper than per-job isolation"
    )
