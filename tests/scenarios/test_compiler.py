"""Compiler: specs lower onto the real execution seams and produce
reconciled, digest-stable KPI payloads."""

import json

import pytest

from repro.experiments.settings import Workload
from repro.scenarios import run_scenario_spec, spec_from_dict
from repro.scenarios.compiler import KPI_SCHEMA, _jsonify, _recommend

QUICK_SINGLE_JOB = {
    "scenario": {"name": "quick", "kind": "single-job", "seed": 3},
    "workload": {"name": "pmf-ml10m", "workers": 2, "max_steps": 5},
}

QUICK_PLATFORM = {
    "scenario": {"name": "quick-platform", "kind": "platform", "seed": 1},
    "traffic": {"tenants": 3, "horizon_s": 900.0, "mean_rate_per_h": 6.0},
    "jobs": {"min_steps": 5, "max_steps": 15, "max_workers": 3},
    "pool": {"concurrency": 4, "memory_grades_mb": [1024]},
}


def run_quick(data, **kwargs):
    return run_scenario_spec(spec_from_dict(data), **kwargs)


# -- single-job --------------------------------------------------------------


def test_single_job_payload_shape_and_reconciliation():
    payload = run_quick(QUICK_SINGLE_JOB)
    assert payload["schema"] == KPI_SCHEMA
    assert payload["kind"] == "single-job"
    assert payload["deterministic"] is True
    (run,) = payload["runs"]
    assert run["steps"] == 5
    assert run["total_cost_usd"] > 0
    # the reconciliation block is computed from the *enforced* checks
    rec = run["reconciliation"]
    assert rec["abs_error_usd"] <= 1e-9
    assert rec["meter_total_usd"] == pytest.approx(run["total_cost_usd"])
    assert payload["reconciliation"] == {
        "checked_runs": 1,
        "max_abs_error_usd": rec["abs_error_usd"],
    }
    assert payload["budget"]["ok"] is True
    # cost breakdown components are itemised in the row
    assert "functions" in run["cost_breakdown_usd"]
    # payload is pure JSON (digest hashing would reject anything else)
    json.dumps(payload, allow_nan=False)


def test_single_job_digest_stable_and_seed_sensitive():
    first = run_quick(QUICK_SINGLE_JOB)
    second = run_quick(QUICK_SINGLE_JOB)
    assert first["digest"] == second["digest"]
    reseeded = run_quick(QUICK_SINGLE_JOB, seed=99)
    assert reseeded["seed"] == 99
    assert reseeded["digest"] != first["digest"]


def test_faults_flow_into_kpis():
    data = dict(QUICK_SINGLE_JOB)
    data["scenario"] = {"name": "quick-faulty", "kind": "single-job", "seed": 3}
    data["workload"] = {"name": "pmf-ml10m", "workers": 2, "max_steps": 8}
    data["faults"] = {"straggler_rate": 0.5, "coldstart_spike_rate": 0.5}
    payload = run_quick(data)
    assert payload["kpis"]["faults_injected"] > 0
    (run,) = payload["runs"]
    assert run["faults_injected"] >= run["faults_recovered"]


def test_sweep_produces_rows_and_recommendation(monkeypatch):
    data = {
        "scenario": {"name": "quick-sweep", "kind": "single-job", "seed": 3},
        "workload": {"name": "pmf-ml10m", "workers": 2, "max_steps": 5},
        "sweep": {"workers": [2, 3]},
    }
    built, build = [], Workload.dataset

    def counting_build(workload, seed=0):
        built.append(seed)
        return build(workload, seed)

    monkeypatch.setattr(Workload, "dataset", counting_build)
    payload = run_quick(data)
    assert built == [1]  # one immutable dataset serves every sweep point
    assert [r["workers"] for r in payload["runs"]] == [2, 3]
    rec = payload["recommendation"]
    assert rec["workers"] in (2, 3)
    assert rec["exec_time_s"] >= rec["fastest_exec_time_s"] * 0  # present
    assert payload["kpis"]["runs"] == 2


def test_budget_violation_is_reported_not_raised():
    data = {
        "scenario": {"name": "quick-broke", "kind": "single-job", "seed": 3},
        "workload": {"name": "pmf-ml10m", "workers": 2, "max_steps": 5},
        "budget": {"max_cost_usd": 0.0},
    }
    payload = run_quick(data)
    assert payload["budget"]["ok"] is False
    assert "exceeds budget" in payload["budget"]["violations"][0]


# -- the recommendation rule in isolation ------------------------------------


def test_recommend_picks_cheapest_within_tolerance():
    runs = [
        {"workers": 8, "isp_threshold": 0.0, "exec_time_s": 10.0,
         "total_cost_usd": 0.80},
        {"workers": 4, "isp_threshold": 0.0, "exec_time_s": 11.0,
         "total_cost_usd": 0.40},
        # cheapest overall but 2x slower than the fastest: ineligible
        {"workers": 2, "isp_threshold": 0.0, "exec_time_s": 20.0,
         "total_cost_usd": 0.25},
    ]
    rec = _recommend(runs, speed_tolerance=1.2)
    assert rec["workers"] == 4
    assert rec["fastest_exec_time_s"] == 10.0
    # widen the tolerance and the slow-but-cheap config wins
    assert _recommend(runs, speed_tolerance=2.0)["workers"] == 2


def test_recommend_tie_break_is_deterministic():
    runs = [
        {"workers": 4, "isp_threshold": 0.5, "exec_time_s": 10.0,
         "total_cost_usd": 0.40},
        {"workers": 2, "isp_threshold": 0.0, "exec_time_s": 10.0,
         "total_cost_usd": 0.40},
    ]
    assert _recommend(runs, 1.2)["workers"] == 2


# -- platform ----------------------------------------------------------------


def test_platform_payload_reconciles_and_digest_stable():
    first = run_quick(QUICK_PLATFORM)
    assert first["kind"] == "platform"
    kpis = first["kpis"]
    assert kpis["jobs"] >= 1
    assert kpis["total_cost_usd"] > 0
    assert kpis["attributed_fraction"] == pytest.approx(1.0)
    rec = first["reconciliation"]
    assert rec["invoiced_active_cost"] + rec["unattributed_cost"] == pytest.approx(
        rec["billing_total_cost"]
    )
    # per-tenant invoices sum to the platform total
    invoices = first["platform"]["invoices"]
    assert invoices
    invoice_total = sum(v["total_cost_usd"] for v in invoices.values())
    assert invoice_total == pytest.approx(kpis["total_cost_usd"], rel=1e-9)
    second = run_quick(QUICK_PLATFORM)
    assert second["digest"] == first["digest"]


def test_platform_isolated_baseline_block():
    data = dict(QUICK_PLATFORM)
    data["scenario"] = {"name": "quick-baseline", "kind": "platform", "seed": 1}
    data["report"] = {"isolated_baseline": True}
    payload = run_quick(data)
    baseline = payload["platform"]["isolated_baseline"]
    assert baseline["isolated_total_cost_usd"] > 0
    assert "isolated_savings_pct" in payload["kpis"]


# -- JSON hygiene ------------------------------------------------------------


def test_jsonify_coerces_numpy_and_rejects_garbage():
    np = pytest.importorskip("numpy")
    out = _jsonify({"a": np.float64(1.5), "b": (np.int64(2), 3)})
    assert out == {"a": 1.5, "b": [2, 3]}
    assert type(out["a"]) is float
    assert type(out["b"][0]) is int
    with pytest.raises(TypeError, match="non-JSON value"):
        _jsonify({"bad": object()})
