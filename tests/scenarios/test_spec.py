"""Spec validation: exact error paths + lossless dict round-trips."""

import dataclasses

import pytest

from repro.core.capabilities import (
    ADAPTIVE,
    AUTOTUNE,
    COST_METERING,
    CRASH_RECOVERY,
    FAULTS,
    ISP,
    PIPELINE,
    SSP,
    SWEEP,
    TABLE,
    CONFLICTS,
)
from repro.faas import FaaSLimits
from repro.faults import FAULT_PROFILES
from repro.scenarios import (
    FaultSpec,
    PricingSpec,
    ScenarioSpec,
    SpecError,
    SweepSpec,
    WorkloadSpec,
    spec_from_dict,
)
from repro.scenarios.spec import MAX_SWEEP_COMBOS


def minimal_single_job(**overrides):
    data = {
        "scenario": {"name": "t", "kind": "single-job"},
        "workload": {"name": "pmf-ml10m"},
    }
    data.update(overrides)
    return data


def minimal_platform(**overrides):
    data = {"scenario": {"name": "t", "kind": "platform"}}
    data.update(overrides)
    return data


# -- exact error messages ----------------------------------------------------


def err(data):
    with pytest.raises(SpecError) as excinfo:
        spec_from_dict(data)
    return str(excinfo.value), excinfo.value.path


def conflict(first, second):
    """The capability table's one sentence for a refused feature pair."""
    (message,) = [m for a, b, m in CONFLICTS if (a, b) == (first, second)]
    return message


class TestExactMessages:
    def test_unknown_section(self):
        msg, path = err(minimal_single_job(chaos={}))
        assert path == "chaos"
        assert msg.startswith("chaos: unknown section (expected one of ")

    def test_unknown_key_names_expected_keys(self):
        msg, _ = err(minimal_single_job(workload={"name": "pmf-ml10m", "foo": 1}))
        assert msg == (
            "workload.foo: unknown key (expected one of "
            "['autotune', 'backend', 'isp_threshold', 'kind', "
            "'max_steps', 'micro_batches', 'name', 'stages', 'sync', "
            "'target_loss', 'workers'])"
        )

    def test_negative_fault_rate(self):
        msg, path = err(minimal_single_job(faults={"crash_rate": -0.2}))
        assert msg == "faults.crash_rate: must be >= 0.0, got -0.2"
        assert path == "faults.crash_rate"

    def test_rate_above_one(self):
        msg, _ = err(minimal_single_job(faults={"crash_rate": 1.5}))
        assert msg == "faults.crash_rate: must be <= 1.0, got 1.5"

    def test_bad_type_int(self):
        msg, _ = err(
            minimal_single_job(workload={"name": "pmf-ml10m", "workers": "four"})
        )
        assert msg == "workload.workers: must be an integer, got 'four'"

    def test_bool_is_not_an_int(self):
        msg, _ = err(
            minimal_single_job(workload={"name": "pmf-ml10m", "workers": True})
        )
        assert msg == "workload.workers: must be an integer, got True"

    def test_missing_required_key(self):
        msg, _ = err({"scenario": {"kind": "single-job"}})
        assert msg == "scenario.name: is required"

    def test_missing_scenario_section(self):
        msg, _ = err({"workload": {"name": "pmf-ml10m"}})
        assert msg == "scenario: is required"

    def test_bad_workload_name(self):
        msg, _ = err(minimal_single_job(workload={"name": "nope"}))
        assert msg.startswith("workload.name: must be one of [")
        assert msg.endswith("got 'nope'")

    def test_bad_kind(self):
        msg, _ = err({"scenario": {"name": "t", "kind": "batch"}})
        assert msg == (
            "scenario.kind: must be one of ['platform', 'single-job'], "
            "got 'batch'"
        )

    def test_bad_name_charset(self):
        msg, _ = err({"scenario": {"name": "Bad Name", "kind": "platform"}})
        assert msg == (
            "scenario.name: must be lowercase letters/digits/dashes, "
            "got 'Bad Name'"
        )

    def test_bad_pair_shape(self):
        msg, _ = err(minimal_single_job(faults={"crash_window_s": [1.0]}))
        assert msg == (
            "faults.crash_window_s: must be a 2-element [lo, hi] number "
            "list, got [1.0]"
        )

    def test_inverted_pair(self):
        msg, _ = err(minimal_single_job(faults={"crash_window_s": [9.0, 1.0]}))
        assert msg == (
            "faults.crash_window_s: must satisfy lo <= hi, got [9.0, 1.0]"
        )


# -- structural / cross-section validation -----------------------------------


class TestCrossValidation:
    def test_single_job_requires_workload(self):
        msg, _ = err({"scenario": {"name": "t", "kind": "single-job"}})
        assert msg == "workload: is required for kind = 'single-job'"

    def test_platform_rejects_workload(self):
        msg, _ = err(minimal_platform(workload={"name": "pmf-ml10m"}))
        assert msg == (
            "workload: is a single-job section; not allowed for 'platform'"
        )

    def test_single_job_rejects_pool(self):
        msg, _ = err(minimal_single_job(pool={"concurrency": 4}))
        assert msg == "pool: is a platform section; not allowed for 'single-job'"

    def test_faults_need_sim_backend(self):
        msg, _ = err(
            minimal_single_job(
                workload={"name": "pmf-ml10m", "backend": "local"},
                faults={"crash_rate": 0.1},
            )
        )
        assert msg == f"faults: {TABLE[FAULTS]['local'].refused}"

    def test_pricing_needs_sim_backend(self):
        msg, _ = err(
            minimal_single_job(
                workload={"name": "pmf-ml10m", "backend": "procs"},
                pricing={"rate_per_gb_s": 2e-5},
            )
        )
        assert msg == f"pricing: {TABLE[COST_METERING]['procs'].refused}"

    def test_default_pricing_ok_on_local_backend(self):
        spec = spec_from_dict(
            minimal_single_job(workload={"name": "pmf-ml10m", "backend": "local"})
        )
        assert spec.pricing == PricingSpec()
        assert not spec.deterministic

    def test_jobs_must_fit_pool(self):
        msg, _ = err(
            minimal_platform(jobs={"max_workers": 9}, pool={"concurrency": 4})
        )
        assert msg.startswith(
            "jobs.max_workers: must be <= pool.concurrency (4), got 9"
        )

    def test_memory_grade_above_the_faas_limit(self):
        # Used to validate and then die mid-run in FaaSLimits.validate_memory.
        msg, path = err(minimal_platform(pool={"memory_grades_mb": [1024, 4096]}))
        assert path == "pool.memory_grades_mb"
        assert msg == "pool.memory_grades_mb: items must be <= 2048, got 4096"
        msg, _ = err(minimal_platform(pool={"memory_grades_mb": [64]}))
        assert msg == "pool.memory_grades_mb: items must be >= 128, got 64"
        # the bounds are the platform's own, so every accepted grade registers
        for grade in (128, 2048):
            spec_from_dict(minimal_platform(pool={"memory_grades_mb": [grade]}))
            FaaSLimits().validate_memory(grade)

    def test_profile_and_inline_rates_conflict(self):
        msg, _ = err(
            minimal_single_job(
                faults={"profile": "chaos", "crash_rate": 0.1}
            )
        )
        assert msg == (
            "faults: sets both a named 'profile' and inline rates; pick one"
        )

    def test_named_profile_lowers_to_registry_entry(self):
        spec = spec_from_dict(minimal_single_job(faults={"profile": "chaos"}))
        assert spec.faults.to_profile("t") is FAULT_PROFILES["chaos"]

    def test_inline_rates_lower_to_fresh_profile(self):
        spec = spec_from_dict(minimal_single_job(faults={"crash_rate": 0.25}))
        profile = spec.faults.to_profile("my-scn")
        assert profile.name == "scenario:my-scn"
        assert profile.crash_rate == 0.25

    def test_sweep_grid_cap(self):
        msg, _ = err(
            minimal_single_job(
                sweep={
                    "workers": list(range(1, 14)),
                    "isp_threshold": [i / 10 for i in range(10)],
                }
            )
        )
        assert msg == f"sweep: grid has 130 combos; the cap is {MAX_SWEEP_COMBOS}"

    def test_empty_sweep_rejected(self):
        msg, _ = err(minimal_single_job(sweep={"speed_tolerance": 1.5}))
        assert msg == (
            "sweep: must set at least one of 'workers' / 'isp_threshold'"
        )

    def test_queue_budget_is_platform_only(self):
        msg, _ = err(minimal_single_job(budget={"max_queue_wait_p95_s": 10.0}))
        assert msg == (
            "budget.max_queue_wait_p95_s: only applies to kind = 'platform'"
        )

    def test_critical_path_is_single_job_only(self):
        msg, _ = err(minimal_platform(report={"critical_path": True}))
        assert msg == (
            "report.critical_path: only applies to kind = 'single-job'"
        )


# -- pipeline + sync-mode validation -----------------------------------------


def pipeline_workload(**overrides):
    data = {
        "name": "mlp-synth",
        "kind": "mlp-pipeline",
        "workers": 3,
        "stages": 3,
        "micro_batches": 4,
    }
    data.update(overrides)
    return data


class TestPipelineValidation:
    def test_valid_pipeline_spec_parses(self):
        spec = spec_from_dict(minimal_single_job(workload=pipeline_workload()))
        wl = spec.workload
        assert (wl.kind, wl.stages, wl.micro_batches) == ("mlp-pipeline", 3, 4)
        assert spec.deterministic

    def test_pipeline_requires_stageable_workload(self):
        msg, path = err(
            minimal_single_job(workload=pipeline_workload(name="pmf-ml10m"))
        )
        assert path == "workload.kind"
        assert "not stageable" in msg

    def test_pipeline_needs_two_stages(self):
        msg, _ = err(minimal_single_job(
            workload=pipeline_workload(stages=1, workers=1)
        ))
        assert msg == "workload.stages: must be >= 2 for kind = 'mlp-pipeline', got 1"

    def test_pipeline_workers_must_equal_stages(self):
        msg, path = err(minimal_single_job(workload=pipeline_workload(workers=4)))
        assert path == "workload.workers"
        assert "n_workers (4) must equal pipeline_stages (3)" in msg

    def test_pipeline_depth_capped_by_layer_count(self):
        # used to get past the spec and fail as a bare ValueError at run time
        msg, path = err(minimal_single_job(
            workload=pipeline_workload(workers=5, stages=5)
        ))
        assert path == "workload.stages"
        assert "n_stages must be in [1, 4], got 5" in msg

    def test_pipeline_requires_bsp(self):
        msg, _ = err(minimal_single_job(workload=pipeline_workload(sync="ssp")))
        assert msg == f"workload.sync: {conflict(PIPELINE, SSP)}"
        assert "sync must be 'bsp'" in msg

    def test_pipeline_rejects_isp_filter(self):
        msg, path = err(
            minimal_single_job(workload=pipeline_workload(isp_threshold=0.5))
        )
        assert path == "workload.isp_threshold"
        assert "data-parallel-only" in msg

    def test_pipeline_rejects_autotune(self):
        msg, _ = err(minimal_single_job(workload=pipeline_workload(autotune=True)))
        assert msg == f"workload.autotune: {conflict(PIPELINE, AUTOTUNE)}"

    def test_pipeline_rejects_faults_and_sweep(self):
        for faults, feature in (({"crash_rate": 0.1}, CRASH_RECOVERY),
                                ({"straggler_rate": 0.1}, FAULTS)):
            msg, path = err(minimal_single_job(workload=pipeline_workload(),
                                               faults=faults))
            assert (path, msg) == ("faults",
                                  f"faults: {conflict(PIPELINE, feature)}")
        msg, path = err(minimal_single_job(workload=pipeline_workload(),
                                           sweep={"workers": [2, 4]}))
        assert (path, msg) == ("sweep", f"sweep: {conflict(PIPELINE, SWEEP)}")

    def test_pipeline_rejects_procs_backend(self):
        msg, path = err(
            minimal_single_job(workload=pipeline_workload(backend="procs"))
        )
        # reported at the key that asked for the feature the backend lacks
        assert path == "workload.kind"
        assert msg == f"workload.kind: {TABLE[PIPELINE]['procs'].refused}"

    def test_stages_are_pipeline_only(self):
        msg, path = err(
            minimal_single_job(workload={"name": "pmf-ml10m", "stages": 2})
        )
        assert path == "workload.stages"
        assert msg.endswith("stages/micro_batches only apply to kind = 'mlp-pipeline'")

    def test_pipeline_round_trip_keeps_stage_fields(self):
        spec = spec_from_dict(minimal_single_job(workload=pipeline_workload()))
        dumped = spec.to_dict()
        assert dumped["workload"]["stages"] == 3
        assert dumped["workload"]["micro_batches"] == 4
        assert spec_from_dict(dumped) == spec

    def test_data_parallel_dump_omits_stage_fields(self):
        dumped = spec_from_dict(minimal_single_job()).to_dict()
        assert "stages" not in dumped["workload"]
        assert "micro_batches" not in dumped["workload"]


class TestSyncModeValidation:
    def test_ssp_and_adaptive_parse(self):
        for sync in ("ssp", "adaptive"):
            spec = spec_from_dict(
                minimal_single_job(workload={"name": "pmf-ml10m", "sync": sync})
            )
            assert spec.workload.sync == sync

    def test_non_bsp_rejects_autotune(self):
        msg, path = err(minimal_single_job(
            workload={"name": "pmf-ml10m", "sync": "adaptive", "autotune": True}
        ))
        assert path == "workload.autotune"
        assert msg == f"workload.autotune: {conflict(ADAPTIVE, AUTOTUNE)}"

    def test_non_bsp_rejects_isp_threshold(self):
        # ISP over SSP trains to convergence in tier-1; only adaptive,
        # which no test runs filtered, refuses the threshold.
        ssp = spec_from_dict(minimal_single_job(
            workload={"name": "pmf-ml10m", "sync": "ssp", "isp_threshold": 0.5}
        ))
        assert ssp.workload.isp_threshold == 0.5
        msg, path = err(minimal_single_job(
            workload={"name": "pmf-ml10m", "sync": "adaptive",
                      "isp_threshold": 0.5}
        ))
        assert path == "workload.isp_threshold"
        assert msg == f"workload.isp_threshold: {conflict(ADAPTIVE, ISP)}"

    def test_sweeping_the_isp_threshold_counts_as_isp(self):
        msg, path = err(minimal_single_job(
            workload={"name": "pmf-ml10m", "sync": "adaptive"},
            sweep={"isp_threshold": [0.0, 0.5]},
        ))
        assert path == "sweep.isp_threshold"
        assert msg == f"sweep.isp_threshold: {conflict(ADAPTIVE, ISP)}"

    def test_non_bsp_rejects_crash_faults_but_allows_stragglers(self):
        msg, path = err(minimal_single_job(
            workload={"name": "pmf-ml10m", "sync": "adaptive"},
            faults={"crash_rate": 0.1},
        ))
        assert path == "faults"
        assert msg == f"faults: {conflict(ADAPTIVE, CRASH_RECOVERY)}"
        spec = spec_from_dict(minimal_single_job(
            workload={"name": "pmf-ml10m", "sync": "adaptive"},
            faults={"straggler_rate": 0.3},
        ))
        assert spec.faults.to_profile("t").crash_rate == 0.0


# -- determinism flag --------------------------------------------------------


def test_deterministic_property():
    assert spec_from_dict(minimal_platform()).deterministic
    assert spec_from_dict(minimal_single_job()).deterministic
    local = spec_from_dict(
        minimal_single_job(workload={"name": "pmf-ml10m", "backend": "local"})
    )
    assert not local.deterministic


# -- round trips -------------------------------------------------------------


FULL_SINGLE_JOB = {
    "scenario": {
        "name": "full-single",
        "kind": "single-job",
        "seed": 7,
        "description": "everything set",
    },
    "workload": {
        "name": "lr-criteo",
        "workers": 6,
        "backend": "sim",
        "isp_threshold": 0.5,
        "autotune": True,
        "max_steps": 40,
        "target_loss": 0.56,
    },
    "sweep": {"workers": [2, 4], "isp_threshold": [0.0, 0.5],
              "speed_tolerance": 1.3},
    "faults": {"crash_rate": 0.1, "crash_window_s": [1.0, 5.0],
               "straggler_rate": 0.2},
    "pricing": {"rate_per_gb_s": 2e-5, "idle_rate_fraction": 0.3},
    "budget": {"max_cost_usd": 1.5, "require_converged": True},
    "report": {"critical_path": True},
}

FULL_PLATFORM = {
    "scenario": {"name": "full-platform", "kind": "platform", "seed": 3},
    "traffic": {"tenants": 6, "horizon_s": 1800.0, "bursts_per_h": 1.0},
    "jobs": {"min_workers": 1, "max_workers": 3, "sync_every": 4},
    "pool": {"concurrency": 5, "memory_grades_mb": [1024]},
    "budget": {"max_queue_wait_p95_s": 900.0},
    "report": {"isolated_baseline": True},
}


@pytest.mark.parametrize("data", [FULL_SINGLE_JOB, FULL_PLATFORM],
                         ids=["single-job", "platform"])
def test_dict_round_trip_is_lossless(data):
    spec = spec_from_dict(data)
    again = spec_from_dict(spec.to_dict())
    assert again == spec
    # idempotent: dumping the reparsed spec yields the identical dict
    assert again.to_dict() == spec.to_dict()


def test_defaults_round_trip():
    spec = spec_from_dict(minimal_single_job())
    assert spec.workload == WorkloadSpec(name="pmf-ml10m")
    assert spec.seed == 0
    assert spec_from_dict(spec.to_dict()) == spec


def test_sweep_combos_grid():
    sweep = SweepSpec(workers=(2, 4), isp_threshold=(0.0, 0.7))
    assert sweep.combos(8, 0.1) == [(2, 0.0), (2, 0.7), (4, 0.0), (4, 0.7)]
    # base values fill whichever axis the sweep leaves unset
    assert SweepSpec(workers=(2, 4)).combos(8, 0.1) == [(2, 0.1), (4, 0.1)]
    assert SweepSpec(isp_threshold=(0.5,)).combos(8, 0.1) == [(8, 0.5)]


def test_fault_spec_round_trip_preserves_pairs_as_tuples():
    spec = FaultSpec.from_dict({"crash_rate": 0.1, "crash_window_s": [1.0, 5.0]})
    assert spec.crash_window_s == (1.0, 5.0)
    assert FaultSpec.from_dict(spec.to_dict()) == spec


def test_specs_are_frozen():
    spec = spec_from_dict(minimal_single_job())
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.seed = 9


def test_scenario_spec_importable_from_package():
    # the public surface re-exports the whole spec layer
    import repro.scenarios as scenarios

    for name in ("ScenarioSpec", "SpecError", "spec_from_dict",
                 "run_scenario_spec", "load_spec_text"):
        assert hasattr(scenarios, name), name
    assert isinstance(spec_from_dict(minimal_platform()), ScenarioSpec)
