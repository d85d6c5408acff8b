"""Census of a training job's settings: every one of them has a caller.

The rule: a config field or builder parameter stays only if some caller in
``src/``, ``examples/`` or ``benchmarks/`` sets it, or if it hands in a
whole object that tests swap (``calibration``, ``adaptive``,
``make_filter``, ``autotuner``).  A value no run varies is a constant read
where it is used (e.g. ``JobConfig.max_time_s``), and a test that needs
another value patches that constant.  Adding a setting therefore needs an
edit here, next to the rule it must meet.
"""

import dataclasses
import inspect

import pytest

from repro.api import mlless_config, run_pywren_workload, run_serverful_workload
from repro.baselines import PyWrenMLConfig, ServerfulConfig
from repro.core import AutoTunerConfig, JobConfig
from repro.mapreduce import PyWrenExecutor

RULE = (
    "a setting stays only if a caller in src/, examples/ or benchmarks/ sets it "
    "(or it hands in an object tests swap); otherwise make it a constant read "
    "where it is used — see tests/test_settings_census.py"
)

FIELDS = {
    JobConfig: (
        "model", "make_optimizer", "dataset", "n_workers", "significance_v", "sync",
        "ssp_staleness", "target_loss", "max_steps", "seed", "autotuner",
        "calibration", "reintegrate_on_evict", "make_filter", "faults",
        "fault_tolerance", "pipeline_stages", "micro_batches", "adaptive",
    ),
    AutoTunerConfig: (
        "enabled", "epoch_s", "delta_s", "s_threshold", "min_workers", "knee_method",
        "knee_slope_threshold", "knee_patience", "ignore_knee_gate",
        "slow_curve_family",
    ),
    ServerfulConfig: (
        "model", "make_optimizer", "dataset", "n_ranks", "target_loss", "max_steps",
        "seed", "calibration",
    ),
    PyWrenMLConfig: (
        "model", "make_optimizer", "dataset", "n_workers", "target_loss", "max_steps",
        "seed", "calibration",
    ),
}

PARAMETERS = {
    mlless_config: (
        "workload", "n_workers", "v", "autotune", "target_loss", "max_steps", "seed",
        "dataset", "autotuner_kwargs", "faults", "fault_tolerance", "sync",
        "pipeline_stages", "micro_batches",
    ),
    run_serverful_workload: (
        "workload", "n_ranks", "target_loss", "max_steps", "seed", "dataset",
    ),
    run_pywren_workload: (
        "workload", "n_workers", "target_loss", "max_steps", "seed", "dataset",
    ),
    PyWrenExecutor.__init__: ("platform", "cos", "calibration"),
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_config_fields_are_the_census(cls):
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert names == FIELDS[cls], f"{cls.__name__} fields changed; {RULE}"


@pytest.mark.parametrize("fn", list(PARAMETERS), ids=lambda f: f.__qualname__)
def test_builder_parameters_are_the_census(fn):
    names = tuple(p for p in inspect.signature(fn).parameters if p != "self")
    assert names == PARAMETERS[fn], f"{fn.__qualname__} parameters changed; {RULE}"

