"""Adaptive hybrid scaling: the controller must act mid-job on skew.

The dense MLP workload has near-uniform per-batch compute, so an
unfaulted pool shows almost no arrival skew — the controller stays
quiet — while an injected partial-pool straggler profile produces
exactly the sustained skew the SMLT-style policy is built to detect.
"""

import dataclasses

import numpy as np

from repro import run_mlless
from repro.api import WORKLOADS, mlless_config
from repro.core import AdaptiveConfig
from repro.faults import FaultProfile


def straggler_profile(rate=0.3, factor=6.0):
    """A partial-pool slowdown: some invocations run ``factor``x slower.

    The rate must stay well below 1.0 — when every worker straggles
    equally there is no arrival *skew* and the controller (correctly)
    never reacts.
    """
    return FaultProfile(
        name="straggle",
        straggler_rate=rate,
        straggler_factor=(factor, factor),
    )


def adaptive_config(faults=None, **overrides):
    kwargs = dict(
        n_workers=4,
        target_loss=-1.0,
        max_steps=40,
        sync="adaptive",
        faults=faults,
        # stragglers only — no crashes, so the recovery machinery (which
        # assumes a fixed sync family) stays off
        fault_tolerance=False if faults is not None else None,
    )
    kwargs.update(overrides)
    return mlless_config(WORKLOADS["mlp-synth"](), **kwargs)


def test_straggler_skew_triggers_the_sync_switch():
    result = run_mlless(adaptive_config(straggler_profile()))
    switches = result.monitor.series("sync_switch")
    assert len(switches) == 1
    assert 0.0 < switches.times[0] < result.exec_time
    assert result.total_steps == 40


def test_adaptive_evicts_persistent_straggler_before_switching():
    config = dataclasses.replace(
        adaptive_config(straggler_profile()),
        adaptive=AdaptiveConfig(patience=10, evict_patience=3),
    )
    result = run_mlless(config)
    evictions = result.monitor.series("adaptive_evict")
    assert len(evictions) == 1
    # the pool shrank through the ordinary scale-in release path
    assert result.final_worker_count() == 3
    _times, counts = result.monitor.series("workers").as_arrays()
    assert counts.max() == 4 and counts.min() == 3
    # the eviction budget is spent first; the still-diffuse skew then
    # escalates to the gossip switch
    switches = result.monitor.series("sync_switch")
    assert len(switches) == 1
    assert evictions.times[0] < switches.times[0]


def test_balanced_pool_never_switches():
    result = run_mlless(adaptive_config())
    assert len(result.monitor.series("sync_switch")) == 0
    assert len(result.monitor.series("adaptive_evict")) == 0
    assert result.total_steps == 40
    assert result.final_worker_count() == 4


def test_adaptive_run_is_deterministic():
    a = run_mlless(adaptive_config(straggler_profile()))
    b = run_mlless(adaptive_config(straggler_profile()))
    assert a.exec_time == b.exec_time
    np.testing.assert_array_equal(a.losses()[1], b.losses()[1])


def test_adaptive_still_trains_through_the_switch():
    result = run_mlless(adaptive_config(straggler_profile()))
    _times, losses = result.losses()
    assert losses[-1] < losses[0]
