"""End-to-end fault-tolerant training: crash recovery, determinism, no-op.

These runs use a small PMF workload and aggressive fault profiles with
tight crash windows (the preset windows assume longer activations), so
every recovery path is exercised within a few simulated minutes.
"""

import pytest

from repro import JobConfig, run_mlless
from repro.faults import FaultProfile
from repro.ml.data import MovieLensSpec, movielens_like
from repro.ml.models import PMF
from repro.ml.optim import InverseSqrtLR, MomentumSGD

SPEC = MovieLensSpec(
    n_users=120, n_movies=100, n_ratings=8_000, rank=4, batch_size=500
)


def make_config(faults=None, seed=11, target_loss=0.74, **kwargs):
    dataset = movielens_like(SPEC, seed=2)
    defaults = dict(
        model=PMF(SPEC.n_users, SPEC.n_movies, rank=6, l2=0.02,
                  rating_offset=3.5),
        make_optimizer=lambda: MomentumSGD(
            lr=InverseSqrtLR(8.0), momentum=0.9, nesterov=True
        ),
        dataset=dataset,
        n_workers=4,
        significance_v=0.7,
        target_loss=target_loss,
        max_steps=120,
        seed=seed,
        faults=faults,
    )
    defaults.update(kwargs)
    return JobConfig(**defaults)


def set_timings(monkeypatch, **constants):
    """Patch JobConfig's fault-tolerance constants for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(JobConfig, name, value)


CRASHY = FaultProfile(
    name="crashy-test",
    crash_rate=0.5,
    crash_window_s=(0.2, 2.0),
)


def fingerprint(result):
    """Everything that must be identical across same-seed runs."""
    times, losses = result.losses()
    return (
        result.converged,
        result.total_steps,
        tuple(times),
        tuple(losses),
        result.total_cost,
        tuple(sorted(result.extras.items())),
    )


# ------------------------------------------------------------ strict no-op
def test_disabled_injector_is_a_strict_noop():
    plain = run_mlless(make_config(faults=None))
    noop = run_mlless(make_config(faults=FaultProfile(name="noop")))
    assert fingerprint(plain) == fingerprint(noop)
    assert "faults_injected" not in plain.extras


# -------------------------------------------------------- crash + recovery
def test_crash_recovery_converges_with_nonzero_counts(monkeypatch):
    set_timings(monkeypatch, barrier_timeout_s=5.0)
    result = run_mlless(make_config(faults=CRASHY))
    assert result.converged
    assert result.extras["faults_injected"] > 0
    assert result.extras["faults_recovered"] > 0
    assert result.extras["fault.activation_crash"] > 0
    assert result.extras["recovery.invoke_retry"] > 0
    assert result.extras["recovery.worker_resumed"] > 0


def test_crash_recovery_is_deterministic(monkeypatch):
    set_timings(monkeypatch, barrier_timeout_s=5.0)
    config_a = make_config(faults=CRASHY)
    config_b = make_config(faults=CRASHY)
    assert fingerprint(run_mlless(config_a)) == fingerprint(run_mlless(config_b))


def test_different_seed_different_fault_schedule(monkeypatch):
    set_timings(monkeypatch, barrier_timeout_s=5.0)
    a = run_mlless(make_config(faults=CRASHY, seed=11))
    b = run_mlless(make_config(faults=CRASHY, seed=12))
    assert fingerprint(a) != fingerprint(b)


# ------------------------------------------------------------ lossy queues
def test_lossy_queue_recovery(monkeypatch):
    lossy = FaultProfile(
        name="lossy-test", message_loss_rate=0.05,
        message_duplication_rate=0.05,
    )
    set_timings(monkeypatch, barrier_timeout_s=3.0)
    result = run_mlless(make_config(faults=lossy))
    assert result.converged
    assert result.extras["fault.message_loss"] > 0
    # Lost reports/releases were recovered via resync round-trips.
    assert result.extras["recovery.resync"] > 0


# ------------------------------------------------------------ stragglers
def test_straggler_profile_converges_and_costs_more(monkeypatch):
    slow = FaultProfile(
        name="straggler-test", straggler_rate=0.4,
        straggler_factor=(2.0, 3.0),
    )
    clean = run_mlless(make_config(faults=None))
    set_timings(monkeypatch, barrier_timeout_s=30.0)
    result = run_mlless(make_config(faults=slow))
    assert result.converged
    assert result.extras["fault.straggler"] > 0
    # Stragglers burn more GB-seconds to reach the same target.
    assert result.total_cost > clean.total_cost


# ------------------------------------------------------------- abandonment
@pytest.mark.slow
def test_hopeless_workers_are_abandoned_not_hung(monkeypatch):
    # Every worker activation crashes almost immediately and retries are
    # scarce: the job must terminate (abandoned), not hang at a barrier.
    hopeless = FaultProfile(
        name="hopeless-test", crash_rate=1.0, crash_window_s=(0.05, 0.2),
    )
    set_timings(
        monkeypatch, barrier_timeout_s=2.0, max_invoke_retries=1, max_resyncs_per_step=2
    )
    result = run_mlless(make_config(faults=hopeless, max_steps=30))
    assert not result.converged
    assert result.extras["recovery.worker_abandoned"] > 0
