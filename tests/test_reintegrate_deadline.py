"""Regression tests: the reintegration deadline bounds replica polling.

The give-up deadline for fetching a departed peer's replica is the
constant ``JobConfig.reintegrate_deadline_s`` (no run varies it).  These
tests pin its value and — by driving the ``_reintegrate`` machine
directly with the constant patched — that it is what actually bounds the
polling loop.
"""

from types import SimpleNamespace

import pytest

from repro.core import JobConfig
import repro.core.worker as worker_mod
from repro.core.worker import _reintegrate
from repro.ml.data import MLPSpec, mlp_synth
from repro.ml.models import LayeredMLP
from repro.ml.optim import Adam


def config(**overrides):
    spec = MLPSpec(n_samples=400, n_features=4, hidden=(4,), batch_size=100)
    kwargs = dict(
        model=LayeredMLP([4, 4, 1]),
        make_optimizer=lambda: Adam(lr=0.01),
        dataset=mlp_synth(spec, seed=1),
        n_workers=2,
        significance_v=0.5,  # v > 0: reintegration actually runs
        max_steps=5,
        fault_tolerance=True,
    )
    kwargs.update(overrides)
    return JobConfig(**kwargs)


# -- config surface ----------------------------------------------------------


def test_default_deadline_is_60s():
    assert config().reintegrate_deadline_s == 60.0


def test_no_module_level_constant_remains():
    # the deadline is read from JobConfig, where tests patch it; a
    # resurrected module constant would silently shadow that value
    assert not hasattr(worker_mod, "_REINTEGRATE_DEADLINE_S")


# -- the machine honors the deadline -----------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t


def drive_reintegrate(cfg, replica_after=None):
    """Drive ``_reintegrate`` by hand: kv_exists False until the Nth poll.

    Returns ``(elapsed_sim_time, recoveries, averaged)``.
    """
    clock = FakeClock()
    sv = SimpleNamespace(
        kv_exists=lambda key: ("kv_exists", key),
        kv_get=lambda key: ("kv_get", key),
        sleep=lambda d: ("sleep", d),
    )
    recoveries = []
    runtime = SimpleNamespace(
        config=cfg,
        replica_key=lambda step, peer: f"replica/{step}/{peer}",
        note_recovery=recoveries.append,
    )
    averaged = []
    state = SimpleNamespace(
        pending_replica=(3, 1),
        params=SimpleNamespace(average_with=averaged.append),
    )
    machine = _reintegrate(SimpleNamespace(clock=clock, services=sv), runtime, state)
    polls = 0
    try:
        token = next(machine)
        while True:
            kind = token[0]
            if kind == "kv_exists":
                polls += 1
                exists = replica_after is not None and polls > replica_after
                token = machine.send(exists)
            elif kind == "sleep":
                clock.t += token[1]
                token = machine.send(None)
            elif kind == "kv_get":
                token = machine.send("the-replica")
            else:  # pragma: no cover - protocol drift guard
                raise AssertionError(f"unexpected token {token!r}")
    except StopIteration:
        pass
    return clock.t, recoveries, averaged


@pytest.mark.parametrize("deadline", [0.05, 0.2])
def test_configured_deadline_bounds_the_polling_loop(deadline, monkeypatch):
    monkeypatch.setattr(JobConfig, "reintegrate_deadline_s", deadline)
    elapsed, recoveries, averaged = drive_reintegrate(config())
    # gives up at the first poll past the deadline (0.01 s poll interval)
    assert deadline <= elapsed <= deadline + 0.02
    assert recoveries == ["reintegration_skipped"]
    assert averaged == []


def test_replica_arriving_in_time_is_averaged(monkeypatch):
    monkeypatch.setattr(JobConfig, "reintegrate_deadline_s", 1.0)
    elapsed, recoveries, averaged = drive_reintegrate(config(), replica_after=3)
    assert elapsed < 1.0
    assert recoveries == []
    assert averaged == ["the-replica"]


def test_bsp_skips_reintegration_entirely():
    _, recoveries, averaged = drive_reintegrate(config(significance_v=0.0))
    assert recoveries == []
    assert averaged == []
