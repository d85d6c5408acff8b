"""Unit tests for supervisor internals and the worker checkpoint object."""

import numpy as np

from repro.core.config import JobConfig
from repro.core.runtime import WorkerCheckpoint
from repro.core.significance import SignificanceFilter
from repro.core.supervisor import SupervisorState, _pick_victim, _stop_condition
from repro.ml import ParameterSet
from repro.ml.data import MovieLensSpec, movielens_like
from repro.ml.models import PMF
from repro.ml.optim import SGD


def make_runtime(n_workers=4):
    from repro.api import build_world, make_runtime as mk

    dataset = movielens_like(
        MovieLensSpec(n_users=30, n_movies=20, n_ratings=1000, batch_size=250),
        seed=0,
    )
    config = JobConfig(
        model=PMF(30, 20, rank=2),
        make_optimizer=lambda: SGD(lr=0.1),
        dataset=dataset,
        n_workers=n_workers,
        max_steps=10,
    )
    world = build_world(seed=0)
    return mk(world, config)


# ------------------------------------------------------------- pick victim
def test_pick_victim_highest_loss():
    state = SupervisorState(make_runtime())
    state.last_loss = {0: 0.5, 1: 0.9, 2: 0.7, 3: 0.6}
    assert _pick_victim(state) == 1


def test_pick_victim_breaks_loss_ties_by_lowest_worker_id():
    # Regression for the SIM003 audit fix: candidates come from the
    # `active` set, and with tied losses the winner used to depend on
    # set-hash iteration order; sorting pins it to the lowest id.
    state = SupervisorState(make_runtime())
    state.last_loss = {0: 0.9, 1: 0.9, 2: 0.9, 3: 0.5}
    assert _pick_victim(state) == 0


def test_pick_victim_only_active_workers():
    state = SupervisorState(make_runtime())
    state.last_loss = {0: 0.5, 1: 0.9, 2: 0.7, 3: 0.6}
    state.active = {0, 2}
    assert _pick_victim(state) == 2


def test_pick_victim_no_candidates():
    state = SupervisorState(make_runtime())
    state.last_loss = {}
    assert _pick_victim(state) is None


# ----------------------------------------------------------- stop condition
def test_stop_on_target():
    config = make_runtime().config
    config.target_loss = 0.5
    stop, reason = _stop_condition(config, 0.0, step=1, mean_loss=0.4, now=1.0)
    assert stop and reason == "target"


def test_stop_on_max_steps():
    config = make_runtime().config
    stop, reason = _stop_condition(config, 0.0, step=10, mean_loss=9.9, now=1.0)
    assert stop and reason == "max_steps"


def test_stop_on_max_time(monkeypatch):
    monkeypatch.setattr(JobConfig, "max_time_s", 100.0)
    config = make_runtime().config
    stop, reason = _stop_condition(config, 0.0, step=1, mean_loss=9.9, now=500.0)
    assert stop and reason == "max_time"


def test_no_stop_mid_run():
    config = make_runtime().config
    stop, _reason = _stop_condition(config, 0.0, step=1, mean_loss=9.9, now=1.0)
    assert not stop


# ----------------------------------------------------------- state objects
def test_supervisor_state_initial_pool():
    state = SupervisorState(make_runtime(n_workers=4))
    assert state.active == {0, 1, 2, 3}
    assert state.completed_step == 0
    assert state.nbytes > 0


def test_worker_checkpoint_nbytes_scales_with_state():
    params = ParameterSet({"w": np.zeros(100)})
    opt = SGD(lr=0.1)
    filt = SignificanceFilter(0.5, {"w": (100,)})
    ckpt = WorkerCheckpoint(0, 0, params, opt, filt)
    base = ckpt.nbytes
    assert base >= 2 * params.nbytes
    # Momentum state adds a buffer slot.
    from repro.ml.optim import MomentumSGD
    from repro.ml.parameters import ModelUpdate
    from repro.ml.sparse import SparseDelta

    opt2 = MomentumSGD(lr=0.1)
    opt2.step(
        params,
        ModelUpdate({"w": SparseDelta(np.array([0]), np.array([1.0]), (100,))}),
        t=1,
    )
    ckpt2 = WorkerCheckpoint(0, 0, params, opt2, filt)
    assert ckpt2.nbytes > base


# -------------------------------------------------------- runtime naming
def test_runtime_key_naming_conventions():
    runtime = make_runtime()
    assert runtime.worker_queue(3) == "worker-3"
    assert runtime.update_key(7, 2) == "upd/7/2"
    assert runtime.replica_key(7, 2) == "departed/7/2"
    assert runtime.checkpoint_key(1) == "ckpt/worker-1"
    assert runtime.supervisor_checkpoint_key == "ckpt/supervisor"
    assert runtime.supervisor_queue == "supervisor"


def test_runtime_partitions_cover_dataset():
    runtime = make_runtime(n_workers=3)
    flat = sorted(i for part in runtime.partitions for i in part)
    assert flat == list(range(len(runtime.config.dataset)))
