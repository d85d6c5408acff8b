"""Property-based tests: checkpoints survive a KV put/get cycle intact.

Fault-tolerant training relies on two invariants of the checkpoint path:

1. **Round-trip fidelity** — whatever state a worker or the supervisor
   writes to the KV store comes back equal after relaunch.
2. **Snapshot isolation** — the simulated KV store holds Python objects
   by reference, so a stored checkpoint and the live state must not
   share buffers once the worker moves on (a worker copies its live
   state after the write returns; ``tests/test_checkpoint_handoff.py``
   holds that hand-off).  Mutating the live state after a checkpoint
   must never alter the stored snapshot.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import JobConfig
from repro.core.runtime import WorkerCheckpoint
from repro.core.significance import SignificanceFilter
from repro.core.supervisor import SupervisorState
from repro.ml import ParameterSet
from repro.ml.data import MovieLensSpec, movielens_like
from repro.ml.models import PMF
from repro.ml.optim import SGD
from repro.sim import Environment, RandomStreams
from repro.storage import KVStore

SIZE = 12

small_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def kv_roundtrip(value):
    """Deep-copy-on-write put/get through a simulated KV store."""
    env = Environment()
    kv = KVStore(env, RandomStreams(seed=0))

    def proc():
        yield from kv.set("ckpt", copy.deepcopy(value))
        stored = yield from kv.get("ckpt")
        return stored

    p = env.process(proc())
    env.run()
    assert p.ok, p.value
    return p.value


@st.composite
def worker_checkpoints(draw):
    vals = draw(st.lists(small_floats, min_size=SIZE, max_size=SIZE))
    params = ParameterSet({"w": np.asarray(vals)})
    ckpt = WorkerCheckpoint(
        worker_id=draw(st.integers(min_value=0, max_value=31)),
        step=draw(st.integers(min_value=0, max_value=10_000)),
        params=params,
        optimizer=SGD(lr=0.1),
        sig_filter=SignificanceFilter(0.5, {"w": (SIZE,)}),
        active_workers=draw(st.integers(min_value=1, max_value=32)),
    )
    if draw(st.booleans()):
        ckpt.last_report = {
            "type": "step_done",
            "step": ckpt.step,
            "worker": ckpt.worker_id,
            "loss": draw(small_floats),
        }
    return ckpt


@settings(max_examples=25, deadline=None)
@given(worker_checkpoints())
def test_worker_checkpoint_roundtrips_through_kv(ckpt):
    stored = kv_roundtrip(ckpt)
    assert stored.worker_id == ckpt.worker_id
    assert stored.step == ckpt.step
    assert stored.active_workers == ckpt.active_workers
    assert stored.last_report == ckpt.last_report
    assert stored.pending_replica == ckpt.pending_replica
    np.testing.assert_array_equal(stored.params["w"], ckpt.params["w"])
    assert stored.nbytes == ckpt.nbytes


@settings(max_examples=25, deadline=None)
@given(worker_checkpoints(), small_floats)
def test_worker_checkpoint_snapshot_is_isolated(ckpt, noise):
    before = ckpt.params["w"].copy()
    stored = kv_roundtrip(ckpt)
    # Mutations after the checkpoint must not reach the snapshot.
    ckpt.params["w"][:] += noise + 1.0
    ckpt.step += 1
    np.testing.assert_array_equal(stored.params["w"], before)
    assert stored.step == ckpt.step - 1


def _make_runtime():
    from repro.api import build_world, make_runtime

    dataset = movielens_like(
        MovieLensSpec(n_users=30, n_movies=20, n_ratings=1000, batch_size=250),
        seed=0,
    )
    config = JobConfig(
        model=PMF(30, 20, rank=2),
        make_optimizer=lambda: SGD(lr=0.1),
        dataset=dataset,
        n_workers=4,
        max_steps=10,
    )
    return make_runtime(build_world(seed=0), config)


RUNTIME = _make_runtime()


@st.composite
def supervisor_states(draw):
    state = SupervisorState(RUNTIME)
    workers = draw(
        st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=8)
    )
    state.active = set(workers)
    state.completed_step = draw(st.integers(min_value=0, max_value=500))
    state.last_loss = {
        w: draw(small_floats) for w in workers if draw(st.booleans())
    }
    state.resyncs_this_step = draw(st.integers(min_value=0, max_value=8))
    if draw(st.booleans()):
        state.releases[state.completed_step] = {
            "type": "step_complete",
            "step": state.completed_step,
            "stop": False,
            "evictions": [],
            "active_workers": len(workers),
        }
    return state


@settings(max_examples=25, deadline=None)
@given(supervisor_states())
def test_supervisor_state_roundtrips_through_kv(state):
    stored = kv_roundtrip(state)
    assert stored.active == state.active
    assert stored.completed_step == state.completed_step
    assert stored.last_loss == state.last_loss
    assert stored.releases == state.releases
    assert stored.resyncs_this_step == state.resyncs_this_step
    assert stored.stop_reason == state.stop_reason


@settings(max_examples=25, deadline=None)
@given(supervisor_states())
def test_supervisor_snapshot_is_isolated(state):
    before_active = set(state.active)
    before_step = state.completed_step
    stored = kv_roundtrip(state)
    state.active.discard(min(state.active))
    state.completed_step += 1
    state.releases[before_step + 1] = {"type": "step_complete"}
    assert stored.active == before_active
    assert stored.completed_step == before_step
    assert before_step + 1 not in stored.releases or (
        stored.releases != state.releases
    )
