"""Unit tests for the process backend's substrate (``repro.exec.procs``).

End-to-end convergence parity with the sim backend lives in
``test_cross_backend.py``; here the pieces are exercised in isolation:
the shared-memory arena layout, the control-server KV/exchange
semantics and — the property the parent-held KV server exists to
provide — checkpoints surviving the death of a role process.  What the
process backend shares with the thread backend (queue table, role loop,
broadcast) is tested once for both in ``test_host_job.py``; what it
refuses is a column of ``tests/test_capabilities.py``.
"""

import multiprocessing as mp
import os
import queue
import time

import numpy as np
import pytest

from repro.core import AdaptiveConfig
from repro.exec import procs
from repro.exec.local import LocalMessageQueue
from repro.exec.procs import (
    _SERVER_POLL_S,
    ProcKVClient,
    ShmArena,
    _ControlServer,
    _SHM_DENSE,
    _SHM_UPDATE,
    _shm_route,
)
from repro.ml.parameters import ModelUpdate, ParameterSet
from repro.ml.sparse import SparseDelta
from repro.storage.errors import KeyNotFound, StorageError

from .test_cross_backend import pmf_config

SHAPES = {"U": (6, 3), "b": (4,)}


def _update(scale=1.0):
    return ModelUpdate(
        {
            "U": SparseDelta(
                np.array([0, 5, 11], dtype=np.int64),
                np.array([1.5, -2.0, 0.25]) * scale,
                (6, 3),
            ),
            "b": SparseDelta(
                np.array([2], dtype=np.int64), np.array([3.0]) * scale, (4,)
            ),
        }
    )


# ------------------------------------------------------------- ShmArena
@pytest.fixture
def make_arena():
    """Arena factory that unlinks at teardown, *after* test locals are
    freed — closing while zero-copy views are alive raises BufferError
    (the production parent never resolves descriptors, so it closes
    view-free; the tests do resolve, hence the deferred close)."""
    import gc

    arenas = []

    def factory(shapes, n_workers):
        arena = ShmArena(shapes, n_workers)
        arenas.append(arena)
        return arena

    yield factory
    gc.collect()
    for arena in arenas:
        arena.close(unlink=True)


def test_arena_update_roundtrip_is_exact_and_zero_copy(make_arena):
    arena = make_arena(SHAPES, n_workers=2)
    update = _update()
    descriptor = arena.write_update(1, 0, update)
    assert descriptor[0] == _SHM_UPDATE
    got = arena.read_update(descriptor)
    for (name, want), (name2, have) in zip(update, got):
        assert name == name2
        np.testing.assert_array_equal(have.indices, want.indices)
        np.testing.assert_array_equal(have.values, want.values)
        assert have.shape == want.shape
        assert have.has_sorted_unique_indices
    # Zero-copy: the read deltas are views over the shared block, so
    # rewriting the slot changes values already handed out.
    arena.write_update(1, 0, _update(scale=2.0))
    np.testing.assert_array_equal(got["U"].values, [3.0, -4.0, 0.5])


def test_arena_parity_slots_are_independent(make_arena):
    arena = make_arena(SHAPES, n_workers=1)
    even = arena.write_update(0, 0, _update(scale=1.0))
    odd = arena.write_update(0, 1, _update(scale=10.0))
    np.testing.assert_array_equal(
        arena.read_update(even)["U"].values, [1.5, -2.0, 0.25]
    )
    np.testing.assert_array_equal(
        arena.read_update(odd)["U"].values, [15.0, -20.0, 2.5]
    )


def test_arena_dense_roundtrip(make_arena):
    arena = make_arena(SHAPES, n_workers=2)
    params = ParameterSet(
        {
            "U": np.arange(18, dtype=np.float64).reshape(6, 3),
            "b": np.array([9.0, 8.0, 7.0, 6.0]),
        }
    )
    descriptor = arena.write_dense(0, params)
    assert descriptor[0] == _SHM_DENSE
    got = arena.read_dense(descriptor)
    assert got.shapes() == params.shapes()
    for name, tensor in params:
        np.testing.assert_array_equal(got[name], tensor)


def test_arena_rejects_oversized_and_unknown_tensors(make_arena):
    arena = make_arena({"b": (2,)}, n_workers=1)
    too_big = ModelUpdate(
        {
            "b": SparseDelta._trusted(
                np.array([0, 1, 1], dtype=np.int64),
                np.ones(3),
                (2,),
                sorted_unique=False,
            )
        }
    )
    with pytest.raises(StorageError, match="nnz"):
        arena.write_update(0, 0, too_big)
    unknown = ModelUpdate(
        {"w": SparseDelta(np.array([0], dtype=np.int64), np.ones(1), (2,))}
    )
    with pytest.raises(StorageError, match="not negotiated"):
        arena.write_update(0, 0, unknown)


@pytest.mark.parametrize(
    "sync, arenas", [("bsp", 1), ("ssp", 0), ("adaptive", 0)]
)
def test_only_jobs_that_never_gossip_negotiate_an_arena(sync, arenas, monkeypatch):
    """The parity slots hold ``upd/t/w`` over ``upd/(t-2)/w``: safe under
    the barrier, a data race for a gossip peer ``ssp_staleness`` (2)
    steps behind.  An adaptive job enters the gossip family mid-job, so
    it must not get an arena either — and must survive the switch."""
    built = []

    class CountedArena(ShmArena):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(procs, "ShmArena", CountedArena)
    # the first skewed barrier after the first one orders the switch
    eager = AdaptiveConfig(
        warmup_steps=0, skew_threshold=1e-9, patience=1, max_evictions=0
    )
    config = pmf_config(
        sync=sync, significance_v=0.0, max_steps=12, adaptive=eager
    )
    result = procs.run_procs_job(config)
    assert len(built) == arenas
    assert result.total_steps == 12 and np.isfinite(result.final_loss)
    assert len(result.monitor.series("sync_switch")) == (sync == "adaptive")


def test_shm_route_classification():
    update, params = _update(), ParameterSet({"b": np.zeros(4)})
    assert _shm_route("upd/7/2", update) == (_SHM_UPDATE, 7, 2)
    assert _shm_route("departed/3/1", params) == (_SHM_DENSE, 3, 1)
    # Wrong payload type, wrong arity, non-integer parts: all pickled.
    assert _shm_route("upd/7/2", params) is None
    assert _shm_route("departed/3/1", update) is None
    assert _shm_route("upd/7", update) is None
    assert _shm_route("ckpt/worker/0", {"step": 5}) is None
    assert _shm_route("model", update) is None


# ------------------------------------------------- control server + KV
@pytest.fixture
def control():
    """In-process control server over plain thread-safe queues."""
    request_q = queue.Queue()
    reply_qs = [queue.Queue() for _ in range(3)]
    server = _ControlServer(request_q, reply_qs, [])
    server.start()
    yield request_q, reply_qs
    server.stop()
    server.join(timeout=5.0)
    assert not server.is_alive()


def test_kv_client_verbs(control):
    request_q, reply_qs = control
    kv = ProcKVClient(0, request_q, reply_qs[0])
    kv.set("model", {"step": 3})
    assert kv.exists("model")
    assert kv.get("model") == {"step": 3}
    assert kv.get_or_none("model") == {"step": 3}
    assert kv.get_or_none("nope") is None
    with pytest.raises(KeyNotFound):
        kv.get("nope")
    kv.delete("model")
    # delete is fire-and-forget; a follow-up round trip orders after it
    assert kv.get_or_none("model") is None
    assert not kv.exists("model")


def test_exchange_bindings_are_shared_across_clients(control):
    request_q, reply_qs = control
    a = ProcKVClient(0, request_q, reply_qs[0])
    b = ProcKVClient(1, request_q, reply_qs[1])
    a.bind("worker-q-0")
    b.bind("worker-q-1")
    a.bind("worker-q-0")  # idempotent
    assert a.bindings() == b.bindings() == ["worker-q-0", "worker-q-1"]
    b.unbind("worker-q-0")
    assert a.bindings() == ["worker-q-1"]


def test_control_server_stop_does_not_wait_out_the_poll():
    """``stop()`` is a request on the queue the loop is blocked on, so it
    is seen at once — not when the bounded ``get`` next expires."""
    request_q, reply_qs = queue.Queue(), [queue.Queue()]
    server = _ControlServer(request_q, reply_qs, [])
    server.start()
    # After answering a round trip the loop has just re-entered a
    # full-length get(): the worst case for a stop that waits for expiry.
    assert not ProcKVClient(0, request_q, reply_qs[0]).exists("x")
    start = time.monotonic()
    server.stop()
    server.join(timeout=5.0)
    elapsed = time.monotonic() - start
    assert not server.is_alive()
    assert elapsed < _SERVER_POLL_S / 2


# ------------------------------------------------------- message queues
def test_queue_timeout_consume_and_drain():
    mq = LocalMessageQueue(mp.get_context("fork").Queue)
    mq.declare("q")
    mq.seal()
    assert mq.consume_with_timeout("q", 0.0) is None
    for i in range(3):
        mq.publish("q", {"i": i})
    assert mq.consume_with_timeout("q", 5.0) == {"i": 0}
    assert mq.consume_with_timeout("q", 5.0) == {"i": 1}
    # mp.Queue's feeder thread flushes asynchronously, so drain() may
    # see the last item late; poll with a real deadline.
    out, deadline = [], time.monotonic() + 10.0
    while not out and time.monotonic() < deadline:
        out = mq.drain("q")
        time.sleep(0.01)
    assert out == [{"i": 2}]
    assert mq.drain("q") == []


# ----------------------------------------------------- role death
def _write_ckpt_and_die(kv):
    kv.set("ckpt/worker/0", {"step": 5, "note": "pre-crash"})
    os._exit(17)  # simulate a kill: no exception, no cleanup


def _resume_from_ckpt(kv, out_q, go):
    go.wait(timeout=120.0)
    out_q.put(kv.get("ckpt/worker/0"))


def test_checkpoint_survives_role_process_death():
    """A checkpoint written through the parent-held KV server outlives
    the writer process; a replacement process resumes from it."""
    ctx = mp.get_context("fork")
    request_q = ctx.Queue()
    reply_qs = [ctx.Queue() for _ in range(2)]
    out_q = ctx.Queue()
    go = ctx.Event()
    victim_kv = ProcKVClient(0, request_q, reply_qs[0])
    resumer_kv = ProcKVClient(1, request_q, reply_qs[1])

    victim = ctx.Process(target=_write_ckpt_and_die, args=(victim_kv,), daemon=True)
    resumer = ctx.Process(
        target=_resume_from_ckpt, args=(resumer_kv, out_q, go), daemon=True
    )
    # Both children fork BEFORE the control-server thread starts — the
    # same fork-then-threads invariant the backend itself keeps.  The
    # resumer is gated on `go` so its read still happens strictly after
    # the writer's death.
    victim.start()
    resumer.start()
    server = _ControlServer(request_q, reply_qs, [])
    server.start()
    try:
        victim.join(timeout=30.0)
        assert victim.exitcode == 17
        go.set()
        assert out_q.get(timeout=30.0) == {"step": 5, "note": "pre-crash"}
        resumer.join(timeout=30.0)
        assert resumer.exitcode == 0
    finally:
        for proc in (victim, resumer):
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        server.stop()
        server.join(timeout=5.0)


# ------------------------------------------------------ concurrent puts
def _put_worker_keys(kv, worker, n_keys, out_q):
    for i in range(n_keys):
        kv.set(f"k/{worker}/{i}", worker * 1000 + i)
    out_q.put(worker)


def test_concurrent_kv_puts_from_processes():
    """Several processes hammer the control server at once; every write
    lands (the single-threaded server serializes them)."""
    n_procs, n_keys = 3, 20
    ctx = mp.get_context("fork")
    request_q = ctx.Queue()
    reply_qs = [ctx.Queue() for _ in range(n_procs + 1)]
    out_q = ctx.Queue()
    writers = [
        ctx.Process(
            target=_put_worker_keys,
            args=(ProcKVClient(w, request_q, reply_qs[w]), w, n_keys, out_q),
            daemon=True,
        )
        for w in range(n_procs)
    ]
    for proc in writers:
        proc.start()
    server = _ControlServer(request_q, reply_qs, [])
    server.start()
    try:
        done = sorted(out_q.get(timeout=30.0) for _ in range(n_procs))
        assert done == list(range(n_procs))
        parent = ProcKVClient(n_procs, request_q, reply_qs[n_procs])
        for w in range(n_procs):
            for i in range(n_keys):
                assert parent.get(f"k/{w}/{i}") == w * 1000 + i
    finally:
        for proc in writers:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
        server.stop()
        server.join(timeout=5.0)
