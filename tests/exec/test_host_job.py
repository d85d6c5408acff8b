"""What the thread and process backends share, tested once for both.

``local`` and ``procs`` run the same job skeleton (``HostJob``,
``run_role``) over the same queue table (``LocalMessageQueue``) and the
same ``Services`` class; they differ in the queue type (``queue.Queue``
vs a fork-context ``Queue``), in where exchange bindings live, and in
whether a role is a thread or a process.  Every test here runs on both
sides of that difference.
"""

import multiprocessing as mp
import queue
import time

import pytest

from repro.exec import local as local_backend
from repro.exec.local import (
    LocalExchange,
    LocalKVStore,
    LocalMessageQueue,
    LocalObjectStore,
    run_local_job,
    run_role,
)
from repro.exec.procs import ProcExchange, ProcKVClient, _ControlServer, run_procs_job
from repro.exec.protocols import Services
from repro.storage.errors import StorageError

from .test_cross_backend import pmf_config

QUEUE_FACTORIES = {"local": queue.Queue, "procs": mp.get_context("fork").Queue}
JOB_RUNNERS = {"local": run_local_job, "procs": run_procs_job}
BACKENDS = sorted(QUEUE_FACTORIES)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def mq(backend):
    return LocalMessageQueue(QUEUE_FACTORIES[backend])


# ----------------------------------------------------------- queue table
def test_declare_after_seal_is_rejected(mq):
    mq.declare("early")
    mq.seal()
    mq.declare("early")  # re-declare of an existing queue stays legal
    with pytest.raises(StorageError, match="after spawn"):
        mq.declare("late")
    with pytest.raises(StorageError, match="never declared"):
        mq.consume_with_timeout("late", 0.0)


def test_negative_timeout_is_an_empty_poll_not_an_error(mq):
    # Callers pass "time left" arithmetic; Queue.get(timeout=-x) raises.
    mq.declare("q")
    assert mq.consume_with_timeout("q", -0.5) is None
    mq.publish("q", {"i": 1})
    deadline = time.monotonic() + 10.0  # mp.Queue flushes asynchronously
    message = None
    while message is None and time.monotonic() < deadline:
        message = mq.consume_with_timeout("q", -0.5)
    assert message == {"i": 1}


# -------------------------------------------------------------- broadcast
@pytest.fixture
def exchange(backend, mq):
    """The backend's exchange with wq-0..2 declared and bound."""
    names = ["wq-0", "wq-1", "wq-2"]
    for name in names:
        mq.declare(name)
    mq.seal()
    if backend == "local":
        exchange = LocalExchange(mq)
        for name in names:
            exchange.bind(name)
        yield exchange
        return
    request_q, reply_qs = queue.Queue(), [queue.Queue()]
    server = _ControlServer(request_q, reply_qs, names)
    server.start()
    yield ProcExchange(ProcKVClient(0, request_q, reply_qs[0]), mq)
    server.stop()
    server.join(timeout=5.0)
    assert not server.is_alive()


def test_broadcast_fans_out_excluding_sender(mq, exchange):
    services = Services(
        LocalObjectStore(), LocalKVStore(), mq, exchange, lambda cpu_s: None, time.sleep
    )
    services.broadcast({"kind": "update"}, exclude="wq-1")()
    assert mq.consume_with_timeout("wq-0", 5.0) == {"kind": "update"}
    assert mq.consume_with_timeout("wq-2", 5.0) == {"kind": "update"}
    assert mq.consume_with_timeout("wq-1", 0.0) is None
    services.unbind("wq-2")  # a departing worker leaves the fan-out
    services.broadcast({"kind": "second"})()
    assert mq.consume_with_timeout("wq-0", 5.0) == {"kind": "second"}
    assert mq.consume_with_timeout("wq-1", 5.0) == {"kind": "second"}
    assert mq.consume_with_timeout("wq-2", 0.0) is None


# --------------------------------------------------------------- role loop
def _relaunching_loop(ectx, payload):
    if not payload.get("resume"):
        return {"outcome": "relaunch"}
    return {"outcome": "done", "resumed": True}
    yield  # makes this a generator machine; never reached


def test_role_reenters_on_relaunch_marker(backend):
    results_q = QUEUE_FACTORIES[backend]()
    run_role(_relaunching_loop, None, {}, "worker-0", results_q)
    role, result, monitor = results_q.get(timeout=5.0)
    assert role == "worker-0"
    assert result == {"outcome": "done", "resumed": True}
    assert monitor is None


def _explodes_on_first_step(ectx, payload):
    raise RuntimeError("boom on the first step")
    yield  # never reached


def test_failing_role_raises_with_role_name_and_traceback(backend, monkeypatch):
    """Both backends surface a role failure the same way: one exception
    type, naming the role, carrying the role's own traceback — and at
    once, not after the surviving roles time out on their barrier."""
    real_roles = local_backend.role_loops
    monkeypatch.setattr(
        local_backend,
        "role_loops",
        lambda config: (_explodes_on_first_step, real_roles(config)[1]),
    )
    start = time.monotonic()
    with pytest.raises(StorageError) as raised:
        JOB_RUNNERS[backend](pmf_config(max_steps=3))
    message = str(raised.value)
    assert message.startswith(f"{backend} role worker-")
    assert "Traceback (most recent call last)" in message
    assert "_explodes_on_first_step" in message
    assert "RuntimeError: boom on the first step" in message
    assert time.monotonic() - start < 30.0  # consume deadline is 120 s
