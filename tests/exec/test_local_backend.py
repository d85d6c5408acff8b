"""Unit tests for the local backend's queue/KV/exchange/drive semantics,
including behavior under real thread concurrency."""

import threading
import time

import pytest

from repro.exec.local import (
    LocalClock,
    LocalExchange,
    LocalKVStore,
    LocalMessageQueue,
    LocalObjectStore,
    drive,
)
from repro.exec.protocols import Services
from repro.storage.errors import KeyNotFound, StorageError


# -- message queue ---------------------------------------------------------

def test_mq_fifo_order():
    mq = LocalMessageQueue()
    mq.declare("q")
    for i in range(10):
        mq.publish("q", {"i": i})
    assert [mq.consume("q")["i"] for _ in range(10)] == list(range(10))


def test_mq_consume_blocks_until_publish():
    mq = LocalMessageQueue()
    mq.declare("q")

    def late_publish():
        time.sleep(0.05)
        mq.publish("q", {"msg": "hello"})

    threading.Thread(target=late_publish, daemon=True).start()
    start = time.monotonic()
    message = mq.consume("q")
    assert message == {"msg": "hello"}
    assert time.monotonic() - start >= 0.04  # genuinely waited


def test_mq_consume_with_timeout_returns_none_when_empty():
    mq = LocalMessageQueue()
    mq.declare("q")
    start = time.monotonic()
    assert mq.consume_with_timeout("q", 0.05) is None
    assert time.monotonic() - start >= 0.04


def test_mq_drain_empties_without_blocking():
    mq = LocalMessageQueue()
    mq.declare("q")
    mq.publish("q", {"i": 1})
    mq.publish("q", {"i": 2})
    assert [m["i"] for m in mq.drain("q")] == [1, 2]
    assert mq.drain("q") == []


def test_mq_undeclared_queue_raises():
    mq = LocalMessageQueue()
    with pytest.raises(StorageError):
        mq.publish("nope", {})


# -- KV store --------------------------------------------------------------

def test_kv_semantics_match_simulated_store():
    kv = LocalKVStore()
    kv.set("a", 1)
    assert kv.get("a") == 1
    assert kv.exists("a")
    assert kv.get_or_none("missing") is None
    with pytest.raises(KeyNotFound):
        kv.get("missing")
    kv.delete("a")
    assert not kv.exists("a")
    kv.delete("a")  # idempotent


def test_kv_concurrent_writers_lose_nothing():
    kv = LocalKVStore()
    n_threads, n_keys = 8, 50

    def writer(tid):
        for k in range(n_keys):
            kv.set(f"{tid}/{k}", (tid, k))

    threads = [
        threading.Thread(target=writer, args=(t,)) for t in range(n_threads)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for t in range(n_threads):
        for k in range(n_keys):
            assert kv.get(f"{t}/{k}") == (t, k)


# -- object store ----------------------------------------------------------

def test_cos_preload_and_get():
    cos = LocalObjectStore()
    cos.preload("bucket", "key", [1, 2, 3])
    assert cos.get("bucket", "key") == [1, 2, 3]
    with pytest.raises(KeyNotFound):
        cos.get("bucket", "missing")


# -- exchange --------------------------------------------------------------

def test_exchange_broadcast_with_exclude_and_unbind():
    mq = LocalMessageQueue()
    ex = LocalExchange(mq)
    for name in ("a", "b", "c"):
        mq.declare(name)
        ex.bind(name)

    ex.publish({"n": 1}, exclude="b")
    assert mq.drain("a") == [{"n": 1}]
    assert mq.drain("b") == []
    assert mq.drain("c") == [{"n": 1}]

    ex.unbind("c")
    ex.publish({"n": 2})
    assert mq.drain("a") == [{"n": 2}]
    assert mq.drain("c") == []

    ex.bind("a")  # double bind must not double-deliver
    ex.publish({"n": 3})
    assert mq.drain("a") == [{"n": 3}]


# -- drive -----------------------------------------------------------------

def test_drive_returns_machine_result():
    def machine():
        x = yield (lambda: 20)
        y = yield (lambda: 22)
        return x + y

    assert drive(machine()) == 42


def test_drive_throws_call_errors_into_machine():
    def machine():
        try:
            yield (lambda: (_ for _ in ()).throw(KeyNotFound("k")))
        except KeyNotFound as e:
            return f"recovered:{e.key}"

    assert drive(machine()) == "recovered:k"


def test_drive_propagates_uncaught_errors():
    def machine():
        yield (lambda: (_ for _ in ()).throw(ValueError("boom")))

    with pytest.raises(ValueError, match="boom"):
        drive(machine())


# -- barrier semantics under real concurrency ------------------------------

def test_barrier_round_trip_across_threads():
    """N workers report, a coordinator collects all N, then broadcasts a
    release every worker receives — the local-backend barrier primitive."""
    n = 4
    mq = LocalMessageQueue()
    ex = LocalExchange(mq)
    sv = Services(
        LocalObjectStore(), LocalKVStore(), mq, ex, lambda cpu_s: None, time.sleep
    )
    mq.declare("supervisor")
    for w in range(n):
        mq.declare(f"worker-{w}")
        ex.bind(f"worker-{w}")

    releases = {}

    def worker_machine(w):
        yield sv.mq_publish("supervisor", {"worker": w})
        release = yield sv.mq_consume(f"worker-{w}")
        releases[w] = release

    def coordinator_machine():
        seen = []
        while len(seen) < n:
            report = yield sv.mq_consume("supervisor")
            seen.append(report["worker"])
        yield sv.broadcast({"release": sorted(seen)})

    threads = [
        threading.Thread(target=drive, args=(worker_machine(w),))
        for w in range(n)
    ]
    threads.append(threading.Thread(target=drive, args=(coordinator_machine(),)))
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
    assert all(not th.is_alive() for th in threads)
    assert releases == {w: {"release": list(range(n))} for w in range(n)}


# -- clock -----------------------------------------------------------------

def test_clock_advances_with_real_time():
    clock = LocalClock(max_duration_s=100.0)
    t0 = clock.now()
    time.sleep(0.02)
    t1 = clock.now()
    assert t1 - t0 >= 0.015
    assert clock.remaining_time(t0) <= 100.0 - (t1 - t0) + 1e-6
