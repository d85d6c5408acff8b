"""Unit tests for the simulated storage services."""

import numpy as np
import pytest

from repro.net import ConstantLatency
from repro.sim import Environment, RandomStreams
from repro.storage import (
    BucketNotFound,
    Exchange,
    KeyNotFound,
    KVStore,
    MessageQueue,
    ObjectStore,
    payload_size,
)


def make_world():
    env = Environment()
    streams = RandomStreams(seed=0)
    return env, streams


def run_proc(env, gen):
    p = env.process(gen)
    env.run()
    assert p.ok, p.value
    return p.value


# ------------------------------------------------------------------ sizing
def test_payload_size_numpy_uses_nbytes():
    arr = np.zeros(100)
    assert payload_size(arr) == 64 + 800


def test_payload_size_bytes_and_str():
    assert payload_size(b"abcd") == 64 + 4
    assert payload_size("héllo") == 64 + len("héllo".encode())


def test_payload_size_scalars():
    assert payload_size(None) == 65
    assert payload_size(True) == 65
    assert payload_size(3) == 72
    assert payload_size(3.5) == 72


def test_payload_size_containers_recurse():
    flat = payload_size([1.0, 2.0])
    assert flat == 64 + 2 * (8 + 8)
    d = payload_size({"k": 1.0})
    assert d == 64 + 8 + 1 + 8  # overhead + item + key + value


def test_payload_size_rejects_unknown_types():
    class Opaque:
        pass

    with pytest.raises(TypeError):
        payload_size(Opaque())


def test_payload_size_uses_custom_nbytes_attribute():
    class Sized:
        nbytes = 1234

    assert payload_size(Sized()) == 64 + 1234


# ------------------------------------------------------------- object store
def test_object_store_put_get_roundtrip():
    env, streams = make_world()
    cos = ObjectStore(env, streams, latency=ConstantLatency(0.01))
    cos.create_bucket("b")
    data = np.arange(10.0)

    def proc():
        yield from cos.put("b", "k", data)
        out = yield from cos.get("b", "k")
        return out

    out = run_proc(env, proc())
    np.testing.assert_array_equal(out, data)
    assert env.now > 0  # time was charged


def test_object_store_get_missing_key_raises():
    env, streams = make_world()
    cos = ObjectStore(env, streams)
    cos.create_bucket("b")

    def proc():
        yield from cos.get("b", "nope")

    p = env.process(proc())
    with pytest.raises(KeyNotFound):
        env.run()


def test_object_store_unknown_bucket_raises():
    env, streams = make_world()
    cos = ObjectStore(env, streams)
    with pytest.raises(BucketNotFound):
        cos.peek("ghost", "k")


def test_object_store_delete_idempotent():
    env, streams = make_world()
    cos = ObjectStore(env, streams, latency=ConstantLatency(0.001))
    cos.preload("b", "k", 1.0)

    def proc():
        yield from cos.delete("b", "k")
        yield from cos.delete("b", "k")  # second delete is fine
        return cos.object_count("b")

    assert run_proc(env, proc()) == 0


def test_object_store_metrics_track_requests():
    env, streams = make_world()
    cos = ObjectStore(env, streams, latency=ConstantLatency(0.001))
    cos.preload("b", "k", np.zeros(100))

    def proc():
        yield from cos.get("b", "k")
        yield from cos.get("b", "k")

    run_proc(env, proc())
    assert cos.metrics.requests["get"] == 2
    assert cos.metrics.bytes_out == 2 * payload_size(np.zeros(100))


def test_object_store_preload_charges_no_time():
    env, streams = make_world()
    cos = ObjectStore(env, streams)
    cos.preload("b", "k", np.zeros(1000))
    assert env.now == 0.0


# ----------------------------------------------------------------- KV store
def test_kv_set_get_roundtrip():
    env, streams = make_world()
    kv = KVStore(env, streams, latency=ConstantLatency(0.001))

    def proc():
        yield from kv.set("x", 42)
        return (yield from kv.get("x"))

    assert run_proc(env, proc()) == 42


def test_kv_get_missing_raises_and_get_or_none():
    env, streams = make_world()
    kv = KVStore(env, streams, latency=ConstantLatency(0.001))

    def proc():
        return (yield from kv.get_or_none("missing"))

    assert run_proc(env, proc()) is None

    def proc2():
        yield from kv.get("missing")

    env.process(proc2())
    with pytest.raises(KeyNotFound):
        env.run()


def test_kv_exists_and_delete():
    env, streams = make_world()
    kv = KVStore(env, streams, latency=ConstantLatency(0.001))

    def proc():
        yield from kv.set("x", 1)
        a = yield from kv.exists("x")
        yield from kv.delete("x")
        b = yield from kv.exists("x")
        return a, b

    assert run_proc(env, proc()) == (True, False)


def test_kv_charges_bytes_for_values():
    env, streams = make_world()
    kv = KVStore(env, streams, latency=ConstantLatency(0.0), bandwidth_bps=8e6)
    payload = np.zeros(125_000)  # 1 Mbit body

    def proc():
        yield from kv.set("x", payload)
        return env.now

    # (1e6 + envelope) bytes * 8 bits / 8e6 bps ~ 1 s
    assert run_proc(env, proc()) == pytest.approx(1.0, rel=0.01)


# -------------------------------------------------------------- message queue
def test_mq_publish_consume_fifo():
    env, streams = make_world()
    mq = MessageQueue(env, streams, latency=ConstantLatency(0.001))

    def producer():
        yield from mq.publish("q", {"n": 1})
        yield from mq.publish("q", {"n": 2})

    def consumer():
        a = yield from mq.consume("q")
        b = yield from mq.consume("q")
        return a["n"], b["n"]

    env.process(producer())
    p = env.process(consumer())
    env.run()
    assert p.value == (1, 2)


def test_mq_consume_blocks_until_message():
    env, streams = make_world()
    mq = MessageQueue(env, streams, latency=ConstantLatency(0.001))

    def consumer():
        msg = yield from mq.consume("q")
        return (msg, env.now)

    def producer():
        yield env.timeout(5)
        yield from mq.publish("q", "late")

    p = env.process(consumer())
    env.process(producer())
    env.run()
    msg, t = p.value
    assert msg == "late" and t > 5


def test_mq_drain_returns_all_pending():
    env, streams = make_world()
    mq = MessageQueue(env, streams, latency=ConstantLatency(0.001))

    def proc():
        for i in range(3):
            yield from mq.publish("q", i)
        return (yield from mq.drain("q"))

    assert run_proc(env, proc()) == [0, 1, 2]


def test_mq_depth():
    env, streams = make_world()
    mq = MessageQueue(env, streams, latency=ConstantLatency(0.001))

    def proc():
        yield from mq.publish("q", 1)

    run_proc(env, proc())
    assert mq.depth("q") == 1


# ------------------------------------------------------------------ exchange
def test_exchange_fanout_to_all_bound_queues():
    env, streams = make_world()
    mq = MessageQueue(env, streams, latency=ConstantLatency(0.001))
    ex = Exchange(mq, "bcast")
    for q in ("q0", "q1", "q2"):
        ex.bind(q)

    def proc():
        yield from ex.publish("hello")

    run_proc(env, proc())
    assert all(mq.depth(q) == 1 for q in ("q0", "q1", "q2"))


def test_exchange_exclude_and_unbind():
    env, streams = make_world()
    mq = MessageQueue(env, streams, latency=ConstantLatency(0.001))
    ex = Exchange(mq, "bcast")
    for q in ("q0", "q1", "q2"):
        ex.bind(q)
    ex.unbind("q2")

    def proc():
        yield from ex.publish("hello", exclude="q0")

    run_proc(env, proc())
    assert mq.depth("q0") == 0
    assert mq.depth("q1") == 1
    assert mq.depth("q2") == 0
    assert ex.bindings == ["q0", "q1"]


def test_exchange_double_bind_is_idempotent():
    env, streams = make_world()
    mq = MessageQueue(env, streams, latency=ConstantLatency(0.001))
    ex = Exchange(mq, "bcast")
    ex.bind("q")
    ex.bind("q")
    assert ex.bindings == ["q"]
