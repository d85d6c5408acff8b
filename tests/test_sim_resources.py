"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Environment, Resource, SimulationError, Store


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grants = []

    def proc(tag):
        req = res.request()
        yield req
        grants.append((tag, env.now))
        yield env.timeout(10)
        res.release(req)

    for tag in range(3):
        env.process(proc(tag))
    env.run()
    assert grants == [(0, 0), (1, 0), (2, 10)]


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def proc(tag):
        req = res.request()
        yield req
        order.append(tag)
        yield env.timeout(1)
        res.release(req)

    for tag in range(4):
        env.process(proc(tag))
    env.run()
    assert order == [0, 1, 2, 3]


def test_resource_counts():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield env.timeout(5)
        res.release(req)

    def waiter():
        yield env.timeout(1)
        req = res.request()
        yield req
        res.release(req)

    env.process(holder())
    env.process(waiter())
    env.run(until=2)
    assert res.count == 1
    assert res.queue_length == 1


def test_resource_invalid_capacity():
    with pytest.raises(ValueError):
        Resource(Environment(), capacity=0)


def test_release_without_grant_raises():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc():
        req = res.request()
        yield req
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    env.process(proc())
    env.run()


def test_cancel_pending_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield env.timeout(10)
        res.release(req)

    def impatient():
        yield env.timeout(1)
        req = res.request()
        yield env.timeout(1)
        req.cancel()
        return res.queue_length

    env.process(holder())
    p = env.process(impatient())
    env.run()
    assert p.value == 0


# ------------------------------------------------------------------- Store
def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_item():
    env = Environment()
    store = Store(env)

    def consumer():
        item = yield store.get()
        return (item, env.now)

    def producer():
        yield env.timeout(5)
        yield store.put("late")

    p = env.process(consumer())
    env.process(producer())
    env.run()
    assert p.value == ("late", 5)


def test_store_bounded_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer():
        yield store.put("a")
        times.append(env.now)
        yield store.put("b")  # blocks until 'a' consumed
        times.append(env.now)

    def consumer():
        yield env.timeout(4)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert times == [0, 4]


def test_store_len_and_items():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.items == [1, 2]


def test_store_invalid_capacity():
    with pytest.raises(ValueError):
        Store(Environment(), capacity=0)

