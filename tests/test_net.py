"""Unit tests for latency models and bandwidth links."""

import numpy as np
import pytest

from repro.net import (
    ConstantLatency,
    Link,
    LognormalLatency,
    Nic,
    transfer_time,
)
from repro.sim import Environment


# ------------------------------------------------------------ latency models
def test_constant_latency():
    model = ConstantLatency(0.05)
    rng = np.random.default_rng(0)
    assert model.sample(rng) == 0.05
    assert model.mean() == 0.05


def test_constant_latency_negative_rejected():
    with pytest.raises(ValueError):
        ConstantLatency(-0.1)


def test_lognormal_latency_median_and_cap():
    model = LognormalLatency(median=0.1, sigma=0.5, cap=0.3)
    rng = np.random.default_rng(1)
    samples = np.array([model.sample(rng) for _ in range(2000)])
    assert abs(np.median(samples) - 0.1) < 0.02
    assert samples.max() <= 0.3
    assert model.mean() > 0.1  # lognormal mean exceeds median


def test_lognormal_latency_validates():
    with pytest.raises(ValueError):
        LognormalLatency(median=0)
    with pytest.raises(ValueError):
        LognormalLatency(median=0.1, sigma=-1)


# -------------------------------------------------------------- transfer time
def test_transfer_time_basic():
    # 1 MB over 8 Mbps = 1 second
    assert transfer_time(1_000_000, 8_000_000) == pytest.approx(1.0)


def test_transfer_time_validates():
    with pytest.raises(ValueError):
        transfer_time(-1, 1e9)
    with pytest.raises(ValueError):
        transfer_time(1, 0)


# --------------------------------------------------------------------- Link
def test_link_uncontended_transfer():
    env = Environment()
    link = Link(env, capacity_bps=8e6)

    def proc():
        yield from link.transfer(1_000_000)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == pytest.approx(1.0)
    assert link.bytes_moved == 1_000_000
    assert link.transfers == 1


def test_link_contention_slows_transfers():
    env = Environment()
    link = Link(env, capacity_bps=8e6)
    done = []

    def proc(tag):
        yield from link.transfer(1_000_000)
        done.append((tag, env.now))

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    # Durations are fixed at start from the instantaneous active count:
    # "a" starts alone (1 s); "b" starts with "a" active (2 s).
    assert done == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]


def test_link_active_count_recovers_after_transfer():
    env = Environment()
    link = Link(env, capacity_bps=1e9)

    def proc():
        yield from link.transfer(1000)

    env.process(proc())
    env.run()
    assert link.active_transfers == 0


def test_link_zero_bytes_is_instant():
    env = Environment()
    link = Link(env, capacity_bps=1e9)

    def proc():
        yield from link.transfer(0)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 0.0


def test_link_validates():
    with pytest.raises(ValueError):
        Link(Environment(), capacity_bps=0)


def test_nic_send_recv_independent_directions():
    env = Environment()
    nic = Nic(env, capacity_bps=8e6, host="w0")
    times = {}

    def sender():
        yield from nic.send(1_000_000)
        times["tx"] = env.now

    def receiver():
        yield from nic.recv(1_000_000)
        times["rx"] = env.now

    env.process(sender())
    env.process(receiver())
    env.run()
    # Full duplex: both finish at 1 s, not 2 s.
    assert times["tx"] == pytest.approx(1.0)
    assert times["rx"] == pytest.approx(1.0)
