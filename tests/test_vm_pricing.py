"""Unit tests for the VM substrate, collectives, and pricing/metering."""

import pytest

from repro.pricing import (
    FUNCTIONS_PRICE_PER_S,
    PRICING,
    CostMeter,
    VMLease,
    vm_price_per_second,
)
from repro.sim import Environment, RandomStreams
from repro.vm import VMInstance, ring_allreduce_time


# ----------------------------------------------------------------- pricing
def test_table2_catalog_values():
    assert PRICING["C1.4x4"].price_per_hour == 0.15
    assert PRICING["M1.2x16"].price_per_hour == 0.17
    assert PRICING["B1.4x8"].price_per_hour == 0.20
    assert FUNCTIONS_PRICE_PER_S == 3.4e-5


def test_table2_shapes():
    assert (PRICING["C1.4x4"].vcpus, PRICING["C1.4x4"].memory_gb) == (4, 4)
    assert (PRICING["M1.2x16"].vcpus, PRICING["M1.2x16"].memory_gb) == (2, 16)
    assert (PRICING["B1.4x8"].vcpus, PRICING["B1.4x8"].memory_gb) == (4, 8)


def test_price_per_second_conversion():
    assert vm_price_per_second("B1.4x8") == pytest.approx(0.20 / 3600)


def test_all_instances_have_1gbps_nic():
    assert all(t.nic_bps == 1e9 for t in PRICING.values())


def test_lease_cost_accrues_with_time():
    lease = VMLease(PRICING["B1.4x8"], start=100.0)
    assert lease.cost_up_to(50.0) == 0.0
    assert lease.cost_up_to(100.0) == 0.0
    assert lease.cost_up_to(3700.0) == pytest.approx(0.20)


def test_lease_cost_stops_at_end():
    lease = VMLease(PRICING["B1.4x8"], start=0.0, end=3600.0)
    assert lease.cost() == pytest.approx(0.20)
    assert lease.cost_up_to(10_000.0) == pytest.approx(0.20)


def test_open_lease_cost_requires_time():
    lease = VMLease(PRICING["B1.4x8"], start=0.0)
    with pytest.raises(ValueError):
        lease.cost()


def test_meter_lease_release_and_breakdown():
    meter = CostMeter()
    lease = meter.lease("M1.2x16", start=0.0)
    meter.release(lease, 3600.0)
    assert meter.total_cost() == pytest.approx(0.17)
    assert meter.breakdown() == {"M1.2x16": pytest.approx(0.17)}


def test_meter_release_validations():
    meter = CostMeter()
    lease = meter.lease("M1.2x16", start=10.0)
    with pytest.raises(ValueError):
        meter.release(lease, 5.0)
    meter.release(lease, 20.0)
    with pytest.raises(ValueError):
        meter.release(lease, 30.0)


def test_meter_close_all():
    meter = CostMeter()
    meter.lease("B1.4x8", start=0.0)
    meter.lease("B1.4x8", start=0.0)
    meter.close_all(1800.0)
    assert meter.total_cost() == pytest.approx(2 * 0.10)


# -------------------------------------------------------------- collectives
def test_ring_allreduce_single_node_free():
    assert ring_allreduce_time(1e6, 1, 1e9) == 0.0


def test_ring_allreduce_formula():
    # 2 (P-1) (alpha + S/(P B))
    size, nodes, bw, alpha = 8e6, 4, 1e9, 1e-4
    expected = 2 * 3 * (alpha + (size / 4 * 8) / bw)
    assert ring_allreduce_time(size, nodes, bw, alpha) == pytest.approx(expected)


def test_ring_bandwidth_term_shrinks_with_nodes():
    # Bandwidth-optimal: per-node bytes ~ 2S(P-1)/P approaches 2S.
    t4 = ring_allreduce_time(1e8, 4, 1e9, 0.0)
    t64 = ring_allreduce_time(1e8, 64, 1e9, 0.0)
    assert t64 / t4 == pytest.approx((2 * 63 / 64) / (2 * 3 / 4), rel=1e-6)


def test_collective_validation():
    with pytest.raises(ValueError):
        ring_allreduce_time(-1, 2, 1e9)
    with pytest.raises(ValueError):
        ring_allreduce_time(1, 0, 1e9)
    with pytest.raises(ValueError):
        ring_allreduce_time(1, 2, 0)


# -------------------------------------------------------------- VM instance
def test_vm_boot_takes_time():
    env = Environment()
    streams = RandomStreams(seed=0)
    vm = VMInstance(env, streams, "B1.4x8", "vm-0")
    assert not vm.is_up
    env.process(vm.boot())
    env.run()
    assert vm.is_up
    assert 30 < env.now < 200  # ~75 s median


def test_vm_unknown_type_rejected():
    env = Environment()
    with pytest.raises(KeyError):
        VMInstance(env, RandomStreams(0), "Z9.turbo", "vm-0")


def test_vm_compute_multicore_speedup():
    env = Environment()
    vm = VMInstance(env, RandomStreams(0), "B1.4x8", "vm-0")

    def proc():
        start = env.now
        yield from vm.compute(1.0, threads=1)
        single = env.now - start
        start = env.now
        yield from vm.compute(1.0, threads=4)
        multi = env.now - start
        return single, multi

    p = env.process(proc())
    env.run()
    single, multi = p.value
    assert single == pytest.approx(1.0)
    assert multi == pytest.approx(1.0 / (4 * 0.85))


def test_vm_compute_thread_count_capped_at_vcpus():
    env = Environment()
    vm = VMInstance(env, RandomStreams(0), "B1.4x8", "vm-0")

    def proc():
        start = env.now
        yield from vm.compute(1.0, threads=100)
        return env.now - start

    p = env.process(proc())
    env.run()
    assert p.value == pytest.approx(1.0 / (4 * 0.85))

