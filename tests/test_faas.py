"""Unit tests for the simulated FaaS platform."""

import pytest

from repro.faas import (
    ActivationRecord,
    ActivationTimeout,
    ColdStartModel,
    FaaSBilling,
    FaaSLimits,
    FaaSPlatform,
    FunctionSpec,
    IBM_CLOUD_FUNCTIONS_LIMITS,
)
from repro.sim import Environment, RandomStreams


def make_platform(**kwargs):
    env = Environment()
    streams = RandomStreams(seed=0)
    return env, FaaSPlatform(env, streams, **kwargs)


# ------------------------------------------------------------------ limits
def test_cpu_share_proportional_to_memory():
    limits = IBM_CLOUD_FUNCTIONS_LIMITS
    assert limits.cpu_share(2048) == 1.0
    assert limits.cpu_share(1024) == 0.5
    assert limits.cpu_share(512) == 0.25


def test_cpu_share_capped_at_one_vcpu():
    limits = FaaSLimits(max_memory_mb=4096)
    assert limits.cpu_share(4096) == 1.0


def test_memory_validation():
    limits = IBM_CLOUD_FUNCTIONS_LIMITS
    with pytest.raises(ValueError):
        limits.validate_memory(64)
    with pytest.raises(ValueError):
        limits.validate_memory(4096)


def test_thread_speedup_single_thread_is_one():
    assert IBM_CLOUD_FUNCTIONS_LIMITS.thread_speedup(2048, 1) == 1.0


def test_thread_speedup_two_threads_small_gain_at_full_memory():
    s = IBM_CLOUD_FUNCTIONS_LIMITS.thread_speedup(2048, 2)
    assert 1.0 <= s <= 1.2


def test_thread_speedup_below_one_at_fractional_share():
    # The paper's Fig. 3 observation: 2 threads at 1536 MiB are *slower*.
    s = IBM_CLOUD_FUNCTIONS_LIMITS.thread_speedup(1536, 2)
    assert s < 1.0


def test_thread_speedup_validates():
    with pytest.raises(ValueError):
        IBM_CLOUD_FUNCTIONS_LIMITS.thread_speedup(2048, 0)


# ----------------------------------------------------------------- billing
def test_billed_duration_rounds_up_to_100ms():
    rec = ActivationRecord("f", 0, 2048, start=0.0, end=0.01, cold=False, ok=True)
    assert rec.billed_duration == pytest.approx(0.1)
    rec2 = ActivationRecord("f", 0, 2048, start=0.0, end=0.101, cold=False, ok=True)
    assert rec2.billed_duration == pytest.approx(0.2)
    rec3 = ActivationRecord("f", 0, 2048, start=0.0, end=0.3, cold=False, ok=True)
    assert rec3.billed_duration == pytest.approx(0.3)


def test_cost_matches_table2_rate():
    # Table 2: a 2 GB function costs 3.4e-5 $/s.
    rec = ActivationRecord("f", 0, 2048, start=0.0, end=100.0, cold=False, ok=True)
    assert rec.cost() == pytest.approx(100 * 3.4e-5, rel=1e-6)


def test_cost_scales_with_memory():
    rec = ActivationRecord("f", 0, 1024, start=0.0, end=100.0, cold=False, ok=True)
    assert rec.cost() == pytest.approx(50 * 3.4e-5, rel=1e-6)


def test_billing_aggregates():
    billing = FaaSBilling()
    for i in range(3):
        billing.add(
            ActivationRecord("f", i, 2048, start=0.0, end=10.0, cold=False, ok=True)
        )
    assert billing.total_cost() == pytest.approx(3 * 10 * 3.4e-5)
    assert billing.total_gb_seconds() == pytest.approx(60.0)


def test_billing_cost_up_to_partial_activation():
    billing = FaaSBilling()
    billing.add(
        ActivationRecord("f", 0, 2048, start=0.0, end=100.0, cold=False, ok=True)
    )
    assert billing.cost_up_to(50.0) == pytest.approx(50 * 3.4e-5)
    assert billing.cost_up_to(0.0) == 0.0
    assert billing.cost_up_to(1000.0) == billing.total_cost()


# ---------------------------------------------------------------- platform
def test_invoke_runs_handler_and_returns_result():
    env, platform = make_platform()

    def handler(ctx, payload):
        yield from ctx.compute(0.05)
        return payload * 2

    platform.register(FunctionSpec("double", handler))
    act = platform.invoke("double", 21)
    env.run()
    assert act.result() == 42
    assert act.record is not None and act.record.ok


def test_unregistered_function_rejected():
    env, platform = make_platform()
    with pytest.raises(KeyError):
        platform.invoke("ghost")


def test_duplicate_registration_rejected():
    env, platform = make_platform()

    def handler(ctx, payload):
        yield ctx.env.timeout(0)

    platform.register(FunctionSpec("f", handler))
    with pytest.raises(ValueError):
        platform.register(FunctionSpec("f", handler))


def test_first_invocation_cold_second_warm():
    env, platform = make_platform()

    def handler(ctx, payload):
        yield from ctx.compute(0.01)

    platform.register(FunctionSpec("f", handler))
    a1 = platform.invoke("f")
    env.run()
    a2 = platform.invoke("f")
    env.run()
    assert a1.cold and not a2.cold
    assert a1.record.duration > a2.record.duration


def test_concurrent_invocations_are_cold():
    env, platform = make_platform()

    def handler(ctx, payload):
        yield from ctx.compute(0.1)

    platform.register(FunctionSpec("f", handler))
    acts = [platform.invoke("f") for _ in range(3)]
    env.run()
    assert all(a.cold for a in acts)


def test_warm_container_expires_after_keepalive():
    env, platform = make_platform(
        cold_start=ColdStartModel(keep_alive=10.0)
    )

    def handler(ctx, payload):
        yield from ctx.compute(0.01)

    platform.register(FunctionSpec("f", handler))
    platform.invoke("f")
    env.run()
    env.timeout(100)
    env.run()  # idle past keep-alive
    act = platform.invoke("f")
    env.run()
    assert act.cold


def test_compute_speed_scales_with_memory():
    env, platform = make_platform()

    def handler(ctx, payload):
        start = ctx.now
        yield from ctx.compute(1.0)
        return ctx.now - start

    platform.register(FunctionSpec("full", handler, memory_mb=2048))
    platform.register(FunctionSpec("half", handler, memory_mb=1024))
    a_full = platform.invoke("full")
    a_half = platform.invoke("half")
    env.run()
    assert a_full.result() == pytest.approx(1.0)
    assert a_half.result() == pytest.approx(2.0)


def test_duration_cap_kills_activation():
    env, platform = make_platform(
        limits=FaaSLimits(max_duration_s=1.0)
    )

    def runaway(ctx, payload):
        yield from ctx.compute(100.0)

    platform.register(FunctionSpec("slow", runaway))
    act = platform.invoke("slow")
    env.run()
    with pytest.raises(ActivationTimeout):
        act.result()
    assert act.record is not None and not act.record.ok


def test_failed_handler_surfaces_exception_via_result():
    env, platform = make_platform()

    def broken(ctx, payload):
        yield from ctx.compute(0.01)
        raise RuntimeError("handler bug")

    platform.register(FunctionSpec("broken", broken))
    act = platform.invoke("broken")
    env.run()
    with pytest.raises(RuntimeError, match="handler bug"):
        act.result()


def test_concurrency_cap_enforced():
    env, platform = make_platform(limits=FaaSLimits(max_concurrency=2))

    def handler(ctx, payload):
        yield from ctx.compute(1.0)

    platform.register(FunctionSpec("f", handler))
    platform.invoke("f")
    platform.invoke("f")
    with pytest.raises(RuntimeError, match="concurrency"):
        platform.invoke("f")


def test_map_fans_out():
    env, platform = make_platform()

    def handler(ctx, payload):
        yield from ctx.compute(0.01)
        return payload**2

    platform.register(FunctionSpec("sq", handler))
    acts = platform.map("sq", [1, 2, 3])
    env.run()
    assert [a.result() for a in acts] == [1, 4, 9]


def test_billing_records_every_activation():
    env, platform = make_platform()

    def handler(ctx, payload):
        yield from ctx.compute(0.05)

    platform.register(FunctionSpec("f", handler))
    for _ in range(4):
        platform.invoke("f")
    env.run()
    assert len(platform.billing.records) == 4
    assert platform.billing.total_cost() > 0


def test_services_visible_in_context():
    env = Environment()
    streams = RandomStreams(seed=0)
    platform = FaaSPlatform(env, streams, services={"tag": "hello"})

    def handler(ctx, payload):
        yield from ctx.compute(0.001)
        return ctx.services["tag"]

    platform.register(FunctionSpec("f", handler))
    act = platform.invoke("f")
    env.run()
    assert act.result() == "hello"


def test_running_count_tracks_activations():
    env, platform = make_platform()

    def handler(ctx, payload):
        yield from ctx.compute(1.0)

    platform.register(FunctionSpec("f", handler))
    platform.invoke("f")
    platform.invoke("f")
    env.run(until=0.5)
    assert platform.running_count == 2
    env.run()
    assert platform.running_count == 0
