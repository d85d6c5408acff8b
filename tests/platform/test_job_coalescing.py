"""A platform worker's coalesced compute, held against the per-step loop.

``training_job_machine`` charges the steps between two KV publishes as
one compute event, whose end time is built from the same float additions
that one event per step would produce.  ``naive_training_job_machine``
is the per-step loop it replaced, kept here as the reference: every
observable of a platform run — Monitor trace, metrics, invoices,
container log, billed activations, job records, KV contents and the
final clock — must be bit-identical whichever machine the pool drives.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.protocols import ExecutionContext, Services
from repro.exec.sim import drive
from repro.faas import FaaSPlatform
from repro.faas.function import InvocationContext
from repro.platform import JobRecord, JobSpec, SharedPool, training_job_machine
from repro.platform import pool as pool_module
from repro.platform import scenario as scenario_module
from repro.platform.scenario import ScenarioResult, run_isolated_baseline, run_scenario
from repro.scenarios import load_spec_text
from repro.scenarios.cli import list_templates
from repro.scenarios.spec import JobMixSpec, PoolSpec, PricingSpec, TrafficSpec
from repro.sim import Environment, Interrupt, RandomStreams
from repro.storage import KVStore

from .test_scenario_bench import DEFAULT, SMALL

PLATFORM_TEMPLATES = ("diurnal-multi-tenant", "spot-capacity-crunch")
SEEDS = range(20)


def naive_training_job_machine(ctx, payload):
    """The per-step loop: one compute charge per step."""
    job_id = payload["job_id"]
    tenant_id = payload["tenant_id"]
    worker = payload["worker"]
    steps = payload["steps"]
    step_cpu_s = payload["step_cpu_s"]
    sync_every = payload.get("sync_every", 0)
    ctx.annotate(job=job_id, tenant=tenant_id, worker=worker)
    services = ctx.services
    prefix = f"platform/{job_id}/w{worker}/"
    for step in range(steps):
        yield services.compute(step_cpu_s)
        if sync_every and (step + 1) % sync_every == 0:
            yield services.kv_set(f"{prefix}u{step + 1}", float(step + 1))
    # Final model shard publish: the job's result artifact.
    yield services.kv_set(f"{prefix}final", float(steps))
    return {"job": job_id, "worker": worker, "steps": steps}


def _bits(value):
    """``value`` with every float spelled ``float.hex``: equal means bit-equal."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return _bits(dataclasses.astuple(value))
    if isinstance(value, dict):
        return sorted((key, _bits(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


def _pool_state(pool):
    platform = pool.platform
    kv = pool.runtime.kv
    return (
        pool.env.now,
        platform.container_log,
        platform.billing.records,
        kv._data,
        kv.metrics.summary(),
    )


def _observe(machine, run, *args):
    """What a caller of ``run(*args)`` can see, with ``machine`` in the pool.

    Returns ``(bits, events)``: the observables with floats as hex, and
    the kernel events the run scheduled (summed over its environments).
    """
    pools = []
    make_pool = scenario_module._make_pool

    def recording_make_pool(*a, **kw):
        pools.append(make_pool(*a, **kw))
        return pools[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool_module, "training_job_machine", machine)
        patch.setattr(scenario_module, "_make_pool", recording_make_pool)
        out = run(*args)
    if isinstance(out, ScenarioResult):
        out = (out.digest, out.monitor.trace, out.metrics, out.report, out.records)
    bits = _bits((out, [_pool_state(pool) for pool in pools]))
    return bits, sum(pool.env._seq for pool in pools)


def assert_same_run(run, *args):
    """``run(*args)`` is bit-identical under both machines; returns the
    (coalesced, per-step) kernel event counts."""
    new, new_events = _observe(training_job_machine, run, *args)
    old, old_events = _observe(naive_training_job_machine, run, *args)
    assert new == old
    assert new_events <= old_events
    return new_events, old_events


def _template_sections(name):
    path = dict(list_templates())[name]
    spec = load_spec_text(path.read_text(encoding="utf-8"), origin=path.name)
    return spec.seed, (spec.traffic, spec.jobs, spec.pool, spec.pricing)


@pytest.mark.parametrize("name", PLATFORM_TEMPLATES)
def test_template_runs_are_bit_identical_across_seeds(name):
    seed, sections = _template_sections(name)
    for s in sorted({seed, *SEEDS}):
        new_events, old_events = assert_same_run(run_scenario, s, *sections)
        assert new_events < old_events  # the per-step machine really ran
    assert_same_run(run_isolated_baseline, seed, *sections)


@pytest.mark.parametrize("args", [SMALL, DEFAULT], ids=["SMALL", "DEFAULT"])
def test_bench_sections_are_bit_identical(args):
    assert_same_run(run_scenario, *args)
    assert_same_run(run_isolated_baseline, *args)


@st.composite
def job_mixes(draw):
    """``[jobs]`` sections whose sync interval is off, every step, longer
    than any job, or ragged (every job ends on a short last interval)."""
    kind = draw(st.sampled_from(["off", "every", "longer", "ragged"]))
    max_steps = draw(st.integers(min_value=1, max_value=30))
    min_steps = draw(st.integers(min_value=1, max_value=max_steps))
    if kind == "off":
        sync_every = 0
    elif kind == "every":
        sync_every = 1
    elif kind == "longer":
        sync_every = draw(st.integers(min_value=max_steps + 1, max_value=2 * max_steps + 1))
    else:
        sync_every = draw(st.integers(min_value=2, max_value=9))
        full = draw(st.integers(min_value=0, max_value=3))
        min_steps = max_steps = full * sync_every + draw(
            st.integers(min_value=1, max_value=sync_every - 1)
        )
    return JobMixSpec(
        max_workers=draw(st.integers(min_value=1, max_value=4)),
        min_steps=min_steps,
        max_steps=max_steps,
        step_cpu_median_s=draw(st.floats(min_value=0.01, max_value=2.0)),
        step_cpu_sigma=draw(st.floats(min_value=0.0, max_value=1.0)),
        sync_every=sync_every,
    )


@settings(max_examples=30, deadline=None)
@given(jobs=job_mixes(), seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_any_job_mix_is_bit_identical(jobs, seed):
    assert_same_run(
        run_scenario,
        seed,
        TrafficSpec(tenants=4, horizon_s=1200.0, mean_rate_per_h=20.0),
        jobs,
        PoolSpec(concurrency=4),
        PricingSpec(),
    )


def _capped_job(machine, cap_s):
    """One 2-worker job whose activations hit a ``cap_s`` duration cap."""
    env = Environment()
    streams = RandomStreams(seed=3)
    pool = SharedPool(
        env, streams, KVStore(env, streams), concurrency=2,
        memory_grades_mb=(1024,), label="pool",
    )
    platform = pool.platform
    platform.limits = dataclasses.replace(platform.limits, max_duration_s=cap_s)
    spec = JobSpec("t/j0", "t", n_workers=2, steps=12, step_cpu_s=0.7,
                   memory_mb=1024, sync_every=5)
    record = JobRecord(spec=spec, ordinal=0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool_module, "training_job_machine", machine)
        pool.launch(record, lambda _record: None)
        env.run()
    return record, pool


def test_a_duration_cap_mid_interval_fails_at_the_same_time_with_the_same_bill():
    # 1024 MB is half a vCPU: 1.4 s per step, a 5-step interval is 7 s,
    # so a 10 s cap lands inside each worker's second interval.
    cap_s = 10.0
    record, pool = _capped_job(training_job_machine, cap_s)
    old_record, old_pool = _capped_job(naive_training_job_machine, cap_s)
    assert _bits((record, _pool_state(pool))) == _bits(
        (old_record, _pool_state(old_pool))
    )
    billing = pool.platform.billing
    assert billing.total_cost().hex() == old_pool.platform.billing.total_cost().hex()
    assert not record.ok
    assert [r.ok for r in billing.records] == [False, False]
    assert sorted(pool.runtime.kv._data) == [
        "platform/t/j0/w0/u5", "platform/t/j0/w1/u5",
    ]


def _per_step(ctx, cpu_seconds, steps):
    for _ in range(steps):
        yield from ctx.compute(cpu_seconds)


@pytest.mark.parametrize("walls", [1.5, 2, 3], ids=["mid-step", "step-end", "charge-end"])
@pytest.mark.parametrize("charge", [InvocationContext.compute, _per_step], ids=["one", "per-step"])
def test_an_interrupted_charge_leaves_the_clock_where_per_step_charges_do(charge, walls):
    env = Environment()
    ctx = InvocationContext(env, FaaSPlatform(env, RandomStreams(seed=0)), "f", 0, 1024)
    wall = 0.25 / ctx.cpu_share
    at = wall * 1.5 if walls == 1.5 else sum([wall] * walls, 0.0)
    caught = []

    def interrupter():
        # Started first, so its timeout wins a tie with the charge's own.
        yield env.timeout(at)
        worker.interrupt("cap")
        try:
            yield worker
        except Interrupt:
            caught.append(env.now)

    env.process(interrupter())
    worker = env.process(charge(ctx, 0.25, 3))
    env.run()
    per_step_end = 0.0
    while per_step_end < at:
        per_step_end += wall
    assert (caught, env.now) == ([at], per_step_end)


@pytest.mark.parametrize(
    "steps, sync_every",
    [(20, 5), (23, 5), (7, 0), (7, 1), (7, 10), (1, 3), (10, 10)],
)
def test_a_job_worker_schedules_one_compute_event_per_sync_interval(steps, sync_every):
    env = Environment()
    streams = RandomStreams(seed=0)
    kv = KVStore(env, streams)
    ctx = InvocationContext(env, FaaSPlatform(env, streams), "f", 0, 2048)
    charges = []

    def counting_compute(cpu_seconds, run=1):
        # Nothing else runs in this world, so every event scheduled while
        # the charge is pending is the charge's own.
        before = env._seq
        yield from ctx.compute(cpu_seconds, run)
        charges.append((run, env._seq - before))

    services = Services(None, kv, None, None, counting_compute, ctx.sleep)
    payload = {"job_id": "j", "tenant_id": "t", "worker": 0, "steps": steps,
               "step_cpu_s": 0.25, "sync_every": sync_every}
    machine = training_job_machine(ExecutionContext(services, None, None), payload)
    env.process(drive(machine))
    env.run()
    assert len(charges) == (math.ceil(steps / sync_every) if sync_every else 1)
    assert all(events == 1 for _, events in charges)
    assert sum(run for run, _ in charges) == steps
    assert kv.metrics.total_requests == (steps // sync_every if sync_every else 0) + 1


def test_an_absolute_timeout_fires_at_its_own_float():
    # 1.3 + 1.1 + 1.1 is not 1.3 + ((1.3 + 1.1 + 1.1) - 1.3): the kernel
    # must keep the caller's float, not round it through a relative delay.
    now, at = 1.3, 1.3 + 1.1 + 1.1
    assert now + (at - now) != at
    env = Environment(initial_time=now)
    fired = []
    env._timeout_at(at).callbacks.append(lambda event: fired.append(env.now))
    env.run()
    assert fired == [at]
