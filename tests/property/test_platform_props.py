"""Property-based tests: scheduler invariants of the multi-tenant platform.

Three invariants, exercised over randomized job mixes:

1. **No starvation** — whatever the mix of widths, steps and tenants,
   every submitted job eventually starts and completes (the skip-seal
   mechanism plus validated admission make this a theorem, not a hope).
2. **Admission safety** — at no simulated instant do more concurrently
   executing activations exist than the pool's concurrency cap.
3. **Determinism** — the same submission trace, replayed in a fresh
   world with the same seed, yields a bit-identical event digest.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import (
    FairShareScheduler,
    JobQueue,
    JobRecord,
    JobSpec,
    SharedPool,
    Tenant,
)
from repro.platform.scenario import run_scenario
from repro.scenarios.spec import JobMixSpec, PoolSpec, PricingSpec, TrafficSpec
from repro.sim import Environment, Monitor, RandomStreams
from repro.storage import KVStore

CAP = 3
TENANTS = [
    Tenant("t-a", priority="premium"),
    Tenant("t-b", priority="standard"),
    Tenant("t-c", priority="batch"),
]

job_strategy = st.tuples(
    st.sampled_from(["t-a", "t-b", "t-c"]),   # tenant
    st.integers(min_value=1, max_value=CAP),  # workers
    st.integers(min_value=1, max_value=5),    # steps
    st.floats(min_value=0.05, max_value=0.5), # cpu per step
    st.floats(min_value=0.0, max_value=30.0), # inter-submit gap, seconds
)


def run_mix(jobs, seed=0):
    env = Environment()
    streams = RandomStreams(seed=seed)
    kv = KVStore(env, streams)
    monitor = Monitor(trace=True)
    pool = SharedPool(
        env, streams, kv, concurrency=CAP, memory_grades_mb=(2048,),
        keep_alive_s=120.0, scale_to_zero_after_s=30.0, monitor=monitor,
    )
    scheduler = FairShareScheduler(
        env, pool, queue=JobQueue(), tenants=TENANTS, max_skips=2,
        monitor=monitor,
    )
    records = [
        JobRecord(
            spec=JobSpec(f"{tenant}/j{i}", tenant, workers, steps, cpu),
            ordinal=i,
        )
        for i, (tenant, workers, steps, cpu, _) in enumerate(jobs)
    ]

    def submitter():
        for record, (_, _, _, _, gap) in zip(records, jobs):
            if gap > 0.0:
                yield env.timeout(gap)
            scheduler.submit(record)

    env.process(submitter())
    env.run()
    return records, pool, monitor.trace_digest()


@settings(max_examples=20, deadline=None)
@given(st.lists(job_strategy, min_size=1, max_size=20))
def test_no_job_ever_starves(jobs):
    records, _, _ = run_mix(jobs)
    assert all(r.done and r.ok for r in records)
    assert all(r.started_at is not None for r in records)


@settings(max_examples=20, deadline=None)
@given(st.lists(job_strategy, min_size=1, max_size=20))
def test_concurrency_cap_never_exceeded(jobs):
    _, pool, _ = run_mix(jobs)
    events = []
    for record in pool.platform.billing.records:
        events.append((record.start, 1))
        events.append((record.end, -1))
    live = peak = 0
    for _, delta in sorted(events):
        live += delta
        peak = max(peak, live)
    assert peak <= CAP


@settings(max_examples=10, deadline=None)
@given(st.lists(job_strategy, min_size=1, max_size=12),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_same_submission_trace_yields_identical_digest(jobs, seed):
    records_a, _, digest_a = run_mix(jobs, seed=seed)
    records_b, _, digest_b = run_mix(jobs, seed=seed)
    assert digest_a == digest_b
    assert [r.finished_at for r in records_a] == [
        r.finished_at for r in records_b
    ]


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_full_scenario_digest_is_seed_stable(seed):
    args = (
        seed,
        TrafficSpec(tenants=4, horizon_s=900.0, mean_rate_per_h=12.0),
        JobMixSpec(max_workers=3, min_steps=3, max_steps=8),
        PoolSpec(concurrency=4),
        PricingSpec(),
    )
    first = run_scenario(*args)
    second = run_scenario(*args)
    assert first.digest == second.digest
    assert first.metrics == second.metrics
