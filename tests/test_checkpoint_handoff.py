"""A worker checkpoint is handed to the KV store first and copied after.

``BarrierWorkerPhases.persist`` gives the KV set a shallow twin of the
live :class:`WorkerCheckpoint`; only once the set has returned does the
live replica move to private copies.  A ``v = 0`` filter allocates no
accumulator, so BSP checkpoints carry none.  These tests hold the facts
both rest on: what is shared while the set is in flight and what is not
afterwards, what a failed set leaves in the store, and which filters
allocate.  ``naive_persist`` is the snapshot-before-the-set form it
replaced, kept as the reference: a fault-storm run must be bit-identical
whichever of the two the workers run.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import JobConfig, MLLessDriver
from repro.core.filters import DropInsignificantFilter
from repro.core.policies import resolve_policy
from repro.core.significance import SignificanceFilter
from repro.core.worker import BarrierWorkerPhases, _fresh_checkpoint
from repro.exec.protocols import ExecutionContext, Services
from repro.exec.sim import drive
from repro import api
from repro.api import build_world, make_runtime
from repro.faults import FaultInjector, FaultProfile
from repro.ml import ModelUpdate, ParameterSet
from repro.ml.data import MovieLensSpec, movielens_like
from repro.ml.models import PMF
from repro.ml.optim import InverseSqrtLR, MomentumSGD
from repro.ml.sparse import SparseDelta
from repro.scenarios import compiler, load_spec_text, run_scenario_spec
from repro.scenarios.cli import list_templates
from repro.storage import KVStore, StorageError

BENCH_FAULT_STORM = Path(__file__).parents[1] / "benchmarks/e2e/workloads/fault_storm.toml"
SEEDS = range(20)

SPEC = MovieLensSpec(n_users=60, n_movies=50, n_ratings=3_000, rank=3, batch_size=400)


def _config(v, **overrides):
    return JobConfig(
        model=PMF(SPEC.n_users, SPEC.n_movies, rank=4, l2=0.02, rating_offset=3.5),
        make_optimizer=lambda: MomentumSGD(lr=InverseSqrtLR(8.0), momentum=0.9),
        dataset=movielens_like(SPEC, seed=2),
        n_workers=3,
        significance_v=v,
        target_loss=None,
        max_steps=12,
        seed=0,
        fault_tolerance=True,
        **overrides,
    )


def _sparse_update(rng, params):
    deltas = {}
    for name in params.names:
        idx = np.unique(rng.integers(0, params[name].size, size=40))
        deltas[name] = SparseDelta(idx, 0.01 * rng.standard_normal(len(idx)), params[name].shape)
    return ModelUpdate(deltas)


def _train(state, rng, steps):
    """``steps`` local steps of the worker's optimizer and filter."""
    for _ in range(steps):
        state.step += 1
        update = state.optimizer.step(state.params, _sparse_update(rng, state.params), state.step)
        state.params.apply(update)
        state.sig_filter.step(state.params, update, state.step)
        state.last_report = {"type": "step_done", "step": state.step}


def _buffers(ckpt):
    """Every array a checkpoint owns, as (label, array) pairs."""
    out = [(f"params/{name}", ckpt.params[name]) for name in ckpt.params.names]
    for slot, per_slot in sorted(ckpt.optimizer._state.items()):
        out += [(f"optim/{slot}/{name}", buf) for name, buf in sorted(per_slot.items())]
    out += [(f"filter/{name}", acc) for name, acc in sorted(ckpt.sig_filter._acc.items())]
    return out


def _image(ckpt):
    """Byte image of a checkpoint: every buffer and the scalar fields."""
    return (
        [(label, buf.tobytes()) for label, buf in _buffers(ckpt)],
        (ckpt.worker_id, ckpt.step, ckpt.active_workers, ckpt.pending_replica),
        dict(ckpt.last_report),
    )


def _shared(a, b):
    """Labels of the buffers ``a`` and ``b`` share memory in."""
    return sorted(
        label
        for label, buf in _buffers(a)
        for other_label, other in _buffers(b)
        if label == other_label and np.shares_memory(buf, other)
    )


class _WatchedKV(KVStore):
    """A KV store that calls ``watch(value)`` as each set starts."""

    watch = None

    def set(self, key, value):
        if self.watch is not None:
            self.watch(value)
        yield from super().set(key, value)


class _Clock:
    def __init__(self, env):
        self.env = env

    def now(self):
        return self.env.now

    def remaining_time(self, started_at):
        return 1e9  # never near the duration cap: no relaunch


@pytest.fixture
def job():
    """A worker of a BSP-or-ISP job with a live, warmed replica."""
    config = _config(0.5)
    world = build_world(seed=0)
    world.kv = _WatchedKV(world.env, world.streams)
    runtime = make_runtime(world, config)
    services = Services(world.cos, world.kv, world.mq, None, None, None)
    ectx = ExecutionContext(services, _Clock(world.env), None)
    phases = BarrierWorkerPhases(ectx, runtime, resolve_policy(config))
    state = _fresh_checkpoint(runtime, 0)
    _train(state, np.random.default_rng(7), 3)
    assert state.sig_filter._acc  # v > 0: the filter holds residuals
    return world, runtime, phases, state


def _persist(world, phases, state):
    proc = world.env.process(drive(phases.persist(state, state.step)))
    world.env.run()
    assert proc.ok, proc.value
    assert proc.value is None  # no relaunch
    return world.kv.peek(phases.runtime.checkpoint_key(state.worker_id))


def test_a_bsp_filter_allocates_no_accumulator():
    rng = np.random.default_rng(3)
    params = ParameterSet({"U": np.ones((30, 4)), "M": np.ones((20, 4))})
    bsp = SignificanceFilter(0.0, params.shapes())
    drop = DropInsignificantFilter(0.5, params.shapes())
    for t in range(1, 9):
        update = _sparse_update(rng, params)
        params.apply(update)
        passed = bsp.step(params, update, t)
        for name, delta in update:
            assert passed[name].indices.tobytes() == delta.indices.tobytes()
        drop.step(params, update, t)
    for filt in (bsp, bsp.clone(), drop, drop.clone()):
        assert filt._acc == {}
        assert {n: a.tobytes() for n, a in filt.accumulated.items()} == {
            n: np.zeros(shape).tobytes() for n, shape in params.shapes().items()
        }


def test_a_bsp_job_checkpoints_no_accumulator():
    config = _config(0.0)
    world = build_world(seed=0)
    runtime = make_runtime(world, config)
    MLLessDriver(world.env, world.platform, runtime, meter=world.meter).run()
    stored = [world.kv.peek(runtime.checkpoint_key(w)) for w in range(config.n_workers)]
    assert all(ckpt.step > 0 for ckpt in stored)
    assert all(ckpt.sig_filter._acc == {} for ckpt in stored)


def test_the_stored_twin_shares_buffers_only_while_the_set_is_in_flight(job):
    world, runtime, phases, state = job
    every_buffer = sorted(label for label, _buf in _buffers(state))
    in_flight = []
    world.kv.watch = lambda value: in_flight.append(
        (value is not state, _shared(value, state), _image(value) == _image(state))
    )
    stored = _persist(world, phases, state)
    assert in_flight == [(True, every_buffer, True)]

    assert _shared(stored, state) == []
    assert stored.last_report is not state.last_report
    image = _image(stored)
    assert image == _image(state)

    state.last_report["step"] = -1
    _train(state, np.random.default_rng(8), 2)
    for _label, buf in _buffers(state):
        buf += 1.0
    assert _image(stored) == image
    assert _image(stored) != _image(state)


def test_a_failed_set_leaves_the_previous_checkpoint_untouched(job):
    world, runtime, phases, state = job
    first = _persist(world, phases, state)
    image = _image(first)

    _train(state, np.random.default_rng(9), 2)
    injector = FaultInjector(
        FaultProfile(kv_error_rate=1.0, max_storage_retries=0), world.streams
    )
    world.kv.faults = runtime.faults = injector
    assert _persist(world, phases, state) is first
    assert injector.stats.recovered["checkpoint_skipped"] == 1
    assert _image(first) == image

    for _label, buf in _buffers(state):
        buf += 1.0
    assert _image(first) == image


# -- bit identity against the snapshot-before-the-set reference -----------
def naive_persist(self, state, t):
    """``BarrierWorkerPhases.persist`` as it was: snapshot, then set."""
    ectx = self.ectx
    runtime = self.runtime
    config = runtime.config
    sv = ectx.services
    worker_id = state.worker_id

    checkpointed = False
    ckpt_every = config.checkpoint_every
    if ckpt_every and t % ckpt_every == 0:
        try:
            yield sv.kv_set(runtime.checkpoint_key(worker_id), state.snapshot())
            checkpointed = True
        except StorageError:
            runtime.note_recovery("checkpoint_skipped")

    if ectx.clock.remaining_time(self.started) < config.relaunch_margin_s:
        if not checkpointed:
            yield sv.kv_set(runtime.checkpoint_key(worker_id), state)
        return {"worker": worker_id, "steps": t, "outcome": "relaunch"}
    return None


def _observe(persist, spec, seed):
    """What a fault-storm run shows with ``persist`` in the workers: the
    KPI payload, the Monitor trace digest, the fault and recovery counts
    and every billed activation (``repr`` of a float is exact)."""
    worlds, runtimes = [], []

    def recording_build_world(*args, **kwargs):
        worlds.append(build_world(*args, **kwargs))
        return worlds[-1]

    def tracing_make_runtime(world, config):
        runtimes.append(make_runtime(world, config))
        runtimes[-1].monitor.enable_trace()
        return runtimes[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BarrierWorkerPhases, "persist", persist)
        patch.setattr(compiler, "build_world", recording_build_world)
        patch.setattr(api, "make_runtime", tracing_make_runtime)
        payload = run_scenario_spec(spec, seed=seed)
    (world,), (runtime,) = worlds, runtimes
    return (
        payload,
        runtime.monitor.trace_digest(),
        world.faults.stats.summary(),
        repr(world.platform.billing.records),
    )


def _assert_same_run(spec, seed):
    new = _observe(BarrierWorkerPhases.persist, spec, seed)
    assert new == _observe(naive_persist, spec, seed)
    payload = new[0]
    assert payload["kpis"]["faults_injected"] > 0
    return new[2]


def test_fault_storm_seeds_are_bit_identical_to_snapshot_before_the_set():
    path = dict(list_templates())["fault-storm"]
    spec = load_spec_text(path.read_text(encoding="utf-8"), origin=path.name)
    recovered = {}
    for seed in SEEDS:
        for kind, n in _assert_same_run(spec, seed).items():
            recovered[kind] = recovered.get(kind, 0) + n
    # Crashed workers resumed from the checkpoints the hand-off stored
    # (a failed checkpoint set needs five failed tries in a row, which no
    # seed here draws: the direct test above covers that path).
    assert recovered["recovery.worker_resumed"] > 0


def test_the_benchmark_fault_storm_is_bit_identical_to_snapshot_before_the_set():
    spec = load_spec_text(BENCH_FAULT_STORM.read_text(encoding="utf-8"), origin="fault_storm.toml")
    _assert_same_run(spec, spec.seed)
