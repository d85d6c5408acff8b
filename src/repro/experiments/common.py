"""Shared experiment harness utilities.

Each experiment builds a fresh simulation world per run (environment,
RNG streams, services, platform) so runs are fully independent and
deterministic.  :func:`run_mlless` executes one MLLess job;
the baselines expose analogous entry points in :mod:`repro.baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core import JobConfig, JobRuntime, MLLessDriver, RunResult
from ..core.capabilities import BACKENDS, TRACING, WORLD, check
from ..faas import FaaSPlatform
from ..faults import FaultInjector, FaultProfile
from ..pricing import CostMeter
from ..sim import Environment, RandomStreams
from ..storage import Exchange, KVStore, MessageQueue, ObjectStore
from ..trace.tracer import NULL_TRACER, Tracer

__all__ = ["SimWorld", "build_world", "run_mlless", "run_mlless_traced"]

DATA_BUCKET = "training-data"


@dataclass
class SimWorld:
    """A self-contained simulation universe for one run."""

    env: Environment
    streams: RandomStreams
    cos: ObjectStore
    kv: KVStore
    mq: MessageQueue
    platform: FaaSPlatform
    meter: CostMeter
    faults: Optional[FaultInjector] = None
    #: the run's span tracer (no-op unless tracing was requested)
    tracer: object = NULL_TRACER


def build_world(
    seed: int = 0,
    faults: Optional[FaultProfile] = None,
    tracer=None,
) -> SimWorld:
    """Fresh environment + services + FaaS platform + cost meter.

    ``faults`` attaches a deterministic fault injector to the platform and
    every storage service; None (or a no-op profile) builds a world whose
    event schedule is byte-identical to one without any fault machinery.
    ``tracer`` (a :class:`~repro.trace.Tracer`) threads span tracing
    through every service — by design it never perturbs the schedule.
    """
    env = Environment()
    streams = RandomStreams(seed=seed)
    injector = None
    if faults is not None and not faults.is_noop():
        injector = FaultInjector(faults, streams)
    tracer = tracer if tracer is not None else NULL_TRACER
    cos = ObjectStore(env, streams, faults=injector, tracer=tracer)
    kv = KVStore(env, streams, faults=injector, tracer=tracer)
    mq = MessageQueue(env, streams, faults=injector, tracer=tracer)
    platform = FaaSPlatform(env, streams, faults=injector, tracer=tracer)
    meter = CostMeter(faas=platform.billing)
    return SimWorld(
        env, streams, cos, kv, mq, platform, meter, faults=injector, tracer=tracer
    )


def make_runtime(world: SimWorld, config: JobConfig) -> JobRuntime:
    """Stage the dataset and wire up the job's channels."""
    batch_keys = config.dataset.stage(world.cos, DATA_BUCKET)
    exchange = Exchange(world.mq, "mlless-broadcast")
    return JobRuntime(
        config=config,
        cos=world.cos,
        kv=world.kv,
        mq=world.mq,
        exchange=exchange,
        bucket=DATA_BUCKET,
        batch_keys=batch_keys,
        partitions=config.dataset.partition(config.n_workers),
        faults=world.faults,
        tracer=world.tracer,
    )


def run_mlless(
    config: JobConfig,
    world: Optional[SimWorld] = None,
    tracer=None,
    backend: str = "sim",
) -> RunResult:
    """Run one MLLess job on the chosen execution backend.

    ``"sim"`` (default) runs in a fresh (or given) simulation world;
    ``"local"`` runs the same machines for real on threads and ``"procs"``
    on one OS process per role: genuine wall-clock timings, no bill.
    This is the front door to all three: what the job asks for is checked
    against :mod:`repro.core.capabilities` here, before anything is built.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r} (expected one of {BACKENDS})")
    asked = {WORLD: world is not None, TRACING: tracer is not None}
    check(config.features | {row for row, on in asked.items() if on}, backend)
    if backend == "procs":
        from ..exec.procs import run_procs_job

        return run_procs_job(config)
    if backend == "local":
        from ..exec.local import run_local_job

        return run_local_job(config)
    if world is None:
        world = build_world(seed=config.seed, faults=config.faults, tracer=tracer)
    runtime = make_runtime(world, config)
    driver = MLLessDriver(world.env, world.platform, runtime, meter=world.meter)
    return driver.run()


def run_mlless_traced(
    config: JobConfig,
    trace_path: Optional[str] = None,
    world: Optional[SimWorld] = None,
):
    """Run one traced MLLess job; returns ``(result, tracer, world)``.

    When ``trace_path`` is given, writes the Chrome trace there and the
    JSONL dump (with billing records embedded) at ``trace_path + ".jsonl"``.
    """
    if world is not None:
        tracer = world.tracer
        if not tracer.enabled:
            raise ValueError(
                "run_mlless_traced needs a world built with an enabled Tracer"
            )
    else:
        tracer = Tracer()
        world = build_world(seed=config.seed, faults=config.faults, tracer=tracer)
    result = run_mlless(config, world=world)
    if trace_path is not None:
        from ..trace_cli import write_run_trace

        write_run_trace(tracer, trace_path, billing=world.platform.billing)
    return result, tracer, world


def mlless_config(
    workload,
    n_workers: int,
    v: float = 0.0,
    autotune: bool = False,
    target_loss: Optional[float] = None,
    max_steps: int = 1500,
    max_time_s: float = 3600.0,
    seed: int = 3,
    dataset=None,
    autotuner_kwargs: Optional[dict] = None,
    faults: Optional[FaultProfile] = None,
    fault_tolerance: Optional[bool] = None,
    sync: str = "bsp",
    pipeline_stages: int = 1,
    micro_batches: int = 1,
    adaptive_kwargs: Optional[dict] = None,
) -> JobConfig:
    """A :class:`JobConfig` for a named workload (see experiments.settings).

    The scheduling epoch defaults to 5 s (the paper uses 20 s on jobs an
    order of magnitude longer; the ratio epoch/exec-time is preserved),
    with the knee detector tuned for the scaled runs' shorter histories.
    ``sync``/``pipeline_stages``/``micro_batches`` expose the pluggable
    sync policies and the pipeline-parallel execution scheme;
    ``adaptive_kwargs`` overrides :class:`~repro.core.AdaptiveConfig`
    fields when ``sync="adaptive"``.
    """
    from ..core import AdaptiveConfig, AutoTunerConfig

    at_kwargs = {
        "epoch_s": 5.0,
        "delta_s": 2.5,
        "s_threshold": 0.1,
        "knee_slope_threshold": 0.35,
        "knee_patience": 4,
    }
    at_kwargs.update(autotuner_kwargs or {})
    adaptive = None
    if sync == "adaptive":
        adaptive = AdaptiveConfig(**(adaptive_kwargs or {}))
    return JobConfig(
        model=workload.model(),
        make_optimizer=workload.make_optimizer,
        dataset=dataset if dataset is not None else workload.dataset(seed=1),
        n_workers=n_workers,
        sync=sync,
        significance_v=v,
        target_loss=(
            workload.target_loss if target_loss is None else target_loss
        ),
        max_steps=max_steps,
        max_time_s=max_time_s,
        seed=seed,
        autotuner=AutoTunerConfig(enabled=autotune, **at_kwargs),
        faults=faults,
        fault_tolerance=fault_tolerance,
        pipeline_stages=pipeline_stages,
        micro_batches=micro_batches,
        adaptive=adaptive,
    )


def run_serverful_workload(
    workload,
    n_ranks: int,
    target_loss: Optional[float] = None,
    max_steps: int = 1500,
    max_time_s: float = 3600.0,
    seed: int = 3,
    dataset=None,
) -> RunResult:
    """Run the serverful (PyTorch-like) baseline on a workload."""
    from ..baselines import ServerfulConfig, ServerfulTrainer

    world = build_world(seed=seed)
    trainer = ServerfulTrainer(world.env, world.streams, world.cos, meter=world.meter)
    return trainer.run(
        ServerfulConfig(
            model=workload.model(),
            make_optimizer=workload.make_optimizer,
            dataset=dataset if dataset is not None else workload.dataset(seed=1),
            n_ranks=n_ranks,
            target_loss=(
                workload.target_loss if target_loss is None else target_loss
            ),
            max_steps=max_steps,
            max_time_s=max_time_s,
            seed=seed,
        )
    )


def run_pywren_workload(
    workload,
    n_workers: int,
    target_loss: Optional[float] = None,
    max_steps: int = 150,
    max_time_s: float = 3600.0,
    seed: int = 3,
    dataset=None,
) -> RunResult:
    """Run the PyWren-style baseline (step-capped: it converges very slowly)."""
    from ..baselines import PyWrenMLConfig, PyWrenMLTrainer

    world = build_world(seed=seed)
    trainer = PyWrenMLTrainer(world.env, world.platform, world.cos, meter=world.meter)
    return trainer.run(
        PyWrenMLConfig(
            model=workload.model(),
            make_optimizer=workload.make_optimizer,
            dataset=dataset if dataset is not None else workload.dataset(seed=1),
            n_workers=n_workers,
            target_loss=(
                workload.target_loss if target_loss is None else target_loss
            ),
            max_steps=max_steps,
            max_time_s=max_time_s,
            seed=seed,
        )
    )
