"""The front door: the named workloads and the calls that build and run a job.

Everything that trains one model goes through here — the ``repro run``
command, the scenario compiler, the determinism oracle, the examples and
the paper-figure harness in :mod:`repro.experiments`.

**Workloads** (Table 1 of the paper, scaled for local runs): exactly the
paper's model/dataset/optimizer pairings.

=======  ==================  ========================  =================
Model    Dataset             Optimizer                 Setting
=======  ==================  ========================  =================
LR       Criteo(-like)       Adam                      B = 6,250
PMF      ML-10M(-like)       SGD + Nesterov momentum   B = 6,250, r = 20
PMF      ML-20M(-like)       SGD + Nesterov momentum   B = 12K,  r = 20
=======  ==================  ========================  =================

The datasets are synthetic stand-ins (see DESIGN.md) scaled so each
simulated run finishes in seconds of real time; batch sizes scale with
them.  Worker counts keep the paper's 12/24 pairs.  Loss-threshold targets
are re-derived for the synthetic data (the paper's absolute thresholds are
dataset-specific): each target sits in the late-but-not-floor region of
the loss curve, the same regime the paper's thresholds occupy.

**Job builders.** Each run builds a fresh simulation world (environment,
RNG streams, services, platform) so runs are fully independent and
deterministic.  :func:`run_mlless` executes one MLLess job on any
backend; :func:`run_serverful_workload` and :func:`run_pywren_workload`
run the two baselines of :mod:`repro.baselines` on a workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from .core import JobConfig, JobRuntime, MLLessDriver, RunResult
from .core.capabilities import BACKENDS, TRACING, WORLD, check
from .faas import FaaSPlatform
from .faults import FaultInjector, FaultProfile
from .ml.data import (
    CriteoSpec,
    Dataset,
    MLPSpec,
    MovieLensSpec,
    criteo_like,
    mlp_synth,
    movielens_like,
)
from .ml.models import LayeredMLP, LogisticRegression, PMF
from .ml.models.base import Model
from .ml.optim import Adam, InverseSqrtLR, MomentumSGD
from .ml.optim.base import Optimizer
from .pricing import CostMeter
from .sim import Environment, RandomStreams
from .storage import Exchange, KVStore, MessageQueue, ObjectStore
from .trace.tracer import NULL_TRACER

__all__ = [
    "Workload",
    "WORKLOADS",
    "make_workload",
    "SimWorld",
    "build_world",
    "make_runtime",
    "mlless_config",
    "run_mlless",
    "run_serverful_workload",
    "run_pywren_workload",
]


@dataclass(frozen=True)
class Workload:
    """A named (model, dataset, optimizer, targets) bundle."""

    name: str
    make_model: Callable[[], Model]
    make_optimizer: Callable[[], Optimizer]
    make_dataset: Callable[[int], Dataset]
    #: mini-batch size (per worker; fixed under weak scaling)
    batch_size: int
    #: convergence threshold used when running "until convergence"
    target_loss: float
    #: a stricter threshold for the long-horizon comparison (Fig. 6)
    deep_target_loss: float
    metric: str = "loss"
    description: str = ""

    def dataset(self, seed: int = 0) -> Dataset:
        """``make_dataset(seed)``; the e2e benchmark's job builder calls it."""
        return self.make_dataset(seed)


# ---------------------------------------------------------------------------
# LR on Criteo-like data (Adam).  Paper: B=6250, BCE target 0.58.
# ---------------------------------------------------------------------------

_CRITEO_SPEC = CriteoSpec(
    n_samples=48_000,
    n_numeric=13,
    n_categorical=26,
    n_hash_buckets=40_000,
    batch_size=500,
    positive_rate=0.25,
    label_noise=0.05,
)

_LR_FEATURES = _CRITEO_SPEC.n_numeric + _CRITEO_SPEC.n_hash_buckets


def _lr_criteo() -> Workload:
    return Workload(
        name="lr-criteo",
        make_model=lambda: LogisticRegression(_LR_FEATURES, l2=1e-5),
        make_optimizer=lambda: Adam(lr=0.02),
        make_dataset=lambda seed: criteo_like(_CRITEO_SPEC, seed=seed),
        batch_size=_CRITEO_SPEC.batch_size,
        target_loss=0.42,
        deep_target_loss=0.38,
        metric="bce",
        description="sparse logistic regression, Criteo-like CTR data",
    )


# ---------------------------------------------------------------------------
# PMF on MovieLens-like data (SGD + Nesterov).  Paper: r=20,
# RMSE targets 0.82 (run-until-convergence) and 0.738 (deep, ML-10M).
# ---------------------------------------------------------------------------

_ML10M_SPEC = MovieLensSpec(
    n_users=2_000,
    n_movies=4_000,
    n_ratings=160_000,
    rank=10,
    batch_size=500,
    noise=0.40,
)

_ML20M_SPEC = MovieLensSpec(
    n_users=3_000,
    n_movies=8_000,
    n_ratings=320_000,
    rank=10,
    batch_size=500,
    noise=0.40,
)

def _pmf(
    name: str, spec: MovieLensSpec, target: float, deep: float, rank: int = 16
) -> Workload:
    return Workload(
        name=name,
        make_model=lambda: PMF(
            spec.n_users, spec.n_movies, rank=rank, l2=0.02, rating_offset=3.5
        ),
        make_optimizer=lambda: MomentumSGD(
            lr=InverseSqrtLR(16.0), momentum=0.9, nesterov=True
        ),
        make_dataset=lambda seed: movielens_like(spec, seed=seed),
        batch_size=spec.batch_size,
        target_loss=target,
        deep_target_loss=deep,
        metric="rmse",
        description=f"probabilistic matrix factorization, {name} data",
    )


def _pmf_ml10m() -> Workload:
    return _pmf("pmf-ml10m", _ML10M_SPEC, target=0.70, deep=0.66, rank=16)


def _pmf_ml20m() -> Workload:
    # The larger job also uses a larger factor rank, so its per-step
    # updates (and therefore its communication share) are the biggest of
    # the three workloads — it is where the paper sees ISP's 3x peak.
    return _pmf("pmf-ml20m", _ML20M_SPEC, target=0.72, deep=0.69, rank=24)


# ---------------------------------------------------------------------------
# Layered MLP on dense synthetic regression data (Adam).  Not a Table 1
# workload: this is the dense model-parallel job (FuncPipe-style stages,
# see PAPERS.md) and the data-parallel cross-backend reference.  Four
# weight layers so it splits into up to four pipeline stages.
# ---------------------------------------------------------------------------

_MLP_SPEC = MLPSpec(
    n_samples=8_000,
    n_features=32,
    hidden=(24, 24),
    n_outputs=1,
    batch_size=400,
    noise=0.1,
)

_MLP_SIZES = [_MLP_SPEC.n_features, 64, 64, 32, _MLP_SPEC.n_outputs]


def _mlp_synth() -> Workload:
    return Workload(
        name="mlp-synth",
        make_model=lambda: LayeredMLP(_MLP_SIZES),
        make_optimizer=lambda: Adam(lr=0.01),
        make_dataset=lambda seed: mlp_synth(_MLP_SPEC, seed=seed),
        batch_size=_MLP_SPEC.batch_size,
        target_loss=0.02,
        deep_target_loss=0.008,
        metric="mse",
        description="dense layered MLP, planted-teacher regression data",
    )


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "lr-criteo": _lr_criteo,
    "pmf-ml10m": _pmf_ml10m,
    "pmf-ml20m": _pmf_ml20m,
    "mlp-synth": _mlp_synth,
}


def make_workload(name: str, **overrides) -> Workload:
    """Build a workload by name, optionally overriding fields."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[name]()
    return replace(workload, **overrides) if overrides else workload


# ---------------------------------------------------------------------------
# Job builders.
# ---------------------------------------------------------------------------

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
        from .exec.procs import run_procs_job

        return run_procs_job(config)
    if backend == "local":
        from .exec.local import run_local_job

        return run_local_job(config)
    if world is None:
        world = build_world(seed=config.seed, faults=config.faults, tracer=tracer)
    runtime = make_runtime(world, config)
    driver = MLLessDriver(world.env, world.platform, runtime, meter=world.meter)
    return driver.run()


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
    """A :class:`JobConfig` for a named workload (see :data:`WORKLOADS`).

    The scheduling epoch defaults to 5 s (the paper uses 20 s on jobs an
    order of magnitude longer; the ratio epoch/exec-time is preserved),
    with the knee detector tuned for the scaled runs' shorter histories.
    ``sync``/``pipeline_stages``/``micro_batches`` expose the pluggable
    sync policies and the pipeline-parallel execution scheme;
    ``adaptive_kwargs`` overrides :class:`~repro.core.AdaptiveConfig`
    fields when ``sync="adaptive"``.
    """
    from .core import AdaptiveConfig, AutoTunerConfig

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
        model=workload.make_model(),
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
    from .baselines import ServerfulConfig, ServerfulTrainer

    world = build_world(seed=seed)
    trainer = ServerfulTrainer(world.env, world.streams, world.cos, meter=world.meter)
    return trainer.run(
        ServerfulConfig(
            model=workload.make_model(),
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
    from .baselines import PyWrenMLConfig, PyWrenMLTrainer

    world = build_world(seed=seed)
    trainer = PyWrenMLTrainer(world.env, world.platform, world.cos, meter=world.meter)
    return trainer.run(
        PyWrenMLConfig(
            model=workload.make_model(),
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
