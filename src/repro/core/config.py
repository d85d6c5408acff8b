"""Job configuration for MLLess training runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, FrozenSet, Optional, Tuple

from ..calibration import Calibration, DEFAULT_CALIBRATION
from ..faults import FaultProfile
from ..ml.data.dataset import Dataset
from ..ml.models.base import Model
from ..ml.optim.base import Optimizer
from . import capabilities as cap
from .adaptive import AdaptiveConfig

__all__ = ["AutoTunerConfig", "JobConfig", "pipeline_shape_error"]


@dataclass(frozen=True)
class AutoTunerConfig:
    """Scale-in scheduler parameters (§4.2).

    The paper's evaluation uses a 20 s scheduling epoch with the horizon
    ``delta`` fixed at half the epoch (10 s), and never scales below a
    floor of workers.
    """

    enabled: bool = False
    #: scheduling interval T, seconds
    epoch_s: float = 20.0
    #: decision horizon Delta (<= epoch), seconds
    delta_s: float = 10.0
    #: scale-in condition: remove a worker while s_Delta(t) < S
    s_threshold: float = 0.05
    #: never scale below this many workers
    min_workers: int = 2
    #: knee detection method: "slope" (the paper's threshold heuristic)
    #: or "kneedle" (Satopaa et al. [34], pluggable per §4.2)
    knee_method: str = "slope"
    #: knee detector: slope threshold relative to peak slope
    knee_slope_threshold: float = 0.2
    #: knee detector: consecutive flat steps required
    knee_patience: int = 5
    #: EWMA smoothing factor applied to losses before fitting (a constant:
    #: no run varies it)
    ewma_alpha: ClassVar[float] = 0.3
    #: ablation switch: scale in immediately, ignoring the knee gate
    ignore_knee_gate: bool = False
    #: curve family for the slow region: "quadratic" (Eq. 3, default) or
    #: "power" (reuse Eq. 2) — exercised by the curve-family ablation
    slow_curve_family: str = "quadratic"

    def __post_init__(self):
        if self.epoch_s <= 0:
            raise ValueError(f"epoch_s must be > 0, got {self.epoch_s}")
        if not 0 < self.delta_s <= self.epoch_s:
            raise ValueError(
                f"delta_s must be in (0, epoch_s], got {self.delta_s}"
            )
        if self.min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {self.min_workers}")
        if self.slow_curve_family not in ("quadratic", "power"):
            raise ValueError(
                f"unknown slow_curve_family {self.slow_curve_family!r}"
            )
        if self.knee_method not in ("slope", "kneedle"):
            raise ValueError(f"unknown knee_method {self.knee_method!r}")
        if self.enabled:
            # Pay for the curve fitter while the job is configured (set-up,
            # and before a procs fork), not in the supervisor's first knee fit.
            import scipy.optimize  # noqa: F401


def pipeline_shape_error(model: Model, n_workers: int, stages: int) -> Optional[Tuple[str, str]]:
    """``(offending JobConfig field, why)`` if ``model`` cannot run as ``stages``
    pipeline stages on ``n_workers`` workers, else None.  Shared with the spec layer."""
    if n_workers != stages:
        return "n_workers", ("pipeline mode maps one stage per worker function: "
                             f"n_workers ({n_workers}) must equal pipeline_stages ({stages})")
    if not hasattr(model, "stage_layers"):
        return "model", (f"model {type(model).__name__} is not stageable "
                         "(needs stage_layers/stage_forward/stage_backward)")
    try:  # an unpartitionable depth (more stages than layers) fails here, not mid-job
        model.stage_layers(stages)
    except ValueError as exc:
        return "pipeline_stages", str(exc)
    return None


@dataclass
class JobConfig:
    """Everything needed to run one MLLess training job."""

    model: Model
    #: factory, not an instance: each worker owns independent state
    make_optimizer: Callable[[], Optimizer]
    dataset: Dataset
    n_workers: int
    #: significance threshold v; 0 selects plain BSP
    significance_v: float = 0.0
    #: synchronization protocol: "bsp" (per-step barrier, the paper's
    #: default), "ssp" (Stale Synchronous Parallel [13], the relaxation
    #: §3.1 notes is "easy enough to integrate") or "adaptive" (SMLT-style:
    #: start under the barrier, switch to gossip mid-job when the
    #: supervisor's AdaptiveController sees sustained arrival skew); what
    #: each composes with is declared in :mod:`repro.core.capabilities`
    sync: str = "bsp"
    #: SSP bound: a worker may run at most this many steps ahead of the
    #: slowest peer
    ssp_staleness: int = 2
    #: stop when the (mean per-batch) training loss reaches this value
    target_loss: Optional[float] = None
    max_steps: int = 5000
    seed: int = 0
    autotuner: AutoTunerConfig = field(default_factory=AutoTunerConfig)
    calibration: Calibration = DEFAULT_CALIBRATION
    #: reintegrate an evicted worker's replica by model averaging (the
    #: paper's eviction policy for v > 0); ablation switch
    reintegrate_on_evict: bool = True
    #: optional factory for an alternative update filter (ablations):
    #: called with the parameter shapes dict; None selects the paper's
    #: SignificanceFilter(significance_v)
    make_filter: Optional[Callable] = None
    #: fault profile injected into the platform and storage services;
    #: None (or a no-op profile) keeps the simulation byte-identical to a
    #: run without any fault machinery
    faults: Optional[FaultProfile] = None
    #: force the fault-tolerance machinery on/off; None = on iff ``faults``
    #: can actually inject something
    fault_tolerance: Optional[bool] = None
    #: model-parallel pipeline depth; 1 = ordinary data parallelism, > 1
    #: partitions the model's layers across ``pipeline_stages`` stage
    #: functions (n_workers must equal pipeline_stages) that forward
    #: micro-batch activations/gradients through the KV store (FuncPipe)
    pipeline_stages: int = 1
    #: micro-batches per step in pipeline mode (>= 2 overlaps stages)
    micro_batches: int = 1
    #: controller knobs for sync == "adaptive"; None = AdaptiveConfig()
    adaptive: Optional[AdaptiveConfig] = None

    # -- constants -----------------------------------------------------------
    # Every run uses these values, so they are not fields; a test that needs
    # another one patches the class attribute.
    #: give up after this much simulated time, seconds
    max_time_s: ClassVar[float] = 3600.0
    #: simulated-time margin before the FaaS duration cap at which a
    #: function checkpoints its state and is relaunched as a fresh one
    relaunch_margin_s: ClassVar[float] = 30.0
    #: supervisor barrier timeout (FT mode) before it suspects lost workers
    #: or messages, seconds
    barrier_timeout_s: ClassVar[float] = 15.0
    #: driver-level relaunch budget per role (FT mode), with exponential
    #: backoff from ``retry_backoff_base_s`` capped at ``retry_backoff_cap_s``
    max_invoke_retries: ClassVar[int] = 4
    retry_backoff_base_s: ClassVar[float] = 0.25
    retry_backoff_cap_s: ClassVar[float] = 4.0
    #: barrier timeouts tolerated per step before the supervisor abandons
    #: the missing workers and shrinks the pool
    max_resyncs_per_step: ClassVar[int] = 8
    #: how long a worker polls for a departed peer's replica before giving
    #: up (FT mode only — the peer may have crashed before storing it)
    reintegrate_deadline_s: ClassVar[float] = 60.0

    #: field -> its inclusive lower bound
    _AT_LEAST = dict(n_workers=1, significance_v=0, max_steps=1, ssp_staleness=0,
                     pipeline_stages=1, micro_batches=1)

    def __post_init__(self):
        for name, low in self._AT_LEAST.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.n_workers > len(self.dataset):
            raise ValueError(
                f"{self.n_workers} workers but only {len(self.dataset)} "
                f"mini-batches; every worker needs at least one"
            )
        if self.sync not in ("bsp", "ssp", "adaptive"):
            raise ValueError(f"unknown sync protocol {self.sync!r}")
        cap.check(self.features)
        if self.pipeline_stages > 1:
            problem = pipeline_shape_error(self.model, self.n_workers, self.pipeline_stages)
            if problem is not None:
                raise ValueError(problem[1])

    @property
    def features(self) -> FrozenSet[str]:
        """The capability-table rows this job switches on."""
        on = {
            cap.SSP: self.sync == "ssp",
            cap.ADAPTIVE: self.sync == "adaptive",
            cap.ISP: self.significance_v != 0,
            cap.AUTOTUNE: self.autotuner.enabled,
            cap.PIPELINE: self.pipeline_stages > 1,
            cap.FAULTS: self.faults is not None and not self.faults.is_noop(),
            cap.CRASH_RECOVERY: self.ft_enabled,
        }
        return frozenset(feature for feature, is_on in on.items() if is_on)

    @property
    def sync_model(self) -> str:
        """"bsp" (v == 0) or "isp"."""
        return "bsp" if self.significance_v == 0 else "isp"

    # -- fault tolerance ---------------------------------------------------
    @property
    def ft_enabled(self) -> bool:
        """Whether the recovery machinery (timeouts, checkpoints) is on."""
        if self.fault_tolerance is not None:
            return self.fault_tolerance
        return self.faults is not None and not self.faults.is_noop()

    @property
    def barrier_timeout(self) -> Optional[float]:
        """Supervisor consume timeout, or None when FT is off."""
        return self.barrier_timeout_s if self.ft_enabled else None
