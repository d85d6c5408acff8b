"""MLLess core: driver, supervisor, workers, ISP filter, scale-in tuner."""

from .adaptive import AdaptiveConfig, AdaptiveController, AdaptiveDecision
from .autotuner import ScaleInScheduler, SchedulerDecision
from .config import AutoTunerConfig, JobConfig
from .curves import CurveFitError, ReferenceCurve, SlowCurve, prediction_error
from .driver import MLLessDriver
from .ewma import EWMAFilter, ewma
from .history import RunResult, perf_per_dollar
from .knee import KneedleDetector, SlopeKneeDetector
from .pipeline import pipeline_stage_loop
from .policies import SyncPolicy, gossip_policy, resolve_policy
from .roles import role_loops
from .runtime import JobRuntime, WorkerCheckpoint
from .significance import SignificanceFilter, threshold_at
from .step_machine import supervisor_machine, worker_machine
from .supervisor import SupervisorState, supervisor_loop
from .worker import train_step, worker_loop

__all__ = [
    "JobConfig",
    "AutoTunerConfig",
    "MLLessDriver",
    "JobRuntime",
    "WorkerCheckpoint",
    "RunResult",
    "perf_per_dollar",
    "SignificanceFilter",
    "threshold_at",
    "ScaleInScheduler",
    "SchedulerDecision",
    "ReferenceCurve",
    "SlowCurve",
    "CurveFitError",
    "prediction_error",
    "EWMAFilter",
    "ewma",
    "SlopeKneeDetector",
    "KneedleDetector",
    "supervisor_loop",
    "worker_loop",
    "train_step",
    "SupervisorState",
    "SyncPolicy",
    "resolve_policy",
    "gossip_policy",
    "worker_machine",
    "supervisor_machine",
    "AdaptiveConfig",
    "AdaptiveController",
    "AdaptiveDecision",
    "pipeline_stage_loop",
    "role_loops",
]
