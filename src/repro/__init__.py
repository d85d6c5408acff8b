"""MLLess reproduction: cost-efficient serverless ML training.

A from-scratch Python reproduction of "Experience Paper: Towards Enhancing
Cost Efficiency in Serverless Machine Learning Training" (Middleware '21):
the MLLess system (ISP significance filter + scale-in auto-tuner), every
substrate it runs on (discrete-event simulated FaaS platform, object/KV/
message-queue storage, VM clusters), both comparison baselines, and the
experiment harness regenerating each table and figure.

The front door is :mod:`repro.api`: the named workloads of the paper's
Table 1 and the calls that build a simulated world and run one job
(this package re-exports the three most used).  The figure harness,
:mod:`repro.experiments`, is not imported here.

Quick start::

    from repro import JobConfig, run_mlless
    from repro.ml.data import movielens_like
    from repro.ml.models import PMF
    from repro.ml.optim import MomentumSGD, InverseSqrtLR

    dataset = movielens_like()
    config = JobConfig(
        model=PMF(1_200, 800, rank=8, rating_offset=3.5),
        make_optimizer=lambda: MomentumSGD(InverseSqrtLR(2.0), nesterov=True),
        dataset=dataset,
        n_workers=8,
        significance_v=0.7,       # ISP filter on
        target_loss=0.75,
    )
    result = run_mlless(config)
    print(result.summary())
"""

from .calibration import Calibration, DEFAULT_CALIBRATION
from .core import (
    AutoTunerConfig,
    JobConfig,
    MLLessDriver,
    RunResult,
    perf_per_dollar,
)
from .api import SimWorld, build_world, run_mlless
from .faults import FAULT_PROFILES, FaultInjector, FaultProfile

__version__ = "1.0.0"

__all__ = [
    "JobConfig",
    "AutoTunerConfig",
    "MLLessDriver",
    "RunResult",
    "perf_per_dollar",
    "run_mlless",
    "build_world",
    "SimWorld",
    "FaultProfile",
    "FaultInjector",
    "FAULT_PROFILES",
    "Calibration",
    "DEFAULT_CALIBRATION",
    "__version__",
]
