"""Role selection: which machine runs in each role of a job.

Every backend (the FaaS driver, the thread backend, the process
backend) launches one supervisor and ``n_workers`` workers; this is the
one place that says which machine each of those is.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from .pipeline import pipeline_stage_loop
from .supervisor import supervisor_loop
from .worker import worker_loop

__all__ = ["role_loops"]


def role_loops(config: Any) -> Tuple[Callable, Callable]:
    """``(worker loop, supervisor loop)`` for a job configuration.

    The synchronization policy (BSP/ISP, SSP, adaptive) is chosen inside
    the shared step machine, so it does not pick a different entry
    point; only model parallelism does — each "worker" slot then runs
    one pipeline stage, under the ordinary barrier supervisor.
    """
    worker = pipeline_stage_loop if config.pipeline_stages > 1 else worker_loop
    return worker, supervisor_loop
