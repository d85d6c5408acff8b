"""Shared runtime context of one MLLess job.

A :class:`JobRuntime` bundles everything workers and the supervisor need:
the job config, the service handles of whichever execution backend is
running the job (simulated COS/KV/MQ under :mod:`repro.exec.sim`, real
in-process stores under :mod:`repro.exec.local`), queue/key naming
conventions, and the run monitor.  It is passed by reference inside
function payloads — both backends execute in one process.

Also defines :class:`WorkerCheckpoint`, the state a worker persists to the
KV store when it approaches the FaaS duration cap and must be relaunched
as a fresh activation (§3.1 sketches exactly this checkpoint/relaunch
scheme for the supervisor).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..exec.protocols import FaultSink, TracerLike
from ..ml.optim.base import Optimizer
from ..ml.parameters import ParameterSet
from ..sim import Monitor
from ..storage import Exchange, KVStore, MessageQueue, ObjectStore
from ..trace.tracer import NULL_TRACER
from .config import JobConfig
from .significance import SignificanceFilter

__all__ = ["JobRuntime", "WorkerCheckpoint"]

#: queue the supervisor consumes control messages from
SUPERVISOR_QUEUE = "supervisor"


@dataclass
class JobRuntime:
    """Everything shared by the components of one training job."""

    config: JobConfig
    cos: ObjectStore
    kv: KVStore
    mq: MessageQueue
    exchange: Exchange
    bucket: str
    batch_keys: List[str]
    #: per-worker lists of batch indices (round-robin data partition)
    partitions: List[List[int]]
    monitor: Monitor = field(default_factory=Monitor)
    #: the run's :class:`~repro.faults.FaultInjector`, if any — used by
    #: the training components to report recovery actions
    faults: Optional[FaultSink] = None
    #: the run's span tracer (a no-op :data:`~repro.trace.NULL_TRACER`
    #: unless the experiment was started with tracing on)
    tracer: TracerLike = NULL_TRACER

    def note_recovery(self, kind: str) -> None:
        """Count a recovery action in the run's fault statistics."""
        if self.faults is not None:
            self.faults.stats.note_recovered(kind)

    # -- naming conventions ------------------------------------------------
    @property
    def supervisor_queue(self) -> str:
        return SUPERVISOR_QUEUE

    def worker_queue(self, worker: int) -> str:
        return f"worker-{worker}"

    def update_key(self, step: int, worker: int) -> str:
        return f"upd/{step}/{worker}"

    def replica_key(self, step: int, worker: int) -> str:
        return f"departed/{step}/{worker}"

    def checkpoint_key(self, worker: int) -> str:
        return f"ckpt/worker-{worker}"

    # pipeline-parallel keys: ``stage`` is always the *consuming* stage
    def activation_key(self, step: int, micro: int, stage: int) -> str:
        """Micro-batch activation feeding ``stage``'s forward pass."""
        return f"act/{step}/{micro}/{stage}"

    def grad_key(self, step: int, micro: int, stage: int) -> str:
        """Micro-batch output gradient feeding ``stage``'s backward pass."""
        return f"grad/{step}/{micro}/{stage}"

    def label_key(self, step: int, micro: int) -> str:
        """Micro-batch labels, stage 0 -> the last stage's loss."""
        return f"lbl/{step}/{micro}"

    @property
    def supervisor_checkpoint_key(self) -> str:
        return "ckpt/supervisor"


class WorkerCheckpoint:
    """A worker's full state, persisted across activation relaunches."""

    def __init__(
        self,
        worker_id: int,
        step: int,
        params: ParameterSet,
        optimizer: Optimizer,
        sig_filter: SignificanceFilter,
        pending_replica: Optional[Tuple[int, int]] = None,
        active_workers: int = 1,
        last_report: Optional[Dict[str, Any]] = None,
    ):
        self.worker_id = worker_id
        self.step = step
        self.params = params
        self.optimizer = optimizer
        self.sig_filter = sig_filter
        #: (step, worker) of an eviction whose replica is not yet merged
        self.pending_replica = pending_replica
        #: pool size as of the last barrier (scales update contributions)
        self.active_workers = active_workers
        #: the last step_done message published (FT: re-sent on resync when
        #: the original was lost in the queue); excluded from nbytes — it
        #: is a tiny control dict next to the dense tensors
        self.last_report = last_report

    def snapshot(self) -> "WorkerCheckpoint":
        """An independent copy: mutating one never alters the other.

        Equivalent to ``copy.deepcopy(self)``, but copies only the NumPy
        buffers and small containers instead of walking the whole object
        graph: parameters via :meth:`ParameterSet.copy`, optimizer state
        via :meth:`Optimizer.clone`, the filter's allocated accumulators
        via :meth:`SignificanceFilter.clone` (components without a
        ``clone`` fall back to ``deepcopy``).  A worker's periodic
        checkpoint stores a shallow twin and takes this copy for its own
        live state once the KV set has returned, so the copy is never
        alive next to the previous checkpoint; a resumed worker
        snapshots the stored checkpoint it read.
        """
        optimizer = (
            self.optimizer.clone()
            if hasattr(self.optimizer, "clone")
            else copy.deepcopy(self.optimizer)
        )
        sig_filter = (
            self.sig_filter.clone()
            if hasattr(self.sig_filter, "clone")
            else copy.deepcopy(self.sig_filter)
        )
        return WorkerCheckpoint(
            worker_id=self.worker_id,
            step=self.step,
            params=self.params.copy(),
            optimizer=optimizer,
            sig_filter=sig_filter,
            pending_replica=self.pending_replica,
            active_workers=self.active_workers,
            last_report=dict(self.last_report)
            if self.last_report is not None
            else None,
        )

    @property
    def nbytes(self) -> int:
        """Wire size: parameters + optimizer state + filter accumulators.

        The optimizer buffers and the significance accumulators are dense
        tensors of the same shapes as the parameters; a conservative
        estimate charges one parameter-sized tensor for each state slot.
        The accumulator slot is charged even when the filter has not
        allocated it (a ``v = 0`` worker holds none): this is the size
        of the modelled checkpoint, which stores the accumulators, and
        every simulated transfer time and bill is computed from it.
        """
        state_slots = len(getattr(self.optimizer, "_state", {}))
        return self.params.nbytes * (2 + state_slots)
