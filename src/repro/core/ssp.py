"""The gossip synchronization family: SSP workers and supervisor.

The paper's default synchronization is BSP, but §3.1 notes that "less
strict synchronization models such as SSP [13] are easy enough to
integrate".  This module integrates it:

* workers announce each (significance-filtered) update **directly to
  their peers** through the messaging exchange — no per-step barrier;
* a worker at step ``t`` only blocks when the slowest peer is more than
  ``ssp_staleness`` steps behind;
* the supervisor still aggregates per-step losses and broadcasts a
  ``control(stop)`` order when the convergence criterion is met.

The significance filter composes unchanged (ISP-over-SSP); the scale-in
auto-tuner is BSP-only (enforced by :class:`~repro.core.config.JobConfig`).

Like the barrier family, this is a *synchronization policy* of the shared
training core, not a parallel implementation: the per-step fetch →
compute → gradient → filter → publish sequence is
:func:`repro.core.worker.train_step`, driven by the same
:func:`repro.core.step_machine.worker_machine` skeleton.  This module
contributes the **gossip family** phases (:class:`GossipWorkerPhases`:
drain + staleness gate / peer broadcast) and the gossip supervisor epoch
— which the adaptive mode also enters mid-job after a ``sync_switch``
handoff, with the pool size it inherited from the barrier phase.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..exec.protocols import ExecutionContext, Machine
from . import messages
from .policies import SCALE_CONFIGURED, SyncPolicy
from .runtime import JobRuntime, WorkerCheckpoint
from .step_machine import StepSpans
from .supervisor import _stop_condition
from .worker import _fresh_checkpoint

__all__ = ["GossipWorkerPhases"]


class _SSPView:
    """A worker's view of peer progress and pending control orders."""

    def __init__(self, worker_id: int, n_workers: int):
        self.peer_progress: Dict[int, int] = {
            p: 0 for p in range(n_workers) if p != worker_id
        }
        self.stop = False

    def slowest_peer_step(self) -> int:
        if not self.peer_progress:
            return 10**12  # no peers: never blocks
        return min(self.peer_progress.values())

    @property
    def nbytes(self) -> int:
        """Wire size when checkpointed alongside the worker state."""
        return 16 + 16 * len(self.peer_progress)


def _handle_message(
    sv: Any,
    runtime: JobRuntime,
    state: WorkerCheckpoint,
    view: _SSPView,
    message: Dict[str, Any],
) -> Machine:
    mtype = messages.validate(message)
    if mtype == messages.UPDATE_AVAILABLE:
        peer, step = message["worker"], message["step"]
        view.peer_progress[peer] = max(view.peer_progress.get(peer, 0), step)
        if message["has_update"]:
            update = yield sv.kv_get(runtime.update_key(step, peer))
            state.params.apply(update)
    elif mtype == messages.CONTROL:
        if message["command"] == "stop":
            view.stop = True
    else:
        raise RuntimeError(f"SSP worker got unexpected {mtype!r}")


class GossipWorkerPhases:
    """The gossip (SSP, and post-switch adaptive) worker phases."""

    def __init__(
        self, ectx: ExecutionContext, runtime: JobRuntime, policy: SyncPolicy
    ):
        self.ectx = ectx
        self.runtime = runtime
        self.policy = policy
        self.view: _SSPView = None
        self.partition: List[int] = []
        self.my_queue = ""
        self.started = 0.0

    def restore(self, payload: Dict[str, Any]) -> Machine:
        """Fresh replica + view, checkpoint resume, or barrier handoff."""
        runtime = self.runtime
        config = runtime.config
        sv = self.ectx.services
        worker_id: int = payload["worker_id"]
        self.started = self.ectx.clock.now()

        if "handoff" in payload:
            # Mid-job switch from the barrier family: the replica is
            # live and every peer finished the same barrier, so the
            # staleness gate starts satisfied.
            handoff = payload["handoff"]
            state = handoff["state"]
            view = _SSPView(worker_id, config.n_workers)
            view.peer_progress = {p: handoff["step"] for p in handoff["peers"]}
        elif "stored" in payload:
            # Pre-fetched by the step machine's adaptive resume sniff.
            state, view = payload["stored"]
        elif payload.get("resume"):
            state, view = yield sv.kv_get(runtime.checkpoint_key(worker_id))
        else:
            state = _fresh_checkpoint(runtime, worker_id)
            view = _SSPView(worker_id, config.n_workers)

        self.view = view
        self.partition = runtime.partitions[worker_id]
        self.my_queue = runtime.worker_queue(worker_id)
        return state

    def begin(self, state: WorkerCheckpoint, t: int) -> Machine:
        """Drain delivered peer traffic, then hold the staleness gate."""
        sv = self.ectx.services
        runtime = self.runtime
        view = self.view
        worker_id = state.worker_id

        # Drain everything already delivered (peer updates, stop orders).
        pending = yield sv.mq_drain(self.my_queue)
        for message in pending:
            yield from _handle_message(sv, runtime, state, view, message)
        if view.stop:
            return {"worker": worker_id, "steps": state.step, "outcome": "stopped"}

        # The staleness gate: block until the slowest peer is close enough.
        while (t - 1) - view.slowest_peer_step() > self.policy.staleness:
            message = yield sv.mq_consume(self.my_queue)
            yield from _handle_message(sv, runtime, state, view, message)
            if view.stop:
                return {
                    "worker": worker_id,
                    "steps": state.step,
                    "outcome": "stopped",
                }
        return None

    def scale(self, state: WorkerCheckpoint) -> float:
        # Plain SSP averages over the *configured* pool (no auto-tuner);
        # a post-switch adaptive job keeps averaging over the workers
        # that actually remain after barrier-phase evictions.
        if self.policy.scale_mode == SCALE_CONFIGURED:
            return 1.0 / self.runtime.config.n_workers
        return 1.0 / state.active_workers

    def synchronize(
        self,
        state: WorkerCheckpoint,
        t: int,
        loss: float,
        outgoing,
        has_update: bool,
        spans: StepSpans,
    ) -> Machine:
        """Announce the update to the peers, report to the supervisor."""
        sv = self.ectx.services
        runtime = self.runtime
        worker_id = state.worker_id
        yield sv.broadcast(
            messages.update_available(worker_id, t, has_update),
            exclude=self.my_queue,
        )
        yield sv.mq_publish(
            runtime.supervisor_queue,
            messages.step_done(worker_id, t, loss, has_update, outgoing.nnz),
        )
        state.step = t
        return None

    def persist(self, state: WorkerCheckpoint, t: int) -> Machine:
        """Relaunch near the duration cap (state and view together)."""
        ectx = self.ectx
        config = self.runtime.config
        if ectx.clock.remaining_time(self.started) < config.relaunch_margin_s:
            yield ectx.services.kv_set(
                self.runtime.checkpoint_key(state.worker_id), (state, self.view)
            )
            return {"worker": state.worker_id, "steps": t, "outcome": "relaunch"}
        return None


def gossip_supervisor_epoch(
    ectx: ExecutionContext, payload: Dict[str, Any]
) -> Machine:
    """The gossip supervisor epoch (loss aggregation + stop order).

    Collects ``step_done`` reports; a step is *complete* once every
    expected worker has reported it.  Completion times give the
    loss/step-duration series; the stop condition matches the barrier
    supervisor's.  After an adaptive handoff the expected pool is
    whatever survived the barrier phase, and the loss/step series
    continue unbroken from the barrier epoch's counters.
    """
    runtime: JobRuntime = payload["runtime"]
    config = runtime.config
    sv = ectx.services
    clock = ectx.clock
    started = clock.now()

    if "handoff" in payload:
        handoff = payload["handoff"]
        state = {
            "reports": {},        # step -> {worker: loss}
            "completed": handoff["completed"],
            "last_time": handoff["last_time"],
            "job_started_at": handoff["job_started_at"],
            "n_expected": handoff["n_expected"],
        }
    elif "stored" in payload:
        # Pre-fetched by the step machine's adaptive resume sniff.
        state = payload["stored"]
    elif payload.get("resume"):
        state = yield sv.kv_get(runtime.supervisor_checkpoint_key)
    else:
        state = {
            "reports": {},        # step -> {worker: loss}
            "completed": 0,
            "last_time": None,
            "job_started_at": clock.now(),
        }
        runtime.monitor.record("workers", clock.now(), config.n_workers)

    # Plain SSP expects the configured pool; a post-switch epoch expects
    # the pool the barrier phase handed over.
    expected = state.get("n_expected", config.n_workers)

    while True:
        message = yield sv.mq_consume(runtime.supervisor_queue)
        if messages.validate(message) != messages.STEP_DONE:
            continue
        step, worker = message["step"], message["worker"]
        state["reports"].setdefault(step, {})[worker] = message["loss"]

        next_step = state["completed"] + 1
        while (
            next_step in state["reports"]
            and len(state["reports"][next_step]) == expected
        ):
            now = clock.now()
            mean_loss = float(np.mean(list(state["reports"][next_step].values())))
            runtime.monitor.record("loss", now, mean_loss)
            runtime.monitor.record("loss_by_step", next_step, mean_loss)
            if state["last_time"] is not None:
                runtime.monitor.record(
                    "step_duration", next_step, now - state["last_time"]
                )
            state["last_time"] = now
            del state["reports"][next_step]
            state["completed"] = next_step

            stop, reason = _stop_condition(
                config, state["job_started_at"], next_step, mean_loss, now
            )
            if stop:
                yield sv.broadcast(messages.control("stop"))
                return {
                    "outcome": "finished",
                    "steps": state["completed"],
                    "final_loss": mean_loss,
                    "reason": reason,
                    "converged": reason == "target",
                }
            next_step = state["completed"] + 1

        if clock.remaining_time(started) < config.relaunch_margin_s:
            yield sv.kv_set(runtime.supervisor_checkpoint_key, state)
            return {"outcome": "relaunch"}
