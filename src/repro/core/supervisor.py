"""The MLLess supervisor (§3.1).

A serverless function that collects per-step statistics from all workers,
releases the per-step barrier, decides when training has converged, and
drives the scale-in auto-tuner.  Like the workers it checkpoints itself to
the KV store and relaunches when the activation nears the platform's
duration cap (the paper sketches exactly this scheme).

With fault tolerance enabled (``config.ft_enabled``) the supervisor also
owns failure detection: it consumes with a per-step barrier timeout, asks
silent workers to re-sync (re-sending the last barrier release so a worker
whose release was lost can catch up, and letting a worker whose report was
lost re-publish it), tolerates duplicate and late reports idempotently,
checkpoints its state after every barrier, and — after a capped number of
fruitless resyncs — abandons the missing workers so the survivors can make
progress with a smaller pool.

Like the worker, the supervisor is a **backend-neutral machine**
(:func:`supervisor_loop`): all I/O goes through the
:class:`~repro.exec.protocols.ExecutionContext` it is handed, so the same
control loop runs on the simulator and on real threads.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Set

import numpy as np

from ..exec.protocols import ExecutionContext, Machine
from ..storage import StorageError
from . import messages
from .adaptive import AdaptiveConfig, AdaptiveController
from .autotuner import ScaleInScheduler
from .runtime import JobRuntime
from .step_machine import supervisor_machine

__all__ = ["supervisor_loop", "SupervisorState", "barrier_supervisor_epoch"]

#: barrier releases kept for re-sending to lagging workers (steps)
_RELEASE_WINDOW = 4


class SupervisorState:
    """All supervisor state, persistable across relaunches."""

    def __init__(self, runtime: JobRuntime):
        config = runtime.config
        self.active: Set[int] = set(range(config.n_workers))
        self.reports: Dict[int, Dict[int, Dict[str, Any]]] = {}
        self.last_loss: Dict[int, float] = {}
        self.completed_step = 0
        self.last_barrier_time: Optional[float] = None
        self.job_started_at: Optional[float] = None
        self.scheduler = ScaleInScheduler(config.autotuner, config.n_workers)
        self.pending_eviction: Optional[int] = None
        self.stop_reason: Optional[str] = None
        self.final_loss: Optional[float] = None
        #: update keys by step, pending garbage collection
        self.gc_backlog: Dict[int, List[str]] = {}
        #: recent barrier releases by step (FT: re-sent to lagging workers)
        self.releases: Dict[int, Dict[str, Any]] = {}
        #: barrier timeouts seen while waiting on the current step
        self.resyncs_this_step = 0
        #: arrival-skew controller (sync == "adaptive" only)
        self.adaptive: Optional[AdaptiveController] = (
            AdaptiveController(config.adaptive or AdaptiveConfig(), config.n_workers)
            if config.sync == "adaptive"
            else None
        )
        #: set when the controller ordered the switch to the gossip
        #: family; the epoch returns it as the sync_switch handoff
        self.pending_switch: Optional[Dict[str, Any]] = None

    def snapshot(self) -> "SupervisorState":
        """An independent copy safe to hand to the KV store.

        Replaces ``copy.deepcopy``: the containers are copied one level
        deep and the scheduler via :meth:`ScaleInScheduler.clone`.  The
        report/release *message dicts* stay shared — they are immutable
        by convention (published messages are never mutated in place).
        """
        dup = copy.copy(self)
        dup.active = set(self.active)
        dup.reports = {step: dict(by_worker) for step, by_worker in self.reports.items()}
        dup.last_loss = dict(self.last_loss)
        dup.scheduler = self.scheduler.clone()
        dup.gc_backlog = {step: list(keys) for step, keys in self.gc_backlog.items()}
        dup.releases = dict(self.releases)
        if self.adaptive is not None:
            dup.adaptive = self.adaptive.clone()
        return dup

    @property
    def nbytes(self) -> int:
        """Checkpoint wire size: histories dominate (~24 B per step)."""
        return 1024 + 24 * len(self.scheduler._steps) + 64 * len(self.active)


def supervisor_loop(ectx: ExecutionContext, payload: Dict[str, Any]) -> Machine:
    """The supervisor machine entry point (family-dispatching)."""
    return supervisor_machine(ectx, payload)


def barrier_supervisor_epoch(
    ectx: ExecutionContext, payload: Dict[str, Any]
) -> Machine:
    """The barrier supervisor control loop (one policy epoch)."""
    runtime: JobRuntime = payload["runtime"]
    config = runtime.config
    sv = ectx.services
    clock = ectx.clock
    started = clock.now()
    ectx.annotate(role="supervisor")

    if "stored" in payload:
        # Pre-fetched by the step machine's adaptive resume sniff.
        state = payload["stored"]
    elif payload.get("resume"):
        if config.ft_enabled:
            stored = yield sv.kv_get_or_none(runtime.supervisor_checkpoint_key)
            if stored is None:
                # Crashed before the first checkpoint: start over.
                state = SupervisorState(runtime)
                state.job_started_at = clock.now()
                runtime.note_recovery("supervisor_fresh_restart")
            else:
                # Snapshot so this activation's mutations never alias the
                # checkpointed object still sitting in the KV store.
                state = stored.snapshot()
                runtime.note_recovery("supervisor_resumed")
        else:
            state = yield sv.kv_get(runtime.supervisor_checkpoint_key)
    else:
        state = SupervisorState(runtime)
        state.job_started_at = clock.now()
        runtime.monitor.record("workers", clock.now(), len(state.active))

    barrier_timeout = config.barrier_timeout

    while True:
        if barrier_timeout is None:
            message = yield sv.mq_consume(runtime.supervisor_queue)
        else:
            message = yield sv.mq_consume_with_timeout(
                runtime.supervisor_queue, barrier_timeout
            )

        if message is None:
            stop = yield from _handle_barrier_timeout(ectx, runtime, state)
        else:
            mtype = messages.validate(message)
            stop = False
            if mtype == messages.STEP_DONE:
                stop = yield from _handle_step_done(ectx, runtime, state, message)
            elif mtype == messages.DEPARTED:
                _handle_departed(ectx, runtime, state, message)
        if stop:
            return {
                "outcome": "finished",
                "steps": state.completed_step,
                "final_loss": state.final_loss,
                "reason": state.stop_reason,
                "converged": state.stop_reason == "target",
            }
        if state.pending_switch is not None:
            # The controller ordered the switch and the release carrying
            # it went out: hand this epoch's counters to the gossip one.
            return {"outcome": "sync_switch", "handoff": state.pending_switch}

        if clock.remaining_time(started) < config.relaunch_margin_s:
            snapshot = state.snapshot() if config.ft_enabled else state
            yield sv.kv_set(runtime.supervisor_checkpoint_key, snapshot)
            return {"outcome": "relaunch"}


def _handle_step_done(
    ectx: ExecutionContext,
    runtime: JobRuntime,
    state: SupervisorState,
    message: Dict[str, Any],
) -> Machine:
    """Collect a report; release the barrier once every active worker is in.

    Returns True when the stop broadcast went out (job over).
    """
    config = runtime.config
    sv = ectx.services
    step = message["step"]
    worker = message["worker"]

    if config.ft_enabled:
        if worker not in state.active:
            # A worker the pool already gave up on came back: halt it.
            yield sv.mq_publish(
                runtime.worker_queue(worker),
                messages.step_complete(step, True, [], len(state.active)),
            )
            runtime.note_recovery("late_report_halted")
            return False
        if step <= state.completed_step:
            # Duplicate delivery or a report whose release got lost:
            # re-send the stored release so the worker can move on.
            runtime.note_recovery("duplicate_report")
            release = state.releases.get(step)
            if release is not None:
                yield sv.mq_publish(runtime.worker_queue(worker), release)
            return False
        if worker in state.reports.get(step, {}):
            runtime.note_recovery("duplicate_report")

    state.reports.setdefault(step, {})[worker] = message
    state.last_loss[worker] = message["loss"]
    if state.adaptive is not None:
        state.adaptive.note_report(step, worker, ectx.clock.now())
    return (yield from _maybe_release_barrier(ectx, runtime, state, step))


def _maybe_release_barrier(
    ectx: ExecutionContext,
    runtime: JobRuntime,
    state: SupervisorState,
    step: int,
) -> Machine:
    """Release barrier ``step`` if every active worker reported.

    Returns True when the stop broadcast went out (job over).
    """
    config = runtime.config
    sv = ectx.services
    collected = state.reports.get(step, {})
    if set(collected) != state.active or step != state.completed_step + 1:
        return False

    now = ectx.clock.now()
    losses = [m["loss"] for m in collected.values()]
    mean_loss = float(np.mean(losses))
    runtime.monitor.record("loss", now, mean_loss)
    runtime.monitor.record("loss_by_step", step, mean_loss)
    if state.last_barrier_time is not None:
        runtime.monitor.record(
            "step_duration", step, now - state.last_barrier_time
        )
    state.last_barrier_time = now
    state.scheduler.observe(step, now, mean_loss)

    stop, reason = _stop_condition(config, state.job_started_at, step, mean_loss, now)
    evict = None
    if not stop and state.pending_eviction is None:
        decision = state.scheduler.should_evict(now)
        if decision.evict:
            evict = _pick_victim(state)
            if evict is not None and runtime.tracer.enabled:
                runtime.tracer.event(
                    "scale_in",
                    "evict",
                    step=step,
                    victim=evict,
                    reason=decision.reason,
                    s_delta=decision.s_delta,
                )
    switch_to = None
    if state.adaptive is not None and not stop:
        decision = state.adaptive.observe_barrier(step, now, state.active)
        if (
            decision.action == "evict"
            and evict is None
            and state.pending_eviction is None
        ):
            evict = decision.victim
            runtime.monitor.record("adaptive_evict", now, float(evict))
            if runtime.tracer.enabled:
                runtime.tracer.event(
                    "scale_in",
                    "evict",
                    step=step,
                    victim=evict,
                    reason=decision.reason,
                    s_delta=0.0,
                )
        elif decision.action == "switch":
            switch_to = "ssp"

    senders = [w for w, m in sorted(collected.items()) if m["has_update"]]
    next_active = len(state.active) - (1 if evict is not None else 0)
    release = messages.step_complete(
        step, stop, senders, next_active, evict=evict
    )
    if switch_to is not None:
        # Extra keys are schema-legal (validate() checks required fields
        # only); non-adaptive workers never look for them.
        release["switch"] = switch_to
        release["peers"] = sorted(state.active)
    if runtime.tracer.enabled:
        runtime.tracer.event(
            "barrier",
            "release",
            step=step,
            senders=len(senders),
            active=next_active,
            stop=stop,
            mean_loss=mean_loss,
        )
    yield sv.broadcast(release)

    state.completed_step = step
    del state.reports[step]
    if evict is not None:
        state.pending_eviction = evict
        state.active.discard(evict)
    if switch_to is not None:
        runtime.monitor.record("sync_switch", now, 1.0)
        if runtime.tracer.enabled:
            runtime.tracer.event(
                "sync_switch", switch_to, step=step, active=len(state.active)
            )
        state.pending_switch = {
            "completed": state.completed_step,
            "last_time": state.last_barrier_time,
            "job_started_at": state.job_started_at,
            "n_expected": len(state.active),
        }

    # Garbage-collect old update keys: once every worker has pulled the
    # updates of step t (guaranteed after the barrier of step t+2), their
    # KV entries are dead weight.  One core supervisor attribution (§3.1:
    # "among other tasks").  Deletes run detached (a DES process in the
    # simulator, a daemon thread locally) so they never delay the barrier.
    state.gc_backlog[step] = [runtime.update_key(step, w) for w in senders]
    expired = [s for s in state.gc_backlog if s <= step - 2]
    dead_keys = [k for s in expired for k in state.gc_backlog.pop(s)]
    if dead_keys:
        ectx.spawner.spawn(_gc_keys(sv, runtime, dead_keys), name="kv-gc")

    if config.ft_enabled:
        state.releases[step] = release
        for stale in [s for s in state.releases if s <= step - _RELEASE_WINDOW]:
            del state.releases[stale]
        state.resyncs_this_step = 0

    if stop:
        state.stop_reason = reason
        state.final_loss = mean_loss
        return True

    if config.ft_enabled:
        try:
            yield sv.kv_set(runtime.supervisor_checkpoint_key, state.snapshot())
        except StorageError:
            # A lost checkpoint is survivable (we resume one barrier
            # earlier); a dead supervisor is not.
            runtime.note_recovery("checkpoint_skipped")
    return False


def _handle_barrier_timeout(
    ectx: ExecutionContext,
    runtime: JobRuntime,
    state: SupervisorState,
) -> Machine:
    """No message within the barrier timeout: chase the missing workers.

    Returns True when the job is over (everyone abandoned, or the barrier
    released after shrinking the pool).
    """
    config = runtime.config
    sv = ectx.services
    step = state.completed_step + 1
    collected = state.reports.get(step, {})
    missing = sorted(state.active - set(collected))
    if not missing:
        # Quiet for other reasons (e.g. waiting on a DEPARTED message).
        return False

    state.resyncs_this_step += 1
    if state.resyncs_this_step <= config.max_resyncs_per_step:
        release = state.releases.get(state.completed_step)
        for worker in missing:
            yield sv.mq_publish(
                runtime.worker_queue(worker), messages.resync(step, release)
            )
        runtime.note_recovery("resync")
        return False

    # Resync budget exhausted: give up on the silent workers so the
    # survivors can make progress with a smaller pool.
    if runtime.tracer.enabled:
        runtime.tracer.event(
            "scale_in", "abandon", step=step, workers=len(missing)
        )
    for worker in missing:
        state.active.discard(worker)
        sv.unbind(runtime.worker_queue(worker))
        state.scheduler.notify_evicted()
        runtime.note_recovery("worker_abandoned")
    runtime.monitor.record("workers", ectx.clock.now(), len(state.active))
    state.resyncs_this_step = 0
    if not state.active:
        state.stop_reason = "abandoned"
        if state.last_loss:
            state.final_loss = float(np.mean(list(state.last_loss.values())))
        return True
    return (yield from _maybe_release_barrier(ectx, runtime, state, step))


def _stop_condition(config, job_started_at, step, mean_loss, now):
    """``(stop, reason)`` after ``step``: target, then max_steps, then max_time.

    The one stop rule of both supervisor families (barrier and gossip).
    """
    if config.target_loss is not None and mean_loss <= config.target_loss:
        return True, "target"
    if step >= config.max_steps:
        return True, "max_steps"
    if now - job_started_at >= config.max_time_s:
        return True, "max_time"
    return False, ""


def _gc_keys(sv: Any, runtime: JobRuntime, keys: List[str]) -> Machine:
    """Detached background deletion of consumed update keys."""
    try:
        for key in keys:
            yield sv.kv_delete(key)
    except StorageError:
        # Detached machine: an injected storage error here must not crash
        # the backend.  Leaked keys are only garbage, not corruption.
        runtime.note_recovery("gc_abandoned")


def _pick_victim(state: SupervisorState) -> Optional[int]:
    """The worker with the lowest-quality replica = highest reported loss.

    Candidates are sorted so that loss ties break by lowest worker id —
    ``max`` returns the first maximal element, and iterating the
    ``active`` set directly would tie-break by hash order instead.
    """
    candidates = [w for w in sorted(state.active) if w in state.last_loss]
    if not candidates:
        return None
    return max(candidates, key=lambda w: state.last_loss[w])


def _handle_departed(
    ectx: ExecutionContext,
    runtime: JobRuntime,
    state: SupervisorState,
    message: Dict[str, Any],
) -> None:
    worker = message["worker"]
    ectx.services.unbind(runtime.worker_queue(worker))
    state.scheduler.notify_evicted()
    if state.pending_eviction == worker:
        state.pending_eviction = None
    runtime.monitor.record("workers", ectx.clock.now(), len(state.active))
