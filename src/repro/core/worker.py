"""The MLLess serverless worker (§3.2 "Job execution").

Each worker keeps a local replica of the model and repeats, per step:

1. merge a departed peer's replica if an eviction completed last step
   (model averaging, §4.2 "Eviction policy");
2. fetch its next mini-batch from the object store;
3. compute the local gradient (CPU time charged through the backend's
   ``compute`` service, real numpy arithmetic);
4. run the optimizer, apply the update locally, and push the
   *significant* part of the accumulated update to the KV store
   (BSP pushes everything — v = 0);
5. announce completion to the supervisor over the messaging service;
6. block on the supervisor's ``step_complete`` barrier release, then pull
   and apply the peers' updates listed in it.

When the activation nears the platform's 10-minute cap, the worker
checkpoints its state to the KV store and returns a relaunch marker; the
driver re-invokes it as a fresh activation that resumes from the
checkpoint.

The worker is a **backend-neutral machine**: a plain-Python generator
that performs all I/O by yielding :data:`~repro.exec.protocols.ServiceCall`
tokens minted by its :class:`~repro.exec.protocols.ExecutionContext` —
never DES events, sockets, or the host clock directly.  The same machine
runs bit-identically on the simulator (:mod:`repro.exec.sim`) and for
real on threads (:mod:`repro.exec.local`).

Since the step-machine refactor the per-step skeleton lives in
:func:`repro.core.step_machine.worker_machine`; this module contributes
the **barrier family** of its policy phases
(:class:`BarrierWorkerPhases`: restore / reintegrate / barrier
synchronize / checkpoint-and-relaunch) plus the step core
:func:`train_step`, which every synchronization policy shares — BSP, SSP
and adaptive differ only in what surrounds the step, never in the step
itself.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List

import numpy as np

from ..exec.protocols import ExecutionContext, Machine
from ..storage import StorageError
from ..trace.tracer import NO_SPAN
from . import messages
from .policies import SyncPolicy
from .runtime import JobRuntime, WorkerCheckpoint
from .significance import SignificanceFilter
from .step_machine import StepSpans, worker_machine

__all__ = ["worker_loop", "train_step", "BarrierWorkerPhases"]


def _fresh_checkpoint(runtime: JobRuntime, worker_id: int) -> WorkerCheckpoint:
    """Initial worker state: identical model replica on every worker."""
    config = runtime.config
    rng = np.random.default_rng(config.seed)  # same seed => same init
    params = config.model.init_params(rng)
    if config.make_filter is not None:
        sig_filter = config.make_filter(params.shapes())
    else:
        sig_filter = SignificanceFilter(config.significance_v, params.shapes())
    return WorkerCheckpoint(
        worker_id=worker_id,
        step=0,
        params=params,
        optimizer=config.make_optimizer(),
        sig_filter=sig_filter,
        active_workers=config.n_workers,
    )


def train_step(
    ectx: ExecutionContext,
    runtime: JobRuntime,
    state: WorkerCheckpoint,
    partition: List[int],
    t: int,
    scale: float,
) -> Machine:
    """One local training step, shared by every synchronization policy.

    Fetch the next mini-batch → charge compute → gradient → optimizer
    step scaled by ``scale`` (gradient averaging, §3.2) → apply locally →
    significance-filter → publish the significant part to the KV store.

    ``scale`` is the only algorithmic knob the synchronization policies
    disagree on — see :attr:`~repro.core.policies.SyncPolicy.scale_mode`.

    Returns ``(loss, outgoing, has_update)``.
    """
    sv = ectx.services
    config = runtime.config
    model = config.model
    worker_id = state.worker_id

    batch_idx = partition[(t - 1) % len(partition)]
    batch = yield sv.cos_get(runtime.bucket, runtime.batch_keys[batch_idx])

    # Local gradient — real arithmetic; CPU time charged via the backend
    # (simulated seconds from the calibrated flop model, or genuinely
    # elapsed wall time in the local backend).
    yield sv.compute(
        config.calibration.mlless_step_seconds(model.sparse_step_flops(batch))
    )
    loss, grad = model.gradient(state.params, batch)

    update = state.optimizer.step(state.params, grad, t).scale(scale)
    state.params.apply(update)
    outgoing = state.sig_filter.step(state.params, update, t)
    has_update = not outgoing.is_empty()
    if ectx.tracer.enabled:
        ectx.tracer.event(
            "filter.decision",
            "significance",
            worker=worker_id,
            step=t,
            significant=has_update,
            nnz=int(outgoing.nnz),
        )
    if has_update:
        yield sv.kv_set(runtime.update_key(t, worker_id), outgoing)
    return loss, outgoing, has_update


class BarrierWorkerPhases:
    """The barrier (BSP/ISP, and pre-switch adaptive) worker phases."""

    def __init__(
        self, ectx: ExecutionContext, runtime: JobRuntime, policy: SyncPolicy
    ):
        self.ectx = ectx
        self.runtime = runtime
        self.policy = policy
        self.partition: List[int] = []
        self.my_queue = ""
        self.started = 0.0

    def restore(self, payload: Dict[str, Any]) -> Machine:
        """Fresh replica, or resume from the KV checkpoint."""
        ectx = self.ectx
        runtime = self.runtime
        config = runtime.config
        sv = ectx.services
        worker_id: int = payload["worker_id"]
        self.started = ectx.clock.now()
        ectx.annotate(worker=worker_id, role="worker")

        if "stored" in payload:
            # The step machine already fetched the checkpoint to sniff
            # which policy family wrote it (adaptive resume).
            state = payload["stored"]
        elif payload.get("resume"):
            if config.ft_enabled:
                stored = yield sv.kv_get_or_none(runtime.checkpoint_key(worker_id))
                if stored is None:
                    # Crashed before the first checkpoint: start over.
                    state = _fresh_checkpoint(runtime, worker_id)
                    runtime.note_recovery("worker_fresh_restart")
                else:
                    # Snapshot so this activation's mutations never alias
                    # the checkpointed object still sitting in the KV store.
                    state = stored.snapshot()
                    runtime.note_recovery("worker_resumed")
            else:
                state = yield sv.kv_get(runtime.checkpoint_key(worker_id))
        else:
            state = _fresh_checkpoint(runtime, worker_id)

        self.partition = runtime.partitions[worker_id]
        self.my_queue = runtime.worker_queue(worker_id)
        return state

    def begin(self, state: WorkerCheckpoint, t: int) -> Machine:
        """Pending reintegration of an evicted peer's replica."""
        if state.pending_replica is not None:
            yield from _reintegrate(self.ectx, self.runtime, state)
        return None

    def scale(self, state: WorkerCheckpoint) -> float:
        # The *current* pool size: barrier pools shrink under scale-in.
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
        """Report to the supervisor, block on its release, pull peers."""
        ectx = self.ectx
        runtime = self.runtime
        config = runtime.config
        sv = ectx.services
        tracer = ectx.tracer
        worker_id = state.worker_id

        # The barrier span's self time is the genuine peer wait — the
        # queue wait in mq.consume happens before its charge span.
        if tracer.enabled:
            spans.barrier = tracer.begin(
                "barrier", f"barrier-{t}", worker=worker_id, step=t
            )
        report = messages.step_done(worker_id, t, loss, has_update, outgoing.nnz)
        if config.ft_enabled:
            # Kept so a lost report can be re-published on resync.
            state.last_report = report
        yield sv.mq_publish(runtime.supervisor_queue, report)

        if config.ft_enabled:
            release = yield from _await_release(sv, runtime, state, self.my_queue, t)
        else:
            release = yield sv.mq_consume(self.my_queue)
            if messages.validate(release) != messages.STEP_COMPLETE:
                raise RuntimeError(f"worker {worker_id}: unexpected {release!r}")
            if release["step"] != t:
                raise RuntimeError(
                    f"worker {worker_id}: barrier for step {release['step']} "
                    f"while at step {t}"
                )
        if spans.barrier >= 0:
            tracer.end(spans.barrier)
            spans.barrier = NO_SPAN
        peer_updates = []
        for peer in release["senders"]:
            if peer == worker_id:
                continue
            peer_updates.append((yield sv.kv_get(runtime.update_key(t, peer))))
        # Fused scatter, bit-identical to applying one update at a time in
        # sender order (see ParameterSet.apply_many).  Peers must NOT be
        # pre-merged into one update: (w + v1) + v2 != w + (v1 + v2) in
        # floats, and the convergence traces are checked bit-exactly.
        state.params.apply_many(peer_updates)

        state.step = t
        state.active_workers = release["active"]

        evicted = release["evict"]
        if evicted == worker_id:
            yield from _depart(sv, runtime, state)
            return {"worker": worker_id, "steps": t, "outcome": "evicted"}
        if evicted is not None:
            state.pending_replica = (t, evicted)

        if release["stop"]:
            return {"worker": worker_id, "steps": t, "outcome": "converged"}

        if self.policy.name == "adaptive" and release.get("switch") == "ssp":
            # The controller ordered the sync switch: hand the live
            # replica to the gossip family (peers are at step t too).
            return {
                "outcome": "sync_switch",
                "handoff": {
                    "step": t,
                    "peers": [p for p in release["peers"] if p != worker_id],
                },
            }
        return None

    def persist(self, state: WorkerCheckpoint, t: int) -> Machine:
        """FT checkpoint at every barrier; relaunch near the duration cap."""
        ectx = self.ectx
        runtime = self.runtime
        config = runtime.config
        sv = ectx.services
        worker_id = state.worker_id

        # FT: a checkpoint at every barrier so a crashed activation resumes
        # from the last completed step instead of from scratch.  The KV
        # store holds objects by reference, so the stored checkpoint and
        # the live replica must not share buffers once the worker moves
        # on.  The set gets a shallow twin: this machine is parked while
        # the set is in flight, so nothing mutates the shared buffers, and
        # only once the store owns them does the live replica continue on
        # copies (two model-sized copies of the worker alive, not three).
        checkpointed = False
        if config.ft_enabled:
            stored = copy.copy(state)
            try:
                yield sv.kv_set(runtime.checkpoint_key(worker_id), stored)
            except StorageError:
                # A lost checkpoint only costs recomputation after a crash.
                runtime.note_recovery("checkpoint_skipped")
            else:
                checkpointed = True
                vars(state).update(vars(stored.snapshot()))

        # Relaunch before the platform kills the activation.
        if ectx.clock.remaining_time(self.started) < config.relaunch_margin_s:
            if not checkpointed:
                yield sv.kv_set(runtime.checkpoint_key(worker_id), state)
            return {"worker": worker_id, "steps": t, "outcome": "relaunch"}
        return None


def worker_loop(ectx: ExecutionContext, payload: Dict[str, Any]) -> Machine:
    """The worker machine entry point (barrier families by default)."""
    return worker_machine(ectx, payload)


def _await_release(
    sv: Any,
    runtime: JobRuntime,
    state: WorkerCheckpoint,
    my_queue: str,
    t: int,
) -> Machine:
    """FT barrier wait: tolerate stale releases, duplicates and resyncs.

    Returns the ``step_complete`` message for step ``t``.
    """
    worker_id = state.worker_id
    while True:
        message = yield sv.mq_consume(my_queue)
        mtype = messages.validate(message)
        if mtype == messages.STEP_COMPLETE:
            if message["step"] == t:
                return message
            if message["step"] < t:
                # Re-delivered or re-sent release for a step already done.
                runtime.note_recovery("stale_release_skipped")
                continue
            raise RuntimeError(
                f"worker {worker_id}: barrier for step {message['step']} "
                f"while at step {t}"
            )
        if mtype == messages.RESYNC:
            release = message.get("release")
            if release is not None and release["step"] == t:
                # Our copy of the release was lost: use the re-sent one.
                runtime.note_recovery("release_recovered")
                return release
            if (
                message["step"] == t
                and state.last_report is not None
                and state.last_report["step"] == t
            ):
                # The supervisor never saw our report: re-publish it.
                yield sv.mq_publish(runtime.supervisor_queue, state.last_report)
                runtime.note_recovery("report_republished")
            continue
        raise RuntimeError(f"worker {worker_id}: unexpected {message!r}")


def _reintegrate(
    ectx: ExecutionContext, runtime: JobRuntime, state: WorkerCheckpoint
) -> Machine:
    """Merge a departed peer's replica by model averaging (for v > 0)."""
    evict_step, peer = state.pending_replica
    state.pending_replica = None
    if runtime.config.significance_v == 0 or not runtime.config.reintegrate_on_evict:
        # BSP replicas are exact copies — averaging is a no-op (Corollary
        # in Appendix A), so the one-shot synchronization is skipped.
        return
    sv = ectx.services
    key = runtime.replica_key(evict_step, peer)
    # The replica may not be stored yet; poll with short waits.  With FT
    # on, the departed peer may have crashed before storing it: give up
    # after a deadline instead of polling forever.
    deadline = ectx.clock.now() + runtime.config.reintegrate_deadline_s
    while not (yield sv.kv_exists(key)):
        if runtime.config.ft_enabled and ectx.clock.now() >= deadline:
            runtime.note_recovery("reintegration_skipped")
            return
        yield sv.sleep(0.01)
    replica = yield sv.kv_get(key)
    state.params.average_with(replica)


def _depart(sv: Any, runtime: JobRuntime, state: WorkerCheckpoint) -> Machine:
    """Store the local replica, notify the supervisor, terminate."""
    key = runtime.replica_key(state.step, state.worker_id)
    if runtime.config.significance_v > 0 and runtime.config.reintegrate_on_evict:
        yield sv.kv_set(key, state.params)
    yield sv.mq_publish(
        runtime.supervisor_queue,
        messages.departed(state.worker_id, state.step, key),
    )
