"""Local execution backend: real threads, real queues, wall-clock time.

The *same* training machines that run on the DES (:mod:`repro.core`) run
here on one OS thread per role, exchanging messages through real
``queue.Queue`` FIFOs and sharing lock-protected in-memory stores.
Gradients are the same real numpy arithmetic as everywhere else — here
it simply takes however long it takes, and the
:class:`~repro.core.history.RunResult` reports genuine elapsed seconds.

Token protocol: a :class:`~repro.exec.protocols.Services` token is a
thunk over one of the stores' **blocking** methods; :func:`drive` calls
it and feeds the result (or throws the exception) back into the machine.
Blocking blocks only its role's thread — exactly the semantics of a
worker blocking on a barrier.

The module has three parts: the stores, clock and spawner (threads and
locks); :class:`HostJob`, the job skeleton every wall-clock backend
shares — :mod:`repro.exec.procs` builds on it with processes in place of
threads and a control server in place of the locked dict; and
:func:`run_local_job`, which is what is left for this backend to say.

Wall-clock reads (``time.monotonic``, ``time.sleep``) are *legal in this
module only* — it is deliberately left out of sim-lint's
``SIMULATED_LAYERS`` (see :mod:`repro.analysis.config`), while everything under
``repro/exec/sim.py`` and the core machines remain lint-enforced pure.

What the wall-clock backends support and refuse is declared in
:mod:`repro.core.capabilities` and checked by ``run_mlless``, the front
door to the job runners here.  Message arrival order is the OS's, so
supervisor-side mean losses may differ at ulp level between runs; under
the barrier each worker's parameters still evolve deterministically.
"""

from __future__ import annotations

import threading
import time
import traceback
from queue import Empty, Queue
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.history import RunResult
from ..core.roles import role_loops
from ..core.runtime import JobRuntime
from ..pricing import CostMeter
from ..sim import Monitor
from ..storage.errors import BucketNotFound, KeyNotFound, StorageError
from .deadline import Deadline
from .protocols import ExecutionContext, Machine, Services

__all__ = [
    "LocalClock",
    "LocalObjectStore",
    "LocalKVStore",
    "LocalMessageQueue",
    "LocalExchange",
    "LocalSpawner",
    "HostJob",
    "drive",
    "run_role",
    "run_local_job",
    "DATA_BUCKET",
]

DATA_BUCKET = "training-data"

#: upper bound on any single blocking consume — a deadlocked run fails
#: loudly with a StorageError instead of hanging the process forever
_CONSUME_DEADLINE_S = 120.0

#: after the supervisor finishes, how long to wait for the worker roles
_WORKER_DRAIN_GRACE_S = 30.0


def drive(machine: Machine) -> Any:
    """Run a machine to completion, resolving each token as a real call.

    The host counterpart of :func:`repro.exec.sim.drive`: same feedback
    loop, but calling a token blocks this thread and returns the result.
    """
    value: Any = None
    pending: Any = None
    while True:
        try:
            if pending is not None:
                error, pending = pending, None
                call = machine.throw(error)
            else:
                call = machine.send(value)
        except StopIteration as stop:
            return stop.value
        try:
            value = call()
        except Exception as error:  # delivered into the machine
            value = None
            pending = error


class LocalClock:
    """Wall-clock seconds since backend start; real activation cap."""

    def __init__(self, max_duration_s: float = 600.0):
        self.max_duration_s = max_duration_s
        self._epoch = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._epoch

    def remaining_time(self, started_at: float) -> float:
        return self.max_duration_s - (self.now() - started_at)


class LocalObjectStore:
    """Bucketed in-memory object store (the COS stand-in)."""

    def __init__(self):
        self._buckets: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.RLock()

    def preload(self, bucket: str, key: str, obj: Any) -> None:
        """Install an object synchronously (dataset staging)."""
        with self._lock:
            self._buckets.setdefault(bucket, {})[key] = obj

    def get(self, bucket: str, key: str) -> Any:
        with self._lock:
            if bucket not in self._buckets:
                raise BucketNotFound(bucket)
            objects = self._buckets[bucket]
            if key not in objects:
                raise KeyNotFound(key, where=f"local-cos/{bucket}")
            return objects[key]


class LocalKVStore:
    """Lock-protected dict with the simulated KV store's semantics."""

    def __init__(self):
        self._data: Dict[str, Any] = {}
        self._lock = threading.RLock()

    def set(self, key: str, value: Any) -> None:
        with self._lock:
            self._data[key] = value

    def get(self, key: str) -> Any:
        with self._lock:
            if key not in self._data:
                raise KeyNotFound(key, where="local-kv")
            return self._data[key]

    def get_or_none(self, key: str) -> Optional[Any]:
        with self._lock:
            return self._data.get(key)

    def delete(self, key: str) -> None:
        with self._lock:
            self._data.pop(key, None)

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._data


class LocalMessageQueue:
    """Named FIFO queues (the RabbitMQ stand-in) over any ``Queue`` type.

    ``queue_factory`` is ``queue.Queue`` for threads and a fork
    context's ``Queue`` for processes.  All queues are declared before
    the roles start and the table is then sealed: a forked child
    inherits the handles that exist at the fork, so a later declare
    could not reach roles already running and is rejected.
    """

    def __init__(self, queue_factory: Callable[[], Any] = Queue):
        self._queue_factory = queue_factory
        self._queues: Dict[str, Any] = {}
        self._sealed = False
        self._lock = threading.RLock()

    def declare(self, name: str) -> None:
        with self._lock:
            if name in self._queues:
                return
            if self._sealed:
                raise StorageError(
                    f"queue {name!r} declared after spawn — every queue "
                    "must exist before the roles start"
                )
            self._queues[name] = self._queue_factory()

    def seal(self) -> None:
        """Called by the job just before the roles are started."""
        with self._lock:
            self._sealed = True

    def _queue(self, name: str) -> Any:
        with self._lock:
            if name not in self._queues:
                raise StorageError(f"queue {name!r} was never declared")
            return self._queues[name]

    def publish(self, name: str, message: Dict[str, Any]) -> None:
        self._queue(name).put(message)

    def consume(self, name: str) -> Dict[str, Any]:
        """Blocking consume, bounded so deadlocks fail instead of hanging."""
        deadline = Deadline(_CONSUME_DEADLINE_S)
        try:
            return self._queue(name).get(timeout=deadline.remaining())
        except Empty:
            raise StorageError(
                f"consume on {name!r} exceeded the {deadline.budget_s:.0f}s "
                "host-backend deadline (deadlocked run?)"
            ) from None

    def consume_with_timeout(
        self, name: str, timeout_s: float
    ) -> Optional[Dict[str, Any]]:
        # Callers pass "time left" arithmetic that can dip below zero;
        # Queue.get raises ValueError on a negative timeout.
        try:
            return self._queue(name).get(timeout=max(timeout_s, 0.0))
        except Empty:
            return None

    def drain(self, name: str) -> List[Dict[str, Any]]:
        q = self._queue(name)
        out: List[Dict[str, Any]] = []
        while True:
            try:
                out.append(q.get_nowait())
            except Empty:
                return out


class LocalExchange:
    """Fan-out exchange over the local message queues."""

    def __init__(self, mq: LocalMessageQueue, name: str = "local-broadcast"):
        self.mq = mq
        self.name = name
        self._bindings: List[str] = []
        self._lock = threading.RLock()

    def bind(self, queue: str) -> None:
        with self._lock:
            if queue not in self._bindings:
                self._bindings.append(queue)

    def unbind(self, queue: str) -> None:
        with self._lock:
            if queue in self._bindings:
                self._bindings.remove(queue)

    def bindings(self) -> List[str]:
        with self._lock:
            return list(self._bindings)

    def publish(self, message: Dict[str, Any], exclude: str = "") -> None:
        for queue in self.bindings():
            if queue != exclude:
                self.mq.publish(queue, message)


class LocalSpawner:
    """Detached machines become daemon threads (GC sweeps)."""

    def spawn(self, machine: Machine, name: str = "") -> None:
        threading.Thread(
            target=drive, args=(machine,), name=name or "detached", daemon=True
        ).start()


# -- the job skeleton every wall-clock backend shares ------------------------


def _discard_estimate(cpu_seconds: float, steps: int = 1) -> None:
    """Host ``compute``: no artificial delay.  The surrounding numpy
    arithmetic already takes real CPU time here, which is the whole
    point of a wall-clock backend; the calibrated estimate is dropped."""


def run_role(
    loop_fn: Callable[[ExecutionContext, Dict[str, Any]], Machine],
    ectx: ExecutionContext,
    payload: Dict[str, Any],
    role: str,
    results_q: Any,
) -> None:
    """Thread/process target: drive a role, re-entering on relaunch markers.

    Delivers ``(role, result, monitor)`` on ``results_q``.  The
    supervisor ships its monitor with the result: in a forked role it
    mutated a copy-on-write copy the parent never sees.  A failure is
    delivered as an ``error`` outcome carrying the formatted traceback
    (a traceback object does not cross a process boundary), which
    :meth:`HostJob.finish` turns back into an exception in the caller.
    """
    try:
        while True:
            result = drive(loop_fn(ectx, payload))
            if isinstance(result, dict) and result.get("outcome") == "relaunch":
                payload = {**payload, "resume": True}
                continue
            break
        monitor = payload["runtime"].monitor if role == "supervisor" else None
        results_q.put((role, result, monitor))
    except Exception:  # role boundary: reported here, raised by the caller
        results_q.put(
            (role, {"outcome": "error", "error": traceback.format_exc()}, None)
        )


class HostJob:
    """One wall-clock MLLess job: what the thread and process backends share.

    The host analogue of the simulator's
    :class:`~repro.core.driver.MLLessDriver`.  A backend supplies its
    transport — the KV, message-queue and exchange handles — and turns
    each of :meth:`roles` into an unstarted thread or process whose
    target is :func:`run_role`.  Dataset staging, the
    :class:`~repro.core.runtime.JobRuntime`, channel declaration, role
    selection, waiting, failure surfacing and the
    :class:`~repro.core.history.RunResult` (genuine wall-clock
    ``started_at``/``finished_at``, zero cost) are here, once.
    """

    def __init__(
        self,
        config: Any,
        backend: str,
        max_duration_s: float,
        mq: LocalMessageQueue,
        kv: Any,
        exchange: Any,
    ):
        self.backend = backend
        self.max_duration_s = max_duration_s
        self.cos = LocalObjectStore()
        self.clock = LocalClock(max_duration_s=max_duration_s)
        self.runtime = runtime = JobRuntime(
            config=config,
            cos=self.cos,
            kv=kv,
            mq=mq,
            exchange=exchange,
            bucket=DATA_BUCKET,
            batch_keys=config.dataset.stage(self.cos, DATA_BUCKET),
            partitions=config.dataset.partition(config.n_workers),
            monitor=Monitor(),
        )
        #: the queues the backend must bind to its exchange
        self.worker_queues = [
            runtime.worker_queue(w) for w in range(config.n_workers)
        ]
        for queue in (runtime.supervisor_queue, *self.worker_queues):
            mq.declare(queue)
        mq.seal()
        self.started_at = 0.0

    def context(self, kv: Any, exchange: Any) -> ExecutionContext:
        """The bundle a role runs against, over that role's own handles."""
        services = Services(
            self.cos, kv, self.runtime.mq, exchange, _discard_estimate, time.sleep
        )
        return ExecutionContext(services, self.clock, LocalSpawner())

    def roles(self) -> Iterator[Tuple[str, Callable, Dict[str, Any]]]:
        """``(role name, machine, payload)`` per role, supervisor first."""
        runtime = self.runtime
        worker_fn, supervisor_fn = role_loops(runtime.config)
        yield "supervisor", supervisor_fn, {"runtime": runtime}
        for w in range(runtime.config.n_workers):
            yield f"worker-{w}", worker_fn, {"runtime": runtime, "worker_id": w}

    def start(self, handles: Sequence[Any]) -> None:
        """Start the role threads/processes, given in :meth:`roles` order."""
        self.started_at = self.clock.now()
        for handle in handles:
            handle.start()

    def finish(self, results_q: Any, handles: Sequence[Any]) -> RunResult:
        """Wait for the started roles and assemble the result.

        The supervisor decides when the job is over, so until it reports
        the wait has the whole job budget; from then on everything left
        — the remaining worker results and every join — shares *one*
        drain budget (a field of stuck workers costs 30 s total, not
        30 s each).  The first role to report an error fails the job at
        once, with that role's traceback, instead of leaving its peers
        to time out on a barrier that will never complete.
        """
        results: Dict[str, Any] = {}
        monitor = self.runtime.monitor
        deadline = Deadline(self.max_duration_s)
        while len(results) < len(handles):
            try:
                role, result, shipped = results_q.get(timeout=deadline.remaining())
            except Empty:
                break
            if isinstance(result, dict) and result.get("outcome") == "error":
                raise StorageError(
                    f"{self.backend} role {role} failed:\n{result['error']}"
                )
            results[role] = result
            if role == "supervisor":
                monitor = shipped
                deadline = Deadline(_WORKER_DRAIN_GRACE_S)
        if "supervisor" not in results:
            raise StorageError(
                f"{self.backend} supervisor did not finish within "
                f"{self.max_duration_s:.0f}s"
            )
        for handle in handles:
            handle.join(timeout=deadline.remaining())
        finished_at = self.clock.now()

        report = results["supervisor"] or {}
        drained = sum(1 for worker in handles[1:] if not worker.is_alive())
        return RunResult(
            system=f"mlless-{self.backend}",
            monitor=monitor,
            meter=CostMeter(),
            started_at=self.started_at,
            finished_at=finished_at,
            converged=bool(report.get("converged")),
            final_loss=report.get("final_loss"),
            total_steps=int(report.get("steps", 0)),
            extras={
                "stop_reason_is_target": float(report.get("converged", False)),
                "workers_drained": float(drained),
            },
        )


# -- the thread backend ------------------------------------------------------


def run_local_job(config: Any, max_duration_s: float = 600.0) -> RunResult:
    """Train one MLLess job for real, one OS thread per role."""
    kv = LocalKVStore()
    mq = LocalMessageQueue()
    exchange = LocalExchange(mq, "mlless-broadcast")
    job = HostJob(config, "local", max_duration_s, mq, kv, exchange)
    for queue in job.worker_queues:
        exchange.bind(queue)
    # One shared context serves every role — the pieces are thread-safe.
    ectx = job.context(kv, exchange)
    results_q: Queue = Queue()
    threads = [
        threading.Thread(
            target=run_role,
            args=(loop_fn, ectx, payload, role, results_q),
            name=f"role-{role}",
            daemon=True,
        )
        for role, loop_fn, payload in job.roles()
    ]
    job.start(threads)
    return job.finish(results_q, threads)
