"""Process execution backend: true parallelism across OS processes.

The third execution backend.  The *same* generator machines that run on
the DES (:mod:`repro.exec.sim`) and on threads (:mod:`repro.exec.local`)
run here one OS process per role, so worker gradient math executes in
parallel on real cores instead of interleaving under the GIL.  The
token protocol and the job skeleton are the thread backend's
(:class:`~repro.exec.local.HostJob`, :func:`~repro.exec.local.run_role`,
:func:`~repro.exec.local.drive` inside each child); this module only
supplies a transport that crosses process boundaries and the fork
choreography.

Substrate, piece by piece:

* **Processes** are forked (``multiprocessing`` fork context), so the
  staged dataset and the job config are inherited copy-on-write —
  children never re-pickle mini-batches, and ``cos_get`` in a child is
  a zero-copy dict lookup exactly as in the local backend.
* **Message queues** are the thread backend's
  :class:`~repro.exec.local.LocalMessageQueue` over per-name
  ``multiprocessing.Queue`` FIFOs, all created before the fork.
* **KV store and exchange bindings** live in a control-server *thread
  in the parent* that owns a plain dict and answers request/reply
  queues.  ``kv_set`` is a synchronous round trip (the happens-before
  edge workers rely on: set the update, then announce it), while
  ``kv_delete`` — only used by detached GC sweeps — is fire-and-forget.
  :class:`ProcExchange` fans a broadcast out from the caller's process
  to whatever queues the server currently lists as bound.
* **Model/gradient buffers** go through a :class:`ShmArena`: updates
  are written into a parity slot (``step % 2`` — safe under the BSP
  barrier, which guarantees step ``s`` updates are consumed before step
  ``s + 2`` exists), read back as zero-copy views, and only a tiny
  descriptor crosses the control queue.  A staleness window breaks the
  parity argument, so a job that can ever gossip (SSP, or adaptive
  after its mid-job switch) gets no arena and pickles its updates.

Host-side by design, like the local backend: outside sim-lint's
``SIMULATED_LAYERS``, under the LOCK1xx lock-hygiene rules.  What it
supports and refuses is declared in :mod:`repro.core.capabilities`.
Relaunch/resume works unchanged, and because checkpoints travel through
the parent-held KV server they survive even the *death* of a role
process — a replacement process resumes from the checkpoint.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from multiprocessing import shared_memory
from queue import Empty
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.history import RunResult
from ..core.policies import can_gossip
from ..ml.parameters import ModelUpdate, ParameterSet
from ..ml.sparse import SparseDelta
from ..storage.errors import KeyNotFound, StorageError
from .deadline import Deadline
from .local import (
    HostJob,
    LocalMessageQueue,
    run_role,
    _CONSUME_DEADLINE_S,
    _WORKER_DRAIN_GRACE_S,
)

__all__ = [
    "ShmArena",
    "ProcKVClient",
    "ProcExchange",
    "run_procs_job",
]

#: descriptor tags for shared-memory-resident KV values
_SHM_UPDATE = "shm-update"
_SHM_DENSE = "shm-dense"

#: the control server's ``get`` is bounded only so no blocking call is
#: unbounded (LOCK103); it is woken by requests, never by this expiring
_SERVER_POLL_S = 0.2


# -- shared-memory arena ----------------------------------------------------


class ShmArena:
    """Spawn-negotiated shared-memory layout for update/replica tensors.

    One block, three regions per worker: two *update parity slots*
    (sparse ``[indices int64[cap] | values float64[cap]]`` per tensor,
    ``cap`` = the tensor's dense size — the filter can at worst mark
    every entry significant) and one *dense replica slot* (``float64``
    per tensor).  All offsets are fixed at construction from the
    model's parameter shapes, so writers and readers in different
    processes agree on the layout with no further negotiation.

    Readers get NumPy views directly over the shared block
    (``SparseDelta._trusted`` / ``ParameterSet`` of views): zero copy,
    zero pickling.  The BSP barrier makes the parity reuse safe; see
    the module docstring.
    """

    def __init__(self, shapes: Dict[str, Tuple[int, ...]], n_workers: int):
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self.names: List[str] = sorted(shapes)
        self.shapes = {name: tuple(shapes[name]) for name in self.names}
        self.caps = {
            name: int(np.prod(self.shapes[name], dtype=np.int64))
            for name in self.names
        }
        self.n_workers = n_workers
        total_cap = sum(self.caps.values())
        #: bytes of one sparse parity slot / one dense replica slot
        self._update_stride = total_cap * 16  # int64 indices + float64 values
        self._dense_stride = total_cap * 8
        self._dense_base = n_workers * 2 * self._update_stride
        size = max(1, self._dense_base + n_workers * self._dense_stride)
        self._shm = shared_memory.SharedMemory(create=True, size=size)
        self._closed = False

    # -- layout ----------------------------------------------------------
    def _update_offsets(self, worker: int, parity: int, name: str) -> Tuple[int, int]:
        """(indices_offset, values_offset) of one tensor in one slot."""
        base = (worker * 2 + parity) * self._update_stride
        for n in self.names:
            if n == name:
                return base, base + self.caps[name] * 8
            base += self.caps[n] * 16
        raise KeyError(f"arena was not negotiated for tensor {name!r}")

    def _dense_offset(self, worker: int, name: str) -> int:
        base = self._dense_base + worker * self._dense_stride
        for n in self.names:
            if n == name:
                return base
            base += self.caps[n] * 8
        raise KeyError(f"arena was not negotiated for tensor {name!r}")

    # -- sparse update slots ---------------------------------------------
    def write_update(self, worker: int, parity: int, update: ModelUpdate) -> Any:
        """Copy an update's tensors into a parity slot; returns the descriptor."""
        entries = []
        buf = self._shm.buf
        for name, delta in update:
            if name not in self.caps:
                raise StorageError(f"arena was not negotiated for tensor {name!r}")
            nnz = delta.nnz
            if nnz > self.caps[name]:
                raise StorageError(
                    f"update for {name!r} has nnz={nnz} > negotiated "
                    f"capacity {self.caps[name]}"
                )
            idx_off, val_off = self._update_offsets(worker, parity, name)
            idx_view = np.frombuffer(buf, np.int64, count=nnz, offset=idx_off)
            val_view = np.frombuffer(buf, np.float64, count=nnz, offset=val_off)
            idx_view[:] = delta.indices
            val_view[:] = delta.values
            entries.append(
                (name, delta.shape, nnz, bool(delta.has_sorted_unique_indices))
            )
        return (_SHM_UPDATE, worker, parity, entries)

    def read_update(self, descriptor: Any) -> ModelUpdate:
        """Zero-copy :class:`ModelUpdate` over a parity slot's views."""
        _tag, worker, parity, entries = descriptor
        buf = self._shm.buf
        deltas = {}
        for name, shape, nnz, sorted_unique in entries:
            idx_off, val_off = self._update_offsets(worker, parity, name)
            deltas[name] = SparseDelta._trusted(
                np.frombuffer(buf, np.int64, count=nnz, offset=idx_off),
                np.frombuffer(buf, np.float64, count=nnz, offset=val_off),
                tuple(shape),
                sorted_unique=sorted_unique,
            )
        return ModelUpdate(deltas)

    # -- dense replica slots ---------------------------------------------
    def write_dense(self, worker: int, params: ParameterSet) -> Any:
        """Copy a full parameter set into the worker's dense slot."""
        entries = []
        buf = self._shm.buf
        for name, shape in params.shapes().items():
            if name not in self.caps:
                raise StorageError(f"arena was not negotiated for tensor {name!r}")
            offset = self._dense_offset(worker, name)
            count = int(np.prod(shape, dtype=np.int64))
            view = np.frombuffer(buf, np.float64, count=count, offset=offset)
            view[:] = params[name].ravel()
            entries.append((name, tuple(shape)))
        return (_SHM_DENSE, worker, entries)

    def read_dense(self, descriptor: Any) -> ParameterSet:
        """Zero-copy :class:`ParameterSet` of views over a dense slot."""
        _tag, worker, entries = descriptor
        buf = self._shm.buf
        tensors = {}
        for name, shape in entries:
            offset = self._dense_offset(worker, name)
            count = int(np.prod(shape, dtype=np.int64))
            view = np.frombuffer(buf, np.float64, count=count, offset=offset)
            tensors[name] = view.reshape(shape)
        return ParameterSet(tensors)

    def resolve(self, value: Any) -> Any:
        """Reconstruct a shm descriptor into its zero-copy object."""
        if isinstance(value, tuple) and value:
            if value[0] == _SHM_UPDATE:
                return self.read_update(value)
            if value[0] == _SHM_DENSE:
                return self.read_dense(value)
        return value

    def close(self, unlink: bool = False) -> None:
        """Drop this process's mapping; ``unlink=True`` frees the block.

        Only the parent unlinks, and only after every child has been
        joined — a child closing the segment would invalidate live
        views held by machines still running.
        """
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        if unlink:
            self._shm.unlink()


# -- control server (parent-side thread) ------------------------------------


class _ControlServer(threading.Thread):
    """Parent thread owning the KV dict and the exchange binding list.

    Children talk to it over one shared request queue and per-client
    reply queues; values are (de)pickled by the queues themselves.
    Single-threaded by construction, so KV semantics are sequentially
    consistent without any locking — the whole reason it is a server
    rather than a shared structure.
    """

    def __init__(
        self,
        request_q: Any,
        reply_qs: List[Any],
        bindings: List[str],
    ):
        super().__init__(name="procs-control", daemon=True)
        self._request_q = request_q
        self._reply_qs = reply_qs
        self._data: Dict[str, Any] = {}
        self._bindings: List[str] = list(bindings)

    def stop(self) -> None:
        """Ask the loop to exit, on the queue it is already blocked on."""
        self._request_q.put((-1, "stop", ()))

    def run(self) -> None:
        while True:
            try:
                client, op, args = self._request_q.get(timeout=_SERVER_POLL_S)
            except Empty:
                continue
            if op == "stop":
                return
            reply = self._handle(op, args)
            if reply is not None:
                self._reply_qs[client].put(reply)

    def _handle(self, op: str, args: Tuple[Any, ...]) -> Optional[Tuple[str, Any]]:
        data = self._data
        if op == "set" or op == "set_shm":
            key, value = args
            data[key] = value
            return ("ok", None)
        if op == "get":
            (key,) = args
            if key not in data:
                return ("missing", key)
            return ("ok", data[key])
        if op == "get_or_none":
            (key,) = args
            return ("ok", data.get(key))
        if op == "exists":
            (key,) = args
            return ("ok", key in data)
        if op == "delete":
            (key,) = args
            data.pop(key, None)
            return None  # fire-and-forget (GC sweeps)
        if op == "unbind":
            (queue,) = args
            if queue in self._bindings:
                self._bindings.remove(queue)
            return ("ok", None)
        if op == "bind":
            (queue,) = args
            if queue not in self._bindings:
                self._bindings.append(queue)
            return ("ok", None)
        if op == "bindings":
            return ("ok", list(self._bindings))
        return ("error", f"unknown control op {op!r}")


class ProcKVClient:
    """One role's request/reply channel to the parent control server.

    Each process owns exactly one client (one reply queue), and each
    role runs its round trips from a single thread — detached spawns
    only issue fire-and-forget deletes — so replies can never
    interleave.
    """

    __slots__ = ("_client_id", "_request_q", "_reply_q", "arena")

    def __init__(
        self,
        client_id: int,
        request_q: Any,
        reply_q: Any,
        arena: Optional[ShmArena] = None,
    ):
        self._client_id = client_id
        self._request_q = request_q
        self._reply_q = reply_q
        self.arena = arena

    def _call(self, op: str, *args: Any) -> Any:
        """Synchronous round trip, deadline-bounded like every blocking call."""
        self._request_q.put((self._client_id, op, args))
        deadline = Deadline(_CONSUME_DEADLINE_S)
        try:
            status, payload = self._reply_q.get(timeout=deadline.remaining())
        except Empty:
            raise StorageError(
                f"control {op!r} exceeded the {deadline.budget_s:.0f}s "
                "procs-backend deadline (dead control server?)"
            ) from None
        if status == "missing":
            raise KeyNotFound(payload, where="procs-kv")
        if status == "error":
            raise StorageError(payload)
        return payload

    # -- KV verbs --------------------------------------------------------
    def set(self, key: str, value: Any) -> None:
        arena = self.arena
        if arena is not None:
            route = _shm_route(key, value)
            if route is not None:
                kind, step, worker = route
                if kind == _SHM_UPDATE:
                    descriptor = arena.write_update(worker, step & 1, value)
                else:
                    descriptor = arena.write_dense(worker, value)
                self._call("set_shm", key, descriptor)
                return
        self._call("set", key, value)

    def get(self, key: str) -> Any:
        value = self._call("get", key)
        return self.arena.resolve(value) if self.arena is not None else value

    def get_or_none(self, key: str) -> Optional[Any]:
        value = self._call("get_or_none", key)
        return self.arena.resolve(value) if self.arena is not None else value

    def delete(self, key: str) -> None:
        # Fire-and-forget: only detached GC sweeps delete, and a lost
        # delete merely leaks a descriptor, never corrupts state.
        self._request_q.put((self._client_id, "delete", (key,)))

    def exists(self, key: str) -> bool:
        return bool(self._call("exists", key))

    # -- exchange verbs --------------------------------------------------
    def bind(self, queue: str) -> None:
        self._call("bind", queue)

    def unbind(self, queue: str) -> None:
        self._call("unbind", queue)

    def bindings(self) -> List[str]:
        return list(self._call("bindings"))


def _shm_route(key: str, value: Any) -> Optional[Tuple[str, int, int]]:
    """Classify a KV write as arena-resident: (tag, step, worker) or None.

    Update keys (``upd/{step}/{worker}`` carrying a
    :class:`ModelUpdate`) go to parity slots; replica keys
    (``departed/{step}/{worker}`` carrying a :class:`ParameterSet`) go
    to dense slots.  Everything else — checkpoints above all — pickles
    through the control server.
    """
    parts = key.split("/")
    if len(parts) != 3:
        return None
    prefix, step_s, worker_s = parts
    try:
        step, worker = int(step_s), int(worker_s)
    except ValueError:
        return None
    if prefix == "upd" and isinstance(value, ModelUpdate):
        return (_SHM_UPDATE, step, worker)
    if prefix == "departed" and isinstance(value, ParameterSet):
        return (_SHM_DENSE, step, worker)
    return None


# -- broadcast exchange ------------------------------------------------------


class ProcExchange:
    """Fan-out exchange whose binding list lives in the control server.

    Bindings are shared and mutable (a departing worker unbinds its
    queue), so they sit next to the KV dict in the parent; the fan-out
    itself goes straight from the caller's process to the member queues.
    """

    __slots__ = ("_client", "_mq")

    def __init__(self, client: ProcKVClient, mq: LocalMessageQueue):
        self._client = client
        self._mq = mq

    def publish(self, message: Dict[str, Any], exclude: str = "") -> None:
        for queue in self._client.bindings():
            if queue != exclude:
                self._mq.publish(queue, message)

    def unbind(self, queue: str) -> None:
        self._client.unbind(queue)


# -- the job ------------------------------------------------------------------


def _negotiated_shapes(config: Any) -> Dict[str, Tuple[int, ...]]:
    """Per-tensor shapes for the arena layout, from the worker's own init.

    Reuses ``core.worker._fresh_checkpoint`` (the seeded-init path every
    worker runs) so the negotiated layout is by construction the layout
    the workers will produce.
    """
    from types import SimpleNamespace

    from ..core.worker import _fresh_checkpoint

    probe = _fresh_checkpoint(SimpleNamespace(config=config), 0)
    return probe.params.shapes()


def run_procs_job(config: Any, max_duration_s: float = 600.0) -> RunResult:
    """Train one MLLess job for real, one OS process per role.

    Parent-side choreography: create every shared structure *before*
    the fork (queues, reply channels, the shm arena, the staged dataset
    inside :class:`~repro.exec.local.HostJob`), fork one daemon process
    per role, then start the control server thread — started strictly
    after the fork so no thread can hold a queue lock at fork time.
    Results and the supervisor's monitor come back over a results
    queue; whatever happens, every child is reaped and the arena freed.
    """
    try:
        ctx = mp.get_context("fork")
    except ValueError:
        raise StorageError(
            "the procs backend requires the fork start method "
            "(copy-on-write dataset staging); this platform has none"
        ) from None

    n_roles = 1 + config.n_workers  # supervisor + workers
    request_q = ctx.Queue()
    results_q = ctx.Queue()
    #: one reply queue per role, plus one for the parent itself
    reply_qs = [ctx.Queue() for _ in range(n_roles + 1)]

    # Only a job that stays under the barrier for good gets the arena.
    arena = None if can_gossip(config) else ShmArena(_negotiated_shapes(config), config.n_workers)
    mq = LocalMessageQueue(ctx.Queue)

    def transport(client_id: int) -> Tuple[ProcKVClient, ProcExchange]:
        kv = ProcKVClient(client_id, request_q, reply_qs[client_id], arena)
        return kv, ProcExchange(kv, mq)

    job = HostJob(config, "procs", max_duration_s, mq, *transport(n_roles))
    procs = [
        ctx.Process(
            target=run_role,
            args=(loop_fn, job.context(*transport(idx)), payload, role, results_q),
            name=f"role-{role}",
            daemon=True,
        )
        for idx, (role, loop_fn, payload) in enumerate(job.roles())
    ]
    job.start(procs)
    # Strictly after the fork: a running server thread could hold a
    # queue's internal lock at fork time and deadlock every child.
    server = _ControlServer(request_q, reply_qs, job.worker_queues)
    server.start()
    try:
        return job.finish(results_q, procs)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        reap = Deadline(_WORKER_DRAIN_GRACE_S)
        for proc in procs:
            proc.join(timeout=reap.remaining())
        server.stop()
        server.join(timeout=5.0)
        if arena is not None:
            arena.close(unlink=True)
