"""The registered microbenchmark ops.

Groups:

``kernel``
    The per-step sparse kernels: ``matvec``, ``rmatvec_on_support``,
    ``row_slice``.  These dominate a worker's compute (the reason the
    paper rewrote them in Cython).
``merge``
    N-way update merging: ``SparseDelta.merge_many`` (worker step-6 peer
    sum) and ``ModelUpdate.merge_many`` (supervisor aggregation).
``scatter``
    Sparse-into-dense scatter-add variants.  Informational: on current
    NumPy the ``np.add.at`` fast path *beats* a fancy-index ``+=``, and
    this group is where a future NumPy flipping that again would show.
``core``
    Training-state operations: fused peer application, checkpoint
    snapshot.
``sim``
    DES event churn (host-side cost of every simulated second).
``simkernel``
    DES kernel event throughput at platform scale, shaped like the
    training machines' event mix: worker step loops (one jittered
    compute timer + a burst of delay-0 service hops — the MQ poll /
    filter check / barrier handshake pattern), ``Store`` FIFO handoffs
    under a populated pending set, and a mixed short/far-horizon load.
    Delay lists are precomputed in ``make_state`` so the timed region
    is kernel work, and every op appends small-int markers to a shared
    log whose hash is the checksum — any delivery-order drift between
    kernels changes it.
``pipeline``
    Pipeline-parallel stage primitives: a middle stage's forward and
    backward slices plus the micro-batch split at the injection
    boundary.  Informational (dense GEMMs, so timings track BLAS);
    the checksums pin the stage math bit-for-bit.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..ml.data import DenseBatch
from ..ml.parameters import ModelUpdate, ParameterSet
from ..ml.sparse import SparseDelta
from . import workloads
from .runner import BenchOp, checksum_bytes

__all__ = ["ALL_OPS"]


# -- checksum helpers -----------------------------------------------------
def _array(arr: np.ndarray) -> str:
    return checksum_bytes(np.ascontiguousarray(arr).tobytes())


def _delta(delta: SparseDelta) -> str:
    return checksum_bytes(
        np.ascontiguousarray(delta.indices).tobytes(),
        np.ascontiguousarray(delta.values).tobytes(),
        repr(delta.shape).encode(),
    )


def _csr(matrix) -> str:
    return checksum_bytes(
        np.ascontiguousarray(matrix.indptr).tobytes(),
        np.ascontiguousarray(matrix.indices).tobytes(),
        np.ascontiguousarray(matrix.data).tobytes(),
        repr(matrix.shape).encode(),
    )


def _update(update: ModelUpdate) -> str:
    chunks: List[bytes] = []
    for name, delta in update:
        chunks.append(name.encode())
        chunks.append(np.ascontiguousarray(delta.indices).tobytes())
        chunks.append(np.ascontiguousarray(delta.values).tobytes())
    return checksum_bytes(*chunks)


def _params(params: ParameterSet) -> str:
    chunks: List[bytes] = []
    for name, tensor in params:
        chunks.append(name.encode())
        chunks.append(np.ascontiguousarray(tensor).tobytes())
    return checksum_bytes(*chunks)


def _checkpoint(ckpt) -> str:
    chunks: List[bytes] = [
        repr((ckpt.worker_id, ckpt.step, ckpt.active_workers)).encode()
    ]
    for name, tensor in ckpt.params:
        chunks.append(name.encode())
        chunks.append(np.ascontiguousarray(tensor).tobytes())
    for slot in sorted(getattr(ckpt.optimizer, "_state", {})):
        for name in sorted(ckpt.optimizer._state[slot]):
            chunks.append(f"{slot}/{name}".encode())
            chunks.append(
                np.ascontiguousarray(ckpt.optimizer._state[slot][name]).tobytes()
            )
    for name in sorted(ckpt.sig_filter._acc):
        chunks.append(name.encode())
        chunks.append(np.ascontiguousarray(ckpt.sig_filter._acc[name]).tobytes())
    return checksum_bytes(*chunks)


# -- op run functions -----------------------------------------------------
def _run_churn(_state, _payload):
    from ..sim import Environment

    def ticker(env, n):
        for _ in range(n):
            yield env.timeout(1.0)

    env = Environment()
    for _ in range(50):
        env.process(ticker(env, 400))
    env.run()
    return (env.now, 50 * 400)


def _simlog(out) -> str:
    """Order-sensitive checksum over an op's (now, marker-log) output."""
    now, log = out
    arr = np.asarray(log, dtype=np.int64)
    return checksum_bytes(arr.tobytes(), repr((now, arr.size)).encode())


def _step_loop_delays() -> List[List[float]]:
    return [
        [0.01 + ((i * 31 + j * 17) % 191) / 1000.0 for j in range(10)]
        for i in range(5_000)
    ]


def _prepare_step_loop(state):
    """Build the env and spawn all workers *outside* the timed region."""
    from ..sim import Environment

    log: List[int] = []
    append = log.append

    def worker(env, i, ds):
        timeout = env.timeout
        for d in ds:
            yield timeout(d)
            yield timeout(0.0)
            yield timeout(0.0)
            yield timeout(0.0)
            yield timeout(0.0)
            yield timeout(0.0)
            yield timeout(0.0)
            yield timeout(0.0)
            yield timeout(0.0)
            append(i)

    env = Environment()
    for i, ds in enumerate(state):
        env.process(worker(env, i, ds))
    return env, log


def _run_step_loop(_state, payload):
    """5k workers x 10 steps: one jittered compute timer + 8 service hops.

    The training-machine event mix: each step sleeps a 10-200 ms
    compute timer, then burns eight delay-0 schedules (MQ poll, filter
    check, barrier handshake...).  On the old kernel every delay-0
    schedule is a new heap minimum, so push *and* pop sift through the
    full ~5k-deep heap; the new kernel files them in the O(1)
    now-queue and the timers in wheel buckets.
    """
    env, log = payload
    env.run()
    return (env.now, log)


def _prepare_fifo_handoff(_state):
    from ..sim import Environment, Store

    log: List[int] = []
    append = log.append

    def producer(env, store, n):
        put = store.put
        for k in range(n):
            yield put(k)

    def relay(env, src, dst, n):
        get = src.get
        put = dst.put
        for _ in range(n):
            item = yield get()
            yield put(item)

    def consumer(env, store, base, n):
        get = store.get
        for _ in range(n):
            item = yield get()
            append(base + item)

    def anchor(env, i):
        yield env.timeout(3_600.0 + i)

    env = Environment()
    for i in range(2_000):
        env.process(anchor(env, i))
    for p in range(200):
        upstream = Store(env)
        downstream = Store(env)
        env.process(producer(env, upstream, 300))
        env.process(relay(env, upstream, downstream, 300))
        env.process(consumer(env, downstream, p * 1_000, 300))
    return env, log


def _run_fifo_handoff(_state, payload):
    """200 three-stage pipelines relaying 300 items each through Stores.

    Each item crosses two Store handoffs (producer -> relay ->
    consumer), the message-queue shape of a parameter-server hop.  2k
    long "anchor" timers sit in the pending set the whole time, so
    every delay-0 wakeup on the old kernel is a schedule-through-a-
    populated-heap round trip; the new kernel turns these into O(1)
    now-queue handoffs.  The consumer logs every received item, so the
    checksum pins the full cross-pipeline interleaving.
    """
    env, log = payload
    env.run()
    return (env.now, log)


def _mixed_horizon_delays():
    pollers = [
        [0.01 + ((i * 7 + j * 13) % 23) / 1000.0 for j in range(10)]
        for i in range(4_000)
    ]
    stragglers = [
        [0.02 + ((i * 11 + j * 5) % 37) / 1000.0 for j in range(10)]
        for i in range(1_000)
    ]
    return pollers, stragglers


def _prepare_mixed_horizon(state):
    from ..sim import Environment

    poller_delays, straggler_delays = state
    log: List[int] = []
    append = log.append

    def poller(env, i, ds):
        timeout = env.timeout
        for d in ds:
            yield timeout(d)
            yield timeout(0.0)
            yield timeout(0.0)
            yield timeout(0.0)
            yield timeout(0.0)
            yield timeout(0.0)
            yield timeout(0.0)
            yield timeout(0.0)
            yield timeout(0.0)
            append(i)

    def straggler(env, i, ds):
        timeout = env.timeout
        yield timeout(900.0 + i * 0.5)
        for d in ds:
            yield timeout(d)
        append(-1 - i)

    env = Environment()
    for i, ds in enumerate(poller_delays):
        env.process(poller(env, i, ds))
    for i, ds in enumerate(straggler_delays):
        env.process(straggler(env, i, ds))
    return env, log


def _run_mixed_horizon(_state, payload):
    """Short pollers + far-future batches: wheel, far heap, re-anchors.

    4k pollers cycle short timers with delay-0 hop bursts; 1k
    stragglers first sleep past any short-timer horizon (far-heap
    territory), then churn short timers.  The load alternates between
    a busy short horizon and an empty one followed by a far batch,
    exercising the far-timer fallback and wheel re-anchoring paths
    without disturbing determinism.
    """
    env, log = payload
    env.run()
    return (env.now, log)


def _build_ops() -> List[BenchOp]:
    return [
        BenchOp(
            name="kernel.matvec",
            group="kernel",
            make_state=workloads.lr_batch,
            run=lambda s, _p: s[0].matvec(s[1]),
            checksum=_array,
        ),
        BenchOp(
            name="kernel.rmatvec_on_support",
            group="kernel",
            make_state=workloads.lr_batch,
            run=lambda s, _p: s[0].rmatvec_on_support(s[2]),
            checksum=_delta,
        ),
        BenchOp(
            name="kernel.row_slice",
            group="kernel",
            make_state=workloads.lr_batch,
            run=lambda s, _p: s[0].row_slice(1_000, 3_000),
            checksum=_csr,
        ),
        BenchOp(
            name="merge.delta_merge_many_16",
            group="merge",
            make_state=workloads.sparse_deltas,
            run=lambda s, _p: SparseDelta.merge_many(s),
            checksum=_delta,
        ),
        BenchOp(
            name="merge.update_merge_many_8",
            group="merge",
            make_state=workloads.model_updates,
            run=lambda s, _p: ModelUpdate.merge_many(s),
            checksum=_update,
        ),
        BenchOp(
            name="scatter.apply_to",
            group="scatter",
            make_state=workloads.scatter_state,
            prepare=lambda s: s[1].copy(),
            run=lambda s, dense: (s[0].apply_to(dense), dense)[1],
            checksum=_array,
            note="np.add.at path (the production scatter)",
        ),
        BenchOp(
            name="scatter.apply_fancy",
            group="scatter",
            make_state=workloads.scatter_state,
            prepare=lambda s: s[1].copy(),
            run=lambda s, dense: (s[0]._apply_fancy(dense), dense)[1],
            checksum=_array,
            note="fancy-index += variant (valid for sorted-unique deltas)",
        ),
        BenchOp(
            name="core.peer_apply_8",
            group="core",
            make_state=workloads.peer_state,
            prepare=lambda s: s[0].copy(),
            run=lambda s, params: (params.apply_many(s[1]), params)[1],
            checksum=_params,
        ),
        BenchOp(
            name="core.checkpoint_snapshot",
            group="core",
            make_state=workloads.warmed_checkpoint,
            run=lambda s, _p: s.snapshot(),
            checksum=_checkpoint,
        ),
        BenchOp(
            name="pipeline.stage_forward",
            group="pipeline",
            make_state=workloads.mlp_stage_state,
            run=lambda s, _p: s[0].stage_forward(s[1], s[2], s[3])[0],
            checksum=_array,
            portable=False,
            note="middle-stage forward slice on one 2k-row micro-batch "
            "(checksum is BLAS-dependent)",
        ),
        BenchOp(
            name="pipeline.stage_backward",
            group="pipeline",
            make_state=workloads.mlp_stage_state,
            prepare=lambda s: s[0].stage_forward(s[1], s[2], s[3]),
            run=lambda s, fwd: s[0].stage_backward(
                s[1], fwd[1], np.full_like(fwd[0], 1e-3), s[3]
            )[0],
            checksum=_array,
            portable=False,
            note="middle-stage backward slice (input-gradient path; "
            "checksum is BLAS-dependent)",
        ),
        BenchOp(
            name="pipeline.micro_split_8",
            group="pipeline",
            make_state=workloads.mlp_stage_state,
            run=lambda s, _p: np.concatenate(
                [
                    mb.x.sum(axis=0)
                    for mb in DenseBatch(
                        s[2], np.zeros((s[2].shape[0], 1))
                    ).micro_split(8)
                ]
            ),
            checksum=_array,
            note="the injection boundary: one batch into 8 micro-batches",
        ),
        BenchOp(
            name="sim.timeout_churn_20k",
            group="sim",
            make_state=lambda: None,
            run=_run_churn,
            checksum=lambda out: checksum_bytes(repr(out).encode()),
        ),
        BenchOp(
            name="simkernel.step_loop_450k",
            group="simkernel",
            make_state=_step_loop_delays,
            prepare=_prepare_step_loop,
            run=_run_step_loop,
            checksum=_simlog,
            note="5k workers x (jittered compute timer + 8 delay-0 service hops)",
        ),
        BenchOp(
            name="simkernel.fifo_pipeline_240k",
            group="simkernel",
            make_state=lambda: None,
            prepare=_prepare_fifo_handoff,
            run=_run_fifo_handoff,
            checksum=_simlog,
            note="three-stage Store relay pipelines with 2k far timers pending",
        ),
        BenchOp(
            name="simkernel.mixed_horizon_371k",
            group="simkernel",
            make_state=_mixed_horizon_delays,
            prepare=_prepare_mixed_horizon,
            run=_run_mixed_horizon,
            checksum=_simlog,
            note="4k short-horizon pollers + 1k far stragglers (re-anchor path)",
        ),
    ]


ALL_OPS: List[BenchOp] = _build_ops()
