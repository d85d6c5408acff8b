"""Bit-exact pins on the hot paths: sparse kernels, n-way merges, the
scatter-add, peer application, checkpoint snapshots, the micro-batch
split, DES delivery order and the named workloads' datasets.

Every fast path in ``repro.ml.sparse`` / ``repro.sim.core`` claims to be
bit-identical to a naive reference; these digests hold it to that on
paper-shaped inputs.  A digest that moves means numeric results or
event order moved — a bug in the change, never an "expected update".
Timing is not this file's business: ``benchmarks/e2e`` owns it.

Workload shapes follow the paper: the CSR batch is a sparse-LR
Criteo-style slice (thousands of rows, a huge feature space, a few
dozen features per row); the deltas and updates are ISP-filtered
PMF/LR broadcasts (a few thousand touched entries over a large
tensor).  The DES machines mimic the training machines' event mix and
append small-int markers to a log whose hash is the pin, so any
delivery-order drift changes it.  The dataset pins hold every array of
every batch of each named workload (RNG draw order is the dataset's
identity).  Inputs and datasets come from NumPy ``Generator`` streams,
so a failure prints ``numpy.__version__``: a stream change in NumPy
reads as that, not as a mystery digest diff.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.core.runtime import WorkerCheckpoint
from repro.core.significance import SignificanceFilter
from repro.api import make_workload
from repro.ml.data import DenseBatch, LRBatch, PMFBatch
from repro.ml.models import LayeredMLP
from repro.ml.optim import InverseSqrtLR, MomentumSGD
from repro.ml.parameters import ModelUpdate, ParameterSet
from repro.ml.sparse import CSRMatrix, SparseDelta
from repro.sim import Environment, Store


def sha_chunks(*chunks):
    """sha256 over length-prefixed chunks (arrays by their raw bytes)."""
    digest = hashlib.sha256()
    for chunk in chunks:
        if isinstance(chunk, str):
            chunk = chunk.encode()
        elif isinstance(chunk, np.ndarray):
            chunk = np.ascontiguousarray(chunk).tobytes()
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


def _sha_delta(delta):
    return sha_chunks(delta.indices, delta.values, repr(delta.shape))


def _sha_named(pairs, head=()):
    chunks = list(head)
    for name, array in pairs:
        chunks += [name, array]
    return sha_chunks(*chunks)


# -- seeded workloads -----------------------------------------------------
_DELTA_SIZE = 400_000
_TENSOR_SIZES = {"U": 50_000, "M": 40_000}


@functools.cache
def _lr_batch():
    """A sparse-LR minibatch ``(X, w, r)``: 4k rows x 200k cols, 60 nnz/row."""
    rng = np.random.default_rng(101)
    rows, cols, per_row = 4_000, 200_000, 60
    indptr = np.arange(rows + 1, dtype=np.int64) * per_row
    indices = rng.integers(0, cols, size=rows * per_row).astype(np.int32)
    data = rng.standard_normal(rows * per_row)
    matrix = CSRMatrix(indptr, indices, data, (rows, cols))
    return matrix, rng.standard_normal(cols), rng.standard_normal(rows)


def _random_delta(rng, size, draws):
    """A delta with sorted-unique indices, like every kernel output."""
    idx = np.unique(rng.integers(0, size, size=draws))
    return SparseDelta(idx, rng.standard_normal(len(idx)), (size,))


def _model_updates(seed):
    """Eight two-tensor model updates (what the supervisor aggregates)."""
    rng = np.random.default_rng(seed)
    return [
        ModelUpdate({name: _random_delta(rng, size, 5_000)
                     for name, size in _TENSOR_SIZES.items()})
        for _ in range(8)
    ]


def _warmed_checkpoint():
    """A worker checkpoint with live momentum buffers and non-zero
    significance accumulators, as mid-training checkpointing sees it."""
    rng = np.random.default_rng(505)
    shapes = {"U": (800, 8), "M": (600, 8)}
    params = ParameterSet(
        {name: 0.1 * rng.standard_normal(shape) for name, shape in shapes.items()}
    )
    optimizer = MomentumSGD(lr=InverseSqrtLR(0.5), momentum=0.9)
    sig_filter = SignificanceFilter(v=0.5, shapes=shapes)
    for t in range(1, 4):
        deltas = {}
        for name in shapes:
            idx = np.unique(rng.integers(0, params[name].size, size=800))
            vals = 0.01 * rng.standard_normal(len(idx))
            deltas[name] = SparseDelta(idx, vals, params[name].shape)
        update = optimizer.step(params, ModelUpdate(deltas), t)
        params.apply(update)
        sig_filter.step(params, update, t)
    return WorkerCheckpoint(
        worker_id=0, step=3, params=params, optimizer=optimizer,
        sig_filter=sig_filter, active_workers=3,
        last_report={"type": "step_done", "step": 3, "worker": 0},
    )


# -- numeric ops ----------------------------------------------------------
def _matvec():
    matrix, w, _r = _lr_batch()
    return sha_chunks(matrix.matvec(w))


def _rmatvec_on_support():
    matrix, _w, r = _lr_batch()
    return _sha_delta(matrix.rmatvec_on_support(r))


def _row_slice():
    part = _lr_batch()[0].row_slice(1_000, 3_000)
    return sha_chunks(part.indptr, part.indices, part.data, repr(part.shape))


def _delta_merge_many():
    rng = np.random.default_rng(202)
    deltas = [_random_delta(rng, _DELTA_SIZE, 9_000) for _ in range(16)]
    return _sha_delta(SparseDelta.merge_many(deltas))


def _update_merge_many():
    merged = ModelUpdate.merge_many(_model_updates(303))
    chunks = []
    for name, delta in merged:
        chunks += [name, delta.indices, delta.values]
    return sha_chunks(*chunks)


def _apply_to():
    rng = np.random.default_rng(606)
    delta = _random_delta(rng, _DELTA_SIZE, 9_000)
    dense = rng.standard_normal(_DELTA_SIZE)
    delta.apply_to(dense)
    return sha_chunks(dense)


def _peer_apply():
    rng = np.random.default_rng(404)
    params = ParameterSet(
        {name: rng.standard_normal(size) for name, size in _TENSOR_SIZES.items()}
    )
    params.apply_many(_model_updates(405))
    return _sha_named(params)


def _checkpoint_snapshot():
    ckpt = _warmed_checkpoint().snapshot()
    state, acc = ckpt.optimizer._state, ckpt.sig_filter.accumulated
    return _sha_named(
        [
            *ckpt.params,
            *((f"{slot}/{name}", state[slot][name])
              for slot in sorted(state) for name in sorted(state[slot])),
            *((name, acc[name]) for name in sorted(acc)),
        ],
        head=[repr((ckpt.worker_id, ckpt.step, ckpt.active_workers))],
    )


def _micro_split():
    """The pipeline injection boundary: one 2k-row batch into 8 micro-batches."""
    sizes = [64, 256, 256, 128, 1]
    middle = LayeredMLP(sizes).stage_layers(3)[1]
    x = np.random.default_rng(707).standard_normal((2_000, sizes[middle[0]]))
    batch = DenseBatch(x, np.zeros((len(x), 1)))
    return sha_chunks(np.concatenate([mb.x.sum(axis=0) for mb in batch.micro_split(8)]))


# -- DES delivery order ---------------------------------------------------
def _run_and_hash(env, log):
    env.run()
    arr = np.asarray(log, dtype=np.int64)
    return sha_chunks(arr, repr((env.now, arr.size)))


def _step_then_hops(env, marker, delays, log):
    """One jittered timer, then eight delay-0 service hops (MQ poll,
    filter check, barrier handshake ...) per step; logs ``marker``."""
    for delay in delays:
        yield env.timeout(delay)
        for _ in range(8):
            yield env.timeout(0.0)
        log.append(marker)


def _step_loop():
    """5k workers x 10 steps of 10-200 ms compute timers + hop bursts."""
    env, log = Environment(), []
    for i in range(5_000):
        delays = [0.01 + ((i * 31 + j * 17) % 191) / 1000.0 for j in range(10)]
        env.process(_step_then_hops(env, i, delays, log))
    return _run_and_hash(env, log)


def _fifo_pipeline():
    """200 producer -> relay -> consumer Store pipelines of 300 items each,
    with 2k far "anchor" timers pending the whole time; the consumers log
    every item, so the pin holds the full cross-pipeline interleaving."""
    env, log = Environment(), []

    def producer(store):
        for k in range(300):
            yield store.put(k)

    def relay(src, dst):
        for _ in range(300):
            yield dst.put((yield src.get()))

    def consumer(store, base):
        for _ in range(300):
            log.append(base + (yield store.get()))

    def anchor(i):
        yield env.timeout(3_600.0 + i)

    for i in range(2_000):
        env.process(anchor(i))
    for p in range(200):
        upstream, downstream = Store(env), Store(env)
        env.process(producer(upstream))
        env.process(relay(upstream, downstream))
        env.process(consumer(downstream, p * 1_000))
    return _run_and_hash(env, log)


def _mixed_horizon():
    """4k short-timer pollers, then 1k stragglers that first sleep
    15-23 min: hour-scale sleepers interleaved with millisecond timers
    in the one pending heap."""
    env, log = Environment(), []

    def straggler(i, delays):
        yield env.timeout(900.0 + i * 0.5)
        for delay in delays:
            yield env.timeout(delay)
        log.append(-1 - i)

    for i in range(4_000):
        delays = [0.01 + ((i * 7 + j * 13) % 23) / 1000.0 for j in range(10)]
        env.process(_step_then_hops(env, i, delays, log))
    for i in range(1_000):
        delays = [0.02 + ((i * 11 + j * 5) % 37) / 1000.0 for j in range(10)]
        env.process(straggler(i, delays))
    return _run_and_hash(env, log)


# -- named workloads' datasets ---------------------------------------------
_BATCH_PARTS = {
    LRBatch: lambda b: (repr(b.X.shape), b.X.indptr, b.X.indices, b.X.data, b.y),
    PMFBatch: lambda b: (b.users, b.movies, b.ratings),
    DenseBatch: lambda b: (b.x, b.y),
}


def _dataset(name, seed):
    """Every array (bytes, dtype, shape) of every batch, plus the name."""
    dataset = make_workload(name).dataset(seed=seed)
    chunks = [dataset.name, repr(len(dataset))]
    for batch in dataset:
        for part in _BATCH_PARTS[type(batch)](batch):
            if isinstance(part, np.ndarray):
                chunks.append(repr((part.dtype.str, part.shape)))
            chunks.append(part)
    return sha_chunks(*chunks)


PINS = {
    "kernel.matvec": (
        _matvec, "e0987a3992f4bf4dd70d69ed34236da9463d8ab7b83d365b07890c398f4010e9"),
    "kernel.rmatvec_on_support": (
        _rmatvec_on_support,
        "9aa3db2eb721b1cb5f2d5f279642eaf687ba806a8d44c160bf7a39f30e5457e2"),
    "kernel.row_slice": (
        _row_slice, "8c233dff5b40025c1342ebace09d7d71d48861ed79f23fb8c92b7f9c59153e03"),
    "merge.delta_merge_many_16": (
        _delta_merge_many,
        "0a3d8de134500433e2247b46423732955b934dad1731b7a234a15f3b174259d1"),
    "merge.update_merge_many_8": (
        _update_merge_many,
        "fc20cb655d86a745ac0f3a4ea85cfcf4b45042208d839119d656cab4046c62f6"),
    "scatter.apply_to": (
        _apply_to, "244801ff555172db51bdd9960516caa401b7564cd7e34e95a9f7cc9d0d20a75f"),
    "core.peer_apply_8": (
        _peer_apply, "15bad244b00975863cc10c83e5644311b4b50c482c03467e9fe21c3f77af149c"),
    "core.checkpoint_snapshot": (
        _checkpoint_snapshot,
        "88a226407b0a3f7d23663b972bae4819bbfff7688462648e35be7c7e381e914c"),
    "pipeline.micro_split_8": (
        _micro_split, "9aa39fe945036f01de202b754e7f98fb7e38525d2c2ee46a4bf6c756dd4e708c"),
    "simkernel.step_loop_450k": (
        _step_loop, "d26ff16850673a69417b2c6667e4baa96f87793be54d3894fcd3f6ca0e7f2a85"),
    "simkernel.fifo_pipeline_240k": (
        _fifo_pipeline,
        "67a4cc831947a00163621d6e8ffa100ec99d0bf5cdb54c5933819b4db107c35d"),
    "simkernel.mixed_horizon_371k": (
        _mixed_horizon,
        "5bb71a6909b6327530aed0293998fd208dec78b7af7aa84750ef2e1d13ca5614"),
    "dataset.lr-criteo.seed1": (
        functools.partial(_dataset, "lr-criteo", 1),
        "52b6bb3e0e58a3ba9ecedfcfd009e586f1dd462cebd9e5fdeab9d57a6392f7c3"),
    # benchmarks/e2e builds ``1 + seed``: this is its seed-1 dataset
    "dataset.lr-criteo.seed2": (
        functools.partial(_dataset, "lr-criteo", 2),
        "d8ec2701b42fe79f69940536527792e5aa17bbd1aacea84e1ca1ebf81338d4f7"),
    "dataset.pmf-ml10m.seed1": (
        functools.partial(_dataset, "pmf-ml10m", 1),
        "e622014377d50452a999b32ce017b0217d6a525caeab4b6852a12aaa5d0fae73"),
    "dataset.pmf-ml20m.seed1": (
        functools.partial(_dataset, "pmf-ml20m", 1),
        "9af33bef81c5e6050e9d01390763b5d18a6cac0c465f217d5ab510f6747a3491"),
    "dataset.mlp-synth.seed1": (
        functools.partial(_dataset, "mlp-synth", 1),
        "9ffb8b1fe69c4a9c06abd11bb1edaf7bc37b73af84a54cf8f68432290d5c6a9d"),
}


@pytest.mark.parametrize("op", PINS)
def test_hot_path_output_is_bit_identical_to_its_pin(op):
    compute, pinned = PINS[op]
    assert compute() == pinned, f"{op} moved (numpy {np.__version__})"
