"""Property-based tests: every hot-path fast path is bit-identical.

The performance work (cached matvec/rmatvec state, the SciPy matvec
handle, n-way merges, fused peer application, buffer-copy snapshots,
the batch-level ``criteo_like`` generator) is only admissible because
each fast path produces **byte-for-byte** the same floats as the naive
formulation it replaced — the determinism oracle checks the end-to-end
property, these tests check each kernel in isolation so a violation is
pinpointed, not just detected.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import WorkerCheckpoint
from repro.core.significance import SignificanceFilter
from repro.experiments.settings import _CRITEO_SPEC
from repro.ml import ModelUpdate, ParameterSet
from repro.ml.data import CriteoSpec, Dataset, LRBatch, criteo_like
from repro.ml.data.synthetic import _planted_logits
from repro.ml.models import PMF
from repro.ml.optim import SGD, Adam, MomentumSGD
from repro.ml.sparse import CSRMatrix, SparseDelta, flat_nonzero

N_COLS = 16
SIZE = 20

small_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def csr_matrices(draw):
    n_rows = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(n_rows):
        cols = draw(
            st.lists(
                st.integers(min_value=0, max_value=N_COLS - 1),
                max_size=8,
                unique=True,
            )
        )
        vals = draw(
            st.lists(small_floats, min_size=len(cols), max_size=len(cols))
        )
        rows.append((np.asarray(cols, dtype=np.int32), np.asarray(vals)))
    return CSRMatrix.from_rows(rows, N_COLS)


@st.composite
def sparse_deltas(draw, unique=True):
    idx = draw(
        st.lists(
            st.integers(min_value=0, max_value=SIZE - 1),
            max_size=10,
            unique=unique,
        )
    )
    if unique:
        idx = sorted(idx)
    vals = draw(st.lists(small_floats, min_size=len(idx), max_size=len(idx)))
    return SparseDelta(np.asarray(idx, dtype=np.int64), np.asarray(vals), (SIZE,))


@st.composite
def model_updates(draw):
    names = draw(
        st.lists(st.sampled_from(["u", "m", "b"]), min_size=1, max_size=3, unique=True)
    )
    return ModelUpdate({name: draw(sparse_deltas()) for name in names})


# -- matvec / rmatvec: cached and SciPy paths == naive formulation --------
@given(m=csr_matrices(), w_vals=st.lists(small_floats, min_size=N_COLS, max_size=N_COLS))
@settings(max_examples=50, deadline=None)
def test_matvec_cached_paths_bit_equal_naive(m, w_vals):
    w = np.asarray(w_vals)
    naive = np.zeros(m.shape[0])
    if m.nnz:
        row_ids = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        naive = np.bincount(
            row_ids, weights=m.data * w[m.indices], minlength=m.shape[0]
        )
    first = m.matvec(w)  # builds + self-verifies the SciPy handle
    second = m.matvec(w)  # served from whichever path the handle check chose
    assert first.tobytes() == naive.tobytes()
    assert second.tobytes() == naive.tobytes()
    assert m._matvec_numpy(w).tobytes() == naive.tobytes()


@given(m=csr_matrices(), r_scale=small_floats)
@settings(max_examples=50, deadline=None)
def test_rmatvec_cached_support_bit_equal_naive(m, r_scale):
    r = r_scale * np.arange(1.0, m.shape[0] + 1)
    first = m.rmatvec_on_support(r)
    second = m.rmatvec_on_support(r)  # cached support
    if m.nnz == 0:
        assert first.nnz == second.nnz == 0
        return
    cols, inverse = np.unique(m.indices, return_inverse=True)
    per_entry = m.data * np.repeat(r, np.diff(m.indptr))
    values = np.bincount(inverse, weights=per_entry, minlength=len(cols))
    for result in (first, second):
        assert result.indices.tobytes() == cols.astype(np.int64).tobytes()
        assert result.values.tobytes() == values.tobytes()
        assert result.has_sorted_unique_indices


@given(m=csr_matrices(), cut=st.integers(min_value=0, max_value=6))
@settings(max_examples=50, deadline=None)
def test_row_slice_trusted_equals_validated_constructor(m, cut):
    start, stop = sorted((cut % (m.shape[0] + 1), m.shape[0]))
    fast = m.row_slice(start, stop)
    lo, hi = m.indptr[start], m.indptr[stop]
    slow = CSRMatrix(
        m.indptr[start : stop + 1] - lo,
        m.indices[lo:hi],
        m.data[lo:hi],
        (stop - start, m.shape[1]),
    )
    assert fast.indptr.tobytes() == slow.indptr.tobytes()
    assert fast.indices.tobytes() == slow.indices.tobytes()
    assert fast.data.tobytes() == slow.data.tobytes()
    assert fast.shape == slow.shape


# -- n-way merges == pairwise folds ---------------------------------------
@given(deltas=st.lists(sparse_deltas(), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_delta_merge_many_equals_pairwise_fold(deltas):
    fold = deltas[0]
    for other in deltas[1:]:
        fold = fold.merge(other)
    many = SparseDelta.merge_many(deltas, shape=(SIZE,))
    assert many.indices.tobytes() == fold.indices.tobytes()
    assert many.values.tobytes() == fold.values.tobytes()
    # value objects: the result aliases none of the inputs
    for d in deltas:
        assert many is not d
        assert not np.shares_memory(many.values, d.values)


@given(updates=st.lists(model_updates(), min_size=2, max_size=5))
@settings(max_examples=50, deadline=None)
def test_update_merge_many_equals_pairwise_fold(updates):
    fold = updates[0]
    for other in updates[1:]:
        fold = fold.merge(other)
    many = ModelUpdate.merge_many(updates)
    assert many.names == fold.names
    for name in many.names:
        assert many[name].indices.tobytes() == fold[name].indices.tobytes()
        assert many[name].values.tobytes() == fold[name].values.tobytes()


# -- scatter: apply_to == add.at reference --------------------------------
@given(delta=sparse_deltas(unique=False), base=small_floats)
@settings(max_examples=50, deadline=None)
def test_apply_to_equals_add_at_reference(delta, base):
    dense = np.full((SIZE,), base)
    reference = dense.copy()
    if delta.nnz:
        np.add.at(np.ravel(reference), delta.indices, delta.values)
    delta.apply_to(dense)
    assert dense.tobytes() == reference.tobytes()


@given(updates=st.lists(model_updates(), min_size=1, max_size=5), base=small_floats)
@settings(max_examples=50, deadline=None)
def test_apply_many_equals_sequential_apply(updates, base):
    names = sorted({n for u in updates for n in u.names} | {"u"})
    fused = ParameterSet({n: np.full((SIZE,), base) for n in names})
    sequential = ParameterSet({n: np.full((SIZE,), base) for n in names})
    fused.apply_many(updates)
    for update in updates:
        sequential.apply(update)
    for name in names:
        assert fused[name].tobytes() == sequential[name].tobytes()


# -- snapshot == deepcopy -------------------------------------------------
@st.composite
def warmed_checkpoints(draw):
    """A checkpoint whose optimizer/filter state is non-trivially warmed."""
    vals = draw(st.lists(small_floats, min_size=SIZE, max_size=SIZE))
    params = ParameterSet({"w": np.asarray(vals)})
    optimizer = MomentumSGD(0.5, momentum=0.9)
    sig_filter = SignificanceFilter(0.5, {"w": (SIZE,)})
    for t, grad in enumerate(
        draw(st.lists(sparse_deltas(), min_size=1, max_size=3)), start=1
    ):
        update = optimizer.step(params, ModelUpdate({"w": grad}), t)
        params.apply(update)
        sig_filter.step(params, update, t)
    return WorkerCheckpoint(
        worker_id=draw(st.integers(min_value=0, max_value=31)),
        step=draw(st.integers(min_value=0, max_value=10_000)),
        params=params,
        optimizer=optimizer,
        sig_filter=sig_filter,
        active_workers=draw(st.integers(min_value=1, max_value=32)),
        last_report={"type": "step_done", "loss": draw(small_floats)},
    )


def _checkpoint_buffers(ckpt):
    """Every NumPy buffer a checkpoint owns, as (label, bytes) pairs."""
    out = [(f"params/{n}", ckpt.params[n].tobytes()) for n in ckpt.params.names]
    for slot in sorted(ckpt.optimizer._state):
        for name, buf in sorted(ckpt.optimizer._state[slot].items()):
            out.append((f"optim/{slot}/{name}", buf.tobytes()))
    for name, acc in sorted(ckpt.sig_filter.accumulated.items()):
        out.append((f"filter/{name}", acc.tobytes()))
    return out


@given(warmed_checkpoints())
@settings(max_examples=25, deadline=None)
def test_snapshot_equals_deepcopy(ckpt):
    snap = ckpt.snapshot()
    deep = copy.deepcopy(ckpt)
    assert snap.worker_id == deep.worker_id
    assert snap.step == deep.step
    assert snap.active_workers == deep.active_workers
    assert snap.pending_replica == deep.pending_replica
    assert snap.last_report == deep.last_report
    assert _checkpoint_buffers(snap) == _checkpoint_buffers(deep)


@given(warmed_checkpoints(), small_floats)
@settings(max_examples=25, deadline=None)
def test_snapshot_is_isolated_from_later_mutation(ckpt, noise):
    snap = ckpt.snapshot()
    before = _checkpoint_buffers(snap)
    ckpt.params["w"][:] += noise + 1.0
    for per_slot in ckpt.optimizer._state.values():
        for buf in per_slot.values():
            buf += noise + 1.0
    ckpt.sig_filter.add(
        ModelUpdate({"w": SparseDelta(np.arange(SIZE), np.full(SIZE, noise + 1.0), (SIZE,))})
    )
    ckpt.last_report["loss"] = "clobbered"
    assert _checkpoint_buffers(snap) == before
    assert snap.last_report["loss"] != "clobbered"


# -- ISP filter: in-place test / pass-through == naive gather formulation --
FILTER_SHAPES = {"u": (4, 3), "w": (10,)}

#: values that make residuals cancel to exactly zero, stay tiny next to a
#: large parameter (held back), or hit the zero / -0.0 / non-finite cases
filter_values = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-3, -1e-3, 1e-9, float("inf"), float("nan")]
    ),
    small_floats,
)


class NaiveGatherFilter:
    """The gather formulation the in-place filter replaced (reference).

    ``np.flatnonzero`` of the float accumulator picks the candidates, the
    relative test runs on values gathered at them — kept here, unchanged,
    so the filter's two fast regimes are held to it bit for bit.
    """

    def __init__(self, v, shapes):
        self.v = v
        self.acc = {name: np.zeros(shape) for name, shape in shapes.items()}

    def clone(self):
        dup = NaiveGatherFilter(self.v, {})
        dup.acc = {name: acc.copy() for name, acc in self.acc.items()}
        return dup

    def add(self, update):
        for name, delta in update:
            if delta.nnz:
                np.add.at(np.ravel(self.acc[name]), delta.indices, delta.values)

    def step(self, params, update, t):
        self.add(update)
        v_t = self.v / np.sqrt(t)
        out = {}
        for name, acc in self.acc.items():
            flat_acc = np.ravel(acc)
            candidate = np.flatnonzero(flat_acc)
            if v_t <= 0:
                significant = candidate
            else:
                x = np.abs(np.ravel(params[name])[candidate]) + 1e-8
                significant = candidate[np.abs(flat_acc[candidate]) / x > v_t]
            out[name] = (significant, flat_acc[significant].copy())
            flat_acc[significant] = 0.0
        return out


@st.composite
def filter_updates(draw):
    """An update over a subset of FILTER_SHAPES (possibly none, possibly
    empty deltas), sorted-unique like the repo's kernels emit or built
    "externally" with unsorted / repeated indices."""
    deltas = {}
    for name in draw(st.lists(st.sampled_from(sorted(FILTER_SHAPES)), unique=True)):
        shape = FILTER_SHAPES[name]
        external = draw(st.booleans())
        idx = draw(
            st.lists(
                st.integers(min_value=0, max_value=int(np.prod(shape)) - 1),
                max_size=8,
                unique=not external,
            )
        )
        if not external:
            idx = sorted(idx)
        vals = draw(st.lists(filter_values, min_size=len(idx), max_size=len(idx)))
        deltas[name] = SparseDelta(
            np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=np.float64), shape
        )
    return ModelUpdate(deltas)


def _assert_filter_ops_equal(filt, naive, params, ops, first_t):
    """Drive both filters through ``ops``; outputs and residuals must match."""
    for t, (fold_only, update) in enumerate(ops, start=first_t):
        params.apply(update)
        if fold_only:  # add() without extraction: the residual stays held
            filt.add(update)
            naive.add(update)
        else:
            got = filt.step(params, update, t)
            want = naive.step(params, update, t)
            assert got.names == sorted(want)
            for name, (indices, values) in want.items():
                assert got[name].shape == FILTER_SHAPES[name]
                assert got[name].indices.tobytes() == indices.tobytes()
                assert got[name].values.tobytes() == values.tobytes()
                assert got[name].has_sorted_unique_indices
        for name, acc in naive.acc.items():
            assert filt.accumulated[name].tobytes() == acc.tobytes()


@given(
    v=st.sampled_from([0.0, 0.7, 5.0]),
    clone_v=st.sampled_from([0.0, 0.7]),
    scale=st.sampled_from([0.0, 1.0, 100.0]),
    ops=st.lists(st.tuples(st.booleans(), filter_updates()), min_size=1, max_size=6),
    clone_at=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=200, deadline=None)
def test_filter_equals_naive_gather_formulation(v, clone_v, scale, ops, clone_at):
    params = ParameterSet(
        {name: np.full(shape, scale) for name, shape in FILTER_SHAPES.items()}
    )
    filt, naive = SignificanceFilter(v, FILTER_SHAPES), NaiveGatherFilter(v, FILTER_SHAPES)
    clone_at = min(clone_at, len(ops))
    with np.errstate(all="ignore"):
        _assert_filter_ops_equal(filt, naive, params, ops[:clone_at], 1)
        # clone mid-sequence; both copies continue, the clone on a different
        # future and (``v`` is a plain attribute) possibly the other regime
        dup, naive_dup, params_dup = filt.clone(), naive.clone(), params.copy()
        dup.v = naive_dup.v = clone_v
        _assert_filter_ops_equal(filt, naive, params, ops[clone_at:], clone_at + 1)
        _assert_filter_ops_equal(
            dup, naive_dup, params_dup, ops[clone_at:][::-1], clone_at + 1
        )


@given(vals=st.lists(filter_values, max_size=12))
@settings(max_examples=50, deadline=None)
def test_flat_nonzero_selects_like_flatnonzero(vals):
    flat = np.asarray(vals, dtype=np.float64)
    assert flat_nonzero(flat).tobytes() == np.flatnonzero(flat).tobytes()
    dense = flat.reshape(1, -1)
    assert SparseDelta.from_dense(dense).indices.tobytes() == np.flatnonzero(flat).tobytes()


# -- PMF row scatter: flat add.at == 2-D add.at ----------------------------
@given(
    rank=st.integers(min_value=1, max_value=4),
    rows=st.lists(st.integers(min_value=0, max_value=7), max_size=12),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_scatter_rows_flat_equals_2d_add_at(rank, rows, data):
    rows = np.asarray(rows, dtype=np.int64)
    row_grads = np.asarray(
        data.draw(
            st.lists(
                st.lists(small_floats, min_size=rank, max_size=rank),
                min_size=len(rows),
                max_size=len(rows),
            )
        ),
        dtype=np.float64,
    ).reshape(len(rows), rank)
    delta = PMF._scatter_rows(rows, row_grads, (8, rank))

    uniq, inverse = np.unique(rows, return_inverse=True)
    acc = np.zeros((len(uniq), rank))
    np.add.at(acc, inverse, row_grads)
    flat_idx = (uniq[:, None] * rank + np.arange(rank)).ravel()
    assert delta.shape == (8, rank)
    assert delta.indices.tobytes() == flat_idx.tobytes()
    assert delta.values.tobytes() == acc.ravel().tobytes()
    assert delta.has_sorted_unique_indices == bool(np.all(np.diff(flat_idx) > 0))


def test_scatter_rows_rejects_out_of_range_rows():
    grads = np.ones((2, 3))
    for rows in ([0, 8], [-1, 2]):
        with pytest.raises(ValueError, match="out of range"):
            PMF._scatter_rows(np.asarray(rows), grads, (8, 3))


# -- optimizers: the update keeps the gradient's (validated) support -------
@pytest.mark.parametrize(
    "make",
    [
        lambda: SGD(0.1),
        lambda: MomentumSGD(0.1, momentum=0.9, nesterov=True),
        lambda: Adam(0.1),
    ],
    ids=["sgd", "momentum", "adam"],
)
@given(grad=sparse_deltas(unique=False))
@settings(max_examples=20, deadline=None)
def test_optimizer_update_carries_gradient_support(make, grad):
    sorted_unique = bool(np.all(np.diff(grad.indices) > 0))
    for known in (False, True):  # flag still lazy / already computed
        if known:
            assert grad.has_sorted_unique_indices == sorted_unique
        params = ParameterSet({"w": np.ones(SIZE)})
        update = make().step(params, ModelUpdate({"w": grad}), 1)["w"]
        assert update.indices is grad.indices
        assert update.shape == grad.shape
        assert update.values.dtype == np.float64 and update.values.shape == grad.values.shape
        assert update.has_sorted_unique_indices == sorted_unique


# -- criteo_like: batch-level array code == per-row formulation ------------
def naive_criteo_like(spec, seed):
    """The per-row generator the batch-level one replaced (reference).

    Kept here, unchanged: one ``Generator.choice(p=...)`` per field and
    batch, one ``np.unique`` / 13-term dot / fancy-indexed sum per sample,
    rows assembled by ``CSRMatrix.from_rows``.
    """
    rng = np.random.default_rng(seed)
    n_features = spec.n_numeric + spec.n_hash_buckets
    # Planted model: numeric weights strong, categorical weights sparse.
    w_true = np.zeros(n_features)
    w_true[: spec.n_numeric] = rng.normal(0, 1.5, spec.n_numeric)
    hot = rng.choice(
        spec.n_hash_buckets, size=spec.n_hash_buckets // 5, replace=False
    )
    w_true[spec.n_numeric + hot] = rng.normal(0, 1.0, len(hot))

    # Zipf popularity over categorical values, independently permuted per
    # field so fields do not share hot buckets.
    ranks = np.arange(1, spec.n_hash_buckets + 1, dtype=np.float64)
    popularity = ranks ** (-spec.zipf_a)
    popularity /= popularity.sum()
    field_perms = [
        rng.permutation(spec.n_hash_buckets) for _ in range(spec.n_categorical)
    ]

    batches = []
    intercept = None
    for start in range(0, spec.n_samples, spec.batch_size):
        n = min(spec.batch_size, spec.n_samples - start)
        numeric = rng.uniform(0.0, 1.0, (n, spec.n_numeric))
        cats = np.column_stack(
            [
                field_perms[f][
                    rng.choice(spec.n_hash_buckets, size=n, p=popularity)
                ]
                for f in range(spec.n_categorical)
            ]
        )
        rows = []
        logits = np.zeros(n)
        for i in range(n):
            cat_cols = spec.n_numeric + np.unique(cats[i])
            idx = np.concatenate([np.arange(spec.n_numeric), cat_cols])
            val = np.concatenate([numeric[i], np.ones(len(cat_cols))])
            rows.append((idx, val))
            logits[i] = numeric[i] @ w_true[: spec.n_numeric] + w_true[
                cat_cols
            ].sum()
        if intercept is None:
            # Shift logits so the marginal positive rate is as requested.
            intercept = float(
                np.quantile(logits, 1.0 - spec.positive_rate)
            )
        probs = 1.0 / (1.0 + np.exp(-(logits - intercept)))
        y = (rng.uniform(size=n) < probs).astype(np.float64)
        flips = rng.uniform(size=n) < spec.label_noise
        y[flips] = 1.0 - y[flips]
        batches.append(LRBatch(CSRMatrix.from_rows(rows, n_features), y))
    return Dataset(batches, name=f"criteo-like-{spec.n_samples}")


_TINY = CriteoSpec(n_samples=230, batch_size=64, n_hash_buckets=300, n_categorical=6)

#: label -> (spec, seeds).  The tiny specs walk the shape edges; the wide
#: one has rows of >= 8 and >= 16 unique categorical terms, where NumPy's
#: pairwise summation stops being a left-to-right loop; seed 4 of the
#: committed spec was not used while the generator was rewritten.
CRITEO_CASES = {
    "ragged-last-batch": (_TINY, (0, 1, 2)),
    "batch-size-1": (replace(_TINY, n_samples=9, batch_size=1), (0, 1, 2)),
    "no-numeric": (replace(_TINY, n_numeric=0), (0, 1, 2)),
    "one-field": (replace(_TINY, n_categorical=1), (0, 1, 2)),
    "every-row-collides": (replace(_TINY, n_hash_buckets=4), (0, 1, 2)),
    "uniform-popularity": (replace(_TINY, zipf_a=0.0), (0, 1, 2)),
    "wide-rows": (
        CriteoSpec(n_samples=700, batch_size=256, n_hash_buckets=20_000,
                   n_categorical=40),
        (0, 1, 2),
    ),
    "lr-criteo": (_CRITEO_SPEC, (1, 4)),
    "table3-b250": (replace(_CRITEO_SPEC, batch_size=250), (1,)),
}


@pytest.mark.parametrize("case", CRITEO_CASES)
def test_criteo_like_equals_per_row_formulation(case):
    spec, seeds = CRITEO_CASES[case]
    for seed in seeds:
        fast, naive = criteo_like(spec, seed=seed), naive_criteo_like(spec, seed)
        assert fast.name == naive.name
        assert len(fast) == len(naive)
        for got, want in zip(fast, naive):
            assert got.X.shape == want.X.shape
            for attr in ("indptr", "indices", "data"):
                a, b = getattr(got.X, attr), getattr(want.X, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
            assert got.y.dtype == want.y.dtype
            assert got.y.tobytes() == want.y.tobytes()


def test_planted_logits_keep_the_per_row_float_association():
    """A last-ulp logit error flips a label about once in 1e16 rows, so the
    dataset comparison above cannot see it; the logits are held directly."""
    rng = np.random.default_rng(0)
    n, n_numeric, n_fields = 4_000, 13, 40
    numeric = rng.uniform(size=(n, n_numeric))
    w_numeric = rng.normal(0, 1.5, n_numeric)
    weights = rng.normal(size=(n, n_fields))
    keep = rng.random((n, n_fields)) < rng.random((n, 1))  # 0 .. 40 terms a row
    want = np.array(
        [numeric[i] @ w_numeric + weights[i][keep[i]].sum() for i in range(n)]
    )
    got = _planted_logits(numeric, w_numeric, weights, keep)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
