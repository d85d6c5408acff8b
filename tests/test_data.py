"""Unit tests for datasets: generators, containers, normalization."""

import numpy as np
import pytest

from repro.ml.data import (
    CriteoSpec,
    Dataset,
    LRBatch,
    MLPSpec,
    MovieLensSpec,
    PMFBatch,
    combine_stats,
    criteo_like,
    minmax_apply,
    minmax_stats,
    movielens_like,
    normalize_dataset,
)
from repro.ml.sparse import CSRMatrix

SMALL_CRITEO = CriteoSpec(
    n_samples=2000, n_hash_buckets=500, batch_size=250, n_categorical=5
)
SMALL_ML = MovieLensSpec(n_users=50, n_movies=40, n_ratings=2000, batch_size=250)


# ------------------------------------------------------------------ criteo
def test_criteo_like_shapes():
    ds = criteo_like(SMALL_CRITEO, seed=0)
    assert ds.n_samples == 2000
    assert len(ds) == 8
    batch = ds[0]
    assert isinstance(batch, LRBatch)
    assert batch.X.shape == (250, SMALL_CRITEO.n_numeric + 500)


def test_criteo_like_deterministic():
    a = criteo_like(SMALL_CRITEO, seed=5)
    b = criteo_like(SMALL_CRITEO, seed=5)
    np.testing.assert_array_equal(a[0].X.data, b[0].X.data)
    np.testing.assert_array_equal(a[0].y, b[0].y)


def test_criteo_like_seed_changes_data():
    a = criteo_like(SMALL_CRITEO, seed=1)
    b = criteo_like(SMALL_CRITEO, seed=2)
    assert not np.array_equal(a[0].y, b[0].y)


def test_criteo_like_labels_binary_and_rate():
    ds = criteo_like(SMALL_CRITEO, seed=0)
    y = np.concatenate([b.y for b in ds])
    assert set(np.unique(y)) <= {0.0, 1.0}
    assert 0.1 < y.mean() < 0.5  # near the 25% positive rate


def test_criteo_like_sparse():
    ds = criteo_like(SMALL_CRITEO, seed=0)
    assert ds[0].X.density < 0.1


def test_criteo_zipf_concentrates_columns():
    skewed = criteo_like(SMALL_CRITEO, seed=0)
    uniform_spec = CriteoSpec(
        n_samples=2000, n_hash_buckets=500, batch_size=250,
        n_categorical=5, zipf_a=0.01,
    )
    uniform = criteo_like(uniform_spec, seed=0)
    unique_skewed = len(np.unique(skewed[0].X.indices))
    unique_uniform = len(np.unique(uniform[0].X.indices))
    assert unique_skewed < unique_uniform


# --------------------------------------------------------------- movielens
def test_movielens_like_shapes():
    ds = movielens_like(SMALL_ML, seed=0)
    assert ds.n_samples == 2000
    batch = ds[0]
    assert isinstance(batch, PMFBatch)
    assert batch.users.max() < 50
    assert batch.movies.max() < 40


def test_movielens_ratings_in_range_half_star():
    ds = movielens_like(SMALL_ML, seed=0)
    ratings = np.concatenate([b.ratings for b in ds])
    assert ratings.min() >= 0.5 and ratings.max() <= 5.0
    np.testing.assert_allclose(ratings * 2, np.round(ratings * 2))


def test_movielens_deterministic():
    a = movielens_like(SMALL_ML, seed=9)
    b = movielens_like(SMALL_ML, seed=9)
    np.testing.assert_array_equal(a[0].ratings, b[0].ratings)


def test_movielens_popularity_skewed():
    ds = movielens_like(SMALL_ML, seed=0)
    movies = np.concatenate([b.movies for b in ds])
    counts = np.bincount(movies, minlength=40)
    # Zipf: the most popular movie appears far more than the median one.
    assert counts.max() > 5 * max(np.median(counts), 1)


# ------------------------------------------------------------------- specs
@pytest.mark.parametrize(
    "make, field, value",
    [
        (CriteoSpec, "n_samples", 0),
        (CriteoSpec, "n_numeric", -1),
        (CriteoSpec, "n_categorical", 0),
        (CriteoSpec, "n_hash_buckets", 0),
        (CriteoSpec, "batch_size", 0),
        (CriteoSpec, "batch_size", -5),
        (CriteoSpec, "positive_rate", 1.5),
        (CriteoSpec, "label_noise", 2.0),
        (CriteoSpec, "label_noise", float("nan")),
        (MovieLensSpec, "n_users", 0),
        (MovieLensSpec, "n_movies", 0),
        (MovieLensSpec, "n_ratings", 0),
        (MovieLensSpec, "rank", 0),
        (MovieLensSpec, "batch_size", 0),
        (MovieLensSpec, "noise", -0.1),
        (MLPSpec, "n_samples", 0),
        (MLPSpec, "n_features", 0),
        (MLPSpec, "hidden", (24, 0)),
        (MLPSpec, "n_outputs", 0),
        (MLPSpec, "batch_size", 0),
        (MLPSpec, "noise", -1.0),
    ],
)
def test_dataset_specs_refuse_out_of_range_fields_by_name(make, field, value):
    with pytest.raises(ValueError, match=field):
        make(**{field: value})


def test_dataset_specs_accept_the_range_edges():
    CriteoSpec(n_numeric=0, n_categorical=1, positive_rate=0.0, label_noise=1.0)
    MovieLensSpec(rank=1, noise=0.0)
    MLPSpec(hidden=(), noise=0.0)


# ----------------------------------------------------------------- dataset
def test_dataset_partition_covers_all_batches_once():
    ds = movielens_like(SMALL_ML, seed=0)
    parts = ds.partition(3)
    flat = sorted(i for part in parts for i in part)
    assert flat == list(range(len(ds)))


def test_dataset_partition_roundrobin_balance():
    ds = movielens_like(SMALL_ML, seed=0)
    parts = ds.partition(3)
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1


def test_dataset_partition_validates():
    ds = movielens_like(SMALL_ML, seed=0)
    with pytest.raises(ValueError):
        ds.partition(0)


def test_dataset_requires_batches():
    with pytest.raises(ValueError):
        Dataset([])


def test_dataset_stage_into_object_store():
    from repro.sim import Environment, RandomStreams
    from repro.storage import ObjectStore

    env = Environment()
    cos = ObjectStore(env, RandomStreams(0))
    ds = movielens_like(SMALL_ML, seed=0)
    keys = ds.stage(cos, "bucket")
    assert len(keys) == len(ds)
    assert cos.object_count("bucket") == len(ds)
    assert cos.peek("bucket", keys[0]) is ds[0]


def test_batch_validation():
    with pytest.raises(ValueError):
        LRBatch(CSRMatrix.from_dense(np.eye(3)), np.zeros(2))
    with pytest.raises(ValueError):
        PMFBatch(np.zeros(2, np.int32), np.zeros(3, np.int32), np.zeros(2))


def test_batch_nbytes_positive():
    ds1 = criteo_like(SMALL_CRITEO, seed=0)
    ds2 = movielens_like(SMALL_ML, seed=0)
    assert ds1[0].nbytes > 0 and ds2[0].nbytes > 0
    assert ds1.nbytes == sum(b.nbytes for b in ds1)


# ------------------------------------------------------------ normalization
def test_minmax_stats_and_apply():
    # Stats cover explicitly *stored* entries (sparse semantics: zeros are
    # not materialized, hence not observed).
    dense = np.array([[2.0, 10.0, 1.0], [4.0, 20.0, 0.0], [3.0, 5.0, 1.0]])
    X = CSRMatrix.from_dense(dense)
    stats = minmax_stats(X, dense_cols=2)
    np.testing.assert_allclose(stats.minimum, [2.0, 5.0])
    np.testing.assert_allclose(stats.maximum, [4.0, 20.0])
    scaled = minmax_apply(X, stats)
    out = scaled.to_dense()
    assert out[:, 0].min() == 0.0 and out[:, 0].max() == 1.0
    # Column 2 (beyond dense_cols) untouched.
    np.testing.assert_allclose(out[:, 2], dense[:, 2])


def test_minmax_stats_sparse_zeros_not_counted():
    # A column with no stored entries gets [0, 0] stats, range 1.
    X = CSRMatrix.from_dense(np.array([[0.0, 5.0], [0.0, 10.0]]))
    stats = minmax_stats(X, dense_cols=2)
    assert stats.minimum[0] == 0.0 and stats.maximum[0] == 0.0
    assert stats.range_or_one()[0] == 1.0


def test_combine_stats():
    a = minmax_stats(CSRMatrix.from_dense(np.array([[1.0], [5.0]])), 1)
    b = minmax_stats(CSRMatrix.from_dense(np.array([[3.0], [9.0]])), 1)
    combined = combine_stats([a, b])
    assert combined.minimum[0] == 1.0 and combined.maximum[0] == 9.0
    with pytest.raises(ValueError):
        combine_stats([])


def test_normalize_dataset_end_to_end():
    ds = criteo_like(SMALL_CRITEO, seed=0)
    normalized, stats = normalize_dataset(ds, dense_cols=SMALL_CRITEO.n_numeric)
    assert len(normalized) == len(ds)
    for batch in normalized:
        dense_block_mask = batch.X.indices < SMALL_CRITEO.n_numeric
        vals = batch.X.data[dense_block_mask]
        assert vals.min() >= -1e-9 and vals.max() <= 1 + 1e-9
