"""Unit tests for the serverful and PyWren baseline trainers."""

import numpy as np
import pytest

from repro.baselines import (
    PyWrenMLConfig,
    PyWrenMLTrainer,
    ServerfulConfig,
    ServerfulTrainer,
)
from repro.api import build_world
from repro.ml.data import MovieLensSpec, movielens_like
from repro.ml.models import PMF
from repro.ml.optim import InverseSqrtLR, MomentumSGD

SPEC = MovieLensSpec(n_users=80, n_movies=60, n_ratings=4_000, batch_size=250)


@pytest.fixture(scope="module")
def dataset():
    return movielens_like(SPEC, seed=4)


def model():
    return PMF(SPEC.n_users, SPEC.n_movies, rank=4, l2=0.02, rating_offset=3.5)


def optimizer():
    return MomentumSGD(lr=InverseSqrtLR(6.0), momentum=0.9, nesterov=True)


def serverful(dataset, **overrides):
    world = build_world(seed=5)
    trainer = ServerfulTrainer(world.env, world.streams, world.cos,
                               meter=world.meter)
    kwargs = dict(
        model=model(), make_optimizer=optimizer, dataset=dataset,
        n_ranks=4, target_loss=-1.0, max_steps=30, seed=5,
    )
    kwargs.update(overrides)
    return world, trainer.run(ServerfulConfig(**kwargs))


def pywren(dataset, **overrides):
    world = build_world(seed=5)
    trainer = PyWrenMLTrainer(world.env, world.platform, world.cos,
                              meter=world.meter)
    kwargs = dict(
        model=model(), make_optimizer=optimizer, dataset=dataset,
        n_workers=4, target_loss=-1.0, max_steps=12, seed=5,
    )
    kwargs.update(overrides)
    return world, trainer.run(PyWrenMLConfig(**kwargs))


# -------------------------------------------------------------- serverful
def test_serverful_runs_requested_steps(dataset):
    _world, result = serverful(dataset)
    assert result.total_steps == 30
    assert result.system == "serverful"


def test_serverful_boot_excluded_from_exec_time(dataset):
    _world, result = serverful(dataset)
    assert result.setup_duration > 30  # VM boot
    assert result.exec_time < result.wall_time


def test_serverful_cost_is_vm_leases_only(dataset):
    _world, result = serverful(dataset)
    breakdown = result.meter.breakdown()
    assert breakdown["B1.4x8"] > 0
    # No function activations billed in a serverful run.
    assert breakdown.get("functions", 0.0) == 0.0


def test_serverful_vm_count_matches_ranks(dataset):
    cfg = ServerfulConfig(
        model=model(), make_optimizer=optimizer, dataset=dataset, n_ranks=9
    )
    assert cfg.n_vms == 3  # ceil(9/4)
    assert cfg.ranks_per_vm == 4


def test_serverful_target_stop(dataset):
    _world, result = serverful(dataset, target_loss=0.85, max_steps=500)
    assert result.converged
    assert result.final_loss <= 0.85


def test_serverful_deterministic(dataset):
    _w1, r1 = serverful(dataset)
    _w2, r2 = serverful(dataset)
    np.testing.assert_array_equal(r1.losses()[1], r2.losses()[1])
    assert r1.exec_time == r2.exec_time


def test_serverful_validates(dataset):
    with pytest.raises(ValueError):
        ServerfulConfig(model=model(), make_optimizer=optimizer,
                        dataset=dataset, n_ranks=0)
    with pytest.raises(ValueError):
        ServerfulConfig(model=model(), make_optimizer=optimizer,
                        dataset=dataset, n_ranks=10_000)


def test_serverful_max_time_cap(dataset, monkeypatch):
    monkeypatch.setattr(ServerfulConfig, "max_time_s", 10.0)
    _world, result = serverful(dataset, max_steps=10_000)
    assert not result.converged
    assert result.exec_time < 120


# ----------------------------------------------------------------- pywren
def test_pywren_runs_requested_steps(dataset):
    _world, result = pywren(dataset)
    assert result.total_steps == 12
    assert result.system == "pywren"


def test_pywren_bills_map_and_reduce_activations(dataset):
    world, result = pywren(dataset)
    functions = [r.function for r in world.platform.billing.records]
    assert functions.count("pywren-ml-map") == 12 * 4
    assert functions.count("pywren-ml-reduce") == 12


def test_pywren_cost_is_functions_only(dataset):
    _world, result = pywren(dataset)
    assert set(result.meter.breakdown()) == {"functions"}


def test_pywren_slower_per_step_than_serverful(dataset):
    _w1, pw = pywren(dataset, max_steps=8)
    _w2, sf = serverful(dataset, max_steps=8)
    assert pw.mean_step_duration() > sf.mean_step_duration()


def test_pywren_matches_serverful_trajectory(dataset):
    # Identical averaging semantics: the two baselines follow the same
    # loss-by-step sequence given the same seed.
    _w1, pw = pywren(dataset, max_steps=10)
    _w2, sf = serverful(dataset, max_steps=10)
    np.testing.assert_allclose(
        pw.monitor.series("loss_by_step").as_arrays()[1],
        sf.monitor.series("loss_by_step").as_arrays()[1],
        rtol=1e-9,
    )


def test_pywren_moves_dense_payloads(dataset):
    world, _result = pywren(dataset, max_steps=3)
    # The map tasks upload dense gradients: bytes_in per step must be at
    # least n_workers * dense model size.
    dense_bytes = model().dense_gradient_bytes()
    assert world.cos.metrics.bytes_in > 3 * 4 * dense_bytes * 0.5


def test_pywren_validates(dataset):
    with pytest.raises(ValueError):
        PyWrenMLConfig(model=model(), make_optimizer=optimizer,
                       dataset=dataset, n_workers=0)
    with pytest.raises(ValueError):
        PyWrenMLConfig(model=model(), make_optimizer=optimizer,
                       dataset=dataset, n_workers=10_000)
