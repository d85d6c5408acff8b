"""The paper's sanity check (§6.1).

"We fixed a random seed, and trained all models in each system using a
single worker.  We then verified that the convergence rate at each step
was exactly the same in all systems."
"""

import numpy as np
import pytest

from repro import JobConfig, run_mlless
from repro.baselines import (
    PyWrenMLConfig,
    PyWrenMLTrainer,
    ServerfulConfig,
    ServerfulTrainer,
)
from repro.api import build_world

from .conftest import make_model, make_optimizer

STEPS = 25
SEED = 21


def losses_by_step(result):
    return result.monitor.series("loss_by_step").as_arrays()[1]


@pytest.fixture(scope="module")
def single_worker_losses(small_dataset):
    runs = {}

    config = JobConfig(
        model=make_model(), make_optimizer=make_optimizer,
        dataset=small_dataset, n_workers=1, significance_v=0.0,
        target_loss=-1.0, max_steps=STEPS, seed=SEED,
    )
    runs["mlless"] = losses_by_step(run_mlless(config))

    world = build_world(seed=SEED)
    trainer = ServerfulTrainer(world.env, world.streams, world.cos,
                               meter=world.meter)
    runs["serverful"] = losses_by_step(
        trainer.run(
            ServerfulConfig(
                model=make_model(), make_optimizer=make_optimizer,
                dataset=small_dataset, n_ranks=1, target_loss=-1.0,
                max_steps=STEPS, seed=SEED,
            )
        )
    )

    world = build_world(seed=SEED)
    pywren = PyWrenMLTrainer(world.env, world.platform, world.cos,
                             meter=world.meter)
    runs["pywren"] = losses_by_step(
        pywren.run(
            PyWrenMLConfig(
                model=make_model(), make_optimizer=make_optimizer,
                dataset=small_dataset, n_workers=1, target_loss=-1.0,
                max_steps=STEPS, seed=SEED,
            )
        )
    )
    return runs


def test_all_systems_report_full_history(single_worker_losses):
    for system, losses in single_worker_losses.items():
        assert len(losses) == STEPS, system


def test_mlless_matches_serverful_exactly(single_worker_losses):
    np.testing.assert_array_equal(
        single_worker_losses["mlless"], single_worker_losses["serverful"]
    )


def test_mlless_matches_pywren_exactly(single_worker_losses):
    np.testing.assert_array_equal(
        single_worker_losses["mlless"], single_worker_losses["pywren"]
    )


def test_losses_not_constant(single_worker_losses):
    losses = single_worker_losses["mlless"]
    assert losses[-1] < losses[0]


def test_isp_single_worker_also_identical(small_dataset):
    # With one worker there are no peers: ISP filtering must not change
    # the local trajectory at all.
    def run(v):
        config = JobConfig(
            model=make_model(), make_optimizer=make_optimizer,
            dataset=small_dataset, n_workers=1, significance_v=v,
            target_loss=-1.0, max_steps=STEPS, seed=SEED,
        )
        return losses_by_step(run_mlless(config))

    np.testing.assert_array_equal(run(0.0), run(0.9))
