"""Cross-backend convergence: the same machines, simulated vs real threads.

The worker's parameter evolution is deterministic on both backends (same
seeded init, barrier releases list senders in sorted order, peer updates
apply in that order), so sim and local must land on the same final loss
to tight tolerance.  Scheduling is NOT reproduced — the local backend
reports genuine wall-clock timings, which is the point.
"""

import numpy as np
import pytest

from repro import JobConfig, run_mlless
from repro.ml.data import (
    CriteoSpec,
    MLPSpec,
    MovieLensSpec,
    criteo_like,
    mlp_synth,
    movielens_like,
)
from repro.ml.models import PMF, LayeredMLP, LogisticRegression
from repro.ml.optim import Adam, InverseSqrtLR, MomentumSGD

#: worker math is identical; supervisor-side mean-loss aggregation may
#: differ at float ulp level with report arrival order
LOSS_TOL = 1e-9


def pmf_config(**overrides):
    spec = MovieLensSpec(
        n_users=80, n_movies=60, n_ratings=4_000, rank=3, batch_size=500
    )
    kwargs = dict(
        model=PMF(spec.n_users, spec.n_movies, rank=4, l2=0.02,
                  rating_offset=3.5),
        make_optimizer=lambda: MomentumSGD(lr=InverseSqrtLR(8.0), momentum=0.9),
        dataset=movielens_like(spec, seed=2),
        n_workers=3,
        significance_v=0.5,
        target_loss=None,
        max_steps=20,
        seed=0,
    )
    kwargs.update(overrides)
    return JobConfig(**kwargs)


def lr_config():
    spec = CriteoSpec(
        n_samples=4_000, n_hash_buckets=1_000, batch_size=500
    )
    return JobConfig(
        model=LogisticRegression(spec.n_numeric + spec.n_hash_buckets, l2=1e-5),
        make_optimizer=lambda: Adam(lr=0.02),
        dataset=criteo_like(spec, seed=3),
        n_workers=2,
        significance_v=0.3,
        target_loss=None,
        max_steps=15,
        seed=1,
    )


def test_pmf_sim_and_local_reach_same_final_loss():
    sim = run_mlless(pmf_config())
    local = run_mlless(pmf_config(), backend="local")
    assert sim.total_steps == local.total_steps == 20
    assert local.final_loss == pytest.approx(sim.final_loss, abs=LOSS_TOL)
    # Per-step losses must agree too, not just the endpoint.
    _, sim_losses = sim.monitor.series("loss_by_step").as_arrays()
    _, local_losses = local.monitor.series("loss_by_step").as_arrays()
    np.testing.assert_allclose(local_losses, sim_losses, atol=LOSS_TOL)


def mlp_config():
    spec = MLPSpec(n_samples=2_000, n_features=16, hidden=(12,), batch_size=250)
    return JobConfig(
        model=LayeredMLP([spec.n_features, 16, 8, spec.n_outputs]),
        make_optimizer=lambda: Adam(lr=0.01),
        dataset=mlp_synth(spec, seed=4),
        n_workers=2,
        significance_v=0.0,
        target_loss=None,
        max_steps=15,
        seed=2,
    )


def test_lr_sim_and_local_reach_same_final_loss():
    sim = run_mlless(lr_config())
    local = run_mlless(lr_config(), backend="local")
    assert sim.total_steps == local.total_steps == 15
    assert local.final_loss == pytest.approx(sim.final_loss, abs=LOSS_TOL)


def test_mlp_sim_and_local_reach_same_final_loss():
    # Dense data parallelism: both workers hold the full LayeredMLP and
    # exchange dense deltas through the barrier, same as the sparse jobs.
    sim = run_mlless(mlp_config())
    local = run_mlless(mlp_config(), backend="local")
    assert sim.total_steps == local.total_steps == 15
    assert local.final_loss == pytest.approx(sim.final_loss, abs=LOSS_TOL)
    _, sim_losses = sim.monitor.series("loss_by_step").as_arrays()
    _, local_losses = local.monitor.series("loss_by_step").as_arrays()
    np.testing.assert_allclose(local_losses, sim_losses, atol=LOSS_TOL)


def test_local_run_reports_genuine_wall_clock():
    result = run_mlless(pmf_config(max_steps=10), backend="local")
    assert result.system == "mlless-local"
    assert result.total_steps == 10
    # Real elapsed seconds: positive, and small for a tiny job — a sim
    # timestamp leaking through would report tens of simulated seconds.
    assert 0.0 < result.exec_time < 30.0
    assert result.total_cost == 0.0  # no billed platform
    assert result.mean_step_duration() > 0.0


def test_local_ssp_trains_end_to_end():
    config = pmf_config(
        sync="ssp", ssp_staleness=2, n_workers=3, max_steps=15
    )
    result = run_mlless(config, backend="local")
    # SSP applies peer updates in arrival order, which is scheduling-
    # dependent locally — assert progress, not bit-equality.
    assert result.total_steps == 15
    assert np.isfinite(result.final_loss)
    assert result.final_loss < 1.0


def test_local_backend_rejects_sim_only_arguments():
    from repro.experiments.common import build_world

    with pytest.raises(ValueError, match="simulation world"):
        run_mlless(pmf_config(), world=build_world(seed=0), backend="local")
    with pytest.raises(ValueError, match="unknown backend"):
        run_mlless(pmf_config(), backend="cloud")


# -- procs backend ----------------------------------------------------------


def test_pmf_sim_and_procs_reach_same_final_loss():
    sim = run_mlless(pmf_config())
    procs = run_mlless(pmf_config(), backend="procs")
    assert sim.total_steps == procs.total_steps == 20
    assert procs.final_loss == pytest.approx(sim.final_loss, abs=LOSS_TOL)
    # Per-step losses must agree too — gradients crossed process
    # boundaries through the shared-memory arena on every step.
    _, sim_losses = sim.monitor.series("loss_by_step").as_arrays()
    _, procs_losses = procs.monitor.series("loss_by_step").as_arrays()
    np.testing.assert_allclose(procs_losses, sim_losses, atol=LOSS_TOL)


def test_lr_sim_and_procs_reach_same_final_loss():
    sim = run_mlless(lr_config())
    procs = run_mlless(lr_config(), backend="procs")
    assert sim.total_steps == procs.total_steps == 15
    assert procs.final_loss == pytest.approx(sim.final_loss, abs=LOSS_TOL)


def test_procs_run_reports_genuine_wall_clock():
    result = run_mlless(pmf_config(max_steps=10), backend="procs")
    assert result.system == "mlless-procs"
    assert result.total_steps == 10
    assert 0.0 < result.exec_time < 60.0
    assert result.total_cost == 0.0  # no billed platform
    # Every worker process must have exited within the drain grace.
    assert result.extras["workers_drained"] == 3.0


def test_procs_ssp_trains_end_to_end():
    # SSP skips the shared-memory arena (staleness breaks the
    # parity-slot argument) and ships updates pickled; assert progress,
    # not bit-equality, as with local SSP.
    config = pmf_config(
        sync="ssp", ssp_staleness=2, n_workers=3, max_steps=15
    )
    result = run_mlless(config, backend="procs")
    assert result.total_steps == 15
    assert np.isfinite(result.final_loss)
    assert result.final_loss < 1.0
