"""DES digest-invariance regression across the backend seam.

The backend-neutral refactor (machines yielding service-call tokens,
driven by ``repro.exec.sim``) must be **bit-identical** to the old
direct-DES handlers: same event schedule, same RNG draw order, same
monitor trace.  These digests were captured on the pre-refactor tree;
any change to them means the sim backend stopped being a faithful
adapter — that is a bug in the adapter, never an "expected update".
"""

import pytest

from repro.analysis.determinism import check_determinism, default_run
from repro.core import JobConfig, MLLessDriver
from repro.api import build_world, make_runtime
from repro.faults import FAULT_PROFILES
from repro.ml.data import MovieLensSpec, movielens_like
from repro.ml.models import PMF
from repro.ml.optim import InverseSqrtLR, MomentumSGD

# sha256 monitor-trace digests captured on the pre-refactor tree
# (direct-DES handlers, commit 29753ed).
ORACLE_DIGESTS = {
    0: "9baab87af2decab7bf2ff954431fd4c9373b76ccea93268722cae0242a097578",
    7: "4d0e0dcebc52201e2abb916afb913e1c533555cdeaed3c5b5ad67028810cdc9c",
}

VARIANT_DIGESTS = {
    "bsp": "9baab87af2decab7bf2ff954431fd4c9373b76ccea93268722cae0242a097578",
    "ssp": "e9f1ac90b2c24927e5f83c3468e69fccc9e313deef31128bec730d5625da024c",
    "bsp_chaos": "07b9ede16a80c8fdf022219c168bdc4b08f4950d438aa5ab76014e1ddcbb35e9",
    "bsp_v0": "c6120090d63b1129934828fd3713e07a1bc295568eaa6940374f1d5f733724ed",
    # the v = 0 checkpoint path under faults (captured at 1ce24c9)
    "bsp_v0_chaos": "998794855129b6ad9ac0e0b4223ac2e027e4696311c469634ca85229dc87bec0",
}


def _variant_digest(sync="bsp", faults=None, v=0.5):
    """The determinism-oracle job, parameterized like the capture script."""
    spec = MovieLensSpec(
        n_users=60, n_movies=50, n_ratings=3_000, rank=3, batch_size=400
    )
    config = JobConfig(
        model=PMF(spec.n_users, spec.n_movies, rank=4, l2=0.02,
                  rating_offset=3.5),
        make_optimizer=lambda: MomentumSGD(lr=InverseSqrtLR(8.0), momentum=0.9),
        dataset=movielens_like(spec, seed=2),
        n_workers=3,
        significance_v=v,
        sync=sync,
        target_loss=None,
        max_steps=25,
        seed=0,
        faults=faults,
    )
    world = build_world(seed=config.seed, faults=faults)
    runtime = make_runtime(world, config)
    runtime.monitor.enable_trace()
    MLLessDriver(world.env, world.platform, runtime, meter=world.meter).run()
    return runtime.monitor.trace_digest()


@pytest.mark.parametrize("seed", sorted(ORACLE_DIGESTS))
def test_oracle_digest_matches_pre_refactor(seed):
    monitor = default_run(seed)
    assert monitor.trace_digest() == ORACLE_DIGESTS[seed]


def test_bsp_digest_matches_pre_refactor():
    assert _variant_digest(sync="bsp") == VARIANT_DIGESTS["bsp"]


def test_ssp_digest_matches_pre_refactor():
    # SSP rides the shared train_step now; its schedule must not have moved.
    assert _variant_digest(sync="ssp") == VARIANT_DIGESTS["ssp"]


def test_faulted_digest_matches_pre_refactor():
    # Fault injection exercises machine.throw delivery (crashes, storage
    # errors, resyncs) — the recovery paths must replay identically.
    assert (
        _variant_digest(sync="bsp", faults=FAULT_PROFILES["chaos"])
        == VARIANT_DIGESTS["bsp_chaos"]
    )


def test_bsp_v0_digest_matches_pre_refactor():
    assert _variant_digest(sync="bsp", v=0.0) == VARIANT_DIGESTS["bsp_v0"]


def test_faulted_v0_digest_is_pinned():
    # v = 0 with faults: the pass-through filter's checkpoint and relaunch
    # path, which neither bsp_chaos (v = 0.5) nor bsp_v0 (no faults) runs.
    assert (
        _variant_digest(sync="bsp", faults=FAULT_PROFILES["chaos"], v=0.0)
        == VARIANT_DIGESTS["bsp_v0_chaos"]
    )


def test_oracle_still_deterministic_run_to_run():
    report = check_determinism(seed=0, runs=2)
    assert report.ok, report.divergence
