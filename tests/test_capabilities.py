"""Walk the capability table: every cell, every conflicting pair.

The cases are generated from ``TABLE`` and ``CONFLICTS`` themselves, so
a row, a backend or a pair added to the table is covered here without a
new test.  A *supported* cell must train a tiny job — on ``local`` and
``procs`` to the simulator's final loss within 1e-9.  A *refused* cell
must raise exactly the declared sentence from ``run_mlless`` and, where
a spec key can ask for the feature, a ``SpecError`` at that key from
``spec_from_dict``.  ``RECIPES`` says how each row is switched on at
each level; it is the only hand-written part.
"""

import copy
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import pytest

from repro import JobConfig, run_mlless
from repro.cli import main
from repro.core import AdaptiveConfig, AutoTunerConfig
from repro.core.capabilities import (
    ADAPTIVE,
    AUTOTUNE,
    BACKENDS,
    CONFLICTS,
    COST_METERING,
    CRASH_RECOVERY,
    FAULTS,
    ISP,
    PIPELINE,
    RERUN,
    SSP,
    SWEEP,
    TABLE,
    TRACING,
    WORLD,
    Refusal,
    check,
    render_markdown,
    supports,
)
from repro.experiments.common import build_world
from repro.faults import FaultProfile
from repro.ml.data import MLPSpec, mlp_synth
from repro.ml.models import LayeredMLP
from repro.ml.optim import Adam
from repro.scenarios import (
    SpecError,
    dump_spec_toml,
    run_scenario_spec,
    spec_from_dict,
)
from repro.trace import Tracer

REPO = Path(__file__).resolve().parents[1]

#: the tolerance ``tests/exec/test_cross_backend.py`` holds sim-vs-host to
LOSS_TOL = 1e-9
STEPS = 8

DATASET = mlp_synth(
    MLPSpec(n_samples=900, n_features=8, hidden=(6, 6), batch_size=150), seed=3
)
STRAGGLERS = FaultProfile(
    name="straggle", straggler_rate=0.9, straggler_factor=(3.0, 3.0)
)


def tiny_job(**overrides):
    """A dense three-worker MLP job with every optional feature off."""
    kwargs = dict(
        model=LayeredMLP([8, 6, 6, 1]),
        make_optimizer=lambda: Adam(lr=0.01),
        dataset=DATASET,
        n_workers=3,
        target_loss=None,
        max_steps=STEPS,
        seed=0,
    )
    kwargs.update(overrides)
    return JobConfig(**kwargs)


@dataclass(frozen=True)
class Recipe:
    """How to switch one table row on, and nothing else."""

    #: ``JobConfig`` overrides (None: not something a config can ask for)
    config: Optional[dict] = None
    #: extra ``run_mlless`` arguments, built fresh per run
    run: Optional[Callable[[], dict]] = None
    #: ``(result, run arguments) -> bool``: the feature really took effect
    #: (for rows a backend could "support" by silently ignoring them)
    live: Callable = lambda result, extra: True
    #: spec-document sections (None: no spec key asks for it)
    spec: Optional[dict] = None
    #: the spec key a refusal of this feature is reported at
    path: Optional[str] = None
    #: False: the wall-clock backends cannot reproduce sim's loss bit for
    #: bit (gossip applies peer updates in arrival order); they must land
    #: nearer to sim's final loss than to its first
    exact: bool = True

    @property
    def job_level(self) -> bool:
        """``run_mlless`` can be asked for it (else only a scenario can)."""
        return self.config is not None or self.run is not None


RECIPES = {
    SSP: Recipe(
        config={"sync": "ssp"},
        spec={"workload": {"sync": "ssp"}},
        path="workload.sync",
        exact=False,
    ),
    # The controller is planted but held in warm-up: what it would do with
    # wall-clock skew is its own business (tests/integration/test_adaptive).
    ADAPTIVE: Recipe(
        config={"sync": "adaptive",
                "adaptive": AdaptiveConfig(warmup_steps=10**6)},
        spec={"workload": {"sync": "adaptive"}},
        path="workload.sync",
    ),
    ISP: Recipe(
        config={"significance_v": 0.5},
        spec={"workload": {"isp_threshold": 0.5}},
        path="workload.isp_threshold",
    ),
    AUTOTUNE: Recipe(
        config={"autotuner": AutoTunerConfig(enabled=True)},
        spec={"workload": {"autotune": True}},
        path="workload.autotune",
    ),
    PIPELINE: Recipe(
        config={"pipeline_stages": 3, "micro_batches": 2},
        spec={"workload": {"name": "mlp-synth", "kind": "mlp-pipeline",
                           "workers": 3, "stages": 3, "micro_batches": 2}},
        path="workload.kind",
    ),
    FAULTS: Recipe(
        config={"faults": STRAGGLERS, "fault_tolerance": False},
        live=lambda result, extra: result.extras["faults_injected"] > 0,
        spec={"faults": {"straggler_rate": 0.3}},
        path="faults",
    ),
    CRASH_RECOVERY: Recipe(
        config={"fault_tolerance": True},
        # a spec asks for recovery by asking for crashes
        spec={"faults": {"crash_rate": 0.1}},
        path="faults",
    ),
    TRACING: Recipe(
        run=lambda: {"tracer": Tracer()},
        live=lambda result, extra: len(extra["tracer"].spans) > 0,
        spec={"report": {"critical_path": True}},
        path="report.critical_path",
    ),
    COST_METERING: Recipe(spec={"pricing": {"rate_per_gb_s": 3.4e-5}}, path="pricing"),
    WORLD: Recipe(
        run=lambda: {"world": build_world(seed=0)},
        live=lambda result, extra: extra["world"].env.now == result.finished_at > 0,
    ),
    RERUN: Recipe(),
    SWEEP: Recipe(spec={"sweep": {"workers": [2, 3]}}, path="sweep"),
}


def spec_doc(backend, *features):
    """A tiny single-job document asking for exactly ``features``."""
    doc = {
        "scenario": {"name": "cell", "kind": "single-job", "seed": 3},
        "workload": {"name": "pmf-ml10m", "workers": 2, "max_steps": 5,
                     "backend": backend},
    }
    for feature in features:
        for section, table in copy.deepcopy(RECIPES[feature].spec).items():
            doc.setdefault(section, {}).update(table)
    return doc


def test_the_recipes_cover_the_table():
    assert list(RECIPES) == list(TABLE)
    assert all(list(row) == list(BACKENDS) for row in TABLE.values())
    for feature, recipe in RECIPES.items():
        if recipe.config is not None:
            assert tiny_job(**recipe.config).features == {feature}


# -- supported cells ---------------------------------------------------------


def run_job(feature, backend):
    """The tiny job with ``feature`` on, run on ``backend``."""
    recipe = RECIPES[feature]
    extra = recipe.run() if recipe.run is not None else {}
    result = run_mlless(tiny_job(**(recipe.config or {})), backend=backend, **extra)
    assert recipe.live(result, extra), f"{feature} was asked for and ignored"
    return result


def run_scenario(backend, *features):
    """The tiny scenario asking for ``features``, run on ``backend``."""
    return run_scenario_spec(spec_from_dict(spec_doc(backend, *features)))


#: a sim run is the reference for its row's two other cells
sim_job = functools.lru_cache(maxsize=None)(functools.partial(run_job, backend="sim"))
sim_scenario = functools.lru_cache(maxsize=None)(functools.partial(run_scenario, "sim"))


def assert_job_trains(feature, backend):
    result = sim_job(feature) if backend == "sim" else run_job(feature, backend)
    _, losses = result.losses()
    assert result.total_steps == STEPS
    assert np.isfinite(result.final_loss) and losses[-1] < losses[0]
    if backend != "sim":
        reference = sim_job(feature)
        tolerance = LOSS_TOL
        if not RECIPES[feature].exact:
            tolerance = 0.5 * (reference.losses()[1][0] - reference.final_loss)
        assert result.final_loss == pytest.approx(reference.final_loss, abs=tolerance)


def assert_scenario_trains(feature, backend):
    """The rows only a scenario can ask for: a bill, a sweep, a rerun."""
    asked = () if RECIPES[feature].spec is None else (feature,)
    payload = run_scenario(backend, *asked)
    reference = sim_scenario(*asked)
    assert [run["steps"] for run in payload["runs"]] == [5] * len(payload["runs"])
    for run, sim_run in zip(payload["runs"], reference["runs"], strict=True):
        assert run["final_loss"] == pytest.approx(sim_run["final_loss"], abs=LOSS_TOL)
    if feature == SWEEP:
        assert [run["workers"] for run in payload["runs"]] == [2, 3]
    elif feature == COST_METERING:  # the recipe doubles the default rate
        billed, default = (
            p["runs"][0]["cost_breakdown_usd"]["functions"]
            for p in (payload, sim_scenario())
        )
        assert billed == pytest.approx(2 * default) and default > 0
    else:
        assert feature == RERUN and payload["deterministic"]
        assert payload["digest"] == reference["digest"]


# -- refused cells -----------------------------------------------------------


def assert_refused(feature, backend, message, tmp_path, capsys):
    recipe = RECIPES[feature]
    if recipe.job_level:
        with pytest.raises(Refusal) as refusal:
            run_job(feature, backend)
        assert (str(refusal.value), refusal.value.feature) == (message, feature)
    if recipe.spec is not None:
        with pytest.raises(SpecError) as error:
            spec_from_dict(spec_doc(backend, feature))
        assert error.value.path == recipe.path
        assert str(error.value) == f"{recipe.path}: {message}"
    if feature == RERUN:
        spec = spec_from_dict(spec_doc(backend))
        assert not spec.deterministic
        path = tmp_path / "wall-clock.toml"
        path.write_text(dump_spec_toml(spec), encoding="utf-8")
        assert main(["scenario", "run", str(path), "--rerun-check"]) == 2
        captured = capsys.readouterr()
        # refused before the first run, in the table's words
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("feature", list(TABLE))
def test_cell(feature, backend, tmp_path, capsys):
    cell = TABLE[feature][backend]
    assert supports(feature, backend) == (cell.refused is None)
    if cell.refused is not None:
        with pytest.raises(Refusal) as refusal:
            check([feature], backend)
        assert str(refusal.value) == cell.refused
        assert_refused(feature, backend, cell.refused, tmp_path, capsys)
        return
    recipe = RECIPES[feature]
    if recipe.job_level:
        assert_job_trains(feature, backend)
    else:
        assert_scenario_trains(feature, backend)


def test_ssp_with_the_isp_filter_runs_as_a_scenario():
    """Tier-1 trains ISP over SSP to convergence (tests/integration/
    test_ssp.py); the spec layer used to refuse the same job."""
    payload = run_scenario_spec(spec_from_dict(spec_doc("sim", SSP, ISP)))
    (run,) = payload["runs"]
    assert (run["sync"], run["isp_threshold"], run["steps"]) == ("ssp", 0.5, 5)
    assert np.isfinite(run["final_loss"])


# -- conflicting pairs -------------------------------------------------------


@pytest.mark.parametrize(
    "first, second, message", CONFLICTS, ids=[f"{a}+{b}" for a, b, _ in CONFLICTS]
)
def test_conflicting_pair(first, second, message):
    configs = [RECIPES[first].config, RECIPES[second].config]
    if None not in configs:
        with pytest.raises(Refusal) as refusal:
            tiny_job(**configs[0], **configs[1])
        assert (str(refusal.value), refusal.value.feature) == (message, second)
    # ... and the spec layer says the same thing, at the key that asked
    # for the feature that cannot join
    with pytest.raises(SpecError) as error:
        spec_from_dict(spec_doc("sim", first, second))
    path = RECIPES[second].path
    assert (error.value.path, str(error.value)) == (path, f"{path}: {message}")


def test_check_rejects_names_that_are_not_rows():
    with pytest.raises(KeyError, match="not capability rows"):
        check(["isp", "turbo"], "sim")


# -- the table is the only copy ----------------------------------------------


def test_readme_matrix_is_the_rendered_table():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    begin, end = "<!-- capabilities:begin -->\n", "<!-- capabilities:end -->"
    block = readme.split(begin)[1].split(end)[0]
    assert block == render_markdown() + "\n", (
        "README.md's 'What runs where' block is stale: paste the output of "
        "repro.core.capabilities.render_markdown() between the markers"
    )


def test_combinations_are_refused_in_one_place():
    raising = sorted(
        str(path.relative_to(REPO))
        for path in (REPO / "src" / "repro").rglob("*.py")
        if "raise Refusal(" in path.read_text(encoding="utf-8")
    )
    assert raising == ["src/repro/core/capabilities.py"]
