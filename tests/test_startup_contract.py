"""Start-up contract: a process loads the SciPy its job uses, in set-up, and none it does not.

SciPy has two users — the auto-tuner's curve fitter (``core/curves.py``,
``scipy.optimize``) and the CSR matvec handle (``ml/sparse.py``,
``scipy.sparse``).  Neither import runs with the package, and each is
resolved where a job is *configured* (``AutoTunerConfig(enabled=True)``,
the validating ``CSRMatrix`` constructor), never inside a run.

Each probe is a fresh interpreter that snapshots ``sys.modules`` at named
stages.  Modules only accumulate, so "no SciPy after running a job" also
covers every import the run made on the way.
"""

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

#: every probe script starts with this; ``stage(name)`` records what the
#: interpreter has loaded *beyond* what it started with (site, .pth hooks)
PRELUDE = """
import json, sys
_boot = set(sys.modules)
_stages = {}
def stage(name):
    new = set(sys.modules) - _boot
    # (file-less entries are Cython's runtime shims, registered by numpy.random)
    roots = {m.partition(".")[0] for m in new if getattr(sys.modules[m], "__file__", None)}
    _stages[name] = {
        "scipy": sorted(m for m in new if m.partition(".")[0] == "scipy"),
        "third_party": sorted(roots - set(sys.stdlib_module_names) - {"repro"}),
        "argparse": "argparse" in sys.modules,
        "cli": sorted(m for m in new if m.startswith("repro") and m.endswith("cli")),
        "experiments": sorted(m for m in new if m.startswith("repro.experiments")),
        "boot": len(_boot),
        "count": len(new),
    }
"""

TUNER_OFF = """
import repro
stage("import repro")
import repro.scenarios
stage("import repro.scenarios")
import repro.cli
stage("import repro.cli")

from repro.api import build_world, make_workload, mlless_config, run_mlless
workload = make_workload("pmf-ml10m")
config = mlless_config(workload, n_workers=2, v=0.7, target_loss=0.0, max_steps=3, seed=0)
result = run_mlless(config, world=build_world(seed=0))
assert result.total_steps == 3, result.total_steps
stage("tuner-off pmf sim job")

from repro.scenarios import load_spec_text, run_scenario_spec
spec = load_spec_text('''
[scenario]
name = "tiny"
kind = "platform"
[traffic]
tenants = 3
horizon_s = 600.0
''', fmt="toml")
payload = run_scenario_spec(spec)
assert payload["kpis"]["jobs"] > 0, payload["kpis"]
stage("platform scenario")
"""

TUNER_ON = """
from repro.api import make_workload, mlless_config
workload = make_workload("pmf-ml10m")
dataset = workload.dataset(seed=1)
mlless_config(workload, n_workers=2, autotune=False, dataset=dataset)
stage("tuner-off config")
mlless_config(workload, n_workers=2, v=0.7, autotune=True, dataset=dataset)
stage("tuner-on config")
"""

CSR_DATASET = """
from repro.ml.data.synthetic import CriteoSpec, criteo_like
stage("before criteo_like")
dataset = criteo_like(CriteoSpec(n_samples=400, n_hash_buckets=64, batch_size=100), seed=0)
stage("after criteo_like")
# resolving the import early must not build the handle early (that needs a w)
_stages["spmv"] = sorted({repr(batch.X._spmv) for batch in dataset})
"""


@functools.cache  # one interpreter per script, shared by the tests that read it
def probe(script: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + script + "\nprint(json.dumps(_stages))"],
        text=True, capture_output=True, env={"PYTHONPATH": str(REPO / "src")},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("stage", [
    "import repro", "import repro.scenarios", "import repro.cli",
    "tuner-off pmf sim job", "platform scenario",
])
def test_no_scipy_and_numpy_is_the_only_third_party_root(stage):
    seen = probe(TUNER_OFF)[stage]
    assert seen["scipy"] == []
    assert seen["third_party"] == ["numpy"]


def test_import_repro_loads_neither_argparse_nor_a_cli_module():
    tuner_off = probe(TUNER_OFF)
    # numpy.f2py imports argparse on its own, and only ever arrived through
    # scipy.optimize — so without it sys.modules can say what repro imported
    assert not tuner_off["import repro"]["argparse"]
    assert tuner_off["import repro"]["cli"] == []
    assert tuner_off["import repro.scenarios"]["cli"] == []
    # the figure harness is not part of the package's front door
    assert tuner_off["import repro.scenarios"]["experiments"] == []


def test_import_repro_and_scenarios_stay_under_300_modules():
    # 267 = 300 - 33: at most 300 in all on a clean CPython 3.11/3.12, whose
    # start-up set is 33 modules (``env -i python3.12 -c 'import sys;
    # print(len(sys.modules))'``).  The count is what the import adds beyond
    # the interpreter's own start-up, because a ``.pth`` hook or
    # ``sitecustomize`` changes the boot set, not what repro imports.  A boot
    # set that already holds some of repro's imports makes this laxer than on
    # a clean host, never stricter.  768 added with scipy.optimize at the top
    # of core/curves.py.
    seen = probe(TUNER_OFF)["import repro.scenarios"]
    assert seen["count"] <= 267, f"boot {seen['boot']}, added {seen['count']}"


def test_tuner_on_config_resolves_the_fitter_before_any_run():
    tuner_on = probe(TUNER_ON)
    assert tuner_on["tuner-off config"]["scipy"] == []
    assert "scipy.optimize" in tuner_on["tuner-on config"]["scipy"]


def test_building_a_csr_dataset_resolves_scipy_sparse():
    csr_dataset = probe(CSR_DATASET)
    assert csr_dataset["before criteo_like"]["scipy"] == []
    assert "scipy.sparse" in csr_dataset["after criteo_like"]["scipy"]
    assert "scipy.optimize" not in csr_dataset["after criteo_like"]["scipy"]
    assert csr_dataset["spmv"] == ["None"]


def test_every_scipy_import_is_inside_a_function():
    top_level = re.compile(r"^(from|import) scipy", re.M)
    code_mention = re.compile(r"^\s*(from|import) (scipy\.\w+)", re.M)
    users = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not top_level.search(text), path
        for _, module in code_mention.findall(text):
            users.setdefault(module, []).append(path.relative_to(SRC).as_posix())
    assert users == {
        "scipy.optimize": ["core/config.py", "core/curves.py"],
        "scipy.sparse": ["ml/sparse.py"],
    }
