"""``[tool.sim-lint]`` configuration loading.

Configuration lives in ``pyproject.toml`` so the analyzer, CI and
developers all read one source of truth.  Recognised keys (all optional;
defaults reproduce the repo layout)::

    [tool.sim-lint]
    # package-relative directories that run on the simulated clock —
    # SIM001/SIM003/SIM005/SIM006 apply only here
    simulated-layers = ["sim", "faas", "storage", "net", "vm", "core", "faults"]
    # modules where float ==/!= comparisons are audited (SIM004)
    billing-modules = ["faas/billing.py", "experiments/report.py"]
    # path fragments excluded from scanning entirely
    exclude = []

    [tool.sim-lint.allow]
    # per-module rule allowlist: these modules may use the listed rules'
    # banned constructs (e.g. explicitly seeded RNG factories)
    "sim/rand.py" = ["SIM002"]

    [tool.sim-lint.exec]          # EXEC1xx backend-neutrality family
    machine-modules = []          # extra machine hosts beyond detection
    protocols-module = "exec/protocols.py"
    services-protocol = "Services"
    banned-imports = ["sim", "exec.sim", "threading", "queue", "time"]  # + more defaults

    [tool.sim-lint.seed]          # SEED1xx seed-stream family
    rng-factories = ["sim/rand.py"]   # modules allowed to build RNGs

    [tool.sim-lint.lock]          # LOCK1xx thread-backend family
    modules = ["exec/local.py"]   # modules under lock-hygiene rules
    sanctioned-blocking = []      # helper qualnames allowed to block forever

The file is parsed with the standard library's :mod:`tomllib`.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = ["SimLintConfig", "load_config"]

#: directories (relative to the package root) simulated-clock rules police
DEFAULT_SIMULATED_LAYERS = (
    "sim",
    "faas",
    "storage",
    "net",
    "vm",
    "core",
    "faults",
)

#: modules whose arithmetic feeds bills / reports (SIM004 scope)
DEFAULT_BILLING_MODULES = (
    "faas/billing.py",
    "experiments/report.py",
    "pricing/meter.py",
    "pricing/catalog.py",
)

#: the distribution's top package: absolute imports of it normalise to
#: the same package-relative form the layer prefixes use
DEFAULT_PACKAGE_NAME = "repro"

#: module hosting the backend contract (EXEC102 reads its verb table)
DEFAULT_PROTOCOLS_MODULE = "exec/protocols.py"

#: the data-plane protocol class machines yield tokens from
DEFAULT_SERVICES_CLASS = "Services"

#: modules (package-relative) machine hosts may never import — the sim
#: kernel, the concrete backends, and host concurrency/clock/IO modules.
#: Matching is by dotted prefix: ``sim`` bans ``sim.core`` too.
DEFAULT_EXEC_BANNED_IMPORTS = (
    "sim",
    "exec.sim",
    "exec.local",
    "threading",
    "queue",
    "_thread",
    "multiprocessing",
    "concurrent",
    "asyncio",
    "socket",
    "subprocess",
    "selectors",
    "select",
    "signal",
    "time",
    "os",
)

#: modules allowed to construct RNGs directly (SEED103): the stream
#: registry itself plus the explicitly seeded factories that SIM002's
#: per-module allowlist has always covered
DEFAULT_SEED_RNG_FACTORIES = (
    "sim/rand.py",
    "ml/data/synthetic.py",
    "core/worker.py",
    "baselines/pywren_ml.py",
    "baselines/serverful.py",
)

#: thread-backend modules whose lock discipline LOCK1xx polices
DEFAULT_LOCK_MODULES = ("exec/local.py",)


@dataclass(frozen=True)
class SimLintConfig:
    """Resolved analyzer configuration."""

    simulated_layers: Tuple[str, ...] = DEFAULT_SIMULATED_LAYERS
    billing_modules: Tuple[str, ...] = DEFAULT_BILLING_MODULES
    exclude: Tuple[str, ...] = ()
    #: module path -> rule ids permitted module-wide
    allow: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: the distribution's top package name (import normalisation)
    package_name: str = DEFAULT_PACKAGE_NAME
    #: extra modules policed as machine hosts even without detected machines
    exec_machine_modules: Tuple[str, ...] = ()
    exec_protocols_module: str = DEFAULT_PROTOCOLS_MODULE
    exec_services_class: str = DEFAULT_SERVICES_CLASS
    exec_banned_imports: Tuple[str, ...] = DEFAULT_EXEC_BANNED_IMPORTS
    seed_rng_factories: Tuple[str, ...] = DEFAULT_SEED_RNG_FACTORIES
    lock_modules: Tuple[str, ...] = DEFAULT_LOCK_MODULES
    #: ``Class.method`` / function qualnames allowed timeout-less blocking
    lock_sanctioned: Tuple[str, ...] = ()

    def in_simulated_layer(self, module: str) -> bool:
        """True when ``module`` (package-relative posix path) is simulated."""
        return any(
            module == layer or module.startswith(layer + "/")
            for layer in self.simulated_layers
        )

    def is_billing_module(self, module: str) -> bool:
        return module in self.billing_modules

    def allowed_rules(self, module: str) -> Tuple[str, ...]:
        return self.allow.get(module, ())

    def is_excluded(self, module: str) -> bool:
        return any(fragment and fragment in module for fragment in self.exclude)

    def in_lock_module(self, module: str) -> bool:
        """True when ``module`` is a thread-backend module (LOCK1xx scope)."""
        return any(
            module == entry or module.startswith(entry + "/")
            for entry in self.lock_modules
        )

    def is_rng_factory(self, module: str) -> bool:
        return module in self.seed_rng_factories

    def normalize_import(self, name: str) -> str:
        """Strip the top-package prefix off an absolute internal import.

        ``repro.exec.sim`` and the relative ``..exec.sim`` must ban
        identically; external imports (``numpy``, ``threading``) pass
        through unchanged.
        """
        prefix = self.package_name + "."
        if name.startswith(prefix):
            return name[len(prefix):]
        return name


def load_config(pyproject: Optional[Path] = None, start: Optional[Path] = None) -> SimLintConfig:
    """Load ``[tool.sim-lint]`` from ``pyproject``.

    When ``pyproject`` is None, search upward from ``start`` (or the
    current directory) for a ``pyproject.toml``.  A missing file or a
    file without the table yields the defaults.
    """
    if pyproject is None:
        pyproject = _discover_pyproject(start or Path.cwd())
    if pyproject is None or not pyproject.is_file():
        return SimLintConfig()
    data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    table = data.get("tool", {}).get("sim-lint", {})
    if not isinstance(table, dict):
        return SimLintConfig()
    return config_from_table(table)


def config_from_table(table: dict) -> SimLintConfig:
    """Build a :class:`SimLintConfig` from a parsed ``[tool.sim-lint]`` table."""
    kwargs: dict = {}
    layers = table.get("simulated-layers")
    if isinstance(layers, list):
        kwargs["simulated_layers"] = tuple(str(x).strip("/") for x in layers)
    billing = table.get("billing-modules")
    if isinstance(billing, list):
        kwargs["billing_modules"] = tuple(str(x) for x in billing)
    exclude = table.get("exclude")
    if isinstance(exclude, list):
        kwargs["exclude"] = tuple(str(x) for x in exclude)
    allow = table.get("allow")
    if isinstance(allow, dict):
        kwargs["allow"] = {
            str(module): tuple(str(r).upper() for r in rules)
            for module, rules in allow.items()
            if isinstance(rules, list)
        }
    package = table.get("package")
    if isinstance(package, str) and package:
        kwargs["package_name"] = package

    exec_table = table.get("exec")
    if isinstance(exec_table, dict):
        _take_list(exec_table, "machine-modules", kwargs, "exec_machine_modules")
        _take_str(exec_table, "protocols-module", kwargs, "exec_protocols_module")
        _take_str(exec_table, "services-protocol", kwargs, "exec_services_class")
        _take_list(exec_table, "banned-imports", kwargs, "exec_banned_imports")
    seed_table = table.get("seed")
    if isinstance(seed_table, dict):
        _take_list(seed_table, "rng-factories", kwargs, "seed_rng_factories")
    lock_table = table.get("lock")
    if isinstance(lock_table, dict):
        _take_list(lock_table, "modules", kwargs, "lock_modules")
        _take_list(lock_table, "sanctioned-blocking", kwargs, "lock_sanctioned")
    return SimLintConfig(**kwargs)


def _take_list(table: dict, key: str, kwargs: dict, field_name: str) -> None:
    value = table.get(key)
    if isinstance(value, list):
        kwargs[field_name] = tuple(str(x) for x in value)


def _take_str(table: dict, key: str, kwargs: dict, field_name: str) -> None:
    value = table.get(key)
    if isinstance(value, str) and value:
        kwargs[field_name] = value


def _discover_pyproject(start: Path) -> Optional[Path]:
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None
