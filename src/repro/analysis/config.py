"""The sim-lint policy: which modules each rule family polices.

This module is the policy's one copy.  The defaults of
:class:`SimLintConfig` are what ``repro lint`` enforces on ``src/repro``,
wherever the tree sits; there is no configuration file.  Tests build
configs with other field values to lint synthetic packages.  A finding
is forgiven in exactly two ways: a ``# sim-lint: disable=ID`` comment on
its line, or the module-wide :data:`ALLOW` map below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["SimLintConfig"]

#: package-relative directories and modules that run on the simulated
#: clock; SIM001/SIM003/SIM005/SIM006 apply only here
SIMULATED_LAYERS = (
    "sim",
    "faas",
    "storage",
    "net",
    "vm",
    "core",
    "faults",
    "trace",
    # The exec package is split: the backend contract and the sim adapter
    # run on the simulated clock and are purity-enforced; exec/local.py
    # and exec/procs.py are the real-thread/process backends where
    # wall-clock reads are legal by design, so they are not listed.
    "exec/__init__.py",
    "exec/protocols.py",
    "exec/sim.py",
    # The whole platform package: the simulated control plane
    # (queue/scheduler/pool) and its pure inputs/outputs (tenants, jobs,
    # arrivals, invoices, scenario).
    "platform",
    # The scenario engine follows the same split: spec/loader/compiler/
    # kpi are pure (text in, KPI payload out, no files, no clock);
    # cli.py is the host-I/O surface and stays outside.
    "scenarios/__init__.py",
    "scenarios/spec.py",
    "scenarios/loader.py",
    "scenarios/compiler.py",
    "scenarios/kpi.py",
    # The layered MLP runs inside the pipeline stage machines, so its
    # math is purity-enforced like the rest of the simulated model code.
    "ml/models/mlp.py",
)

#: modules whose arithmetic becomes dollar figures (SIM004 scope)
BILLING_MODULES = (
    "faas/billing.py",
    "experiments/report.py",
    "pricing/meter.py",
    "pricing/catalog.py",
    "trace/ledger.py",
    "platform/billing.py",
    "scenarios/kpi.py",
)

#: module -> rule ids permitted module-wide.  The SIM002 entries are the
#: explicitly seeded RNG factories: the stream registry itself, dataset
#: synthesis (seeded per dataset) and per-run model init (same seed, same
#: init across workers, by design).  SIM002 bans ``default_rng`` and
#: SEED103 bans every other RNG constructor outside these modules, so
#: randomness cannot bypass the named streams.
ALLOW: Dict[str, Tuple[str, ...]] = {
    "sim/rand.py": ("SIM002",),
    "ml/data/synthetic.py": ("SIM002",),
    "core/worker.py": ("SIM002",),
    "baselines/pywren_ml.py": ("SIM002",),
    "baselines/serverful.py": ("SIM002",),
}

#: modules policed as machine hosts (EXEC1xx) even without a detectable
#: ``-> Machine`` / ``ExecutionContext`` annotation: the step-machine
#: core and the pipeline-stage machines stay covered if a refactor drops
#: the annotations
EXEC_MACHINE_MODULES = (
    "core/step_machine.py",
    "core/pipeline.py",
)

#: host-concurrency backend modules whose lock discipline LOCK1xx
#: polices; every blocking call in them is deadline-bounded
LOCK_MODULES = ("exec/local.py", "exec/procs.py", "exec/deadline.py")

#: the distribution's top package: absolute imports of it normalise to
#: the same package-relative form the layer prefixes use
PACKAGE_NAME = "repro"

#: module hosting the backend contract (EXEC102 reads its verb table)
PROTOCOLS_MODULE = "exec/protocols.py"

#: the data-plane protocol class machines yield tokens from
SERVICES_CLASS = "Services"

#: modules (package-relative) machine hosts may never import: the sim
#: kernel, the concrete backends, and host concurrency/clock/IO modules.
#: Matching is by dotted prefix: ``sim`` bans ``sim.core`` too.
EXEC_BANNED_IMPORTS = (
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


@dataclass(frozen=True)
class SimLintConfig:
    """The module sets the rules police; the defaults are the repo's policy."""

    simulated_layers: Tuple[str, ...] = SIMULATED_LAYERS
    billing_modules: Tuple[str, ...] = BILLING_MODULES
    #: module path -> rule ids permitted module-wide
    allow: Dict[str, Tuple[str, ...]] = field(default_factory=lambda: dict(ALLOW))
    #: extra modules policed as machine hosts even without detected machines
    exec_machine_modules: Tuple[str, ...] = EXEC_MACHINE_MODULES
    lock_modules: Tuple[str, ...] = LOCK_MODULES

    def in_simulated_layer(self, module: str) -> bool:
        """True when ``module`` (package-relative posix path) is simulated."""
        return _under(module, self.simulated_layers)

    def is_billing_module(self, module: str) -> bool:
        return module in self.billing_modules

    def allowed_rules(self, module: str) -> Tuple[str, ...]:
        return self.allow.get(module, ())

    def in_lock_module(self, module: str) -> bool:
        """True when ``module`` is a thread-backend module (LOCK1xx scope)."""
        return _under(module, self.lock_modules)


def _under(module: str, entries: Tuple[str, ...]) -> bool:
    return any(module == entry or module.startswith(entry + "/") for entry in entries)
