"""EXEC1xx: backend-neutrality of the training machines (cross-module).

The PR-5 seam — worker/supervisor/SSP loops and the platform job machine
are plain generators yielding :class:`~repro.exec.protocols.Services`
tokens, driven either by the DES sim or by real threads — is only worth
anything if the machines *stay* neutral.  These rules make the two
ways the seam erodes a lint failure instead of a runtime surprise:

``EXEC101``
    a machine-hosting module imports the sim kernel, a concrete backend,
    or a host concurrency/clock module, re-coupling the core to one
    substrate;

``EXEC102``
    a machine yields something that is not a ``Services`` protocol call
    (or a ``yield from`` of another service generator) — the token would
    be meaningful to at most one backend.

There is one ``Services`` class (``exec/protocols.py``) for every
backend, so there are no per-backend copies whose drift a rule would
have to catch.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from .config import EXEC_BANNED_IMPORTS, PACKAGE_NAME
from .engine import FileContext, Finding, Rule
from .project import MachineFunction, ProjectContext

__all__ = ["EXEC_RULES", "MachineImportRule", "MachineYieldRule"]


class ProjectRule(Rule):
    """Cross-module rule: scoping is internal to :meth:`check_project`."""

    requires_project = True

    def scope(self, config, module) -> bool:  # pragma: no cover - not used
        return True


# -- EXEC101 ----------------------------------------------------------------


class MachineImportRule(ProjectRule):
    """EXEC101: machine-hosting modules import only backend-neutral code.

    A module is a *machine host* when it defines at least one backend-
    neutral machine (a generator annotated ``-> Machine`` or taking an
    ``ExecutionContext``), or is listed in
    ``SimLintConfig.exec_machine_modules``.  Hosts may import
    ``exec.protocols`` (the contract) and pure-Python/numpy code, but
    never the sim kernel (``sim``), a concrete backend (``exec.sim``,
    ``exec.local``), or host concurrency/clock/IO modules
    (``threading``, ``queue``, ``time``, ``os``, ...): any of those
    re-couples the shared core to one substrate and silently breaks the
    other backend.
    """

    id = "EXEC101"
    title = "backend-coupled import in a machine-hosting module"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module in project.machine_modules():
            info = project.modules[module]
            for imported in info.module_imports:
                hit = _banned_prefix(imported.name)
                if hit is not None:
                    yield info.ctx.finding(
                        self.id,
                        imported.node,
                        f"machine-hosting module imports `{imported.name}` "
                        f"(banned family `{hit}`); machines may depend on "
                        "`exec.protocols` only — route this through a yielded "
                        "service token or move the code out of the machine module",
                    )


def _banned_prefix(name: str) -> Optional[str]:
    # ``repro.exec.sim`` and the relative ``..exec.sim`` ban identically;
    # external imports (``numpy``, ``threading``) pass through unchanged
    prefix = PACKAGE_NAME + "."
    if name.startswith(prefix):
        name = name[len(prefix):]
    for ban in EXEC_BANNED_IMPORTS:
        if name == ban or name.startswith(ban + "."):
            return ban
    return None


# -- EXEC102 ----------------------------------------------------------------


class MachineYieldRule(ProjectRule):
    """EXEC102: every machine yield is a protocol call.

    Inside a machine, ``yield <expr>`` must be a call to a method of the
    ``Services`` protocol (``yield sv.kv_get(...)``) — that is the whole
    token contract — and ``yield from <expr>`` must delegate to another
    generator call (a sub-machine or service helper).  A bare-value
    yield (``yield 42``, ``yield``, ``yield some_variable``) produces a
    token only one backend (or none) can resolve and is exactly the kind
    of drift that worked by accident on the DES and deadlocks on
    threads.  The method table is read from the collected ``Services``
    protocol, so the rule tracks the contract automatically; when the
    protocols module is outside the scan there is no table to check
    against and the rule stays quiet.
    """

    id = "EXEC102"
    title = "machine yields a non-protocol value"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        services = project.services_methods()
        if services is None:
            return
        method_names = set(services)
        for module in project.machine_modules():
            info = project.modules[module]
            for machine in info.machines:
                yield from self._check_machine(info.ctx, machine, method_names)

    def _check_machine(
        self, ctx: FileContext, machine: MachineFunction, methods: set
    ) -> Iterator[Finding]:
        for node in _own_nodes(machine.node):
            if isinstance(node, ast.YieldFrom):
                if not isinstance(node.value, ast.Call):
                    yield ctx.finding(
                        self.id,
                        node,
                        f"`{machine.qualname}` delegates with `yield from` to a "
                        "non-call expression; machines may only `yield from` "
                        "another service generator call",
                    )
            elif isinstance(node, ast.Yield):
                value = node.value
                if (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr in methods
                ):
                    continue
                what = "a bare `yield`" if value is None else "a non-protocol value"
                yield ctx.finding(
                    self.id,
                    node,
                    f"`{machine.qualname}` yields {what}; every machine yield "
                    "must be a `Services` protocol call "
                    f"({', '.join(sorted(methods)[:4])}, ...) or a `yield from` "
                    "of another service generator",
                )


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """All nodes in ``fn``'s own scope, nested defs/lambdas excluded."""
    stack: List[ast.AST] = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


EXEC_RULES = (
    MachineImportRule(),
    MachineYieldRule(),
)
