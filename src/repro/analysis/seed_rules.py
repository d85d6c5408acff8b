"""SEED1xx: project-wide seed-stream discipline (cross-module).

The determinism story rests on :class:`~repro.sim.rand.RandomStreams`
giving every entity its own named child of one root ``SeedSequence``.
Per-file scanning (SIM002) catches raw ``default_rng()`` calls, but the
properties that actually protect replayability are global:

``SEED101``
    two *different* modules ask for the same literal stream name — their
    draws silently interleave and replay depends on interleaving order;

``SEED102``
    a stream name is built dynamically (f-string, ``+``-concat) but
    carries no per-entity placeholder — it reads as "one stream per
    caller" while every caller shares one;

``SEED103``
    an RNG object is constructed outside the allowlisted factory modules
    through an alias or class constructor (``gen = default_rng; gen(s)``,
    ``Generator(PCG64(...))``) — the dataflow-aware complement to
    SIM002's direct-call check.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from .astutils import resolve
from .engine import Finding, Rule
from .project import ProjectContext

__all__ = [
    "SEED_RULES",
    "StreamCollisionRule",
    "StreamDynamicNameRule",
    "RngConstructionRule",
]


class ProjectRule(Rule):
    requires_project = True

    def scope(self, config, module) -> bool:  # pragma: no cover - not used
        return True


# -- SEED101 ----------------------------------------------------------------


class StreamCollisionRule(ProjectRule):
    """SEED101: literal stream names must not collide across modules.

    ``streams.stream(name)`` derives the child seed purely from ``name``,
    so two modules using the same literal get the *same* RNG: their draws
    interleave, and the sequence each one sees depends on scheduling —
    precisely the replay hazard named streams exist to prevent.  Repeats
    within one module are left alone (a module re-opening its own stream
    is the documented way to share it deliberately).
    """

    id = "SEED101"
    title = "seed-stream name collides across modules"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        by_name: Dict[str, List[Tuple[str, object]]] = {}
        for module in project.module_names():
            for call in project.modules[module].stream_calls:
                if call.literal is not None:
                    by_name.setdefault(call.literal, []).append((module, call.node))
        for name in sorted(by_name):
            sites = by_name[name]
            owners = sorted({module for module, _ in sites})
            if len(owners) < 2:
                continue
            for module, node in sites:
                others = ", ".join(m for m in owners if m != module)
                yield project.modules[module].ctx.finding(
                    self.id,
                    node,
                    f"stream name '{name}' is also opened in {others}; "
                    "shared-name streams interleave their draws and break "
                    "per-entity replay — qualify the name with the owning "
                    "module or entity id",
                )


# -- SEED102 ----------------------------------------------------------------


class StreamDynamicNameRule(ProjectRule):
    """SEED102: dynamic stream names must carry a per-entity placeholder.

    ``streams.stream(f"worker.{wid}")`` is the idiom: the placeholder is
    what makes the stream per-entity.  An f-string with no
    ``FormattedValue`` (or a ``+``-concat of constants) *looks* dynamic
    but is one fixed name — every entity that executes the call shares a
    single stream while the code reads as if each had its own.
    """

    id = "SEED102"
    title = "dynamic stream name without a per-entity placeholder"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module in project.module_names():
            for call in project.modules[module].stream_calls:
                if call.dynamic_without_entity:
                    yield project.modules[module].ctx.finding(
                        self.id,
                        call.node,
                        "stream name is built dynamically but contains no "
                        "placeholder — every caller shares one stream; "
                        "interpolate the entity id (f\"name.{entity_id}\") "
                        "or use a plain literal",
                    )


# -- SEED103 ----------------------------------------------------------------

#: numpy.random constructors that mint an independent RNG
_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
    "numpy.random.RandomState",
}

#: the subset SIM002 already reports as direct calls — SEED103 leaves
#: these to SIM002 so one violation produces one finding
_SIM002_DIRECT = {"numpy.random.default_rng"}


class RngConstructionRule(ProjectRule):
    """SEED103: RNG objects are constructed only inside factory modules.

    SIM002 flags the direct ``np.random.default_rng(...)`` call; this
    rule closes the two escape hatches a per-file scan cannot see.
    First, *aliased* construction::

        make = np.random.default_rng     # no call here
        rng = make(seed)                 # SIM002 sees a plain name call

    Second, the *class* constructors (``Generator(PCG64(seed))``,
    ``RandomState(...)``) that mint an RNG without ever saying
    ``default_rng``.  Both are tracked through the import map plus a
    module-level assignment dataflow pass, and both are fine inside the
    modules ``allow`` grants SIM002 (the seeded RNG factories) —
    everywhere else an RNG must come from a named stream.
    """

    id = "SEED103"
    title = "RNG constructed outside an allowlisted factory"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module in project.module_names():
            if "SIM002" in project.config.allowed_rules(module):
                continue
            info = project.modules[module]
            aliases = _rng_aliases(info.ctx.tree, info.imports)
            for node in ast.walk(info.ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                resolved = resolve(node.func, info.imports)
                if isinstance(node.func, ast.Name) and node.func.id in aliases:
                    resolved = aliases[node.func.id]
                elif resolved in _SIM002_DIRECT:
                    # direct default_rng(...) call: SIM002's finding
                    continue
                if resolved in _RNG_CONSTRUCTORS:
                    yield info.ctx.finding(
                        self.id,
                        node,
                        f"constructs an RNG via `{resolved.rsplit('.', 1)[-1]}` "
                        "outside the allowlisted factories; request a named "
                        "stream (streams.stream(...)) so the draw order is "
                        "replayable",
                    )


def _rng_aliases(tree: ast.AST, imports: Dict[str, str]) -> Dict[str, str]:
    """Names bound (uncalled) to an RNG constructor at any assignment.

    One flow-insensitive pass over ``Assign``/``AnnAssign`` targets: if
    the right-hand side resolves to an RNG constructor *without being
    called*, every plain-name target becomes an alias.  Good enough to
    catch the ``make = np.random.default_rng`` laundering idiom without
    pretending to be a real dataflow engine.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        resolved = resolve(value, imports)
        if resolved not in _RNG_CONSTRUCTORS:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                aliases[target.id] = resolved
    return aliases


SEED_RULES = (
    StreamCollisionRule(),
    StreamDynamicNameRule(),
    RngConstructionRule(),
)
