"""The per-file simulation-purity rules, SIM001..SIM006 — and the registry.

Each rule documents the invariant it protects and the precise syntactic
pattern it matches.  All rules resolve names through the file's imports
(``import numpy as np`` makes ``np.random.rand`` resolve to
``numpy.random.rand``), so aliasing cannot dodge a ban.  The
cross-module families (EXEC1xx backend-neutrality, SEED1xx seed-stream
discipline, LOCK1xx thread-backend lock lint) live in
:mod:`~repro.analysis.exec_rules` / :mod:`~repro.analysis.seed_rules` /
:mod:`~repro.analysis.lock_rules`; this module assembles the combined
``ALL_RULES`` registry.

Scoping vocabulary (see :class:`~repro.analysis.config.SimLintConfig`):

*simulated layers*
    packages that run on the simulated clock (``sim/``, ``faas/``,
    ``storage/``, ``net/``, ``vm/``, ``core/``, ``faults/`` by default).
    Wall-clock reads, host I/O and unordered iteration there leak host
    state into the event schedule.

*billing modules*
    modules whose arithmetic becomes dollar figures; float ``==`` there
    turns representation noise into billing discontinuities.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Sequence, Set

from .astutils import build_import_map, dotted_name, resolve
from .config import SimLintConfig
from .engine import FileContext, Finding, Rule

__all__ = [
    "ALL_RULES",
    "Rule",
    "build_import_map",
    "dotted_name",
    "resolve",
    "rule_by_id",
]


# -- SIM001 ----------------------------------------------------------------

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockRule(Rule):
    """SIM001: no wall-clock reads inside simulated layers.

    Simulated components must take time exclusively from
    ``Environment.now``.  A single ``time.time()`` call ties the event
    schedule to host load and destroys bit-reproducibility.
    """

    id = "SIM001"
    title = "wall-clock read in a simulated layer"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = build_import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve(node.func, imports)
            if name in _WALL_CLOCK:
                yield ctx.finding(
                    self.id,
                    node,
                    f"wall-clock read `{name}()` in a simulated layer; "
                    "take time from `Environment.now` instead",
                )


# -- SIM002 ----------------------------------------------------------------

#: numpy.random names that are fine anywhere: seed plumbing types, not draws
_NP_RANDOM_OK = {
    "numpy.random.SeedSequence",
    "numpy.random.Generator",
    "numpy.random.BitGenerator",
    "numpy.random.PCG64",
    "numpy.random.Philox",
}


class GlobalRngRule(Rule):
    """SIM002: all randomness flows through named, seeded streams.

    Bans the stdlib ``random`` module, module-level ``np.random.<draw>``
    calls (they share one hidden global state), and
    ``np.random.default_rng(...)`` outside modules allowlisted as RNG
    factories.  Components must draw from ``RandomStreams.stream(name)``
    or an explicitly passed ``rng`` parameter so that adding a component
    never perturbs another's draws.

    Applies to the whole tree (not just simulated layers): a global draw
    in an experiment harness corrupts reproducibility just as surely.
    """

    id = "SIM002"
    title = "global / unseeded RNG usage"

    def scope(self, config: SimLintConfig, module: str) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = build_import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve(node.func, imports)
            if name is None:
                continue
            if name.split(".")[0] == "random" and "." in name:
                yield ctx.finding(
                    self.id,
                    node,
                    f"stdlib global RNG call `{name}()`; draw from "
                    "`RandomStreams.stream(name)` instead",
                )
            elif name == "numpy.random.default_rng":
                yield ctx.finding(
                    self.id,
                    node,
                    "`np.random.default_rng(...)` outside an allowlisted RNG "
                    "factory; route seeds through `RandomStreams` or add this "
                    "module to sim-lint's `ALLOW` map",
                )
            elif name.startswith("numpy.random.") and name not in _NP_RANDOM_OK:
                yield ctx.finding(
                    self.id,
                    node,
                    f"global numpy RNG call `{name}()` shares hidden global "
                    "state; use a `Generator` from `RandomStreams`",
                )


# -- SIM003 ----------------------------------------------------------------

_SET_METHODS = {"intersection", "union", "difference", "symmetric_difference"}
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"}


class UnorderedIterRule(Rule):
    """SIM003: no iteration over sets in simulated layers.

    ``for x in some_set`` yields elements in hash order — stable within
    one process for small ints, but not an interface guarantee, not
    stable across Python implementations, and silently order-sensitive
    the moment elements stop being small ints.  Anything iterated in a
    simulated layer eventually feeds event scheduling or float
    accumulation, so the rule applies module-wide there; the fix is
    ``sorted(...)`` (which this rule deliberately does not flag).

    Detection is set-provenance based: set literals/comprehensions,
    ``set()``/``frozenset()`` calls, set-method and set-operator results,
    local names assigned from those, and attributes annotated as sets in
    the same module (e.g. ``self.active: Set[int]``).
    """

    id = "SIM003"
    title = "iteration over an unordered set"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        set_attrs = self._annotated_set_attributes(ctx.tree)
        imports = build_import_map(ctx.tree)
        # local names assigned set-provenance values, per enclosing function
        set_names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                if self._is_setish(node.value, set_names, set_attrs, imports):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            set_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if self._annotation_is_set(node.annotation):
                    set_names.add(node.target.id)

        for node in ast.walk(ctx.tree):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for iter_node in iters:
                if self._is_setish(iter_node, set_names, set_attrs, imports):
                    yield ctx.finding(
                        self.id,
                        iter_node,
                        f"iterating unordered set `{ctx.segment(iter_node)}`; "
                        "wrap in `sorted(...)` for a deterministic order",
                    )

    def _annotated_set_attributes(self, tree: ast.AST) -> Set[str]:
        """Attribute names annotated as sets anywhere in the module."""
        attrs: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and self._annotation_is_set(node.annotation):
                if isinstance(node.target, ast.Attribute):
                    attrs.add(node.target.attr)
        return attrs

    def _annotation_is_set(self, annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        parts = dotted_name(annotation)
        return bool(parts) and parts[-1] in _SET_ANNOTATIONS

    def _is_setish(
        self,
        node: ast.AST,
        set_names: Set[str],
        set_attrs: Set[str],
        imports: Dict[str, str],
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Attribute):
            return node.attr in set_attrs
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
        ):
            return self._is_setish(node.left, set_names, set_attrs, imports) or self._is_setish(
                node.right, set_names, set_attrs, imports
            )
        if isinstance(node, ast.Call):
            name = resolve(node.func, imports)
            if name in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in _SET_METHODS:
                return self._is_setish(node.func.value, set_names, set_attrs, imports)
        return False


# -- SIM004 ----------------------------------------------------------------

_FLOATISH_NAME = re.compile(
    r"cost|price|rate|duration|bill|total|amount|loss|seconds|gb_s|value|fraction|usage",
    re.IGNORECASE,
)
_INTISH_CALLS = {"len", "int", "round", "id", "ord", "hash"}


class FloatEqualityRule(Rule):
    """SIM004: no float ``==`` / ``!=`` in billing and metering modules.

    100 ms quantum rounding plus IEEE-754 noise means two bills that are
    "equal" can differ in the last ulp; exact comparisons there create
    seed-dependent branches.  Compare against a tolerance
    (``math.isclose``) or compare integer quanta instead.

    Heuristic (documented, suppressible): a comparison is flagged when
    either side is a float literal, a division, a ``float(...)`` call,
    or an identifier whose name suggests a monetary/temporal quantity
    (cost, rate, duration, total, value, ...).  Comparisons where both
    sides are clearly integral (int literals, ``len()``/``int()`` calls)
    are never flagged.
    """

    id = "SIM004"
    title = "exact float comparison in a billing module"

    def scope(self, config: SimLintConfig, module: str) -> bool:
        return config.is_billing_module(module)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if all(self._intish(o) for o in operands):
                continue
            if any(self._floatish(o) for o in operands):
                yield ctx.finding(
                    self.id,
                    node,
                    "exact float equality in a billing module; use "
                    "`math.isclose` or compare integer billing quanta",
                )

    def _floatish(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._floatish(node.left) or self._floatish(node.right)
        if isinstance(node, ast.Call):
            parts = dotted_name(node.func)
            return bool(parts) and parts[-1] == "float"
        if isinstance(node, ast.UnaryOp):
            return self._floatish(node.operand)
        parts = dotted_name(node)
        if parts:
            return bool(_FLOATISH_NAME.search(parts[-1]))
        return False

    def _intish(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, int) and not isinstance(node.value, bool)
        if isinstance(node, ast.Call):
            parts = dotted_name(node.func)
            return bool(parts) and parts[-1] in _INTISH_CALLS
        if isinstance(node, ast.UnaryOp):
            return self._intish(node.operand)
        return False


# -- SIM005 ----------------------------------------------------------------

_IO_CALLS = {
    "open",
    "input",
    "print",
    "os.getenv",
    "os.putenv",
    "os.system",
    "os.popen",
    "os.listdir",
    "subprocess.run",
    "subprocess.Popen",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
}
_IO_ATTRIBUTES = {"os.environ"}


class IoEnvironmentRule(Rule):
    """SIM005: no host I/O or environment reads in simulated components.

    The sim kernel and simulated services must be pure functions of
    (seed, config): ``open``/``print``/``os.environ`` make behaviour
    depend on the host filesystem or shell, and stdout chatter from
    inside the kernel also breaks machine-readable experiment output.
    CLI, experiment and report modules live outside the simulated layers
    and may do I/O freely.
    """

    id = "SIM005"
    title = "host I/O or environment access in a simulated layer"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = build_import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = resolve(node.func, imports)
                if name in _IO_CALLS:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"host I/O call `{name}(...)` inside a simulated layer; "
                        "simulated components must be pure in (seed, config)",
                    )
            elif isinstance(node, ast.Attribute):
                name = resolve(node, imports)
                if name in _IO_ATTRIBUTES:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"environment access `{name}` inside a simulated layer",
                    )


# -- SIM006 ----------------------------------------------------------------

_TIEBREAK_HINT = re.compile(r"seq|counter|tie|order", re.IGNORECASE)


class HeapTieBreakerRule(Rule):
    """SIM006: event-heap pushes must carry the monotonic tie-breaker.

    The kernel's determinism contract is that same-time events fire in
    scheduling order, which requires every heap entry to be a
    ``(time, seq, payload)`` tuple with a monotonically increasing
    sequence number — ``heapq`` alone falls back to comparing payloads
    (or raising) on time ties.  Flags any ``heappush`` whose pushed item
    is not a 3+-tuple containing a sequence-counter element (an
    identifier matching ``seq``/``counter``/``tie``/``order``).
    """

    id = "SIM006"
    title = "heap push without a monotonic tie-breaker"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = build_import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve(node.func, imports)
            if name not in ("heapq.heappush", "heapq.heappushpop"):
                continue
            if len(node.args) < 2:
                continue
            item = node.args[1]
            if not self._has_tiebreaker(ctx, item):
                yield ctx.finding(
                    self.id,
                    node,
                    "heap push without a `(time, seq, ...)` tie-breaker tuple; "
                    "same-time events would fall back to comparing payloads",
                )

    def _has_tiebreaker(self, ctx: FileContext, item: ast.AST) -> bool:
        if not isinstance(item, ast.Tuple) or len(item.elts) < 3:
            return False
        return any(
            _TIEBREAK_HINT.search(ctx.segment(element)) for element in item.elts[1:-1]
        )


SIM_RULES: Sequence[Rule] = (
    WallClockRule(),
    GlobalRngRule(),
    UnorderedIterRule(),
    FloatEqualityRule(),
    IoEnvironmentRule(),
    HeapTieBreakerRule(),
)

# The cross-module families live in their own modules; importing them
# here (after the helpers and SIM rules they build on are defined) keeps
# a single registry every caller — engine, CLI, docs — agrees on.
from .exec_rules import EXEC_RULES  # noqa: E402
from .seed_rules import SEED_RULES  # noqa: E402
from .lock_rules import LOCK_RULES  # noqa: E402

ALL_RULES: Sequence[Rule] = (*SIM_RULES, *EXEC_RULES, *SEED_RULES, *LOCK_RULES)


def rule_by_id(rule_id: str) -> Rule:
    for rule in ALL_RULES:
        if rule.id == rule_id.upper():
            return rule
    raise KeyError(f"unknown rule {rule_id!r}")


def iter_rule_docs() -> Iterable[dict]:
    """Rule metadata for ``--list-rules``."""
    for rule in ALL_RULES:
        yield {
            "id": rule.id,
            "title": rule.title,
            "doc": (rule.__doc__ or "").strip(),
        }
