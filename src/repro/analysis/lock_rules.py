"""LOCK1xx: concurrency discipline for the host-concurrency backends.

``exec/local.py``, ``exec/procs.py`` and ``exec/deadline.py`` are where
real ``threading``/``multiprocessing`` primitives are allowed, which
makes them where the classic thread bugs can live.
These rules encode the file's own documented discipline:

``LOCK101``
    a blocking call (``queue.get()``, ``join()``, ``wait()``,
    ``time.sleep``) is reachable while a lock is held — directly, or by
    calling a function that (transitively) blocks;

``LOCK102``
    two locks are acquired in inconsistent order somewhere in the module
    (an acquisition-order cycle), the precondition for an ABBA deadlock;

``LOCK103``
    a blocking call has no ``timeout=`` bound — a stuck peer then hangs
    the backend forever instead of surfacing as a timeout.

Everything here is a heuristic over one module's AST — lock identity is
``Class.attr``/name matching ``lock|mutex|sem|cond``, call resolution
covers plain names and ``self.method`` — but that is exactly the shape
of ``exec/local.py``, and the point is to catch regressions in *this*
file, not to model arbitrary Python.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .astutils import resolve
from .engine import FileContext, Finding, Rule
from .project import ModuleInfo, ProjectContext

__all__ = [
    "LOCK_RULES",
    "BlockingWhileLockedRule",
    "LockOrderCycleRule",
    "UnboundedBlockingRule",
]

#: names that denote a mutual-exclusion object
_LOCK_NAME_RE = re.compile(r"lock|mutex|sem|cond", re.IGNORECASE)

#: service-level consume calls: blocking, but internally deadline-bounded
#: (the local backend converts a stuck peer into a timeout), so they are
#: LOCK101 material when under a lock yet never LOCK103 material
_BOUNDED_SERVICE_ATTRS = {"consume", "consume_with_timeout"}


@dataclass(frozen=True)
class _BlockEvent:
    """One blocking call site."""

    node: ast.Call
    label: str
    bounded: bool
    held: Tuple[str, ...]


@dataclass(frozen=True)
class _CallEvent:
    """One intra-module call site (plain name or ``self.method``)."""

    node: ast.Call
    callee: str
    held: Tuple[str, ...]


@dataclass
class _FnFacts:
    """Per-function facts feeding the interprocedural fixpoint."""

    qualname: str
    node: ast.AST
    blocks: List[_BlockEvent] = field(default_factory=list)
    calls: List[_CallEvent] = field(default_factory=list)
    acquires: Set[str] = field(default_factory=set)
    #: (held lock, acquired lock, site) direct acquisition-order edges
    edges: List[Tuple[str, str, ast.AST]] = field(default_factory=list)


# -- per-function scan ------------------------------------------------------


class _FunctionScanner:
    """Walks one function body tracking the set of held locks."""

    def __init__(self, ctx: FileContext, imports: Dict[str, str], class_name: Optional[str]):
        self.ctx = ctx
        self.imports = imports
        self.class_name = class_name

    def scan(self, qualname: str, fn: ast.AST) -> _FnFacts:
        facts = _FnFacts(qualname=qualname, node=fn)
        self._scan_block(getattr(fn, "body", []), (), facts)
        return facts

    def _scan_block(self, stmts: Sequence[ast.stmt], held: Tuple[str, ...], facts: _FnFacts) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scope: not executed under this region
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired: List[str] = []
                for item in stmt.items:
                    lock = self._lock_of(item.context_expr)
                    if lock is None:
                        self._scan_expr(item.context_expr, held, facts)
                        continue
                    for prior in (*held, *acquired):
                        facts.edges.append((prior, lock, item.context_expr))
                    acquired.append(lock)
                    facts.acquires.add(lock)
                self._scan_block(stmt.body, (*held, *acquired), facts)
                continue
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, (ast.stmt, ast.excepthandler)):
                    continue
                self._scan_expr(child, held, facts)
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                    self._scan_block(sub, held, facts)
            for handler in getattr(stmt, "handlers", []):
                self._scan_block(handler.body, held, facts)

    def _scan_expr(self, expr: ast.AST, held: Tuple[str, ...], facts: _FnFacts) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            blocking, bounded, label = self._classify_blocking(node)
            if blocking:
                facts.blocks.append(
                    _BlockEvent(node=node, label=label, bounded=bounded, held=held)
                )
                continue
            callee = self._callee_of(node)
            if callee is not None:
                facts.calls.append(_CallEvent(node=node, callee=callee, held=held))

    def _lock_of(self, expr: ast.AST) -> Optional[str]:
        """The lock identity of a ``with`` context expression, if any."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and _LOCK_NAME_RE.search(expr.attr)
        ):
            return f"{self.class_name or 'self'}.{expr.attr}"
        if isinstance(expr, ast.Name) and _LOCK_NAME_RE.search(expr.id):
            return expr.id
        return None

    def _callee_of(self, node: ast.Call) -> Optional[str]:
        """Intra-module callee qualname, for the fixpoint; None if unresolvable."""
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self.class_name
        ):
            return f"{self.class_name}.{func.attr}"
        return None

    def _classify_blocking(self, call: ast.Call) -> Tuple[bool, bool, str]:
        """``(blocking, bounded, label)`` for one call site.

        Zero-positional-arg gating keeps the attribute heuristics honest:
        ``q.get()`` blocks but ``d.get(key)`` does not, ``t.join()``
        blocks but ``",".join(xs)`` does not.
        """
        if resolve(call.func, self.imports) == "time.sleep":
            return True, True, "time.sleep"
        func = call.func
        if not isinstance(func, ast.Attribute):
            return False, False, ""
        attr = func.attr
        has_timeout = any(
            kw.arg == "timeout"
            and not (isinstance(kw.value, ast.Constant) and kw.value.value is None)
            for kw in call.keywords
        )
        if attr in _BOUNDED_SERVICE_ATTRS:
            return True, True, attr
        if attr in ("get", "join", "wait") and not call.args:
            return True, has_timeout, attr
        if attr == "acquire":
            bounded = has_timeout or any(
                kw.arg == "blocking" for kw in call.keywords
            ) or bool(call.args)
            return True, bounded, attr
        return False, False, ""


def _module_facts(info: ModuleInfo) -> Dict[str, _FnFacts]:
    """Scan every function and method of one module."""
    facts: Dict[str, _FnFacts] = {}
    for node in info.ctx.tree.body:  # type: ignore[attr-defined]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scanner = _FunctionScanner(info.ctx, info.imports, class_name=None)
            facts[node.name] = scanner.scan(node.name, node)
        elif isinstance(node, ast.ClassDef):
            scanner = _FunctionScanner(info.ctx, info.imports, class_name=node.name)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{node.name}.{item.name}"
                    facts[qualname] = scanner.scan(qualname, item)
    return facts


def _fixpoint(facts: Dict[str, _FnFacts]) -> Tuple[Dict[str, bool], Dict[str, Set[str]]]:
    """Transitive (may-block, may-acquire) summaries over the call graph."""
    blocks = {q: bool(f.blocks) for q, f in facts.items()}
    acquires = {q: set(f.acquires) for q, f in facts.items()}
    changed = True
    while changed:
        changed = False
        for qualname, fn in facts.items():
            for call in fn.calls:
                callee = call.callee
                if callee not in facts:
                    continue
                if blocks[callee] and not blocks[qualname]:
                    blocks[qualname] = True
                    changed = True
                missing = acquires[callee] - acquires[qualname]
                if missing:
                    acquires[qualname] |= missing
                    changed = True
    return blocks, acquires


class LockRule(Rule):
    requires_project = True

    def scope(self, config, module) -> bool:  # pragma: no cover - not used
        return True

    def _lock_module_facts(self, project: ProjectContext):
        for module in project.module_names():
            if project.config.in_lock_module(module):
                info = project.modules[module]
                yield info, _module_facts(info)


# -- LOCK101 ----------------------------------------------------------------


class BlockingWhileLockedRule(LockRule):
    """LOCK101: never block while holding a lock.

    A blocking call under a held lock stalls every thread contending for
    that lock for as long as the call takes — and if the blocked-on event
    is itself produced under the same lock, that is a deadlock, not a
    stall.  Checked both directly (the blocking call is lexically inside
    the ``with`` region) and through one level of indirection closed
    under a fixpoint (the region calls a helper that transitively
    blocks).
    """

    id = "LOCK101"
    title = "blocking call while holding a lock"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info, facts in self._lock_module_facts(project):
            trans_blocks, _ = _fixpoint(facts)
            for qualname in sorted(facts):
                fn = facts[qualname]
                for event in fn.blocks:
                    if event.held:
                        yield info.ctx.finding(
                            self.id,
                            event.node,
                            f"`{qualname}` calls blocking `{event.label}(...)` while "
                            f"holding {_fmt_locks(event.held)}; release the lock "
                            "before blocking (copy state out, block, re-acquire)",
                        )
                for call in fn.calls:
                    if call.held and trans_blocks.get(call.callee, False):
                        yield info.ctx.finding(
                            self.id,
                            call.node,
                            f"`{qualname}` calls `{call.callee}()` while holding "
                            f"{_fmt_locks(call.held)}, and `{call.callee}` "
                            "(transitively) makes a blocking call",
                        )


# -- LOCK102 ----------------------------------------------------------------


class LockOrderCycleRule(LockRule):
    """LOCK102: lock acquisition order must be acyclic.

    Builds the module-wide acquired-while-holding graph — an edge A→B
    whenever lock B is taken while A is held, including through
    intra-module calls (region calls a function that acquires B) — and
    reports every elementary cycle.  A cycle is the ABBA precondition:
    two threads entering it from different edges deadlock.
    """

    id = "LOCK102"
    title = "lock acquisition-order cycle"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info, facts in self._lock_module_facts(project):
            _, trans_acquires = _fixpoint(facts)
            edges: Dict[Tuple[str, str], ast.AST] = {}
            for fn in facts.values():
                for held, acquired, site in fn.edges:
                    edges.setdefault((held, acquired), site)
                for call in fn.calls:
                    for held in call.held:
                        for acquired in trans_acquires.get(call.callee, ()):
                            if acquired != held:
                                edges.setdefault((held, acquired), call.node)
            adjacency: Dict[str, Set[str]] = {}
            for a, b in edges:
                adjacency.setdefault(a, set()).add(b)
            for cycle in _elementary_cycles(adjacency):
                chain = " -> ".join((*cycle, cycle[0]))
                site = edges[(cycle[0], cycle[1 % len(cycle)])]
                yield info.ctx.finding(
                    self.id,
                    site,
                    f"lock acquisition-order cycle: {chain}; two threads "
                    "entering this cycle from different edges deadlock — pick "
                    "one global order and acquire in it everywhere",
                )


def _elementary_cycles(adjacency: Dict[str, Set[str]]) -> List[Tuple[str, ...]]:
    """All elementary cycles, each reported once in canonical rotation.

    Exhaustive path enumeration — fine because a module holds a handful
    of locks, not a handful of thousands.
    """
    cycles: Set[Tuple[str, ...]] = set()
    for start in sorted(adjacency):
        stack: List[Tuple[str, Tuple[str, ...]]] = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            for nxt in sorted(adjacency.get(node, ())):
                if nxt == start:
                    pivot = path.index(min(path))
                    cycles.add(path[pivot:] + path[:pivot])
                elif nxt not in path:
                    stack.append((nxt, (*path, nxt)))
    return sorted(cycles)


# -- LOCK103 ----------------------------------------------------------------


class UnboundedBlockingRule(LockRule):
    """LOCK103: every blocking call carries a timeout.

    The local backend's liveness story is "a stuck peer becomes a
    timeout, the supervisor decides" — an unbounded ``q.get()`` /
    ``t.join()`` / ``ev.wait()`` opts out of that story and turns the
    first lost message into a hung process.  A call that is *supposed*
    to park forever carries ``# sim-lint: disable=LOCK103`` on its line.  Calls that are deadline-bounded internally
    (``consume``/``consume_with_timeout``) are exempt by construction.
    """

    id = "LOCK103"
    title = "unbounded blocking call"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info, facts in self._lock_module_facts(project):
            for qualname in sorted(facts):
                for event in facts[qualname].blocks:
                    if event.bounded:
                        continue
                    yield info.ctx.finding(
                        self.id,
                        event.node,
                        f"`{qualname}` makes an unbounded `{event.label}(...)` "
                        "call; pass timeout= so a stuck peer surfaces as a "
                        "timeout (or mark a call that must park forever "
                        "with `# sim-lint: disable=LOCK103`)",
                    )


def _fmt_locks(held: Tuple[str, ...]) -> str:
    names = ", ".join(f"`{lock}`" for lock in held)
    return f"lock {names}" if len(held) == 1 else f"locks {names}"


LOCK_RULES = (
    BlockingWhileLockedRule(),
    LockOrderCycleRule(),
    UnboundedBlockingRule(),
)
