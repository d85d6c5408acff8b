"""The collect phase: a whole-program ``ProjectContext`` shared by rules.

Per-file AST scanning cannot see the three architectural contracts the
recent backend/platform work rests on — backend-neutral machines, named
seed-stream isolation, and the local backend's lock discipline — because
each is a property of *several* modules at once.  This module parses
every file exactly once and derives the shared facts the cross-module
rule families (``EXEC1xx``/``SEED1xx``/``LOCK1xx``) check against:

* the **module table**: one :class:`ModuleInfo` per parsed file, holding
  its :class:`~repro.analysis.engine.FileContext`, alias map, class and
  top-level-function symbol tables, and extent-aware suppressions;
* the **import graph**: every import statement resolved to a
  package-relative dotted module (relative imports are resolved against
  the importing module's own package path, ``repro.``-absolute imports
  are normalised the same way);
* **machine detection**: a function is a *machine* when it is a
  generator and is annotated against the backend contract — its return
  annotation is ``Machine`` or a parameter is annotated
  ``ExecutionContext``;
* **seed-stream call sites**: every ``streams.stream(...)``-shaped call,
  classified as a literal name, a dynamic name carrying a per-entity
  placeholder, or a dynamic name without one;
* the **Services surface**: the verb table of the configured
  ``Services`` class, which machine yields are checked against.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

from .astutils import build_import_map, is_generator_function, terminal_name
from .config import PROTOCOLS_MODULE, SERVICES_CLASS, SimLintConfig
from .engine import FileContext, Finding, parse_file, module_path, parse_suppressions

__all__ = [
    "MachineFunction",
    "ModuleImport",
    "ModuleInfo",
    "ProjectContext",
    "StreamCall",
]


@dataclass(frozen=True)
class ModuleImport:
    """One import statement, resolved to a package-relative dotted module."""

    #: dotted module name: ``exec.protocols`` for internal (relative or
    #: ``repro.``-absolute) imports, ``threading``/``numpy`` for external
    name: str
    node: ast.stmt


@dataclass(frozen=True)
class MachineFunction:
    """A backend-neutral generator machine definition."""

    module: str
    qualname: str
    node: ast.FunctionDef


@dataclass(frozen=True)
class StreamCall:
    """One ``streams.stream(<name>)`` call site."""

    module: str
    node: ast.Call
    #: the literal stream name, when the argument is a string constant
    literal: Optional[str]
    #: True when the name is built dynamically (f-string/concat) but
    #: contains no per-entity placeholder — every caller would share one
    #: stream while the code reads as if each entity had its own
    dynamic_without_entity: bool


@dataclass
class ModuleInfo:
    """Everything the collect phase knows about one parsed module."""

    ctx: FileContext
    imports: Dict[str, str]
    module_imports: List[ModuleImport]
    classes: Dict[str, ast.ClassDef]
    functions: Dict[str, ast.FunctionDef]
    machines: List[MachineFunction]
    stream_calls: List[StreamCall]
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)


class ProjectContext:
    """The shared result of parsing every file under the scan roots."""

    def __init__(self, config: SimLintConfig):
        self.config = config
        self.modules: Dict[str, ModuleInfo] = {}
        self.parse_errors: List[Finding] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def collect(cls, files: Iterable[Path], config: SimLintConfig) -> "ProjectContext":
        project = cls(config)
        for path in files:
            module = module_path(path)
            ctx, error = parse_file(path, module, config)
            if error is not None:
                project.parse_errors.append(error)
                continue
            assert ctx is not None
            project.modules[module] = _collect_module(ctx)
        return project

    def module_names(self) -> List[str]:
        return sorted(self.modules)

    # -- derived facts ----------------------------------------------------

    def machine_modules(self) -> List[str]:
        """Modules hosting at least one machine, plus config-forced ones."""
        hosts = {m for m, info in self.modules.items() if info.machines}
        hosts.update(m for m in self.config.exec_machine_modules if m in self.modules)
        return sorted(hosts)

    def services_methods(self) -> Optional[Dict[str, ast.FunctionDef]]:
        """Method table of the configured ``Services`` class.

        ``None`` when the protocols module (or the class) is not part of
        this scan — the protocol-dependent rules then skip rather than
        guess.  Dunder and private methods are not part of the contract.
        """
        info = self.modules.get(PROTOCOLS_MODULE)
        if info is None:
            return None
        cls = info.classes.get(SERVICES_CLASS)
        if cls is None:
            return None
        return {
            node.name: node
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
        }


# -- per-module collection -------------------------------------------------


def _collect_module(ctx: FileContext) -> ModuleInfo:
    imports = build_import_map(ctx.tree)
    classes: Dict[str, ast.ClassDef] = {}
    functions: Dict[str, ast.FunctionDef] = {}
    machines: List[MachineFunction] = []

    for node in ctx.tree.body:  # type: ignore[attr-defined]
        if isinstance(node, ast.ClassDef):
            classes[node.name] = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = node

    for parent_name, fn in _iter_functions(ctx.tree):
        if _is_machine(fn):
            qualname = f"{parent_name}.{fn.name}" if parent_name else fn.name
            machines.append(MachineFunction(module=ctx.module, qualname=qualname, node=fn))

    return ModuleInfo(
        ctx=ctx,
        imports=imports,
        module_imports=_resolve_module_imports(ctx.module, ctx.tree),
        classes=classes,
        functions=functions,
        machines=machines,
        stream_calls=_collect_stream_calls(ctx),
        suppressions=parse_suppressions(ctx.lines, ctx.tree),
    )


def _iter_functions(tree: ast.AST):
    """(enclosing class name or None, function def) for every def."""
    for node in tree.body:  # type: ignore[attr-defined]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item


def _is_machine(fn: ast.AST) -> bool:
    """Backend-neutral machine: a generator annotated against the contract."""
    returns_machine = terminal_name(getattr(fn, "returns", None)) == "Machine"
    args = getattr(fn, "args", None)
    takes_ectx = args is not None and any(
        terminal_name(arg.annotation) == "ExecutionContext"
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
    )
    return (returns_machine or takes_ectx) and is_generator_function(fn)


def _resolve_module_imports(module: str, tree: ast.AST) -> List[ModuleImport]:
    """Every import in ``tree`` as a package-relative dotted module name."""
    pkg_parts = module.split("/")[:-1]  # e.g. "core/worker.py" -> ["core"]
    out: List[ModuleImport] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append(ModuleImport(name=alias.name, node=node))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            if node.level == 0:
                out.append(ModuleImport(name=node.module or "", node=node))
                continue
            # ``from .x import y`` / ``from .. import z``: resolve against
            # this module's package path.  level 1 is the current package.
            base = pkg_parts[: len(pkg_parts) - (node.level - 1)] if node.level > 1 else pkg_parts
            if node.module:
                out.append(ModuleImport(name=".".join([*base, *node.module.split(".")]), node=node))
            else:
                # ``from . import a, b``: each alias is itself a module.
                for alias in node.names:
                    out.append(ModuleImport(name=".".join([*base, alias.name]), node=node))
    return out


def _collect_stream_calls(ctx: FileContext) -> List[StreamCall]:
    calls: List[StreamCall] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "stream"):
            continue
        if len(node.args) != 1 or node.keywords:
            continue
        arg = node.args[0]
        literal: Optional[str] = None
        dynamic_without_entity = False
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            literal = arg.value
        elif isinstance(arg, ast.JoinedStr):
            has_placeholder = any(
                isinstance(part, ast.FormattedValue) for part in arg.values
            )
            dynamic_without_entity = not has_placeholder
            if not has_placeholder:
                # A placeholder-free f-string is a constant in disguise;
                # fold it so SEED101 sees the collision too.
                literal = "".join(
                    part.value
                    for part in arg.values
                    if isinstance(part, ast.Constant) and isinstance(part.value, str)
                )
        elif isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add):
            dynamic_without_entity = _is_constant_concat(arg)
        calls.append(
            StreamCall(
                module=ctx.module,
                node=node,
                literal=literal,
                dynamic_without_entity=dynamic_without_entity,
            )
        )
    return calls


def _is_constant_concat(node: ast.AST) -> bool:
    """True when a ``+`` chain is built purely from string constants."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_constant_concat(node.left) and _is_constant_concat(node.right)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)
