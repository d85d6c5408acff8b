"""The sim-lint rule engine: file discovery, suppression, rule dispatch.

Deliberately framework-free: a rule is an object with an ``id``, a
``scope`` predicate (which modules it polices, derived from
:class:`~repro.analysis.config.SimLintConfig`), and a ``check`` method
that walks a parsed AST and yields findings.  The engine owns everything
rules share: stable file ordering, module-path normalisation,
``# sim-lint: disable=`` comment handling, the per-module allowlist, and
deterministic output ordering.

Since the project-analyzer upgrade the engine runs in **two phases**:

*collect*
    every file is parsed exactly once into a
    :class:`~repro.analysis.project.ProjectContext` — module import
    graph, symbol table of class/function definitions, machine
    detection, alias-resolved call sites — shared by all rules;

*check*
    per-file rules (``SIM0xx``) run against each file's
    :class:`FileContext`; project rules (``EXEC1xx``/``SEED1xx``/
    ``LOCK1xx``, ``requires_project = True``) run once against the
    whole :class:`ProjectContext`.  All findings flow through the same
    suppression/allowlist filter, so ``# sim-lint: disable=EXEC102``
    works exactly like ``disable=SIM001``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from .config import SimLintConfig

__all__ = [
    "FileContext",
    "Finding",
    "Rule",
    "analyze_paths",
    "iter_source_files",
    "module_path",
    "parse_suppressions",
]

#: ``# sim-lint: disable=SIM001`` or ``...disable=SIM001,EXEC102 — prose``
_SUPPRESS_RE = re.compile(
    r"#\s*sim-lint:\s*disable\s*=\s*([A-Za-z]+\d+(?:\s*,\s*[A-Za-z]+\d+)*|all)",
)

#: statement types whose multi-line extent a suppression comment covers —
#: simple (non-compound) statements only: extending a comment on a
#: ``def``/``for``/``with`` header over the whole body would suppress far
#: more than the author wrote the comment against.
_SIMPLE_STMTS = (
    ast.Assign,
    ast.AnnAssign,
    ast.AugAssign,
    ast.Expr,
    ast.Return,
    ast.Raise,
    ast.Assert,
    ast.Delete,
    ast.Import,
    ast.ImportFrom,
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a precise source location."""

    rule: str
    path: str
    module: str
    line: int
    col: int
    message: str
    snippet: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: Path
    module: str
    source: str
    lines: Sequence[str]
    tree: ast.AST
    config: SimLintConfig

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        snippet = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        return Finding(
            rule=rule_id,
            path=str(self.path),
            module=self.module,
            line=line,
            col=col,
            message=message,
            snippet=snippet,
        )

    def segment(self, node: ast.AST) -> str:
        return ast.get_source_segment(self.source, node) or ""


class Rule:
    """Base rule: subclasses set ``id``/``title`` and implement a check.

    Per-file rules implement :meth:`check`; cross-module rules set
    ``requires_project = True`` and implement :meth:`check_project`
    against the shared :class:`~repro.analysis.project.ProjectContext`.
    """

    id: str = "SIM000"
    title: str = ""
    #: True for cross-module rules checked once per run, not per file
    requires_project: bool = False

    def scope(self, config: SimLintConfig, module: str) -> bool:
        """Whether this rule applies to ``module`` at all."""
        return config.in_simulated_layer(module)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:  # noqa: F821
        raise NotImplementedError


def parse_suppressions(
    lines: Sequence[str], tree: Optional[ast.AST] = None
) -> Dict[int, Set[str]]:
    """Per-line suppressed rule ids (1-based), from sim-lint comments.

    ``disable=all`` suppresses every rule on that line.  Trailing prose
    after the rule list is permitted and encouraged::

        if value == 0:  # sim-lint: disable=SIM004 — exact-zero display check

    When ``tree`` is given, a comment anywhere on a **multi-line simple
    statement** (a parenthesized call, a continued assignment, a long
    import) covers the statement's full ``lineno..end_lineno`` extent, so
    a finding whose node reports a continuation line is still suppressed
    by the comment on the opening line.
    """
    suppressed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        spec = match.group(1)
        if spec == "all":
            suppressed[lineno] = {"all"}
        else:
            suppressed[lineno] = {part.strip().upper() for part in spec.split(",")}
    if tree is not None and suppressed:
        for node in ast.walk(tree):
            if not isinstance(node, _SIMPLE_STMTS):
                continue
            end = getattr(node, "end_lineno", None)
            if end is None or end <= node.lineno:
                continue
            covering: Set[str] = set()
            for ln in range(node.lineno, end + 1):
                covering |= suppressed.get(ln, set())
            if covering:
                for ln in range(node.lineno, end + 1):
                    suppressed.setdefault(ln, set()).update(covering)
    return suppressed


def iter_source_files(paths: Iterable[Path]) -> Iterator[Path]:
    """All ``.py`` files under ``paths``, each exactly once, sorted.

    Sorting makes the finding order (and therefore text/JSON output)
    independent of filesystem order.
    """
    seen: Set[Path] = set()
    collected: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            candidates: Iterable[Path] = path.rglob("*.py")
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)
    return iter(sorted(collected, key=lambda p: str(p)))


def module_path(path: Path) -> str:
    """``path`` relative to its top-level package, as a posix string.

    Walks up while ``__init__.py`` is present, so
    ``src/repro/core/worker.py`` and ``core/worker.py`` (scanned from a
    different cwd) both normalise to ``core/worker.py`` — which is what
    the config's layer prefixes and allowlist keys are written against.
    A file outside any package is its own module path (file name).
    """
    path = Path(path).resolve()
    top_package = path.parent
    current = path.parent
    while (current / "__init__.py").is_file() and current.parent != current:
        top_package = current
        current = current.parent
    if (top_package / "__init__.py").is_file():
        return path.relative_to(top_package).as_posix()
    return path.name


def parse_file(
    path: Path, module: str, config: SimLintConfig
) -> "tuple[Optional[FileContext], Optional[Finding]]":
    """Parse one source file into a :class:`FileContext`.

    Returns ``(ctx, None)`` on success and ``(None, finding)`` when the
    file is unreadable or does not parse (rule id ``SIM000``).
    """
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, _degenerate_finding(path, module, f"unreadable file: {exc}")
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            rule="SIM000",
            path=str(path),
            module=module,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            message=f"file does not parse: {exc.msg}",
            snippet=(exc.text or "").strip(),
        )
    return (
        FileContext(
            path=path, module=module, source=source, lines=lines, tree=tree, config=config
        ),
        None,
    )


def analyze_paths(
    paths: Iterable[Path],
    config: Optional[SimLintConfig] = None,
    rules: Optional[Sequence] = None,
) -> List[Finding]:
    """Run ``rules`` over every source file under ``paths``.

    Phase 1 parses every file once into a shared
    :class:`~repro.analysis.project.ProjectContext`; phase 2 runs the
    per-file rules against each file and the project rules against the
    whole context.  Returns findings sorted by (module, line, col, rule),
    already filtered through per-line suppressions and the module
    allowlist.
    """
    from .project import ProjectContext
    from .rules import ALL_RULES

    config = config or SimLintConfig()
    active_rules = list(rules if rules is not None else ALL_RULES)
    file_rules = [r for r in active_rules if not r.requires_project]
    project_rules = [r for r in active_rules if r.requires_project]

    project = ProjectContext.collect(iter_source_files(paths), config)

    raw: List[Finding] = list(project.parse_errors)
    for module in project.module_names():
        info = project.modules[module]
        allowed = set(config.allowed_rules(module))
        for rule in file_rules:
            if rule.id in allowed or not rule.scope(config, module):
                continue
            raw.extend(rule.check(info.ctx))
    for rule in project_rules:
        raw.extend(rule.check_project(project))

    findings = [f for f in raw if not _is_silenced(f, project, config)]
    findings.sort(key=lambda f: (f.module, f.line, f.col, f.rule))
    return findings


def _is_silenced(finding: Finding, project, config: SimLintConfig) -> bool:
    """Apply the module allowlist and line suppressions to one finding."""
    if finding.rule in config.allowed_rules(finding.module):
        return True
    info = project.modules.get(finding.module)
    if info is None:
        return False
    line_rules = info.suppressions.get(finding.line, ())
    return "all" in line_rules or finding.rule in line_rules


def _degenerate_finding(path: Path, module: str, message: str) -> Finding:
    return Finding(
        rule="SIM000",
        path=str(path),
        module=module,
        line=1,
        col=1,
        message=message,
        snippet="",
    )
