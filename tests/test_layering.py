"""Layering: ``repro.experiments`` is figure code, and nothing else imports it.

The public way to build and run a job is :mod:`repro.api`.  A module
outside ``experiments/`` that imports the figure package, at any nesting
depth (a lazy import inside a function counts), makes the figure code
impossible to delete, so the walk below fails on it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imports_experiments(path):
    """Line numbers of every import of ``repro.experiments`` in ``path``."""
    package = path.parent.relative_to(SRC.parent).parts  # e.g. ("repro", "scenarios")
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join((*base, *filter(None, [node.module])))
            # ``from . import experiments`` names the package as an alias
            targets = [module] + [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        if any(t == "repro.experiments" or t.startswith("repro.experiments.")
               for t in targets):
            hits.append(node.lineno)
    return hits


def test_no_module_outside_experiments_imports_it():
    offenders = {
        path.relative_to(SRC).as_posix(): lines
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "experiments"
        and (lines := _imports_experiments(path))
    }
    assert offenders == {}


def test_old_builder_paths_are_the_api_module_itself():
    # The benchmark patches ``make_runtime`` through the old path; a
    # re-export would leave the global ``run_mlless`` reads untouched.
    from repro import api
    from repro.experiments import common, settings

    assert common is api and settings is api
