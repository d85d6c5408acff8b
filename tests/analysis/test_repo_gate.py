"""The gate: the real source tree must be sim-lint clean under the
policy in code, wherever the tree sits, and stay that way."""

import ast
import shutil
import tomllib
from pathlib import Path

import pytest

from repro.analysis import SimLintConfig, analyze_paths
from repro.cli import main as repro_main


def _details(findings):
    return "\n".join(f"{f.location()}: {f.rule} {f.message}" for f in findings)


def test_src_repro_is_clean(repo_paths):
    _, src_repro = repo_paths
    findings = analyze_paths([src_repro], config=SimLintConfig())
    assert findings == [], f"sim-lint findings in src/repro:\n{_details(findings)}"


def test_a_copy_outside_the_checkout_is_clean(repo_paths, tmp_path, capsys):
    """The policy is the code's defaults, so a copy of the tree with no
    ``pyproject.toml`` above it lints exactly like the checkout."""
    _, src_repro = repo_paths
    copy = tmp_path / "repro"
    shutil.copytree(src_repro, copy, ignore=shutil.ignore_patterns("__pycache__"))
    findings = analyze_paths([copy], config=SimLintConfig())
    assert findings == [], f"sim-lint findings in the copy:\n{_details(findings)}"
    assert repro_main(["lint", str(copy)]) == 0
    assert "sim-lint: 0 finding(s)" in capsys.readouterr().out


def test_pyproject_has_no_sim_lint_table(repo_paths):
    """``repro lint`` reads no configuration file: a ``[tool.sim-lint]``
    table would be silently ignored, so the policy must not drift there."""
    root, _ = repo_paths
    data = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    assert "sim-lint" not in data.get("tool", {})


def test_an_injected_violation_is_caught(repo_paths, tmp_path):
    """End-to-end: a wall-clock read dropped into a simulated layer fails.

    Copies one real kernel module into a synthetic package, injects a
    ``time.time()`` call, and asserts the analyzer reports it with a
    precise location — the acceptance criterion for the static half.
    """
    _, src_repro = repo_paths
    package = tmp_path / "pkg"
    (package / "sim").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "sim" / "__init__.py").write_text("")
    source = (src_repro / "sim" / "core.py").read_text()
    source = source.replace(
        "def peek(self) -> float:",
        "def peek(self) -> float:\n        import time\n        _ = time.time()",
        1,
    )
    (package / "sim" / "core.py").write_text(source)
    findings = analyze_paths([package], config=SimLintConfig())
    assert [f.rule for f in findings] == ["SIM001"]
    assert findings[0].module == "sim/core.py"
    assert findings[0].line > 0 and "time.time" in findings[0].message


def _copy_subtree(src_repro, package, subdirs):
    """Copy real source subpackages into a synthetic package root."""
    package.mkdir(parents=True, exist_ok=True)
    (package / "__init__.py").write_text("")
    for subdir in subdirs:
        shutil.copytree(src_repro / subdir, package / subdir)
    return package


def _yielded_services_verbs():
    """The verbs machines yield, read from the real tree at collection
    (``unbind`` is a plain synchronous call, never a token)."""
    protocols = Path(__file__).resolve().parents[2] / "src/repro/exec/protocols.py"
    for node in ast.walk(ast.parse(protocols.read_text())):
        if isinstance(node, ast.ClassDef) and node.name == "Services":
            return [
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not item.name.startswith("_")
                and item.name != "unbind"
            ]
    raise AssertionError("Services class not found")


@pytest.mark.parametrize("method", _yielded_services_verbs())
def test_deleting_any_services_method_fails_conformance(repo_paths, tmp_path, method):
    """There is one ``Services`` class, so the contract can no longer
    drift between backends — only between the class and the machines.
    Remove any one verb from it and every machine that yields that verb
    must fail EXEC102, which reads its verb table from the class."""
    _, src_repro = repo_paths
    package = _copy_subtree(src_repro, tmp_path / "pkg", ["exec", "core", "platform"])
    protocols = package / "exec" / "protocols.py"
    source = protocols.read_text()
    services = next(
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name == "Services"
    )
    target = next(
        item
        for item in services.body
        if isinstance(item, ast.FunctionDef) and item.name == method
    )
    lines = source.splitlines(keepends=True)
    del lines[target.lineno - 1 : target.end_lineno]
    protocols.write_text("".join(lines))

    findings = analyze_paths([package], config=SimLintConfig())
    assert findings, f"deleting Services.{method} went unnoticed"
    assert {f.rule for f in findings} == {"EXEC102"}
    assert all(f".{method}(" in f.snippet for f in findings)


def test_injected_cross_module_violations_are_caught(repo_paths, tmp_path):
    """End-to-end on the real tree: one injected violation per new family."""
    _, src_repro = repo_paths
    package = _copy_subtree(src_repro, tmp_path / "pkg", ["exec", "core", "sim", "trace", "storage"])

    # EXEC101/EXEC102: couple a machine module to threading, add a bare yield
    worker = package / "core" / "worker.py"
    source = worker.read_text()
    assert "yield sv.mq_publish(runtime.supervisor_queue, report)" in source
    source = source.replace(
        "yield sv.mq_publish(runtime.supervisor_queue, report)",
        "yield 42\n        yield sv.mq_publish(runtime.supervisor_queue, report)",
        1,
    )
    worker.write_text("import threading  # noqa: F401\n" + source)

    # LOCK101/LOCK103: block while holding a lock in the local backend
    local = package / "exec" / "local.py"
    local.write_text(
        local.read_text()
        + "\n\ndef _stall(q, state_lock):\n    with state_lock:\n        return q.get()\n"
    )

    rules = {f.rule for f in analyze_paths([package], config=SimLintConfig())}
    assert {"EXEC101", "EXEC102", "LOCK101", "LOCK103"} <= rules
