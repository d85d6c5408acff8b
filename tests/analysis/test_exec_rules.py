"""EXEC1xx: backend-neutrality rules over a synthetic multi-module package."""

from repro.analysis import SimLintConfig
from repro.analysis.exec_rules import EXEC_RULES

PROTOCOLS = """
    class Services:
        def kv_get(self, key): ...
        def kv_set(self, key, value): ...
        def mq_publish(self, topic, payload): ...
        def sleep(self, seconds): ...
"""

CLEAN_MACHINE = """
    def worker(sv, wid) -> "Machine":
        value = yield sv.kv_get(f"grad.{wid}")
        yield sv.mq_publish("updates", value)
        yield from _drain(sv)
        return value

    def _drain(sv) -> "Machine":
        yield sv.sleep(0.5)
"""


def base_files():
    return {
        "exec/protocols.py": PROTOCOLS,
        "core/worker.py": CLEAN_MACHINE,
    }


def test_clean_package_has_no_exec_findings(lint_project):
    assert lint_project(base_files(), rules=EXEC_RULES) == []


# -- EXEC101 -----------------------------------------------------------------


def test_exec101_flags_banned_import_in_machine_module(lint_project):
    files = base_files()
    files["core/worker.py"] = "\n    import threading\n" + files["core/worker.py"]
    findings = lint_project(files, rules=EXEC_RULES)
    assert [f.rule for f in findings] == ["EXEC101"]
    assert findings[0].module == "core/worker.py"
    assert "threading" in findings[0].message


def test_exec101_flags_relative_backend_import(lint_project):
    files = base_files()
    files["core/worker.py"] = (
        "\n    from ..exec.sim import drive\n" + files["core/worker.py"]
    )
    findings = lint_project(files, rules=EXEC_RULES)
    assert [f.rule for f in findings] == ["EXEC101"]
    assert "exec.sim" in findings[0].message


def test_exec101_ignores_modules_without_machines(lint_project):
    files = base_files()
    # a driver module may import anything: it hosts no machines
    files["core/driver.py"] = """
        import threading
        from ..exec.sim import drive
    """
    assert lint_project(files, rules=EXEC_RULES) == []


def test_exec101_config_forces_module_into_machine_set(lint_project):
    files = base_files()
    files["core/driver.py"] = "import threading\n"
    config = SimLintConfig(exec_machine_modules=("core/driver.py",))
    findings = lint_project(files, rules=EXEC_RULES, config=config)
    assert [f.rule for f in findings] == ["EXEC101"]
    assert findings[0].module == "core/driver.py"


def test_exec101_protocols_import_is_allowed(lint_project):
    files = base_files()
    files["core/worker.py"] = (
        "\n    from ..exec.protocols import Services\n" + files["core/worker.py"]
    )
    assert lint_project(files, rules=EXEC_RULES) == []


# -- EXEC102 -----------------------------------------------------------------


def test_exec102_flags_bare_value_yield(lint_project):
    files = base_files()
    files["core/worker.py"] = """
        def worker(sv, wid) -> "Machine":
            yield sv.kv_get("x")
            yield 42
    """
    findings = lint_project(files, rules=EXEC_RULES)
    assert [f.rule for f in findings] == ["EXEC102"]
    assert "non-protocol value" in findings[0].message


def test_exec102_flags_bare_yield_and_non_call_yield_from(lint_project):
    files = base_files()
    files["core/worker.py"] = """
        def worker(sv, gen) -> "Machine":
            yield
            yield from gen
    """
    findings = lint_project(files, rules=EXEC_RULES)
    assert sorted(f.rule for f in findings) == ["EXEC102", "EXEC102"]
    messages = " | ".join(f.message for f in findings)
    assert "bare `yield`" in messages and "yield from" in messages


def test_exec102_ignores_yields_in_nested_defs(lint_project):
    files = base_files()
    # the nested helper is not itself a machine; its yields are its own
    files["core/worker.py"] = """
        def worker(sv) -> "Machine":
            def local_gen():
                yield 1
                yield 2
            yield sv.mq_publish("t", list(local_gen()))
    """
    assert lint_project(files, rules=EXEC_RULES) == []


def test_exec102_skips_when_protocols_module_not_scanned(lint_project):
    files = {"core/worker.py": "def worker(sv) -> 'Machine':\n    yield 42\n"}
    findings = lint_project(files, rules=EXEC_RULES)
    assert [f.rule for f in findings] == []


def test_exec_suppression_comment_silences_finding(lint_project):
    files = base_files()
    files["core/worker.py"] = """
        def worker(sv) -> "Machine":
            yield 42  # sim-lint: disable=EXEC102 — handshake token, both backends ignore it
    """
    assert lint_project(files, rules=EXEC_RULES) == []
