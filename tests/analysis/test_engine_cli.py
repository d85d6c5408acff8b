"""Engine plumbing: module paths, suppressions, CLI."""

import json
import textwrap

from repro.analysis.engine import module_path, parse_suppressions
from repro.cli import main as repro_main


def cli_main(argv):
    return repro_main(["lint", *argv])


BAD_SIM_MODULE = """
import time

def latency():
    return time.time()
"""


def write_package(tmp_path, source=BAD_SIM_MODULE, layer="sim"):
    package = tmp_path / "pkg"
    (package / layer).mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / layer / "__init__.py").write_text("")
    (package / layer / "mod.py").write_text(textwrap.dedent(source))
    return package


# -- engine helpers ----------------------------------------------------------


def test_module_path_strips_package_prefix(repo_paths):
    _, src_repro = repo_paths
    assert module_path(src_repro / "core" / "worker.py") == "core/worker.py"
    assert module_path(src_repro / "sim" / "core.py") == "sim/core.py"


def test_parse_suppressions_variants():
    lines = [
        "x = 1",
        "y = f()  # sim-lint: disable=SIM001",
        "z = g()  # sim-lint: disable=SIM001, SIM003 — prose after the list",
        "w = h()  # sim-lint: disable=all",
    ]
    assert parse_suppressions(lines) == {
        2: {"SIM001"},
        3: {"SIM001", "SIM003"},
        4: {"all"},
    }


def test_suppression_covers_multiline_statement_extent():
    """A comment on the opening line of a parenthesized statement must
    cover findings reported against its continuation lines (regression:
    the node's lineno is often the continuation, not the comment line)."""
    import ast

    source = textwrap.dedent(
        """
        x = build(  # sim-lint: disable=SIM001
            time.time(),
            other,
        )
        y = 1
        """
    ).strip()
    lines = source.splitlines()
    suppressed = parse_suppressions(lines, ast.parse(source))
    # lines 1-4 are the statement extent; line 5 is outside it
    assert suppressed[1] == {"SIM001"}
    assert suppressed[2] == {"SIM001"}
    assert suppressed[4] == {"SIM001"}
    assert 5 not in suppressed
    # without the tree the comment only covers its own line (old behavior)
    assert parse_suppressions(lines) == {1: {"SIM001"}}


def test_suppression_does_not_leak_over_compound_statements():
    """A comment on a def/for/with header must NOT suppress the body:
    extending over compound statements would silence far more than the
    author wrote the comment against."""
    import ast

    source = textwrap.dedent(
        """
        def f():  # sim-lint: disable=SIM001
            return time.time()
        """
    ).strip()
    lines = source.splitlines()
    suppressed = parse_suppressions(lines, ast.parse(source))
    assert suppressed == {1: {"SIM001"}}


def test_multiline_suppression_end_to_end(lint_snippet):
    """The engine applies extent-aware suppression to real findings."""
    findings = lint_snippet(
        """
        import time

        def f(build, other):
            return build(  # sim-lint: disable=SIM001 — boot wall-time, display only
                time.time(),
                other,
            )
        """
    )
    assert findings == []
    # the twin without the comment still fails, on the continuation line
    findings = lint_snippet(
        """
        import time

        def g(build, other):
            return build(
                time.time(),
                other,
            )
        """,
        filename="twin.py",
    )
    assert [f.rule for f in findings] == ["SIM001"]


# -- CLI ---------------------------------------------------------------------


def test_cli_exits_nonzero_with_precise_location(tmp_path, capsys):
    package = write_package(tmp_path)
    assert cli_main([str(package)]) == 1
    out = capsys.readouterr().out
    assert "mod.py:5:12: SIM001" in out
    assert "sim-lint: 1 finding(s)" in out


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    package = write_package(tmp_path, source="def f(env):\n    return env.now\n")
    assert cli_main([str(package)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_json_report_and_output_file(tmp_path, capsys):
    package = write_package(tmp_path)
    report_path = tmp_path / "report.json"
    assert cli_main([str(package), "--json", "--output", str(report_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["counts"] == {"total": 1, "by_rule": {"SIM001": 1}}
    assert json.loads(report_path.read_text()) == payload


def test_cli_json_report_drops_baseline_fields(tmp_path, capsys):
    package = write_package(tmp_path)
    assert cli_main([str(package), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 2
    assert set(payload) == {"version", "findings", "counts", "clean"}
    assert "fingerprint" not in payload["findings"][0]
    assert payload["counts"]["by_rule"] == {"SIM001": 1}


def test_cli_rules_filter(tmp_path, capsys):
    package = write_package(tmp_path)
    assert cli_main([str(package), "--rules", "SIM002"]) == 0
    capsys.readouterr()
    assert cli_main([str(package), "--rules", "SIM001"]) == 1
    capsys.readouterr()
    assert cli_main([str(package), "--rules", "SIM999"]) == 2
    assert "error: unknown rule 'SIM999'" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006"):
        assert rule_id in out


def test_cli_missing_path_exits_2(tmp_path, capsys):
    assert cli_main([str(tmp_path / "nope")]) == 2
