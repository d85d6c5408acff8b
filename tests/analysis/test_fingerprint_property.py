"""Fingerprint stability: the property the baseline workflow relies on.

A baseline entry must keep matching its finding while unrelated edits
shift the file around (line/column independence), and must stop matching
the moment the violation itself changes (rule, module, or source text).
"""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import Finding, load_baseline, write_baseline
from repro.analysis.baseline import split_by_baseline

RULE_IDS = st.sampled_from(
    ["SIM001", "SIM002", "EXEC101", "EXEC102", "SEED101", "LOCK102"]
)
MODULES = st.sampled_from(
    ["sim/core.py", "core/worker.py", "exec/local.py", "platform/jobs.py"]
)
SNIPPETS = st.text(min_size=1, max_size=80)
POSITIONS = st.integers(min_value=1, max_value=10_000)


def make_finding(rule, module, snippet, line, col):
    return Finding(
        rule=rule,
        path=f"src/repro/{module}",
        module=module,
        line=line,
        col=col,
        message="m",
        snippet=snippet,
    )


@given(RULE_IDS, MODULES, SNIPPETS, POSITIONS, POSITIONS, POSITIONS, POSITIONS)
def test_fingerprint_invariant_under_line_and_column_shifts(
    rule, module, snippet, line_a, col_a, line_b, col_b
):
    a = make_finding(rule, module, snippet, line_a, col_a)
    b = make_finding(rule, module, snippet, line_b, col_b)
    assert a.fingerprint == b.fingerprint


@given(RULE_IDS, RULE_IDS, MODULES, SNIPPETS, POSITIONS)
def test_fingerprint_changes_with_rule(rule_a, rule_b, module, snippet, line):
    a = make_finding(rule_a, module, snippet, line, 1)
    b = make_finding(rule_b, module, snippet, line, 1)
    assert (a.fingerprint == b.fingerprint) == (rule_a == rule_b)


@given(RULE_IDS, MODULES, MODULES, SNIPPETS, POSITIONS)
def test_fingerprint_changes_with_module(rule, module_a, module_b, snippet, line):
    a = make_finding(rule, module_a, snippet, line, 1)
    b = make_finding(rule, module_b, snippet, line, 1)
    assert (a.fingerprint == b.fingerprint) == (module_a == module_b)


@given(RULE_IDS, MODULES, SNIPPETS, SNIPPETS, POSITIONS)
def test_fingerprint_changes_with_snippet(rule, module, snippet_a, snippet_b, line):
    a = make_finding(rule, module, snippet_a, line, 1)
    b = make_finding(rule, module, snippet_b, line, 1)
    assert (a.fingerprint == b.fingerprint) == (snippet_a == snippet_b)


@given(
    st.lists(
        st.tuples(RULE_IDS, MODULES, SNIPPETS, POSITIONS, POSITIONS),
        max_size=8,
        unique_by=lambda t: (t[0], t[1], t[2]),
    ),
    POSITIONS,
)
def test_baseline_round_trip_grandfathers_shifted_findings(tmp_path_factory, entries, shift):
    """write_baseline → load_baseline → split: every finding that only
    moved (line shift) stays grandfathered; nothing new leaks through."""
    tmp_path = tmp_path_factory.mktemp("baseline")
    findings = [make_finding(*entry) for entry in entries]
    path = tmp_path / "baseline.json"
    assert write_baseline(findings, path) == len(findings)
    fingerprints = load_baseline(path)
    shifted = [
        make_finding(f.rule, f.module, f.snippet, f.line + shift, f.col)
        for f in findings
    ]
    fresh, grandfathered = split_by_baseline(shifted, fingerprints)
    assert fresh == []
    assert len(grandfathered) == len(findings)
    # the file on disk is plain JSON a reviewer can read
    assert isinstance(json.loads(path.read_text()), list)
