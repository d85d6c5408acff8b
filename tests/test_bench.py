"""Tests for the microbenchmark harness (``repro.bench``).

The harness is CI infrastructure: a silent bug here (a checksum that
never fires, a gate that never fails) would let a results-changing
"optimization" through, so the failure paths are tested as carefully as
the happy path.  Timing tests use toy synthetic ops — never the real
workloads — to stay fast and deterministic.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import ALL_OPS, BenchOp, checksum_bytes, compare, run_suite
from repro.bench.cli import write_results
from repro.cli import main as repro_main, read_json

REPO = Path(__file__).resolve().parents[1]


def main(argv):
    return repro_main(["bench", *argv])


def _toy_op(name="kernel.toy", group="kernel", value=7, portable=True):
    return BenchOp(
        name=name,
        group=group,
        make_state=lambda: value,
        run=lambda state, payload: state * 2,
        checksum=lambda out: checksum_bytes(str(out).encode()),
        portable=portable,
    )


def _doc(*entries, name="doc"):
    return {
        "schema_version": 1,
        "name": name,
        "quick": False,
        "host": {},
        "ops": [dict(e) for e in entries],
    }


def _entry(op="kernel.toy", group="kernel", p50=1000, checksum="abc", portable=True):
    return {
        "op": op,
        "group": group,
        "reps": 5,
        "p50_ns": p50,
        "p95_ns": p50 * 2,
        "checksum": checksum,
        "portable_checksum": portable,
    }


# ------------------------------------------------------------ checksums
def test_checksum_bytes_is_length_prefixed():
    # ("ab", "c") and ("a", "bc") concatenate identically; the length
    # prefix must still distinguish them.
    assert checksum_bytes(b"ab", b"c") != checksum_bytes(b"a", b"bc")
    assert checksum_bytes(b"x") == checksum_bytes(b"x")


# ------------------------------------------------------------ run_suite
def test_run_suite_document_schema():
    doc = run_suite([_toy_op()], name="t", quick=True)
    assert set(doc) == {"schema_version", "name", "quick", "host", "ops"}
    assert doc["name"] == "t" and doc["quick"] is True
    (entry,) = doc["ops"]
    assert entry["op"] == "kernel.toy"
    assert entry["group"] == "kernel"
    assert entry["reps"] > 0
    assert entry["p50_ns"] >= 0 and entry["p95_ns"] >= entry["p50_ns"]
    assert entry["p99_ns"] >= entry["p95_ns"]  # tail percentile ships too
    assert entry["checksum"] == checksum_bytes(b"14")
    assert entry["portable_checksum"] is True


def test_run_suite_only_filter_and_unknown_op():
    ops = [_toy_op("kernel.a"), _toy_op("kernel.b")]
    doc = run_suite(ops, name="t", quick=True, only=["kernel.b"])
    assert [e["op"] for e in doc["ops"]] == ["kernel.b"]
    with pytest.raises(ValueError, match="unknown ops"):
        run_suite(ops, name="t", quick=True, only=["kernel.nope"])


def test_run_suite_prepare_runs_outside_timed_region():
    # An op that mutates its payload still checksums correctly because
    # prepare() hands it a fresh payload each rep.
    op = BenchOp(
        name="scatter.toy",
        group="scatter",
        make_state=lambda: [1, 2, 3],
        prepare=lambda state: list(state),
        run=lambda state, payload: payload.append(4) or payload,
        checksum=lambda out: checksum_bytes(bytes(out)),
    )
    doc = run_suite([op], name="t", quick=True)
    assert doc["ops"][0]["checksum"] == checksum_bytes(bytes([1, 2, 3, 4]))


def test_write_results_roundtrip(tmp_path):
    doc = run_suite([_toy_op()], name="unit", quick=True)
    path = write_results(doc, str(tmp_path))
    assert path.endswith("BENCH_unit.json")
    with open(path) as handle:
        assert json.load(handle) == doc


def test_reference_document_covers_every_registered_op():
    # BENCH_reference.json is the one committed micro-op record: an op
    # it lacks is an op CI's drift gate never checks.
    names = [op.name for op in ALL_OPS]
    assert len(set(names)) == len(names)
    reference = read_json(REPO / "BENCH_reference.json")
    assert [entry["op"] for entry in reference["ops"]] == names
    assert sorted(p.name for p in REPO.glob("BENCH_*.json")) == [
        "BENCH_platform.json", "BENCH_reference.json",
    ]


# -------------------------------------------------------------- compare
def test_compare_passes_on_identical_docs():
    doc = _doc(_entry())
    result = compare(doc, copy.deepcopy(doc))
    assert result.ok
    assert result.lines == ["ok:     1.00x  kernel.toy (kernel)"]


def test_compare_fails_on_checksum_drift():
    base = _doc(_entry(checksum="aaa"))
    new = _doc(_entry(checksum="bbb", p50=1))  # huge speedup cannot save it
    result = compare(base, new)
    assert not result.ok
    assert any("checksum drift" in line for line in result.lines)


def test_compare_portable_only_skips_nonportable_drift():
    base = _doc(_entry(checksum="aaa", portable=False))
    new = _doc(_entry(checksum="bbb", portable=False))
    strict = compare(base, new)
    lax = compare(base, new, portable_only=True)
    assert not strict.ok
    assert lax.ok
    assert any(line.startswith("skip") for line in lax.lines)


def test_compare_reports_missing_and_new_ops():
    base = _doc(_entry("kernel.old"), _entry("kernel.kept", p50=2000))
    new = _doc(_entry("kernel.kept"), _entry("kernel.new"))
    result = compare(base, new)
    assert not result.ok  # a reference op that vanished is un-gated drift
    assert result.lines == [
        "FAIL: kernel.old: missing from new results",
        "ok:     2.00x  kernel.kept (kernel)",  # speedups: information only
        "note: kernel.new: new op (no baseline)",
    ]
    assert compare(new, new).ok


# ------------------------------------------------------------------ CLI
def test_cli_list_ops(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for op in ALL_OPS:
        assert op.name in out


def test_cli_unknown_op_is_an_error(capsys):
    assert main(["run", "--ops", "kernel.nope"]) == 2


def test_cli_compare_exit_codes(tmp_path, capsys):
    base = tmp_path / "BENCH_a.json"
    good = tmp_path / "BENCH_b.json"
    drifted = tmp_path / "BENCH_c.json"
    base.write_text(json.dumps(_doc(_entry(p50=1000), name="a")))
    good.write_text(json.dumps(_doc(_entry(p50=100), name="b")))
    drifted.write_text(json.dumps(_doc(_entry(checksum="zzz"), name="c")))
    emptied = tmp_path / "BENCH_d.json"
    emptied.write_text(json.dumps(_doc(name="d")))

    assert main(["compare", str(base), str(good)]) == 0
    assert "PASS" in capsys.readouterr().out
    for bad in (drifted, emptied):
        assert main(["compare", str(base), str(bad), "--portable-only"]) == 1
        assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "content",
    [None, "{not json", "[1, 2]", '{"name": "x"}',
     '{"name": "x", "ops": [{"op": "kernel.toy"}]}'],
    ids=["missing", "malformed-json", "not-an-object", "no-ops", "bare-entry"],
)
def test_cli_compare_unusable_input_is_exit_2_with_one_error_line(
    content, tmp_path, capsys
):
    good = tmp_path / "BENCH_good.json"
    good.write_text(json.dumps(_doc(_entry(), name="good")))
    bad = tmp_path / "BENCH_bad.json"
    if content is not None:
        bad.write_text(content)
    for pair in ([str(good), str(bad)], [str(bad), str(good)]):
        assert main(["compare", *pair]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "BENCH_bad.json" in captured.err
        assert captured.out == ""


def test_cli_runs_single_real_op(tmp_path, capsys):
    # One cheap real op end-to-end: exercises ops.py wiring and the
    # writer without paying for the full suite.
    assert main(
        ["run", "--quick", "--ops", "kernel.row_slice", "--name", "t",
         "--out", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "kernel.row_slice" in out
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [e["op"] for e in doc["ops"]] == ["kernel.row_slice"]


# ---------------------------------------------------- host subcommands
def test_format_profile_renders_counts_and_histogram():
    from repro.bench.hostbench import format_profile

    report = {
        "event_types": {
            "Timeout": {"count": 450_000, "total_ns": 500_000_000},
            "Process": {"count": 5_000, "total_ns": 1_000_000},
        },
        "timeout_delays": [
            {"ge_s": 0.0, "lt_s": 0.001, "count": 0},
            {"ge_s": 100.0, "lt_s": None, "count": 7},
        ],
    }
    text = format_profile(report)
    assert "Timeout" in text and "450000" in text
    assert "per-event-type breakdown" in text
    assert "timeout-delay histogram" in text
    assert "infs)" in text and "7" in text  # open-ended top bucket


def test_profile_report_shape_from_instrumented_kernel():
    # A tiny env under enable_profile must produce the schema hostbench
    # formats: per-type count/total_ns and the delay histogram.
    import time as _time

    from repro.sim import Environment

    env = Environment()

    def machine(env):
        yield env.timeout(0.5)
        yield env.timeout(0.0)

    env.process(machine(env))
    env.enable_profile(_time.perf_counter_ns)
    env.run()
    report = env.profile_report()
    assert set(report) == {"event_types", "timeout_delays"}
    assert report["event_types"]["Timeout"]["count"] >= 2
    for entry in report["event_types"].values():
        assert entry["count"] > 0 and entry["total_ns"] >= 0
    assert sum(b["count"] for b in report["timeout_delays"]) >= 1
