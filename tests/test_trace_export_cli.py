"""Exporters and the ``repro trace`` subcommands: Chrome JSON, JSONL round-trip.

The Chrome export must be structurally loadable by Perfetto (metadata
events, ``ph: "X"`` completes with microsecond timestamps, deterministic
track ids); the JSONL dump must round-trip spans, events *and* billing
records so every analysis works on a saved trace exactly as on a live
tracer.
"""

import json

import pytest

from repro import JobConfig, run_mlless
from repro.ml.data import MovieLensSpec, movielens_like
from repro.ml.models import PMF
from repro.ml.optim import InverseSqrtLR, MomentumSGD
from repro.trace import (
    CostLedger,
    Tracer,
    chrome_trace,
    parse_jsonl,
    to_jsonl_lines,
)
from repro.cli import main as repro_main
from repro.trace_cli import summary_text, write_run_trace


def cli_main(argv):
    return repro_main(["trace", *argv])


SPEC = MovieLensSpec(n_users=60, n_movies=50, n_ratings=3_000, rank=3,
                     batch_size=400)


@pytest.fixture(scope="module")
def traced_run():
    config = JobConfig(
        model=PMF(SPEC.n_users, SPEC.n_movies, rank=4, l2=0.02,
                  rating_offset=3.5),
        make_optimizer=lambda: MomentumSGD(lr=InverseSqrtLR(8.0), momentum=0.9),
        dataset=movielens_like(SPEC, seed=2),
        n_workers=3,
        significance_v=0.5,
        target_loss=None,
        max_steps=10,
        seed=4,
    )
    tracer = Tracer()
    result = run_mlless(config, tracer=tracer)
    return result, tracer, result.meter.faas


# ---------------------------------------------------------- chrome trace
def test_chrome_trace_structure(traced_run):
    _result, tracer, _billing = traced_run
    doc = chrome_trace(tracer)
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert doc["otherData"]["clock"] == "simulated"
    events = doc["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    completes = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(completes) == len(tracer.spans)
    assert len(instants) == len(tracer.events)
    # every complete event references a named track
    named_tids = {e["tid"] for e in metadata if e["name"] == "thread_name"}
    assert {e["tid"] for e in completes} <= named_tids
    track_names = {e["args"]["name"] for e in metadata
                   if e["name"] == "thread_name"}
    assert {"worker-0", "worker-1", "worker-2", "supervisor",
            "driver"} <= track_names
    # timestamps are microseconds of sim time, durations non-negative
    first_step = next(e for e in completes if e["cat"] == "step")
    span = next(s for s in tracer.spans if s.category == "step")
    assert first_step["ts"] == pytest.approx(span.start * 1e6)
    assert all(e["dur"] >= 0.0 for e in completes)
    # the whole document is JSON-serializable as-is
    json.dumps(doc)


def test_chrome_trace_tids_are_deterministic(traced_run):
    _result, tracer, _billing = traced_run
    a, b = chrome_trace(tracer), chrome_trace(tracer)
    assert a == b


# --------------------------------------------------------- jsonl roundtrip
def test_jsonl_roundtrip_with_billing(traced_run):
    _result, tracer, billing = traced_run
    lines = list(to_jsonl_lines(tracer, billing=billing))
    header = json.loads(lines[0])
    assert header["kind"] == "meta"
    assert header["n_spans"] == len(tracer.spans)
    assert header["n_records"] == len(billing.records)

    data = parse_jsonl(lines)
    assert len(data.spans) == len(tracer.spans)
    assert len(data.events) == len(tracer.events)
    assert [s.to_dict() for s in data.spans] == [s.to_dict() for s in tracer.spans]
    assert [e.to_dict() for e in data.events] == [e.to_dict() for e in tracer.events]
    # billing rebuilds bit-for-bit: same records, same rate, same bill
    rebuilt = data.billing
    assert rebuilt.rate_per_gb_s == billing.rate_per_gb_s
    assert rebuilt.records == billing.records
    assert rebuilt.total_cost() == billing.total_cost()
    # so the ledger on the parsed trace matches the live one
    live = CostLedger.from_trace(tracer, billing).reconcile()
    loaded = CostLedger.from_trace(data, rebuilt).reconcile()
    assert loaded == live


def test_jsonl_without_billing_has_no_records(traced_run):
    _result, tracer, _billing = traced_run
    data = parse_jsonl(to_jsonl_lines(tracer))
    assert data.records == []
    with pytest.raises(ValueError):
        data.billing


def test_parse_jsonl_rejects_unknown_kind():
    with pytest.raises(ValueError):
        parse_jsonl(['{"kind": "mystery"}'])


# ----------------------------------------------------------------- files
def test_write_run_trace_writes_both_files(traced_run, tmp_path):
    _result, tracer, billing = traced_run
    target = tmp_path / "nested" / "run.trace.json"
    chrome_path, jsonl_path = write_run_trace(tracer, str(target),
                                              billing=billing)
    assert chrome_path == str(target)
    assert jsonl_path == str(target) + ".jsonl"
    with open(chrome_path) as fh:
        doc = json.load(fh)
    assert doc["traceEvents"]
    with open(jsonl_path) as fh:
        data = parse_jsonl(fh)
    assert data.records


def test_summary_text_sections(traced_run):
    _result, tracer, billing = traced_run
    text = summary_text(tracer, billing=billing)
    assert "cost attribution by category" in text
    assert "critical path" in text
    assert "straggler report" in text
    # without billing the cost section is skipped but steps still report
    no_billing = summary_text(tracer)
    assert "cost attribution" not in no_billing
    assert "critical path" in no_billing


# ------------------------------------------------------------------- CLI
@pytest.fixture(scope="module")
def jsonl_file(traced_run, tmp_path_factory):
    _result, tracer, billing = traced_run
    target = tmp_path_factory.mktemp("traces") / "run.trace.json"
    _chrome, jsonl_path = write_run_trace(tracer, str(target), billing=billing)
    return jsonl_path


def test_cli_summary(jsonl_file, capsys):
    assert cli_main(["summary", jsonl_file]) == 0
    out = capsys.readouterr().out
    assert "cost attribution by category" in out
    assert "straggler report" in out


@pytest.mark.parametrize("by", ["category", "phase", "worker", "function"])
def test_cli_cost_groupings(jsonl_file, capsys, by):
    assert cli_main(["cost", jsonl_file, "--by", by]) == 0
    out = capsys.readouterr().out
    assert f"cost attribution by {by}" in out
    assert "bill total" in out


def test_cli_chrome_reexport(jsonl_file, tmp_path, capsys):
    out_path = tmp_path / "re.json"
    assert cli_main(["chrome", jsonl_file, "-o", str(out_path)]) == 0
    with open(out_path) as fh:
        doc = json.load(fh)
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_cli_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as no_subcommand:  # usage + error exit
        cli_main([])
    assert no_subcommand.value.code == 2
    missing = str(tmp_path / "nope.jsonl")
    assert cli_main(["summary", missing]) == 2
    assert "cannot read trace" in capsys.readouterr().err
    # a trace without billing records can't be costed
    bare = tmp_path / "bare.jsonl"
    bare.write_text('{"kind": "meta", "version": 1, "n_spans": 0, "n_events": 0}\n')
    assert cli_main(["cost", str(bare)]) == 2
    assert "no billing records" in capsys.readouterr().err
