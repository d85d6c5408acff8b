"""The runtime half: monitor tracing and the trace-divergence oracle."""

import pytest

from repro.analysis.determinism import (
    Divergence,
    check_determinism,
    first_divergence,
)
from repro.cli import main as repro_main
from repro.sim import Monitor


# -- Monitor trace hook ------------------------------------------------------


def test_monitor_trace_off_by_default():
    monitor = Monitor()
    monitor.record("loss", 1.0, 0.5)
    assert not monitor.tracing
    assert monitor.trace == ()


def test_monitor_trace_records_in_call_order():
    monitor = Monitor(trace=True)
    monitor.record("loss", 1.0, 0.5)
    monitor.record("workers", 1.0, 4.0)
    monitor.record("loss", 2.0, 0.4)
    assert monitor.trace == (
        (0, "loss", 1.0, 0.5),
        (1, "workers", 1.0, 4.0),
        (2, "loss", 2.0, 0.4),
    )


def test_trace_digest_is_bit_exact():
    a, b = Monitor(trace=True), Monitor(trace=True)
    for monitor in (a, b):
        monitor.record("loss", 1.0, 0.1 + 0.2)
    assert a.trace_digest() == b.trace_digest()
    c = Monitor(trace=True)
    c.record("loss", 1.0, 0.3)  # 0.1 + 0.2 != 0.3 in the last ulp
    assert a.trace_digest() != c.trace_digest()


def test_enable_trace_is_idempotent():
    monitor = Monitor()
    monitor.enable_trace()
    monitor.record("x", 0.0, 1.0)
    monitor.enable_trace()
    assert len(monitor.trace) == 1


# -- divergence search -------------------------------------------------------


def test_first_divergence_pinpoints_index():
    a = [(0, "loss", 0.0, 1.0), (1, "loss", 1.0, 0.9)]
    b = [(0, "loss", 0.0, 1.0), (1, "loss", 1.0, 0.8)]
    divergence = first_divergence(a, b)
    assert divergence == Divergence(index=1, expected=a[1], actual=b[1])
    assert "event 1" in divergence.describe()


def test_first_divergence_handles_truncated_trace():
    a = [(0, "loss", 0.0, 1.0), (1, "loss", 1.0, 0.9)]
    divergence = first_divergence(a, a[:1])
    assert divergence.index == 1
    assert divergence.actual is None and divergence.expected == a[1]
    assert first_divergence(a, list(a)) is None


# -- the oracle itself -------------------------------------------------------


def fake_run(records):
    def run(seed):
        monitor = Monitor(trace=True)
        for name, time, value in records:
            monitor.record(name, time, value)
        return monitor

    return run


def test_oracle_passes_identical_runs():
    report = check_determinism(
        seed=3, run_fn=fake_run([("loss", 0.0, 1.0), ("loss", 1.0, 0.5)])
    )
    assert report.ok
    assert report.n_events == 2
    assert len(set(report.digests)) == 1


def test_oracle_flags_injected_wall_clock_read():
    """A host-clock sample leaked into the second run must be pinpointed."""
    import time

    calls = {"n": 0}

    def run(seed):
        monitor = Monitor(trace=True)
        monitor.record("loss", 0.0, 1.0)
        calls["n"] += 1
        if calls["n"] == 2:
            monitor.record("loss", 1.0, time.perf_counter())
        else:
            monitor.record("loss", 1.0, 0.5)
        return monitor

    report = check_determinism(seed=0, run_fn=run)
    assert not report.ok
    assert report.divergence is not None
    assert report.divergence.index == 1
    assert report.digests[0] != report.digests[1]


def test_oracle_requires_two_runs():
    with pytest.raises(ValueError):
        check_determinism(runs=1, run_fn=fake_run([]))


@pytest.mark.slow
def test_default_training_run_is_deterministic():
    """Two full (small) MLLess training runs hash identically."""
    report = check_determinism(seed=0)
    assert report.ok, report.divergence and report.divergence.describe()
    assert report.n_events > 10


@pytest.mark.slow
def test_oracle_cli_self_test_fails_on_wallclock_injection(capsys):
    assert repro_main(["determinism", "--inject-wallclock"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "wallclock_leak" in out


@pytest.mark.slow
def test_oracle_cli_json_clean(capsys):
    import json

    assert repro_main(["determinism", "--json", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and payload["runs"] == 2
