"""The zero-perturbation invariant: tracing must not touch the schedule.

A run traced with a recording :class:`~repro.trace.Tracer` must produce a
monitor-trace digest bit-identical to an untraced run of the same seed —
the tracer only reads ``env.now``/``env.active_process`` and never
schedules, yields, or draws randomness.  CI enforces the same property
via ``repro determinism --trace-invariance``.
"""

from repro.analysis.determinism import default_run, trace_invariance_check
from repro.cli import main
from repro.trace import Tracer


def test_traced_and_untraced_digests_match():
    untraced = default_run(seed=0)
    tracer = Tracer()
    traced = default_run(seed=0, tracer=tracer)
    assert untraced.trace_digest() == traced.trace_digest()
    # and the tracer really recorded the run, so the check isn't vacuous
    assert len(tracer.spans) > 0
    assert any(s.category == "step" for s in tracer.spans)


def test_trace_invariance_check_passes():
    report = trace_invariance_check(seed=1)
    assert report.ok
    assert len(set(report.digests)) == 1
    assert report.n_events > 0


def test_trace_invariance_cli_exits_zero(capsys):
    assert main(["determinism", "--trace-invariance"]) == 0
    out = capsys.readouterr().out
    assert "trace-invariance: OK" in out
