"""Runtime determinism oracle: run twice, hash the trace, diff events.

The static rules in :mod:`repro.analysis.rules` prove the *absence of
known hazard patterns*; this module checks the *end-to-end property*
itself: a given seed must yield a byte-identical per-event monitor trace
(loss samples, worker counts, step durations — everything the figures
and the bill are computed from).  When two runs diverge, the report
pinpoints the first diverging event, which in practice names the
subsystem that went non-deterministic.

Run it as::

    repro determinism --seed 7
    repro determinism --json
    repro determinism --inject-wallclock   # self-test: must FAIL

The ``--inject-wallclock`` flag deliberately contaminates the second run
with a host-clock-derived sample, demonstrating (and testing) that the
oracle actually catches what it claims to catch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..cli import EXIT_FAILED, EXIT_OK, fail
from ..sim import Monitor, TraceEntry

__all__ = [
    "Divergence",
    "DeterminismReport",
    "check_determinism",
    "default_run",
    "first_divergence",
    "add_parser",
]

#: a run function: seed -> the traced Monitor of a completed run
RunFn = Callable[[int], Monitor]


@dataclass(frozen=True)
class Divergence:
    """The first event at which two traces disagree."""

    index: int
    expected: Optional[TraceEntry]
    actual: Optional[TraceEntry]

    def describe(self) -> str:
        def fmt(entry: Optional[TraceEntry]) -> str:
            if entry is None:
                return "<trace ended>"
            ordinal, name, time, value = entry
            return f"#{ordinal} {name} @t={time!r} value={value!r}"

        return (
            f"first divergence at event {self.index}: "
            f"run 1 recorded {fmt(self.expected)}, run 2 recorded {fmt(self.actual)}"
        )


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of an N-run determinism check."""

    ok: bool
    seed: int
    runs: int
    digests: Sequence[str]
    n_events: int
    divergence: Optional[Divergence] = None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "runs": self.runs,
            "digests": list(self.digests),
            "n_events": self.n_events,
            "divergence": None
            if self.divergence is None
            else {
                "index": self.divergence.index,
                "expected": self.divergence.expected,
                "actual": self.divergence.actual,
                "description": self.divergence.describe(),
            },
        }


def first_divergence(
    reference: Sequence[TraceEntry], other: Sequence[TraceEntry]
) -> Optional[Divergence]:
    """The first index where two traces differ, or None when identical."""
    for index, (a, b) in enumerate(zip(reference, other)):
        if a != b:
            return Divergence(index=index, expected=a, actual=b)
    if len(reference) != len(other):
        index = min(len(reference), len(other))
        expected = reference[index] if index < len(reference) else None
        actual = other[index] if index < len(other) else None
        return Divergence(index=index, expected=expected, actual=actual)
    return None


def default_run(seed: int, tracer=None) -> Monitor:
    """One small-but-real MLLess training run with a traced monitor.

    Deliberately exercises the full stack — FaaS platform, KV/MQ/COS
    services, barrier supervisor, significance filter — on a PMF
    workload small enough to finish in about a second, so the oracle is
    cheap enough for CI yet covers the same code paths the figures use.

    ``tracer`` optionally threads a :class:`repro.trace.Tracer` through the
    run — used by :func:`trace_invariance_check` to prove that span tracing
    does not perturb the schedule.
    """
    from ..core import JobConfig, MLLessDriver
    from ..experiments.common import build_world, make_runtime
    from ..ml.data import MovieLensSpec, movielens_like
    from ..ml.models import PMF
    from ..ml.optim import InverseSqrtLR, MomentumSGD

    spec = MovieLensSpec(n_users=60, n_movies=50, n_ratings=3_000, rank=3, batch_size=400)
    config = JobConfig(
        model=PMF(spec.n_users, spec.n_movies, rank=4, l2=0.02, rating_offset=3.5),
        make_optimizer=lambda: MomentumSGD(lr=InverseSqrtLR(8.0), momentum=0.9),
        dataset=movielens_like(spec, seed=2),
        n_workers=3,
        significance_v=0.5,
        target_loss=None,
        max_steps=25,
        seed=seed,
    )
    world = build_world(seed=config.seed, tracer=tracer)
    runtime = make_runtime(world, config)
    runtime.monitor.enable_trace()
    MLLessDriver(world.env, world.platform, runtime, meter=world.meter).run()
    return runtime.monitor


def check_determinism(
    seed: int = 0, runs: int = 2, run_fn: Optional[RunFn] = None
) -> DeterminismReport:
    """Execute ``run_fn(seed)`` ``runs`` times and compare event traces.

    All runs must produce bit-identical traces; the report carries every
    digest and, on failure, the first diverging event between the first
    run and the first run that disagrees with it.
    """
    if runs < 2:
        raise ValueError("a determinism check needs at least 2 runs")
    run_fn = run_fn or default_run
    monitors: List[Monitor] = [run_fn(seed) for _ in range(runs)]
    digests = [m.trace_digest() for m in monitors]
    reference = monitors[0].trace
    for monitor, digest in zip(monitors[1:], digests[1:]):
        if digest != digests[0]:
            divergence = first_divergence(reference, monitor.trace)
            return DeterminismReport(
                ok=False,
                seed=seed,
                runs=runs,
                digests=digests,
                n_events=len(reference),
                divergence=divergence,
            )
    return DeterminismReport(
        ok=True, seed=seed, runs=runs, digests=digests, n_events=len(reference)
    )


def trace_invariance_check(seed: int = 0) -> DeterminismReport:
    """Prove the zero-perturbation invariant of :mod:`repro.trace`.

    Runs the default workload once untraced and once with a recording
    :class:`~repro.trace.Tracer` attached to every service, and requires
    the monitor trace digests to be bit-identical.  Any tracer that
    schedules events, yields, or draws randomness fails this check.
    """
    from ..trace import Tracer

    calls = {"n": 0}

    def alternating(s: int) -> Monitor:
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            return default_run(s, tracer=Tracer())
        return default_run(s)

    return check_determinism(seed=seed, runs=2, run_fn=alternating)


def _wallclock_contaminated(run_fn: RunFn) -> RunFn:
    """Wrap ``run_fn`` so every other call leaks a host-clock sample.

    Used by ``--inject-wallclock`` (and the test suite) as a self-test:
    the oracle must flag the injected read, otherwise it is vacuous.
    """
    import time

    calls = {"n": 0}

    def contaminated(seed: int) -> Monitor:
        monitor = run_fn(seed)
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            final_time = monitor.trace[-1][2] if monitor.trace else 0.0
            monitor.record("wallclock_leak", final_time, time.perf_counter())
        return monitor

    return contaminated


def add_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "determinism",
        help="run the same seed twice and diff the per-event monitor traces",
        description="Trace-divergence determinism oracle for the simulation stack.",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed (default 0)")
    parser.add_argument(
        "--runs", type=int, default=2, help="number of identical runs to compare (default 2)"
    )
    parser.add_argument("--json", action="store_true", dest="as_json", help="JSON output")
    parser.add_argument(
        "--inject-wallclock",
        action="store_true",
        help="self-test: contaminate run 2 with a host-clock read (must fail)",
    )
    parser.add_argument(
        "--trace-invariance",
        action="store_true",
        help="compare an untraced run against one with span tracing on "
        "(must produce identical digests)",
    )
    parser.set_defaults(handler=_cmd_determinism)


def _cmd_determinism(args: Any) -> int:
    run_fn: RunFn = default_run
    if args.inject_wallclock:
        run_fn = _wallclock_contaminated(run_fn)
    try:
        if args.trace_invariance:
            report = trace_invariance_check(seed=args.seed)
        else:
            report = check_determinism(
                seed=args.seed, runs=args.runs, run_fn=run_fn
            )
    except ValueError as exc:
        return fail(str(exc))
    label = "trace-invariance" if args.trace_invariance else "determinism oracle"
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    elif report.ok:
        print(
            f"{label}: OK — {report.runs} runs of seed {report.seed} "
            f"produced identical traces ({report.n_events} events, "
            f"digest {report.digests[0][:16]}…)"
        )
    else:
        print(f"{label}: FAIL — seed {report.seed}")
        for index, digest in enumerate(report.digests, start=1):
            print(f"  run {index}: {digest}")
        if report.divergence is not None:
            print(f"  {report.divergence.describe()}")
    return EXIT_OK if report.ok else EXIT_FAILED
