"""Tests for the shared deadline helper (``repro.exec.deadline``).

The helper exists to make one bug class impossible: handing each of N
sequential blocking calls its *own* budget, so a stuck run costs
N x budget instead of budget.  The tests pin the shared-budget
semantics with a fake clock, and — the regression the refactor was for —
assert the real backends stay LOCK-rule clean, so every blocking call in
``exec/`` is deadline-bounded.
"""

from pathlib import Path

import pytest

from repro.exec.deadline import Deadline


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_remaining_counts_down_and_clamps_at_zero():
    clock = FakeClock()
    deadline = Deadline(10.0, clock=clock)
    assert deadline.remaining() == 10.0
    clock.advance(4.0)
    assert deadline.remaining() == 6.0
    clock.advance(7.0)  # past expiry
    assert deadline.remaining() == 0.0  # clamped, never negative
    assert deadline.expired()


def test_not_expired_until_budget_elapses():
    clock = FakeClock()
    deadline = Deadline(5.0, clock=clock)
    assert not deadline.expired()
    clock.advance(5.0)
    assert deadline.expired()


def test_zero_budget_is_immediately_expired():
    deadline = Deadline(0.0, clock=FakeClock())
    assert deadline.expired()
    assert deadline.remaining() == 0.0


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError):
        Deadline(-1.0, clock=FakeClock())


def test_one_deadline_bounds_a_whole_join_loop():
    """The drain-loop pattern: N joins share ONE budget.  Total wait is
    bounded by the budget no matter how many participants stall."""
    clock = FakeClock()
    deadline = Deadline(30.0, clock=clock)
    waited = []
    for _ in range(8):  # 8 stuck workers, each eats what's left
        grant = deadline.remaining()
        waited.append(grant)
        clock.advance(min(grant, 12.0))  # a stalling join consumes its grant
    assert sum(min(w, 12.0) for w in waited) == pytest.approx(30.0)
    assert waited[0] == 30.0 and waited[3] == 0.0  # later joins get nothing
    assert deadline.expired()


def test_budget_attribute_survives_for_error_messages():
    deadline = Deadline(120.0, clock=FakeClock())
    assert deadline.budget_s == 120.0


def test_exec_backends_stay_lock_clean():
    """LOCK103 regression for the deadline refactor: every blocking call
    in the host-concurrency modules must be bounded.  Runs the real
    analyzer over the real tree — an unbounded ``get()``/``join()``
    reintroduced in exec/local.py or exec/procs.py fails here."""
    from repro.analysis import SimLintConfig, analyze_paths

    root = Path(__file__).resolve().parents[2]
    findings = analyze_paths([root / "src" / "repro"], config=SimLintConfig())
    lock = [f for f in findings if f.rule.startswith("LOCK")]
    details = "\n".join(f"{f.location()}: {f.rule} {f.message}" for f in lock)
    assert lock == [], f"LOCK findings in exec backends:\n{details}"
