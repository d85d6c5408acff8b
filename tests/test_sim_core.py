"""Unit tests for the DES kernel (repro.sim.core)."""

import gc
import time
import weakref

import pytest

from repro.sim import (
    Environment,
    Interrupt,
    SimulationError,
)


def test_environment_starts_at_zero():
    assert Environment().now == 0.0


def test_environment_custom_initial_time():
    assert Environment(initial_time=5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(3.5)
    env.run()
    assert env.now == 3.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_past_time_rejected():
    env = Environment()
    env.timeout(1.0)
    env.run()
    with pytest.raises(ValueError):
        env.run(until=0.5)


def test_event_succeed_delivers_value():
    env = Environment()
    evt = env.event()
    results = []

    def proc():
        value = yield evt
        results.append(value)

    env.process(proc())
    evt.succeed(42)
    env.run()
    assert results == [42]


def test_event_cannot_trigger_twice():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)
    with pytest.raises(SimulationError):
        evt.fail(RuntimeError("boom"))


def test_event_value_before_trigger_raises():
    env = Environment()
    evt = env.event()
    with pytest.raises(SimulationError):
        _ = evt.value
    with pytest.raises(SimulationError):
        _ = evt.ok


def test_event_fail_raises_inside_process():
    env = Environment()
    evt = env.event()
    caught = []

    def proc():
        try:
            yield evt
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc())
    evt.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_unhandled_failure_surfaces_from_run():
    env = Environment()
    evt = env.event()
    evt.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_process_return_value_is_event_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return "done"

    p = env.process(proc())
    env.run()
    assert p.ok and p.value == "done"


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc():
        yield env.timeout(2)
        return 99

    p = env.process(proc())
    assert env.run(until=p) == 99
    assert env.now == 2


def test_run_until_processed_failed_event_raises_like_a_pending_one():
    def boom():
        yield env.timeout(1)
        raise RuntimeError("boom")

    def watcher(p):
        try:
            yield p
        except RuntimeError:
            pass

    env = Environment()
    env.process(watcher(pending := env.process(boom())))
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=pending)

    env = Environment()
    env.process(watcher(processed := env.process(boom())))
    env.run()
    assert processed.processed and not processed.ok
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=processed)


def test_process_waits_for_subprocess():
    env = Environment()
    order = []

    def child():
        yield env.timeout(5)
        order.append("child")
        return "child-result"

    def parent():
        result = yield env.process(child())
        order.append("parent")
        return result

    p = env.process(parent())
    env.run()
    assert order == ["child", "parent"]
    assert p.value == "child-result"


def test_exception_propagates_to_waiting_parent():
    env = Environment()

    def child():
        yield env.timeout(1)
        raise ValueError("child failed")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            return f"caught: {exc}"

    p = env.process(parent())
    env.run()
    assert p.value == "caught: child failed"


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    p = env.process(bad())
    with pytest.raises(SimulationError):
        env.run()
    assert not p.ok


def test_same_time_events_fire_in_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        env.process(proc(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_determinism_across_runs():
    def build():
        env = Environment()
        order = []

        def proc(tag, delay):
            yield env.timeout(delay)
            order.append((tag, env.now))

        delays = [3, 1, 2, 1, 3]
        for tag, d in enumerate(delays):
            env.process(proc(tag, d))
        env.run()
        return order

    assert build() == build()


def test_interrupt_raises_in_target():
    env = Environment()
    events = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            events.append(("interrupted", intr.cause, env.now))

    def interrupter(target):
        yield env.timeout(3)
        target.interrupt(cause="deadline")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert events == [("interrupted", "deadline", 3)]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_finished_process_is_freed_by_refcount_not_the_cycle_collector():
    """A process must not stay a reference cycle with itself once it ends:
    its generator frame, payload and result would wait for the collector."""

    class Result:
        pass

    env = Environment()

    def worker():
        yield env.timeout(1)
        return Result()

    gc.collect()
    gc.disable()
    try:
        p = env.process(worker())
        env.run()
        assert not p.is_alive and p.target is not None
        with pytest.raises(SimulationError):
            p.interrupt()
        held = weakref.ref(p.value)  # Process has __slots__: watch what it holds
        assert held() is not None
        del p
        assert held() is None
    finally:
        gc.enable()


def test_self_interrupt_rejected():
    env = Environment()
    errors = []

    def proc():
        me = env.active_process
        try:
            me.interrupt()
        except SimulationError:
            errors.append(True)
        yield env.timeout(0)

    env.process(proc())
    env.run()
    assert errors == [True]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.run()
    assert env.peek() == float("inf")


def test_step_without_events_raises():
    with pytest.raises(SimulationError):
        Environment().step()


def _mixed_machine(env, log):
    """Delay-0 hops, wakeups, tied timers and a far timer, interleaved;
    every delivery is logged, so any reordering of two events shows."""

    def hopper(tag, delay):
        for _ in range(3):
            yield env.timeout(delay)
            log.append((env.now, tag, "timer"))
            yield env.timeout(0.0)
            log.append((env.now, tag, "hop"))
            wake = env.event()
            wake.succeed()
            yield wake
            log.append((env.now, tag, "wake"))

    for tag, delay in enumerate([0.0, 0.5, 0.5, 1.5, 3600.0]):
        env.process(hopper(tag, delay))


def test_step_delivers_the_same_log_as_run_and_peek_names_each_time():
    ran_env, ran = Environment(), []
    _mixed_machine(ran_env, ran)
    ran_env.run()

    env, stepped = Environment(), []
    _mixed_machine(env, stepped)
    while (next_time := env.peek()) != float("inf"):
        env.step()
        assert env.now == next_time
    assert stepped == ran and len(ran) == 45
    assert env.now == ran_env.now == 3 * 3600.0
    with pytest.raises(SimulationError):
        env.step()


def test_run_until_number_leaves_later_events_pending():
    env, log = Environment(), []
    _mixed_machine(env, log)
    env.run(until=1.5)  # events at exactly 1.5 are delivered
    assert env.now == 1.5 and env.peek() == 3.0
    assert [t for t, _, _ in log] == [0.0] * 9 + [0.5] * 6 + [1.0] * 6 + [1.5] * 9
    # tied timers both fire before the first one's delay-0 hop
    assert log[9:13] == [(0.5, 1, "timer"), (0.5, 2, "timer"), (0.5, 1, "hop"), (0.5, 2, "hop")]
    env.run(until=2.0)  # nothing due: the clock still moves
    assert env.now == 2.0 and len(log) == 30
    env.run()
    full_env, full = Environment(), []
    _mixed_machine(full_env, full)
    full_env.run()
    assert log == full


def test_clock_not_inf_after_run_to_exhaustion():
    env = Environment()
    env.timeout(2)
    env.run()
    assert env.now == 2.0


def test_active_process_visible_during_execution():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.active_process)
        yield env.timeout(0)

    p = env.process(proc())
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_run_until_untriggerable_event_raises():
    env = Environment()
    evt = env.event()  # never triggered, no other events
    with pytest.raises(SimulationError):
        env.run(until=evt)


def test_profile_report_shape_from_instrumented_kernel():
    # A tiny env under enable_profile must produce per-type count/total_ns.
    env = Environment()

    def machine(env):
        yield env.timeout(0.5)
        yield env.timeout(0.0)

    env.process(machine(env))
    env.enable_profile(time.perf_counter_ns)
    env.run()
    report = env.profile_report()
    assert set(report) == {"event_types"}
    assert report["event_types"]["Timeout"]["count"] >= 2
    for entry in report["event_types"].values():
        assert entry["count"] > 0 and entry["total_ns"] >= 0
