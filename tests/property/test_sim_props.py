"""Property-based tests for the DES kernel and curve/EWMA math."""

import heapq

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import ewma
from repro.sim import Environment, Store

delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1, max_size=30,
)


@given(delays)
def test_events_fire_in_nondecreasing_time_order(delay_list):
    env = Environment()
    fired = []

    def proc(d):
        yield env.timeout(d)
        fired.append(env.now)

    for d in delay_list:
        env.process(proc(d))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delay_list)


@given(delays)
def test_final_time_is_max_delay(delay_list):
    env = Environment()
    for d in delay_list:
        env.timeout(d)
    env.run()
    assert env.now == max(delay_list)


@given(delays)
def test_same_delays_fifo_tiebreak(delay_list):
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(5.0)
        order.append(tag)

    for tag in range(len(delay_list)):
        env.process(proc(tag))
    env.run()
    assert order == list(range(len(delay_list)))


@given(delays, delays)
def test_nested_processes_conserve_time(outer, inner):
    """A parent waiting on children finishes at max(child end times)."""
    env = Environment()

    def child(d):
        yield env.timeout(d)
        return d

    def parent():
        children = [env.process(child(d)) for d in inner]
        yield env.all_of(children)
        return env.now

    p = env.process(parent())
    env.run()
    assert p.value == max(inner)


# Drawn from a tiny value set so Hypothesis reliably generates timestamp
# collisions — the case the heap's (time, seq, event) tie-breaker (SIM006)
# exists for.
colliding_delays = st.lists(
    st.sampled_from([0.0, 1.0, 1.0, 2.5, 2.5, 2.5, 7.0]),
    min_size=2, max_size=40,
)


@given(colliding_delays)
def test_same_timestamp_events_pop_in_scheduling_order(delay_list):
    """Among events sharing a timestamp, firing order == scheduling order.

    This is the determinism contract behind the kernel's (time, seq,
    event) heap entries: heapq alone would compare payloads on time ties.
    """
    env = Environment()
    fired = []

    def proc(tag, d):
        yield env.timeout(d)
        fired.append((env.now, tag))

    for tag, d in enumerate(delay_list):
        env.process(proc(tag, d))
    env.run()
    assert len(fired) == len(delay_list)
    # stable sort of the schedule by time = expected (time, tag) sequence
    expected = sorted(
        ((d, tag) for tag, d in enumerate(delay_list)), key=lambda p: p[0]
    )
    assert fired == expected


# ------------------------------------------------ single-heap reference
class NaiveEvent:
    def __init__(self, env, value=None):
        self.env, self.callbacks, self.value = env, [], value

    def succeed(self, value=None):
        self.value = value
        self.env.schedule(self, 0.0)


class NaiveEnvironment:
    """Reference scheduler: every schedule is one push onto one heapq of
    ``(time, seq, event)``; no now-queue, no fast path."""

    def __init__(self):
        self.now, self._seq, self._heap = 0.0, 0, []

    def event(self):
        return NaiveEvent(self)

    def timeout(self, delay, value=None):
        return self.schedule(NaiveEvent(self, value), delay)

    def schedule(self, event, delay):
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))
        self._seq += 1
        return event

    def run(self, until=float("inf")):
        while self._heap and self._heap[0][0] <= until:
            self.now, _, event = heapq.heappop(self._heap)
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
        if until != float("inf"):
            self.now = until


# ties, sub-millisecond, second and hour scale, and a delay the clock
# absorbs (now + 1e-18 == now once now >= 0.5: a *heap* entry at the
# current time, behind the now-queue's head)
chain_delays = st.one_of(
    st.sampled_from([0.0, 1e-4, 5e-4, 1e-3, 0.5, 4.096, 5.0, 3600.0, 1e-18]),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
chain_ops = st.one_of(
    st.tuples(st.just("sleep"), chain_delays),
    st.sampled_from([("wake", None), ("put", None), ("get", None)]),
)
chains = st.lists(st.lists(chain_ops, min_size=1, max_size=8), min_size=1, max_size=8)


def run_chains(env, program, split_at):
    """Run every chain on ``env``; each op starts in the callback of the
    one before it and logs ``(now, chain, position, value)`` when it
    fires.  A ``get`` no ``put`` answers parks its chain for good, on both
    sides."""
    log, store = [], Store(env)

    def advance(tag, k, value=None):
        log.append((env.now, tag, k, value))
        if k == len(program[tag]):
            return
        op, delay = program[tag][k]
        if op == "sleep":
            event = env.timeout(delay)
        elif op == "wake":
            event = env.event()
        else:
            event = store.put((tag, k)) if op == "put" else store.get()
        event.callbacks.append(lambda fired: advance(tag, k + 1, fired.value))
        if op == "wake":
            event.succeed(k)

    for tag in range(len(program)):
        advance(tag, 0)
    env.run(until=split_at)
    log.append((env.now, "split", len(log)))
    env.run()
    return log


@given(chains, chain_delays)
# At t=0.5 chain 0's wakeup sits in the now-queue (older seq) while chain 1
# pushes an absorbed timer onto the heap at the same time (newer seq), and
# chain 1's own tied 0.5 s timer (older than both) is still on the heap.
@example([[("sleep", 0.5), ("wake", None)], [("sleep", 0.5), ("sleep", 1e-18)]], 0.5)
def test_chained_program_fires_like_the_single_heap_reference(program, split_at):
    expected = run_chains(NaiveEnvironment(), program, split_at)
    assert run_chains(Environment(), program, split_at) == expected
    profiled = Environment()
    profiled.enable_profile(lambda: 0)  # this loop pops through _pop_next
    assert run_chains(profiled, program, split_at) == expected


# ------------------------------------------------------------------- EWMA
values_lists = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=1, max_size=50,
)


@given(values_lists, st.floats(min_value=0.01, max_value=1.0))
def test_ewma_bounded_by_input_range(values, alpha):
    out = ewma(values, alpha=alpha)
    assert out.min() >= min(values) - 1e-9
    assert out.max() <= max(values) + 1e-9


@given(values_lists)
def test_ewma_alpha_one_is_identity(values):
    np.testing.assert_allclose(ewma(values, alpha=1.0), values)


@given(st.floats(min_value=-100, max_value=100, allow_nan=False),
       st.integers(min_value=1, max_value=40),
       st.floats(min_value=0.05, max_value=0.95))
def test_ewma_constant_input_is_fixed_point(value, n, alpha):
    out = ewma([value] * n, alpha=alpha)
    np.testing.assert_allclose(out, value)
