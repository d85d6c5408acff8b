"""One simulated storage request ≡ the nested formulation it replaced.

The request path (``StorageService._charge`` → ``Link.transfer``, the
``LognormalLatency`` draw, ``payload_size``) was flattened for host speed.
That is only admissible if no simulated event moved: this module keeps the
replaced code as test-only ``Naive*`` references and holds, over seeded
random request scripts, that both formulations produce the identical
kernel delivery log, metrics, link counters, RNG end state, exceptions and
tracer spans — and that every payload is sized to the identical integer.

The order a request executes in (span, optional injected-failure retries,
count, latency timeout, link timeout, byte/busy metrics) is the contract;
``storage/base.py``'s module docstring states it, this module pins it.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FAULT_PROFILES, FaultInjector, FaultProfile
from repro.ml import ModelUpdate
from repro.ml.sparse import SparseDelta
from repro.net import LatencyModel, Link, LognormalLatency, transfer_time
from repro.sim import Environment, Interrupt, RandomStreams
from repro.storage import StorageService, TransientStorageError, payload_size
from repro.storage.base import _RETRY_BACKOFF_BASE_S, _RETRY_BACKOFF_CAP_S
from repro.storage.sizing import CONTAINER_ITEM_OVERHEAD, ENVELOPE_OVERHEAD
from repro.trace.tracer import NO_SPAN, Tracer


# -- the replaced formulations, verbatim ------------------------------------
@dataclass(frozen=True)
class NaiveLognormalLatency(LatencyModel):
    median: float
    sigma: float = 0.25
    cap: float = float("inf")

    def sample(self, rng):
        value = float(rng.lognormal(mean=np.log(self.median), sigma=self.sigma))
        return min(value, self.cap)

    def mean(self):
        return float(self.median * np.exp(self.sigma**2 / 2.0))


class NaiveLink(Link):
    def transfer(self, size_bytes):
        if size_bytes < 0:
            raise ValueError(f"size must be >= 0, got {size_bytes}")
        self._active += 1
        try:
            rate = self.capacity_bps / self._active
            duration = transfer_time(size_bytes, rate)
            sp = NO_SPAN
            if self.tracer.enabled and size_bytes > 0:
                sp = self.tracer.begin(
                    "net.transfer",
                    self.name,
                    bytes=size_bytes,
                    active=self._active,
                    duration_s=duration,
                )
            try:
                yield self.env.timeout(duration)
                self.bytes_moved += size_bytes
                self.transfers += 1
            finally:
                if sp >= 0:
                    self.tracer.end(sp)
        finally:
            self._active -= 1


class NaiveService(StorageService):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.link = NaiveLink(
            self.env, self.link.capacity_bps, name=self.link.name, tracer=self.tracer
        )

    def _charge(self, op, payload_bytes, inbound, detail=None):
        sp = NO_SPAN
        if self.tracer.enabled:
            attrs = {"service": self.name, "bytes": payload_bytes}
            if detail is not None:
                attrs["key"] = detail
            sp = self.tracer.begin(f"{self.trace_kind}.{op}", op, **attrs)
        try:
            yield from self._charge_inner(op, payload_bytes, inbound)
        finally:
            if sp >= 0:
                self.tracer.end(sp)

    def _charge_inner(self, op, payload_bytes, inbound):
        if self.faults is not None:
            attempts = 0
            while self.faults.storage_should_fail(self.name):
                attempts += 1
                self.metrics.count(f"{op}.error")
                yield self.env.timeout(self.latency.sample(self._rng))
                if attempts > self.faults.profile.max_storage_retries:
                    raise TransientStorageError(self.name, op, attempts)
                self.faults.stats.note_recovered("storage_retry")
                backoff = min(
                    _RETRY_BACKOFF_BASE_S * 2 ** (attempts - 1),
                    _RETRY_BACKOFF_CAP_S,
                )
                yield self.env.timeout(backoff)
        start = self.env.now
        self.metrics.count(op)
        yield self.env.timeout(self.latency.sample(self._rng))
        yield from self.link.transfer(payload_bytes)
        if inbound:
            self.metrics.bytes_in += payload_bytes
        else:
            self.metrics.bytes_out += payload_bytes
        self.metrics.busy_time += self.env.now - start


def naive_payload_size(obj):
    return ENVELOPE_OVERHEAD + _naive_body_size(obj)


def _naive_body_size(obj):
    if obj is None:
        return 1
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None and isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, dict):
        return sum(
            CONTAINER_ITEM_OVERHEAD + _naive_body_size(k) + _naive_body_size(v)
            for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(CONTAINER_ITEM_OVERHEAD + _naive_body_size(v) for v in obj)
    raise TypeError(
        f"cannot size object of type {type(obj).__name__}; give it an "
        f"integer 'nbytes' attribute or use a supported container"
    )


# -- running one request script against either formulation ------------------
class LoggingEnvironment(Environment):
    """Records every delivery as ``(time, seq, event type)``."""

    __slots__ = ("log",)

    def __init__(self):
        super().__init__()
        self.log = []

    def _pop_next(self, stop_at=float("inf")):
        entry = super()._pop_next(stop_at)
        if entry is not None:
            self.log.append((entry[0], entry[1], type(entry[2]).__name__))
        return entry


OPS = ("set", "get", "delete", "exists")
SIZES = (0, 0, 8, 72, 1_000, 250_000, 40_000_000)

#: a profile whose retry budget is exhausted every few requests
BRITTLE = FaultProfile(name="brittle", kv_error_rate=0.6, max_storage_retries=1)
FAULTS = {
    "off": None,
    "flaky-storage": FAULT_PROFILES["flaky-storage"],
    "brittle": BRITTLE,
}


def make_script(seed, n_procs, n_requests=12, n_interrupts=0):
    """Per-process request lists plus interrupt orders, from one seed."""
    rng = np.random.default_rng(seed)
    requests = [
        [
            (
                OPS[rng.integers(len(OPS))],
                SIZES[rng.integers(len(SIZES))],
                bool(rng.integers(2)),
                # idle gap before the request: 0 keeps requests back to back
                float(rng.choice([0.0, 0.0, 0.0004, 0.01])),
            )
            for _ in range(n_requests)
        ]
        for _ in range(n_procs)
    ]
    interrupts = sorted(
        (float(rng.uniform(0.0, 0.4)), int(rng.integers(n_procs)))
        for _ in range(n_interrupts)
    )
    return requests, interrupts


def run_script(naive, script, faults="off", traced=False, seed=0, median=0.0009):
    """Everything observable about one run of ``script``."""
    requests, interrupts = script
    env = LoggingEnvironment()
    streams = RandomStreams(seed=seed)
    profile = FAULTS[faults]
    injector = FaultInjector(profile, streams) if profile is not None else None
    tracer = Tracer() if traced else None
    latency_cls = NaiveLognormalLatency if naive else LognormalLatency
    service_cls = NaiveService if naive else StorageService
    service = service_cls(
        env,
        streams,
        latency_cls(median=median, sigma=0.25, cap=0.05 if median < 0.05 else 5.0),
        1e9,
        "redis",
        faults=injector,
        tracer=tracer,
    )
    raised = []
    where = []  # (time, active transfers) at each interrupt, self-check only

    def client(index, ops):
        for n, (op, size, inbound, gap) in enumerate(ops):
            try:
                if gap:
                    yield env.timeout(gap)
                yield from service._charge(op, size, inbound, detail=f"k{index}")
            except (Interrupt, TransientStorageError) as exc:
                raised.append((index, n, env.now, type(exc).__name__, str(exc)))

    procs = [
        env.process(client(i, ops), name=f"client{i}")
        for i, ops in enumerate(requests)
    ]

    def saboteur():
        for at, victim in interrupts:
            yield env.timeout(at - env.now)
            if procs[victim].is_alive:
                where.append((env.now, service.link.active_transfers))
                procs[victim].interrupt("poke")

    if interrupts:
        env.process(saboteur(), name="saboteur")
    while env.peek() != float("inf"):
        env.step()
    assert all(not p.is_alive for p in procs)
    return {
        "log": env.log,
        "now": env.now,
        "metrics": service.metrics,
        "link": (
            service.link.bytes_moved,
            service.link.transfers,
            service.link.active_transfers,
        ),
        "rng": service._rng.bit_generator.state,
        "raised": raised,
        "spans": [s.to_dict() for s in tracer.spans] if traced else None,
        "faults": (
            (
                dict(injector.stats.injected),
                dict(injector.stats.recovered),
                injector._storage_rng.bit_generator.state,
            )
            if injector is not None
            else None
        ),
        "where": where,
    }


def assert_same_run(script, **kwargs):
    new = run_script(False, script, **kwargs)
    old = run_script(True, script, **kwargs)
    for key in old:
        assert new[key] == old[key], f"{key} differs ({kwargs})"
    return new


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("faults", list(FAULTS))
@pytest.mark.parametrize("n_procs", [1, 2, 5, 16])
def test_request_scripts_run_identically(n_procs, faults, traced):
    for seed in range(4):
        script = make_script(1000 * n_procs + seed, n_procs)
        run = assert_same_run(script, faults=faults, traced=traced, seed=seed)
        assert run["metrics"].total_requests >= n_procs
        assert run["link"][2] == 0
    if faults == "brittle":
        # the retry budget really was exhausted, and really was survived
        names = {entry[3] for entry in run["raised"]}
        assert "TransientStorageError" in names
        assert run["faults"][1].get("storage_retry", 0) > 0


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("faults", list(FAULTS))
def test_interrupted_request_scripts_run_identically(faults, traced):
    for seed in range(6):
        script = make_script(77 + seed, n_procs=6, n_interrupts=10)
        run = assert_same_run(script, faults=faults, traced=traced, seed=seed)
        assert any(entry[3] == "Interrupt" for entry in run["raised"])
        assert run["link"][2] == 0  # an interrupted transfer gave its share back


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_interrupt_mid_latency_and_mid_transfer(traced):
    """One slow request (≈1 s latency, 8 s transfer) poked in each phase."""
    request = [("set", 1_000_000_000, True, 0.0)]
    for at, in_transfer in ((0.3, 0), (3.0, 1)):
        script = ([request, request], [(at, 0)])
        run = assert_same_run(script, traced=traced, median=1.0)
        # the poke landed where the test says it does
        assert run["where"] == [(at, 2 * in_transfer)]
        assert [entry[3] for entry in run["raised"]] == ["Interrupt"]
        assert run["link"] == (1e9, 1, 0)  # the other request completed


def test_lognormal_draws_are_bit_identical():
    # 1.05: a median whose math.log and np.log differ in the last ulp on
    # the reference host (NumPy's SIMD log vs libm) — the constant must be
    # computed with the same np.log the per-draw formulation used.
    cases = [(0.0009, 0.25, 0.05), (0.12, 0.6, 0.2), (3.0, 0.0, 1), (1.05, 0.3, 9.0)]
    for median, sigma, cap in cases:
        new = LognormalLatency(median, sigma, cap)
        old = NaiveLognormalLatency(median, sigma, cap)
        rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(2000):
            a, b = new.sample(rng_new), old.sample(rng_old)
            assert a == b and type(a) is type(b)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


def test_lognormal_cached_constant_is_not_part_of_the_value():
    model = LognormalLatency(median=0.0009, sigma=0.25, cap=0.05)
    assert repr(model) == "LognormalLatency(median=0.0009, sigma=0.25, cap=0.05)"
    assert model == LognormalLatency(0.0009, 0.25, 0.05)
    assert hash(model) == hash(LognormalLatency(0.0009, 0.25, 0.05))
    assert model != LognormalLatency(0.001, 0.25, 0.05)


# -- payload sizing ---------------------------------------------------------
class Unsizeable:
    pass


class Sized:
    nbytes = 4321


sparse_deltas = st.builds(
    lambda idx: SparseDelta(
        np.asarray(sorted(idx), dtype=np.int64), np.ones(len(idx)), (64,)
    ),
    st.lists(st.integers(0, 63), max_size=12, unique=True),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True),
    st.text(alphabet=st.characters(max_codepoint=127), max_size=12),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.builds(bytearray, st.binary(max_size=6)),
    st.builds(np.float64, st.floats(allow_nan=False)),
    st.builds(np.float32, st.floats(width=32, allow_nan=False)),
    st.builds(np.int64, st.integers(-(2**40), 2**40)),
    st.builds(np.int8, st.integers(-100, 100)),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.zeros, st.integers(0, 9)),
    sparse_deltas,
    st.builds(
        ModelUpdate, st.dictionaries(st.sampled_from("umb"), sparse_deltas, max_size=3)
    ),
    st.just(Sized()),
)
hashable_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8), st.binary(max_size=4)
)
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(hashable_leaves, max_size=4),
        st.frozensets(hashable_leaves, max_size=4),
        st.dictionaries(hashable_leaves, children, max_size=4),
    ),
    max_leaves=12,
)


@given(payloads)
@settings(max_examples=300, deadline=None)
def test_payload_size_equals_the_naive_ladder(obj):
    size = payload_size(obj)
    assert size == naive_payload_size(obj)
    assert type(size) is int
    assert payload_size(obj) == size  # a cached size is the same size


@given(payloads)
@settings(max_examples=100, deadline=None)
def test_unsizeable_objects_raise_the_same_type_error(obj):
    for wrapped in (Unsizeable(), [obj, Unsizeable()], {"k": (obj, Unsizeable())}):
        with pytest.raises(TypeError) as new:
            payload_size(wrapped)
        with pytest.raises(TypeError) as old:
            naive_payload_size(wrapped)
        assert str(new.value) == str(old.value)


def test_the_type_traps_are_sized_like_the_ladder():
    # bool is not int, a NumPy float is not float, non-ASCII is not len()
    assert payload_size(True) == ENVELOPE_OVERHEAD + 1
    assert payload_size(1) == ENVELOPE_OVERHEAD + 8
    assert payload_size(np.float32(1.0)) == ENVELOPE_OVERHEAD + 4
    assert payload_size("héllo") == ENVELOPE_OVERHEAD + 6
    assert payload_size({"é": True}) == ENVELOPE_OVERHEAD + 8 + 2 + 1
