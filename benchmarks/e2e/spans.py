"""Host-time spans recorded from outside the program.

The benchmark owns this tracing: nothing under ``src/`` knows about it.
:func:`install` swaps every callable named in :data:`BOUNDARIES` for a
timing wrapper and returns a function that puts the originals back.

* A plain callable gets a wrapper that opens a span around the call.
* A generator function gets a wrapper whose result delegates
  ``send``/``throw``/``close`` to the real generator and opens a span
  around every *resume* — a simulated service call is suspended for most
  of its life, and only the resumes cost host time.

Spans nest through the Python call stack, one stack per thread: a
span's **self time** is its duration minus the durations of the spans
opened while it was the innermost one.  Self times are summed per
metric key as spans close; the raw spans stay in memory until
:meth:`Recorder.dump` writes them out after the measurement.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "BOUNDARIES",
    "TRACKED_CLASSES",
    "Recorder",
    "resolve",
    "wrap_callable",
    "install",
]

_now = time.perf_counter_ns

#: raw spans kept for the dump; totals keep counting past the cap
MAX_RAW_SPANS = 50_000


class Recorder:
    """Span stack per thread, self-time totals per metric key."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: key -> [calls, self_ns, inclusive_ns]; one dict per thread,
        #: merged on read
        self._per_thread: List[Dict[str, List[int]]] = []
        #: (span_id, parent_id, key, name, thread, start_ns, duration_ns)
        self.raw: List[Tuple[int, int, str, str, int, int, int]] = []
        self._ids = itertools.count()

    def _state(self):
        local = self._local
        try:
            return local.stack, local.totals
        except AttributeError:
            local.stack = []
            local.totals = {}
            with self._lock:
                self._per_thread.append(local.totals)
            return local.stack, local.totals

    def enter(self, key: str, name: str = "") -> list:
        stack, _ = self._state()
        # frame: key, start, child time, span id, parent id, name
        frame = [key, 0, 0, next(self._ids), stack[-1][3] if stack else -1, name]
        stack.append(frame)
        frame[1] = _now()
        return frame

    def leave(self, frame: list) -> None:
        end = _now()
        stack, totals = self._state()
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        entry = totals.get(frame[0])
        if entry is None:
            totals[frame[0]] = [1, duration - frame[2], duration]
        else:
            entry[0] += 1
            entry[1] += duration - frame[2]
            entry[2] += duration
        if len(self.raw) < MAX_RAW_SPANS:
            self.raw.append(
                (frame[3], frame[4], frame[0], frame[5], threading.get_ident(),
                 frame[1], duration)
            )

    def threads_seen(self) -> int:
        return len(self._per_thread)

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``key -> (calls, self seconds, inclusive seconds)`` over threads."""
        merged: Dict[str, List[int]] = {}
        for totals in list(self._per_thread):
            for key, values in list(totals.items()):
                entry = merged.setdefault(key, [0, 0, 0])
                for i in range(3):
                    entry[i] += values[i]
        return {
            key: (calls, self_ns / 1e9, incl_ns / 1e9)
            for key, (calls, self_ns, incl_ns) in merged.items()
        }

    def dump(self, path: str, header: Dict[str, Any]) -> None:
        """Write the kept spans as JSONL: one header line, one line each."""
        origin = min(span[5] for span in self.raw) if self.raw else 0
        with open(path, "w", encoding="utf-8") as out:
            header = dict(header)
            header["columns"] = [
                "span_id", "parent_id", "key", "name", "thread", "start_us",
                "duration_us",
            ]
            header["kept_spans"] = len(self.raw)
            header["total_spans"] = sum(c for c, _, _ in self.totals().values())
            out.write(json.dumps(header) + "\n")
            for span_id, parent, key, name, thread, start, duration in self.raw:
                out.write(
                    json.dumps(
                        [span_id, parent, key, name, thread,
                         (start - origin) / 1e3, duration / 1e3]
                    )
                    + "\n"
                )


class _TimedGenerator:
    """Delegates to ``gen``; every resume runs inside a span."""

    __slots__ = ("_gen", "_key", "_rec", "_name", "__name__")

    def __init__(self, gen, key: str, rec: Recorder, name: str):
        self._gen = gen
        self._key = key
        self._rec = rec
        self._name = name
        self.__name__ = name.rpartition(".")[2]

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        rec = self._rec
        frame = rec.enter(self._key, self._name)
        try:
            return self._gen.send(value)
        finally:
            rec.leave(frame)

    def throw(self, *exc_info):
        rec = self._rec
        frame = rec.enter(self._key, self._name)
        try:
            return self._gen.throw(*exc_info)
        finally:
            rec.leave(frame)

    def close(self):
        rec = self._rec
        frame = rec.enter(self._key, self._name)
        try:
            return self._gen.close()
        finally:
            rec.leave(frame)


def wrap_callable(
    fn: Callable, key: str, rec: Recorder, observe: Optional[Callable] = None
) -> Callable:
    """The timing wrapper for ``fn`` (resume-timing if it is a generator
    function).  ``observe(args, result)`` sees each plain call's result."""
    name = fn.__qualname__
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            return _TimedGenerator(fn(*args, **kwargs), key, rec, name)

        return gen_wrapper

    enter, leave = rec.enter, rec.leave

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = enter(key, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave(frame)
        if observe is not None:
            observe(args, result)
        return result

    return wrapper


def resolve(path: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:Class.attr"`` -> (owner, attribute name, raw attribute).

    The raw attribute is what sits in the owner's ``__dict__`` — a
    ``staticmethod``/``classmethod`` object is returned unwrapped so the
    installer can re-wrap it the same way.
    """
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, parts[-1])
    return owner, parts[-1], raw


def _filter_observer(counts: Dict[str, int]) -> Callable:
    def observe(args, outgoing) -> None:
        # SignificanceFilter.step(self, params, update, t) -> outgoing
        counts["offered"] += int(args[2].nnz)
        counts["passed"] += int(outgoing.nnz)

    return observe


#: metric key -> boundaries whose self time it sums.  Paths are
#: ``module:attr`` or ``module:Class.attr``; a module path names the
#: module whose *global* is looked up at call time (for functions bound
#: with ``from x import f`` that is the importing module, not ``x``).
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    # -- sim: the kernel's own time is run() minus what runs inside it
    "sim.run_s": ("repro.sim.core:Environment.run",),
    # -- exec
    "exec.drive_s": ("repro.exec.sim:drive", "repro.exec.local:drive"),
    "exec.transport_s": (
        "repro.exec.local:LocalObjectStore.get",
        "repro.exec.local:LocalKVStore.set",
        "repro.exec.local:LocalKVStore.get",
        "repro.exec.local:LocalKVStore.get_or_none",
        "repro.exec.local:LocalKVStore.delete",
        "repro.exec.local:LocalKVStore.exists",
        "repro.exec.local:LocalMessageQueue.publish",
        "repro.exec.local:LocalMessageQueue.consume",
        "repro.exec.local:LocalMessageQueue.consume_with_timeout",
        "repro.exec.local:LocalMessageQueue.drain",
        "repro.exec.local:LocalExchange.publish",
    ),
    # -- core
    "core.filter_s": ("repro.core.significance:SignificanceFilter.step",),
    "core.checkpoint_s": (
        "repro.core.runtime:WorkerCheckpoint.snapshot",
        "repro.core.supervisor:SupervisorState.snapshot",
    ),
    "core.autotune_s": (
        "repro.core.autotuner:ScaleInScheduler.observe",
        "repro.core.autotuner:ScaleInScheduler.should_evict",
        "repro.core.autotuner:ScaleInScheduler.notify_evicted",
    ),
    "core.machine_s": (
        "repro.core.worker:worker_machine",
        "repro.core.supervisor:supervisor_machine",
        "repro.core.driver:MLLessDriver.run_process",
        "repro.core.driver:MLLessDriver._run_role",
    ),
    # -- ml
    "ml.gradient_s": (
        "repro.ml.models.pmf:PMF.gradient",
        "repro.ml.models.logistic_regression:LogisticRegression.gradient",
    ),
    "ml.optim_s": ("repro.ml.optim.base:Optimizer.step",),
    "ml.apply_s": (
        "repro.ml.parameters:ParameterSet.apply",
        "repro.ml.parameters:ParameterSet.apply_many",
        "repro.ml.parameters:ParameterSet.average_with",
    ),
    "ml.merge_s": (
        "repro.ml.parameters:ModelUpdate.scale",
        "repro.ml.parameters:ModelUpdate.merge",
        "repro.ml.parameters:ModelUpdate.merge_many",
    ),
    "ml.loss_s": (
        "repro.ml.models.pmf:PMF.loss",
        "repro.ml.models.logistic_regression:LogisticRegression.loss",
    ),
    # -- storage / net
    "storage.self_s": (
        "repro.storage.kv_store:KVStore.set",
        "repro.storage.kv_store:KVStore.get",
        "repro.storage.kv_store:KVStore.get_or_none",
        "repro.storage.kv_store:KVStore.delete",
        "repro.storage.kv_store:KVStore.exists",
        "repro.storage.message_queue:MessageQueue.declare",
        "repro.storage.message_queue:MessageQueue.publish",
        "repro.storage.message_queue:MessageQueue.consume",
        "repro.storage.message_queue:MessageQueue.consume_with_timeout",
        "repro.storage.message_queue:MessageQueue.drain",
        "repro.storage.message_queue:Exchange.publish",
        "repro.storage.object_store:ObjectStore.get",
        "repro.storage.object_store:ObjectStore.preload",
    ),
    "storage.sizing_s": ("repro.storage.base:payload_size",),
    "net.self_s": (
        "repro.net.bandwidth:Link.transfer",
        "repro.net.latency:LognormalLatency.sample",
    ),
    # -- faas / pricing
    "faas.self_s": (
        "repro.faas.platform:FaaSPlatform.invoke",
        "repro.faas.platform:FaaSPlatform._run_activation",
        "repro.faas.platform:FaaSPlatform._finalize",
        "repro.faas.platform:FaaSPlatform.reclaim_warm",
        "repro.faas.function:InvocationContext.compute",
        "repro.faas.function:InvocationContext.sleep",
        "repro.faas.coldstart:ColdStartModel.dispatch_components",
    ),
    "pricing.self_s": (
        "repro.pricing.meter:CostMeter.lease",
        "repro.pricing.meter:CostMeter.release",
        "repro.pricing.meter:CostMeter.total_cost",
        "repro.pricing.meter:CostMeter.breakdown",
    ),
    # -- faults / trace
    "faults.self_s": (
        "repro.faults.injector:FaultInjector.crash_delay",
        "repro.faults.injector:FaultInjector.coldstart_multiplier",
        "repro.faults.injector:FaultInjector.compute_scale",
        "repro.faults.injector:FaultInjector.message_fate",
        "repro.faults.injector:FaultInjector.storage_should_fail",
        "repro.faults.injector:FaultStats.note_injected",
        "repro.faults.injector:FaultStats.note_recovered",
    ),
    "trace.self_s": (
        "repro.trace.tracer:Tracer.begin",
        "repro.trace.tracer:Tracer.end",
        "repro.trace.tracer:Tracer.event",
        "repro.trace.tracer:Tracer.annotate",
        "repro.trace.tracer:Tracer.adopt",
        "repro.trace.ledger:CostLedger.from_trace",
        "repro.trace:critical_path",
    ),
    # -- platform
    "platform.schedule_s": (
        "repro.platform.scheduler:FairShareScheduler.submit",
        "repro.platform.scheduler:FairShareScheduler._loop",
        "repro.platform.scheduler:FairShareScheduler._job_finished",
    ),
    "platform.invoice_s": (
        "repro.platform.scenario:build_invoices",
        "repro.platform.billing:InvoiceReport.reconcile",
    ),
    "platform.self_s": (
        "repro.platform.scenario:run_scenario",
        "repro.platform.scenario:generate_arrivals",
        "repro.platform.pool:SharedPool.launch",
        "repro.platform.pool:SharedPool._join",
        "repro.platform.pool:SharedPool._idle_timer",
        "repro.platform.pool:training_job_machine",
    ),
    # -- scenarios / experiments (inside run_scenario_spec)
    "scenarios.report_s": (
        "repro.scenarios.compiler:reconcile_single_job",
        "repro.scenarios.compiler:reconcile_platform",
        "repro.scenarios.compiler:evaluate_budget",
        "repro.scenarios.compiler:finalize_report",
        "repro.scenarios.compiler:_jsonify",
    ),
    "experiments.dataset_s": (
        "repro.scenarios.compiler:make_workload",
        "repro.scenarios.compiler:mlless_config",
    ),
    "experiments.world_s": (
        "repro.scenarios.compiler:build_world",
        "repro.experiments.common:make_runtime",
    ),
}

#: classes whose instances the traced child remembers, so counters the
#: program already keeps (ServiceMetrics, FaaSBilling.records,
#: profile_report, FaultStats, Tracer.spans) can be read after a run that
#: built its own world (``run_scenario_spec``).
TRACKED_CLASSES: Dict[str, str] = {
    "env": "repro.sim.core:Environment",
    "kv": "repro.storage.kv_store:KVStore",
    "mq": "repro.storage.message_queue:MessageQueue",
    "cos": "repro.storage.object_store:ObjectStore",
    "faas": "repro.faas.platform:FaaSPlatform",
    "faults": "repro.faults.injector:FaultInjector",
    "tracer": "repro.trace.tracer:Tracer",
}


def _set(owner: Any, name: str, raw: Any, wrapped: Callable) -> None:
    if isinstance(raw, staticmethod):
        wrapped = staticmethod(wrapped)
    elif isinstance(raw, classmethod):
        wrapped = classmethod(wrapped)
    setattr(owner, name, wrapped)


def install(
    rec: Recorder,
) -> Tuple[Dict[str, List[Any]], Dict[str, int], Callable[[], None]]:
    """Wrap every boundary; remember instances of the tracked classes.

    Returns ``(instances, filter_counts, restore)``.  Every simulated
    ``Environment`` created while installed has kernel profiling turned
    on (``enable_profile``), which is where ``sim.events`` and the
    callback time come from.
    """
    undo: List[Tuple[Any, str, Any]] = []
    filter_counts = {"offered": 0, "passed": 0}
    observers = {
        "repro.core.significance:SignificanceFilter.step":
            _filter_observer(filter_counts),
    }
    for key, paths in BOUNDARIES.items():
        for path in paths:
            owner, name, raw = resolve(path)
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            undo.append((owner, name, raw))
            _set(owner, name, raw, wrap_callable(fn, key, rec, observers.get(path)))

    instances: Dict[str, List[Any]] = {label: [] for label in TRACKED_CLASSES}
    for label, path in TRACKED_CLASSES.items():
        cls = resolve(path)[2]
        original = cls.__dict__["__init__"]
        undo.append((cls, "__init__", original))
        setattr(cls, "__init__", _tracking_init(original, instances[label], label))

    def restore() -> None:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)

    return instances, filter_counts, restore


def _tracking_init(original: Callable, seen: List[Any], label: str) -> Callable:
    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        seen.append(self)
        if label == "env":
            self.enable_profile(_now)

    return __init__
