"""A PyWren-style map-reduce framework over the FaaS platform.

Mirrors PyWren-IBM's programming model (§5, [33]): user-defined Python
functions fan out as serverless activations, exchanging *all* data through
the object store — inputs staged as objects, outputs written back as
objects.  No function-to-function communication whatsoever, which is
exactly why the PyWren ML baseline is so slow in Fig. 6.

Used for dataset preparation (the paper normalizes Criteo with two chained
map-reduce jobs).  The non-specialized ML training baseline,
:mod:`repro.baselines.pywren_ml`, follows the same model with its own map
and reduce handlers and does not run on this executor.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List

from ..calibration import Calibration, DEFAULT_CALIBRATION
from ..faas import FaaSPlatform, FunctionSpec, InvocationContext
from ..storage import ObjectStore

__all__ = ["PyWrenExecutor"]

_SCRATCH_BUCKET = "pywren-scratch"


def _map_shim(ctx: InvocationContext, payload: dict) -> Generator:
    """Generic map task: load input, run UDF, store output."""
    executor: "PyWrenExecutor" = payload["executor"]
    cos = executor.cos
    task_input = yield from cos.get(_SCRATCH_BUCKET, payload["input_key"])
    yield from ctx.compute(executor.calibration.pywren_task_overhead_s)
    result = payload["udf"](task_input)
    flops = payload.get("flops_hint", 0.0)
    if flops:
        yield from ctx.compute(flops / executor.calibration.pywren_flops_per_s)
    yield from cos.put(_SCRATCH_BUCKET, payload["output_key"], result)
    return payload["output_key"]


def _reduce_shim(ctx: InvocationContext, payload: dict) -> Generator:
    """Generic reduce task: load all map outputs, run UDF, store output."""
    executor: "PyWrenExecutor" = payload["executor"]
    cos = executor.cos
    inputs: List[Any] = []
    for key in payload["input_keys"]:
        inputs.append((yield from cos.get(_SCRATCH_BUCKET, key)))
    yield from ctx.compute(executor.calibration.pywren_task_overhead_s)
    result = payload["udf"](inputs)
    flops = payload.get("flops_hint", 0.0)
    if flops:
        yield from ctx.compute(flops / executor.calibration.pywren_flops_per_s)
    yield from cos.put(_SCRATCH_BUCKET, payload["output_key"], result)
    return payload["output_key"]


class PyWrenExecutor:
    """Map/reduce over serverless functions with object-store data plane."""

    def __init__(
        self,
        platform: FaaSPlatform,
        cos: ObjectStore,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        self.platform = platform
        self.cos = cos
        self.calibration = calibration
        self.cos.create_bucket(_SCRATCH_BUCKET)
        self._job_counter = 0
        if not platform.is_registered("pywren-map"):
            platform.register(FunctionSpec("pywren-map", _map_shim))
        if not platform.is_registered("pywren-reduce"):
            platform.register(FunctionSpec("pywren-reduce", _reduce_shim))

    def _next_job_id(self) -> str:
        self._job_counter += 1
        return f"job-{self._job_counter:05d}"

    # -- primitives (simulation process generators) -----------------------
    def map(
        self,
        udf: Callable[[Any], Any],
        items: List[Any],
        flops_hint: float = 0.0,
    ) -> Generator:
        """Apply ``udf`` to each item in parallel; returns the results.

        ``flops_hint`` charges per-task compute time beyond the fixed
        runtime overhead (the UDF's real arithmetic runs in zero simulated
        time otherwise).
        """
        if not items:
            return []
        job = self._next_job_id()
        input_keys = []
        for i, item in enumerate(items):
            key = f"{job}/in-{i:05d}"
            self.cos.preload(_SCRATCH_BUCKET, key, item)
            input_keys.append(key)
        activations = []
        for i, in_key in enumerate(input_keys):
            payload = {
                "executor": self,
                "udf": udf,
                "input_key": in_key,
                "output_key": f"{job}/out-{i:05d}",
                "flops_hint": flops_hint,
            }
            activations.append(self.platform.invoke("pywren-map", payload))
        yield self.platform.env.all_of([a.process for a in activations])
        results = []
        for a in activations:
            out_key = a.result()
            results.append(self.cos.peek(_SCRATCH_BUCKET, out_key))
        return results

    def map_reduce(
        self,
        map_udf: Callable[[Any], Any],
        reduce_udf: Callable[[List[Any]], Any],
        items: List[Any],
        map_flops_hint: float = 0.0,
        reduce_flops_hint: float = 0.0,
    ) -> Generator:
        """Chained map then single reduce; returns the reduce result."""
        job = self._next_job_id()
        input_keys = []
        for i, item in enumerate(items):
            key = f"{job}/in-{i:05d}"
            self.cos.preload(_SCRATCH_BUCKET, key, item)
            input_keys.append(key)
        map_acts = []
        for i, in_key in enumerate(input_keys):
            payload = {
                "executor": self,
                "udf": map_udf,
                "input_key": in_key,
                "output_key": f"{job}/map-{i:05d}",
                "flops_hint": map_flops_hint,
            }
            map_acts.append(self.platform.invoke("pywren-map", payload))
        yield self.platform.env.all_of([a.process for a in map_acts])
        map_keys = [a.result() for a in map_acts]
        reduce_payload = {
            "executor": self,
            "udf": reduce_udf,
            "input_keys": map_keys,
            "output_key": f"{job}/reduce",
            "flops_hint": reduce_flops_hint,
        }
        activation = self.platform.invoke("pywren-reduce", reduce_payload)
        yield activation.process
        return self.cos.peek(_SCRATCH_BUCKET, activation.result())

    @property
    def env(self):
        return self.platform.env
