"""The PyWren-IBM baseline: non-specialized serverless ML training.

Per the paper (§6.1): "we leverage the map phase to process mini-batches
in parallel and reduce tasks to aggregate the local updates.  All
communication is done through IBM COS, including the sharing of updates,
to keep its pure serverless, general-purpose architecture."

Every training iteration is therefore one map-reduce job:

* ``P`` map activations each download the **full current model** plus one
  mini-batch from the object store, compute a gradient at the generic
  pure-Python rate, and write it back to the object store;
* one reduce activation downloads the ``P`` gradients, averages them, runs
  the optimizer, and writes the new model to the object store.

The two structural causes of its Fig. 6 slowness — slow-storage-only
communication and no specialization for iterative ML — fall straight out
of this construction; nothing is artificially penalized beyond the
calibrated generic-runtime constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, Generator, Optional

import numpy as np

from ..calibration import Calibration, DEFAULT_CALIBRATION
from ..core.history import RunResult
from ..faas import FaaSPlatform, FunctionSpec, InvocationContext
from ..ml.data.dataset import Dataset
from ..ml.models.base import Model
from ..ml.optim.base import Optimizer
from ..pricing import CostMeter
from ..sim import Environment, Monitor
from ..storage import ObjectStore

__all__ = ["PyWrenMLConfig", "PyWrenMLTrainer"]

_STATE_BUCKET = "pywren-ml-state"


@dataclass
class PyWrenMLConfig:
    """One PyWren-style training run."""

    model: Model
    make_optimizer: Callable[[], Optimizer]
    dataset: Dataset
    n_workers: int
    target_loss: Optional[float] = None
    max_steps: int = 2000
    seed: int = 0
    calibration: Calibration = DEFAULT_CALIBRATION

    #: give up after this much simulated time, seconds (a constant: no run
    #: varies it)
    max_time_s: ClassVar[float] = 3600.0

    def __post_init__(self):
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.n_workers > len(self.dataset):
            raise ValueError(
                f"{self.n_workers} workers but only {len(self.dataset)} batches"
            )


def _densify(grad, params) -> Dict[str, np.ndarray]:
    """A non-specialized framework serializes gradients as dense tensors."""
    dense: Dict[str, np.ndarray] = {}
    for name, _tensor in params:
        buf = np.zeros(params[name].shape)
        if name in grad:
            grad[name].apply_to(buf)
        dense[name] = buf
    return dense


def _grad_map_handler(ctx: InvocationContext, payload: Dict[str, Any]) -> Generator:
    """Map task: model + batch from COS -> dense gradient to COS."""
    trainer: "PyWrenMLTrainer" = payload["trainer"]
    config: PyWrenMLConfig = payload["config"]
    calib = config.calibration
    params = yield from trainer.cos.get(_STATE_BUCKET, payload["model_key"])
    batch = yield from trainer.cos.get(trainer.bucket, payload["batch_key"])
    yield from ctx.compute(
        calib.pywren_task_seconds(config.model.sparse_step_flops(batch))
    )
    loss, grad = config.model.gradient(params, batch)
    yield from trainer.cos.put(
        _STATE_BUCKET, payload["grad_key"], _densify(grad, params)
    )
    return loss


def _grad_reduce_handler(
    ctx: InvocationContext, payload: Dict[str, Any]
) -> Generator:
    """Reduce task: gradients from COS -> averaged step -> new model to COS."""
    trainer: "PyWrenMLTrainer" = payload["trainer"]
    config: PyWrenMLConfig = payload["config"]
    calib = config.calibration
    params = yield from trainer.cos.get(_STATE_BUCKET, payload["model_key"])
    dense_sum: Dict[str, np.ndarray] = {}
    for key in payload["grad_keys"]:
        dense = yield from trainer.cos.get(_STATE_BUCKET, key)
        for name, arr in dense.items():
            if name in dense_sum:
                dense_sum[name] = dense_sum[name] + arr
            else:
                dense_sum[name] = arr
    n_params = sum(a.size for a in dense_sum.values())
    yield from ctx.compute(calib.pywren_task_seconds(2.0 * n_params))
    scale = 1.0 / len(payload["grad_keys"])
    from ..ml.parameters import ModelUpdate
    from ..ml.sparse import SparseDelta

    avg = ModelUpdate(
        {
            name: SparseDelta.from_dense(arr * scale)
            for name, arr in dense_sum.items()
        }
    )
    optimizer: Optimizer = payload["optimizer"]
    update = optimizer.step(params, avg, payload["step"])
    params.apply(update)
    yield from trainer.cos.put(_STATE_BUCKET, payload["out_model_key"], params)
    return None


class PyWrenMLTrainer:
    """Iterative map-reduce training driver."""

    def __init__(
        self,
        env: Environment,
        platform: FaaSPlatform,
        cos: ObjectStore,
        meter: Optional[CostMeter] = None,
        bucket: str = "training-data",
    ):
        self.env = env
        self.platform = platform
        self.cos = cos
        self.bucket = bucket
        self.meter = meter if meter is not None else CostMeter()
        if self.meter.faas is None:
            self.meter.faas = platform.billing
        self.cos.create_bucket(_STATE_BUCKET)
        self.result: Optional[RunResult] = None

    def run(self, config: PyWrenMLConfig) -> RunResult:
        done = self.env.process(self.run_process(config), name="pywren-ml")
        self.env.run(until=done)
        if not done.ok:
            raise done.value
        assert self.result is not None
        return self.result

    def run_process(self, config: PyWrenMLConfig) -> Generator:
        if not self.platform.is_registered("pywren-ml-map"):
            self.platform.register(FunctionSpec("pywren-ml-map", _grad_map_handler))
            self.platform.register(
                FunctionSpec("pywren-ml-reduce", _grad_reduce_handler)
            )

        monitor = Monitor()
        batch_keys = config.dataset.stage(self.cos, self.bucket)
        partitions = config.dataset.partition(config.n_workers)

        rng = np.random.default_rng(config.seed)
        params = config.model.init_params(rng)
        # The driver lives outside the data center; it seeds the initial
        # model into the object store once (charged on first map GET).
        model_key = "model/step-00000"
        self.cos.preload(_STATE_BUCKET, model_key, params)
        optimizer = config.make_optimizer()

        started_at = self.env.now
        monitor.record("workers", started_at, config.n_workers)
        converged = False
        final_loss = None
        last_barrier = self.env.now

        t = 0
        while t < config.max_steps:
            t += 1
            map_acts = []
            for r in range(config.n_workers):
                batch_idx = partitions[r][(t - 1) % len(partitions[r])]
                payload = {
                    "trainer": self,
                    "config": config,
                    "model_key": model_key,
                    "batch_key": batch_keys[batch_idx],
                    "grad_key": f"grad/step-{t:05d}/rank-{r}",
                }
                map_acts.append(self.platform.invoke("pywren-ml-map", payload))
            yield self.env.all_of([a.process for a in map_acts])
            losses = [a.result() for a in map_acts]

            out_model_key = f"model/step-{t:05d}"
            reduce_payload = {
                "trainer": self,
                "config": config,
                "model_key": model_key,
                "grad_keys": [
                    f"grad/step-{t:05d}/rank-{r}" for r in range(config.n_workers)
                ],
                "out_model_key": out_model_key,
                "optimizer": optimizer,
                "step": t,
            }
            reduce_act = self.platform.invoke("pywren-ml-reduce", reduce_payload)
            yield reduce_act.process
            reduce_act.result()  # raise on failure
            model_key = out_model_key
            params = self.cos.peek(_STATE_BUCKET, model_key)

            now = self.env.now
            mean_loss = float(np.mean(losses))
            monitor.record("loss", now, mean_loss)
            monitor.record("loss_by_step", t, mean_loss)
            monitor.record("step_duration", t, now - last_barrier)
            last_barrier = now
            final_loss = mean_loss

            if config.target_loss is not None and mean_loss <= config.target_loss:
                converged = True
                break
            if now - started_at >= config.max_time_s:
                break

        self.result = RunResult(
            system="pywren",
            monitor=monitor,
            meter=self.meter,
            started_at=started_at,
            finished_at=self.env.now,
            converged=converged,
            final_loss=final_loss,
            total_steps=t,
        )
        return self.result
