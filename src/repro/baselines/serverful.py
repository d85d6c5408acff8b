"""The serverful baseline: distributed PyTorch-like DDP training on VMs.

Models the paper's comparison system (§6.1): PyTorch v1.8.1 on CPU across
B1.4x8 instances, one rank per core, Gloo **ring all-reduce** for gradient
exchange, mini-batches downloaded from the object store.  Step semantics
are synchronous data parallelism: every rank computes a gradient on its
own mini-batch, gradients are averaged with an all-reduce, and every
replica applies the same optimizer step (replicas stay bit-identical).

Simulated-time model per step (see :class:`repro.calibration.Calibration`):
dense-kernel compute + per-batch sparse-handling overhead + a dense
optimizer pass over the full tensors + the ring all-reduce wall time with
per-VM NIC sharing.  The arithmetic itself is exact numpy, so the loss
trajectory is real — with one rank and the same seed it is bit-identical
to an MLLess worker's (the paper's sanity check).

Following the paper's conservative accounting, VM leases are opened at
*compute start* (boot time is excluded from both the clock and the bill).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Generator, List, Optional

from ..calibration import Calibration, DEFAULT_CALIBRATION
from ..core.history import RunResult
from ..ml.data.dataset import Dataset
from ..ml.models.base import Model
from ..ml.optim.base import Optimizer
from ..ml.parameters import ModelUpdate
from ..pricing import CostMeter, PRICING
from ..sim import Environment, Monitor, RandomStreams
from ..storage import ObjectStore
from ..vm import ring_allreduce_time
from ..vm.instance import VMInstance

__all__ = ["ServerfulConfig", "ServerfulTrainer"]

import numpy as np


@dataclass
class ServerfulConfig:
    """One serverful training run."""

    model: Model
    make_optimizer: Callable[[], Optimizer]
    dataset: Dataset
    n_ranks: int
    target_loss: Optional[float] = None
    max_steps: int = 5000
    seed: int = 0
    calibration: Calibration = DEFAULT_CALIBRATION

    #: give up after this much simulated time, seconds (a constant: no run
    #: varies it)
    max_time_s: ClassVar[float] = 3600.0
    #: the paper's VM type (§6.1, Table 2)
    instance_type: ClassVar[str] = "B1.4x8"

    def __post_init__(self):
        if self.n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {self.n_ranks}")
        if self.n_ranks > len(self.dataset):
            raise ValueError(
                f"{self.n_ranks} ranks but only {len(self.dataset)} batches"
            )

    @property
    def ranks_per_vm(self) -> int:
        return PRICING[self.instance_type].vcpus

    @property
    def n_vms(self) -> int:
        return math.ceil(self.n_ranks / self.ranks_per_vm)


class ServerfulTrainer:
    """Runs one synchronous data-parallel job on a simulated VM cluster."""

    def __init__(
        self,
        env: Environment,
        streams: RandomStreams,
        cos: ObjectStore,
        meter: Optional[CostMeter] = None,
        bucket: str = "training-data",
    ):
        self.env = env
        self.streams = streams
        self.cos = cos
        self.meter = meter if meter is not None else CostMeter()
        self.bucket = bucket
        self.result: Optional[RunResult] = None

    def run(self, config: ServerfulConfig) -> RunResult:
        done = self.env.process(self.run_process(config), name="serverful")
        self.env.run(until=done)
        if not done.ok:
            raise done.value
        assert self.result is not None
        return self.result

    def run_process(self, config: ServerfulConfig) -> Generator:
        monitor = Monitor()
        batch_keys = config.dataset.stage(self.cos, self.bucket)
        partitions = config.dataset.partition(config.n_ranks)

        # Boot the cluster; leases open only once compute starts.
        instances = [
            VMInstance(self.env, self.streams, config.instance_type, f"vm-{i}")
            for i in range(config.n_vms)
        ]
        boot_start = self.env.now
        boots = [self.env.process(vm.boot()) for vm in instances]
        yield self.env.all_of(boots)
        setup_duration = self.env.now - boot_start
        leases = [
            self.meter.lease(config.instance_type, self.env.now)
            for _ in instances
        ]

        started_at = self.env.now
        monitor.record("workers", started_at, config.n_ranks)
        rng = np.random.default_rng(config.seed)
        params = config.model.init_params(rng)
        optimizer = config.make_optimizer()
        calib = config.calibration
        nic_bps = instances[0].itype.nic_bps
        effective_bw = nic_bps / min(config.ranks_per_vm, config.n_ranks)

        converged = False
        final_loss = None
        last_barrier = self.env.now
        t = 0
        while t < config.max_steps:
            t += 1
            # Parallel mini-batch fetches (one per rank) from the object store.
            fetches = [
                self.env.process(
                    self.cos.get(
                        self.bucket,
                        batch_keys[partitions[r][(t - 1) % len(partitions[r])]],
                    )
                )
                for r in range(config.n_ranks)
            ]
            fetched = yield self.env.all_of(fetches)
            batches = [fetched[f] for f in fetches]

            # Per-rank dense compute: ranks run on separate cores in
            # parallel, so wall time is one rank's step time.
            slowest = max(
                calib.serverful_step_seconds(
                    config.model.dense_step_flops(b),
                    config.model.sparse_entries(b),
                    params.n_parameters,
                    cores=1,
                )
                for b in batches
            )
            yield self.env.timeout(slowest)

            losses: List[float] = []
            grads = []
            for b in batches:
                loss, grad = config.model.gradient(params, b)
                losses.append(loss)
                grads.append(grad)
            # n-way merge: bit-identical to the pairwise fold (both sum
            # each index's contributions in rank order from zero).
            avg_grad = ModelUpdate.merge_many(grads).scale(1.0 / config.n_ranks)

            # Gradient all-reduce over the full dense tensors (what a dense
            # framework moves), with ranks sharing each VM's NIC.
            if config.n_ranks > 1:
                yield self.env.timeout(
                    ring_allreduce_time(
                        config.model.dense_gradient_bytes(),
                        config.n_ranks,
                        effective_bw,
                    )
                )

            update = optimizer.step(params, avg_grad, t)
            params.apply(update)

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

        finished_at = self.env.now
        for lease in leases:
            self.meter.release(lease, finished_at)

        self.result = RunResult(
            system="serverful",
            monitor=monitor,
            meter=self.meter,
            started_at=started_at,
            finished_at=finished_at,
            setup_duration=setup_duration,
            converged=converged,
            final_loss=final_loss,
            total_steps=t,
        )
        return self.result
