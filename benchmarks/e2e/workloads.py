"""The six benchmark workloads.

Each workload knows how to *prepare* its inputs from a seed (set-up:
dataset generation, spec loading, world build), *run* the one public
entry point that does the work, and reduce the result to a flat
``outputs`` dict the harness checks and digests.  Nothing here imports
``repro`` at module level, so the harness can read names and rationale
without the package on ``sys.path``.

Sizes are chosen so every run is 2-3 s on the 2-core host and — because
the driver compares runs across seeds — so that the *amount of work does
not depend on the seed*: every single-job workload runs a fixed number
of steps (``target_loss = 0`` is unreachable).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["WORKLOADS", "JobWorkload", "ScenarioWorkload"]

HERE = os.path.dirname(os.path.abspath(__file__))


def _monitor_digest(result) -> str:
    """sha256 over every monitor series plus the run's headline numbers."""
    h = hashlib.sha256()
    for name in sorted(result.monitor.names()):
        times, values = result.monitor.series(name).as_arrays()
        h.update(name.encode())
        h.update(times.tobytes())
        h.update(values.tobytes())
    h.update(
        repr(
            (result.exec_time, result.total_cost, result.total_steps,
             result.final_loss, result.converged)
        ).encode()
    )
    return h.hexdigest()


@dataclass(frozen=True)
class JobWorkload:
    """One MLLess job through ``mlless_config`` / ``build_world`` / ``run_mlless``."""

    name: str
    why: str
    job: str
    workers: int
    v: float
    autotune: bool
    steps: int
    backend: str
    #: final loss every seed must stay under after ``steps`` steps
    loss_ceiling: float
    #: False pins the dataset to the repo's default seed: with the
    #: auto-tuner on, *which* step the pool shrinks at depends on the
    #: data, and host time follows worker-steps (8.6 % quartile spread
    #: across dataset seeds vs 0.3 % across job seeds)
    seed_dataset: bool = True

    @property
    def is_sim(self) -> bool:
        return self.backend == "sim"

    def prepare(self, seed: int, parts: Dict[str, float], tracer=None,
                variant: Optional[str] = None) -> Dict[str, Any]:
        from repro.experiments.common import build_world, mlless_config
        from repro.experiments.settings import make_workload

        t0 = time.perf_counter()
        workload = make_workload(self.job)
        dataset = workload.dataset(seed=1 + seed if self.seed_dataset else 1)
        config = mlless_config(
            workload,
            n_workers=self.workers,
            v=self.v,
            autotune=self.autotune,
            target_loss=0.0,
            max_steps=self.steps,
            seed=seed,
            dataset=dataset,
        )
        t1 = time.perf_counter()
        parts["dataset_s"] = t1 - t0
        state: Dict[str, Any] = {"config": config, "world": None}
        if self.is_sim:
            state["world"] = build_world(seed=config.seed, tracer=tracer)
            parts["world_s"] = time.perf_counter() - t1
        return state

    def run(self, state: Dict[str, Any]):
        from repro.experiments.common import run_mlless

        if self.is_sim:
            return run_mlless(state["config"], world=state["world"])
        return run_mlless(state["config"], backend=self.backend)

    def outputs(self, state: Dict[str, Any], result) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "steps": result.total_steps,
            "final_workers": result.final_worker_count(),
            "converged": result.converged,
            "final_loss": result.final_loss,
            "job_exec_s": result.exec_time,
        }
        if self.is_sim:
            out["model_time_s"] = result.exec_time
            out["model_cost_usd"] = result.total_cost
            out["digest"] = _monitor_digest(result)
        return out


@dataclass(frozen=True)
class ScenarioWorkload:
    """A benchmark-owned TOML spec through ``load_spec_text`` / ``run_scenario_spec``."""

    name: str
    why: str
    toml: str
    #: roles' worker count and fixed step count; 0 for the platform run
    workers: int = 0
    steps: int = 0
    loss_ceiling: float = 0.0
    backend: str = "sim"
    is_sim: bool = True

    @property
    def is_platform(self) -> bool:
        return self.steps == 0

    def prepare(self, seed: int, parts: Dict[str, float], tracer=None,
                variant: Optional[str] = None) -> Dict[str, Any]:
        from dataclasses import replace

        from repro.scenarios import load_spec_text

        t0 = time.perf_counter()
        path = os.path.join(HERE, "workloads", self.toml)
        with open(path, encoding="utf-8") as handle:
            spec = load_spec_text(handle.read(), origin=self.toml)
        if variant == "no-critical-path":
            spec = replace(spec, report=replace(spec.report, critical_path=False))
        parts["load_s"] = time.perf_counter() - t0
        return {"spec": spec, "seed": seed}

    def run(self, state: Dict[str, Any]):
        from repro.scenarios import run_scenario_spec

        return run_scenario_spec(state["spec"], seed=state["seed"])

    def outputs(self, state: Dict[str, Any], payload) -> Dict[str, Any]:
        kpis = payload["kpis"]
        out: Dict[str, Any] = {
            "digest": payload["digest"],
            "model_cost_usd": kpis["total_cost_usd"],
            "budget_ok": payload["budget"]["ok"],
        }
        if self.is_platform:
            metrics = payload["platform"]["metrics"]
            out.update(
                jobs=int(kpis["jobs"]),
                model_time_s=kpis["makespan_s"],
                queue_wait_p95_s=kpis["queue_wait_p95_s"],
                queue_wait_p50_s=kpis["queue_wait_p50_s"],
                attributed_fraction=kpis["attributed_fraction"],
                cold_fraction=kpis["cold_fraction"],
                scheduler_dispatches=int(metrics["scheduler_dispatches"]),
                scheduler_wakeups=int(metrics["scheduler_wakeups"]),
            )
        else:
            row = payload["runs"][0]
            out.update(
                steps=row["steps"],
                converged=row["converged"],
                final_loss=row["final_loss"],
                model_time_s=row["exec_time_s"],
                faults_injected=row["faults_injected"],
                faults_recovered=row["faults_recovered"],
                attributed_fraction=row["reconciliation"].get(
                    "ledger_attributed_fraction"
                ),
            )
        return out


_PMF_BSP = dict(
    job="pmf-ml20m", workers=2, v=0.0, autotune=False, steps=480,
    loss_ceiling=0.80,
)

WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        JobWorkload(
            name="pmf-isp-sim",
            why="The paper's headline job (PMF, ISP filter v=0.7, scale-in tuner on): "
                "core.significance and ml scatter/nonzero dominate, so filter and "
                "numerics work shows here.",
            job="pmf-ml10m", workers=12, v=0.7, autotune=True, steps=90,
            backend="sim", loss_ceiling=0.90, seed_dataset=False,
        ),
        JobWorkload(
            name="lr-bsp-sim",
            why="Same step machine, filter bypassed (v=0): CSR matvec/rmatvec + Adam, "
                "full-size updates through storage/net; an ISP-only gain must not move it.",
            job="lr-criteo", workers=12, v=0.0, autotune=False, steps=140,
            backend="sim", loss_ceiling=0.50,
        ),
        ScenarioWorkload(
            name="fault-storm-sim",
            why="The only workload where faults, the repro.trace Tracer + CostLedger, "
                "checkpoint/relaunch and enforced KPI reconciliation do real work.",
            toml="fault_storm.toml", workers=8, steps=100, loss_ceiling=0.90,
        ),
        ScenarioWorkload(
            name="platform-diurnal-sim",
            why="No ML at all: sim kernel dispatch plus platform scheduler/pool/invoices, "
                "faas and storage; kernel or scheduler work shows here only.",
            toml="platform_diurnal.toml",
        ),
        JobWorkload(
            name="pmf-bsp-local",
            why="exec.local queue/lock transport on real threads with the DES absent; "
                "same numerics as pmf-bsp-procs.",
            backend="local", **_PMF_BSP,
        ),
        JobWorkload(
            name="pmf-bsp-procs",
            why="exec.procs transport (fork + ShmArena + control server); with "
                "pmf-bsp-local it gives the multi-core procs-vs-local ratio.",
            backend="procs", **_PMF_BSP,
        ),
    )
}
