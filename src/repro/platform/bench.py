"""The platform-scale benchmark: jobs/hour, p95 queue wait, cost/job.

Run as ``repro bench platform``.  Unlike the kernel microbenchmarks
(``repro.bench.ops``), the unit of work here is a whole multi-tenant
scenario: hundreds of jobs from dozens of tenants through the queue,
the fair-share scheduler, the shared pool and the invoicing pipeline.
Two ops are timed and checksummed:

* ``platform.shared_diurnal`` — the shared multi-tenant platform under
  the default diurnal/bursty traffic;
* ``platform.isolated_baseline`` — the same jobs priced with naive
  per-job isolation (own platform, own cold starts, own idle tails).

Checksums cover the scenario's bit-exact monitor trace digest *and*
every reported metric (``float.hex`` encoded), so CI's committed
baseline catches any scheduling, billing, or RNG drift, not just a
changed headline number.  The checksums are portable: the simulation is
scalar sequential float math plus numpy ``Generator`` draws, both
bit-stable across the CPython/numpy builds CI runs.

``--quick`` cuts timing repetitions only — never the scenario size — so
quick-mode checksums compare against a full-mode baseline.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..bench.runner import BenchOp, checksum_bytes, run_suite
from .scenario import (
    ScenarioConfig,
    ScenarioResult,
    run_isolated_baseline,
    run_scenario,
)

__all__ = ["build_ops", "run_platform_suite", "metrics_checksum"]


def metrics_checksum(metrics: Dict[str, float], digest: str = "") -> str:
    """sha256 over a metrics dict (bit-exact floats) and a trace digest."""
    chunks = [digest.encode()]
    for key in sorted(metrics):
        chunks.append(f"{key}={float(metrics[key]).hex()}".encode())
    return checksum_bytes(*chunks)


def _shared_checksum(result: ScenarioResult) -> str:
    return metrics_checksum(result.metrics, result.digest)


def _isolated_checksum(metrics: Dict[str, float]) -> str:
    return metrics_checksum(metrics)


def build_ops(config: ScenarioConfig):
    """The two platform-scale benchmark ops over ``config``."""
    return [
        BenchOp(
            name="platform.shared_diurnal",
            group="platform",
            make_state=lambda: config,
            run=lambda state, _payload: run_scenario(state),
            checksum=_shared_checksum,
            portable=True,
            note="multi-tenant shared pool under diurnal+burst traffic",
        ),
        BenchOp(
            name="platform.isolated_baseline",
            group="platform",
            make_state=lambda: config,
            run=lambda state, _payload: run_isolated_baseline(state),
            checksum=_isolated_checksum,
            portable=True,
            note="same jobs, naive per-job isolation (cost baseline)",
        ),
    ]


def run_platform_suite(
    name: str = "platform",
    quick: bool = False,
    seed: int = 0,
    config: Optional[ScenarioConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the platform benchmark into a ``BENCH_<name>.json`` document.

    The document is the standard bench schema (so ``repro bench
    compare`` works on it unchanged) plus a ``platform`` section with
    the scenario config, the determinism digest, and the headline
    metrics — including the shared-vs-isolated cost comparison.
    """
    if config is None:
        config = ScenarioConfig(seed=seed)
    doc = run_suite(build_ops(config), name=name, quick=quick, progress=progress)

    # Determinism oracle: the digest must be bit-identical across runs.
    first = run_scenario(config)
    second = run_scenario(config)
    if first.digest != second.digest:
        raise RuntimeError(
            "platform scenario is not deterministic: same-seed runs produced "
            f"digests {first.digest[:12]}… and {second.digest[:12]}…"
        )
    isolated = run_isolated_baseline(config)

    shared_per_job = first.metrics["cost_per_job_shared_usd"]
    isolated_per_job = isolated["cost_per_job_isolated_usd"]
    savings_pct = (
        100.0 * (1.0 - shared_per_job / isolated_per_job)
        if isolated_per_job > 0
        else 0.0
    )
    doc["platform"] = {
        "config": {
            "seed": config.seed,
            "n_tenants": config.n_tenants,
            "horizon_s": config.horizon_s,
            "pool_concurrency": config.pool_concurrency,
            "memory_grades_mb": list(config.memory_grades_mb),
            "keep_alive_s": config.keep_alive_s,
            "scale_to_zero_after_s": config.scale_to_zero_after_s,
            "max_skips": config.max_skips,
            "mean_rate_per_h": config.traffic.mean_rate_per_h,
        },
        "digest": first.digest,
        "metrics": {k: first.metrics[k] for k in sorted(first.metrics)},
        "isolated": {k: isolated[k] for k in sorted(isolated)},
        "comparison": {
            "cost_per_job_shared_usd": shared_per_job,
            "cost_per_job_isolated_usd": isolated_per_job,
            "savings_pct": savings_pct,
        },
    }
    return doc
