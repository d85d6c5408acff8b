"""Figure 5: the scale-in auto-tuner's effect on Perf/$ and execution time.

For each workload and worker count the job runs with and without the
auto-tuner (on top of ISP, as in the paper's 'MLLess + All'), reporting

* ``Perf/$ := 1 / (exec_time * price)`` — higher is better; the paper
  reports 1.4x-1.6x improvements;
* raw execution time — the paper sees between -10% (faster) and +7.1%
  (slightly slower, from an over-eager knee detector on ML-10M).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..api import build_world, make_workload, mlless_config, run_mlless
from ..cli import render_table
from ..trace import Tracer
from ..trace.cli import write_run_trace

__all__ = ["fig5_autotuner", "main"]


def run_mlless_traced(config, trace_path: str):
    """Run one traced MLLess job and write its trace files; returns the result.

    ``trace_path`` receives the Chrome trace and ``trace_path + ".jsonl"``
    the JSONL dump, with the run's billing records embedded.
    """
    tracer = Tracer()
    world = build_world(seed=config.seed, faults=config.faults, tracer=tracer)
    result = run_mlless(config, world=world)
    write_run_trace(tracer, trace_path, billing=world.platform.billing)
    return result


def fig5_autotuner(
    workload_names: Sequence[str] = ("lr-criteo", "pmf-ml10m", "pmf-ml20m"),
    worker_counts: Sequence[int] = (12, 24),
    v: float = 0.7,
    max_steps: int = 1200,
    seed: int = 3,
    epoch_s: float = 10.0,
    trace_dir: Optional[str] = None,
) -> List[Dict]:
    """One row per (workload, P): tuner-off vs tuner-on metrics.

    With ``trace_dir`` set, every run additionally records a span trace —
    Chrome JSON + JSONL per run, named
    ``fig5-<workload>-P<p>-<base|tuner>.trace.json``.
    """
    rows: List[Dict] = []
    for name in workload_names:
        workload = make_workload(name)
        dataset = workload.dataset(seed=1)
        for p in worker_counts:
            results = {}
            for tuner in (False, True):
                config = mlless_config(
                    workload,
                    n_workers=p,
                    v=v,
                    autotune=tuner,
                    dataset=dataset,
                    # Deep targets give the tuner a long post-knee phase,
                    # the regime Fig. 5 measures.
                    target_loss=workload.deep_target_loss,
                    max_steps=max_steps,
                    seed=seed,
                    autotuner_kwargs={"epoch_s": epoch_s, "delta_s": epoch_s / 2},
                )
                if trace_dir is not None:
                    label = "tuner" if tuner else "base"
                    trace_path = (
                        f"{trace_dir}/fig5-{name}-P{p}-{label}.trace.json"
                    )
                    results[tuner] = run_mlless_traced(config, trace_path)
                else:
                    results[tuner] = run_mlless(config)
            off, on = results[False], results[True]
            rows.append(
                {
                    "workload": name,
                    "workers": p,
                    "exec_off_s": round(off.exec_time, 2),
                    "exec_on_s": round(on.exec_time, 2),
                    "cost_off_usd": round(off.total_cost, 5),
                    "cost_on_usd": round(on.total_cost, 5),
                    "perf_per_$_off": round(off.perf_per_dollar, 1),
                    "perf_per_$_on": round(on.perf_per_dollar, 1),
                    "perf_per_$_gain": round(
                        on.perf_per_dollar / off.perf_per_dollar, 3
                    ),
                    "workers_end": on.final_worker_count(),
                    "time_delta_pct": round(
                        100 * (on.exec_time - off.exec_time) / off.exec_time, 1
                    ),
                }
            )
    return rows


def main(**kwargs) -> str:
    return render_table(
        fig5_autotuner(**kwargs),
        "Fig 5: scale-in auto-tuner effect (Perf/$ and exec time)",
    )


if __name__ == "__main__":
    print(main())
