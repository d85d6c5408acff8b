"""Figure 3: thread-level parallelism inside a cloud function.

The paper's micro-benchmark trains one PMF step with one or two threads
inside functions of varying memory and plots the two-thread speedup:
because the platform's CPU share is proportional to memory and capped at
one vCPU, a second thread adds (almost) nothing — and at 1536 MiB it is
*worse* than one thread.

The experiment runs the same micro-benchmark through the simulated
platform: a function is invoked per (memory, threads) pair, charging one
PMF step's compute scaled by :meth:`FaaSLimits.thread_speedup`, and the
measured activation durations give the speedup.
"""

from __future__ import annotations

from typing import Dict, List

from ..cli import render_table
from ..faas import FaaSPlatform, FunctionSpec, IBM_CLOUD_FUNCTIONS_LIMITS
from ..sim import Environment, RandomStreams

__all__ = ["fig3_thread_speedup", "main"]

#: one PMF mini-batch step's worth of single-thread compute, seconds
_STEP_CPU_SECONDS = 0.25


def _measure(memory_mb: int, threads: int, seed: int = 11) -> float:
    """Simulated duration of one micro-benchmark activation."""
    env = Environment()
    streams = RandomStreams(seed=seed)
    platform = FaaSPlatform(env, streams)

    def bench_handler(ctx, payload):
        speedup = IBM_CLOUD_FUNCTIONS_LIMITS.thread_speedup(
            payload["memory_mb"], payload["threads"]
        )
        start = ctx.now
        yield from ctx.compute(_STEP_CPU_SECONDS / speedup)
        return ctx.now - start

    platform.register(
        FunctionSpec("pmf-step-bench", bench_handler, memory_mb=memory_mb)
    )
    activation = platform.invoke(
        "pmf-step-bench", {"memory_mb": memory_mb, "threads": threads}
    )
    env.run()
    return float(activation.result())


def fig3_thread_speedup(memory_sizes=(512, 1024, 1536, 2048)) -> List[Dict]:
    """Two-thread speedup vs. function memory size (Fig. 3)."""
    rows = []
    for memory in memory_sizes:
        one = _measure(memory, threads=1)
        two = _measure(memory, threads=2)
        rows.append(
            {
                "memory_mb": memory,
                "cpu_share_vcpus": round(
                    IBM_CLOUD_FUNCTIONS_LIMITS.cpu_share(memory), 3
                ),
                "speedup_2_threads": round(one / two, 3),
            }
        )
    return rows


def main() -> str:
    return render_table(
        fig3_thread_speedup(), "Fig 3: 2-thread speedup vs function memory"
    )


if __name__ == "__main__":
    print(main())
