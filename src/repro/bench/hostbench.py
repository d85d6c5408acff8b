"""The ``repro bench kernel --profile`` breakdown of the DES kernel.

Replays the heaviest ``simkernel`` op's workload under the kernel's
instrumented run loop
(:meth:`~repro.sim.core.Environment.enable_profile`) and renders the
per-event-type count/time breakdown plus the timeout-delay histogram —
the measurements that sized the timer wheel.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from .ops import _prepare_step_loop, _step_loop_delays

__all__ = ["profile_step_loop", "format_profile"]


def profile_step_loop() -> Dict[str, Any]:
    """Replay the step-loop workload under the instrumented kernel loop."""
    env, _log = _prepare_step_loop(_step_loop_delays())
    env.enable_profile(time.perf_counter_ns)
    env.run()
    return env.profile_report()


def format_profile(report: Dict[str, Any]) -> str:
    """Render a profile report as an aligned text table."""
    lines = ["per-event-type breakdown:"]
    total_ns = sum(e["total_ns"] for e in report["event_types"].values()) or 1
    for name, entry in report["event_types"].items():
        count, ns = entry["count"], entry["total_ns"]
        lines.append(
            f"  {name:<12} {count:>10} events  {ns / 1e6:>10.3f} ms callback "
            f"({100.0 * ns / total_ns:5.1f}%, {ns / max(count, 1):,.0f} ns/event)"
        )
    lines.append("timeout-delay histogram:")
    for bucket in report["timeout_delays"]:
        upper = "inf" if bucket["lt_s"] is None else f"{bucket['lt_s']:g}"
        lines.append(
            f"  [{bucket['ge_s']:g}s, {upper}s)  {bucket['count']:>10}"
        )
    return "\n".join(lines)
