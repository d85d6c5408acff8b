"""Collective-communication timing model (Gloo stand-in).

The serverful baseline exchanges gradients with **ring all-reduce**: each
of P nodes sends/receives ``2 (P-1)/P`` of the buffer, in ``2 (P-1)``
latency-bound phases.

The function returns *wall time* for one collective; the actual numeric
reduction is done by the caller in numpy (the simulated cost and the real
arithmetic are deliberately decoupled — see DESIGN.md).
"""

from __future__ import annotations

__all__ = ["ring_allreduce_time"]


def _check(size_bytes: float, nodes: int, bandwidth_bps: float, latency_s: float):
    if size_bytes < 0:
        raise ValueError(f"size must be >= 0, got {size_bytes}")
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    if bandwidth_bps <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth_bps}")
    if latency_s < 0:
        raise ValueError(f"latency must be >= 0, got {latency_s}")


def ring_allreduce_time(
    size_bytes: float,
    nodes: int,
    bandwidth_bps: float,
    latency_s: float = 50e-6,
) -> float:
    """Wall time of a bandwidth-optimal ring all-reduce.

    Classic cost model: ``2 (P-1) (alpha + S/(P B))`` — two rounds
    (reduce-scatter + all-gather) of P-1 steps each moving S/P bytes at
    per-link bandwidth B with per-step latency alpha.
    """
    _check(size_bytes, nodes, bandwidth_bps, latency_s)
    if nodes == 1:
        return 0.0
    steps = 2 * (nodes - 1)
    per_step_bytes = size_bytes / nodes
    per_step_time = latency_s + (per_step_bytes * 8.0) / bandwidth_bps
    return steps * per_step_time
