"""Benchmark: ablations of the design choices DESIGN.md calls out."""

import pytest

from repro.experiments import ablation
from repro.cli import render_table

from conftest import emit


@pytest.mark.figure
def test_ablation_accumulation(benchmark):
    rows = benchmark.pedantic(
        ablation.ablation_accumulation, rounds=1, iterations=1
    )
    emit(render_table(rows, "Ablation: ISP accumulation vs drop vs top-k"))
    by = {r["filter"]: r for r in rows}
    # Accumulation must converge; dropping updates outright loses mass and
    # must not converge *faster* (in steps) than the conserving filter.
    assert by["isp (accumulate)"]["converged"]
    if by["drop (no accumulation)"]["converged"]:
        assert (
            by["drop (no accumulation)"]["steps"]
            >= by["isp (accumulate)"]["steps"] * 0.9
        )


@pytest.mark.figure
def test_ablation_knee_gate(benchmark):
    rows = benchmark.pedantic(ablation.ablation_knee_gate, rounds=1, iterations=1)
    emit(render_table(rows, "Ablation: knee-gated vs immediate scale-in"))
    by = {r["variant"]: r for r in rows}
    # Immediate scale-in starts evicting before the knee; it must not end
    # with more workers than the gated variant, and both must converge.
    assert by["immediate"]["workers_end"] <= by["knee-gated"]["workers_end"]
    assert all(r["converged"] for r in rows)


@pytest.mark.figure
def test_ablation_curve_family(benchmark):
    rows = benchmark.pedantic(
        ablation.ablation_curve_family, rounds=1, iterations=1
    )
    emit(render_table(rows, "Ablation: slow-curve family (Eq. 3 vs power law)"))
    assert all(r["converged"] for r in rows)
    # Both families must produce working schedulers (they may differ in
    # aggressiveness); neither should blow up cost by more than 2x.
    costs = [r["cost_usd"] for r in rows]
    assert max(costs) / min(costs) < 2.0


@pytest.mark.figure
def test_ablation_reintegration(benchmark):
    rows = benchmark.pedantic(
        ablation.ablation_reintegration, rounds=1, iterations=1
    )
    emit(render_table(rows, "Ablation: eviction-time model averaging"))
    assert all(r["converged"] for r in rows)


@pytest.mark.figure
def test_ablation_sync_protocol(benchmark):
    rows = benchmark.pedantic(
        ablation.ablation_sync_protocol, rounds=1, iterations=1
    )
    emit(render_table(rows, "Ablation: BSP barrier vs SSP staleness"))
    by = {r["sync"]: r for r in rows}
    assert all(r["converged"] for r in rows)
    # Relaxing the barrier must not make steps slower.
    assert by["ssp(s=4)"]["step_duration_s"] <= by["bsp"]["step_duration_s"]


@pytest.mark.figure
def test_ablation_knee_method(benchmark):
    rows = benchmark.pedantic(
        ablation.ablation_knee_method, rounds=1, iterations=1
    )
    emit(render_table(rows, "Ablation: slope heuristic vs Kneedle"))
    assert all(r["converged"] for r in rows)
    # Both detectors must let the tuner shrink the pool.
    assert all(r["workers_end"] < 16 for r in rows)
