"""Benchmark: Figure 2 — training speed and curve-prediction accuracy."""

import pytest

from repro.experiments import fig2
from repro.cli import render_table

from conftest import FULL, emit


@pytest.mark.figure
def test_fig2a_training_speed(benchmark):
    counts = (4, 8, 12, 16, 24) if FULL else (4, 8, 12)
    rows = benchmark.pedantic(
        fig2.fig2a_training_speed,
        kwargs={"worker_counts": counts, "max_steps": 40},
        rounds=1, iterations=1,
    )
    emit(render_table(rows, "Fig 2a: training speed vs workers"))
    # Shape: steps/s decreases monotonically with the worker count.
    speeds = [r["steps_per_s"] for r in rows]
    assert all(b < a for a, b in zip(speeds, speeds[1:]))


@pytest.mark.figure
def test_fig2b_reference_fit(benchmark):
    row = benchmark.pedantic(
        fig2.fig2b_reference_fit, kwargs={"max_steps": 200},
        rounds=1, iterations=1,
    )
    emit(render_table([row], "Fig 2b: reference curve fit (Eq. 2)"))
    # The fit must track the smoothed curve closely.
    assert row["fit_rmse"] < 0.02


@pytest.mark.figure
def test_fig2c_horizon_error(benchmark):
    rows = benchmark.pedantic(
        fig2.fig2c_horizon_error,
        kwargs={"max_steps": 320 if FULL else 280,
                "horizons": (50, 100, 150, 200) if FULL else (50, 100, 150)},
        rounds=1, iterations=1,
    )
    emit(render_table(rows, "Fig 2c: prediction error vs horizon"))
    assert rows, "no horizons evaluated"
    # Paper: both curve families stay under ~1.5% error up to 200 steps
    # ahead; the scaled-down runs are far noisier per step, so allow a
    # loose multiple for the decision-making (slow) curve.
    for row in rows:
        assert row["slow_curve_err_pct"] < 8.0


@pytest.mark.figure
def test_fig2d_error_vs_points(benchmark):
    rows = benchmark.pedantic(
        fig2.fig2d_error_vs_points,
        kwargs={"max_steps": 320 if FULL else 280},
        rounds=1, iterations=1,
    )
    emit(render_table(rows, "Fig 2d: slow-curve error vs fitting points"))
    assert rows
    # Shape: more fitting points should not make prediction much worse.
    assert rows[-1]["slow_curve_err_pct"] <= rows[0]["slow_curve_err_pct"] + 2.0
