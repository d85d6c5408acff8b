"""Figure 2: training speed and learning-curve prediction accuracy.

Four panels, all built from PMF training runs (the paper uses PMF on
MovieLens-1M; we use the scaled PMF workload):

* **2a** — training speed (steps/s) vs. number of workers: decreases with
  the worker count because per-step communication overhead grows with the
  pool (§4.2, estimation phase).
* **2b** — reference-curve fit: the four fitted coefficients of Eq. (2)
  on an EWMA-smoothed loss history, plus the fit error.
* **2c** — relative prediction error forecasting 50–200 steps ahead from
  the knee, for both curve families (paper: below 1.5%).
* **2d** — prediction error of the slow curve ``l_p(t)`` as the number of
  fitting points grows.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..api import make_workload, mlless_config, run_mlless
from ..cli import render_table
from ..core import ReferenceCurve, SlowCurve, SlopeKneeDetector, ewma

__all__ = [
    "fig2a_training_speed",
    "fig2b_reference_fit",
    "fig2c_horizon_error",
    "fig2d_error_vs_points",
    "main",
]

_WORKLOAD = "pmf-ml10m"


def _loss_history(n_workers: int = 12, max_steps: int = 260, seed: int = 3):
    """One PMF run with no convergence target; returns (steps, losses)."""
    workload = make_workload(_WORKLOAD)
    config = mlless_config(
        workload,
        n_workers=n_workers,
        v=0.0,
        target_loss=-1.0,  # never reached: collect a fixed-length history
        max_steps=max_steps,
        seed=seed,
    )
    result = run_mlless(config)
    steps, losses = result.monitor.series("loss_by_step").as_arrays()
    return result, steps, losses


def fig2a_training_speed(
    worker_counts=(4, 8, 12, 16, 24), max_steps: int = 60
) -> List[Dict]:
    """Steps/s vs. worker count (Fig. 2a)."""
    workload = make_workload(_WORKLOAD)
    dataset = workload.dataset(seed=1)
    rows = []
    for p in worker_counts:
        config = mlless_config(
            workload, n_workers=p, v=0.0, target_loss=-1.0,
            max_steps=max_steps, dataset=dataset,
        )
        result = run_mlless(config)
        rows.append(
            {
                "workers": p,
                "steps_per_s": round(result.steps_per_second(), 3),
                "step_duration_s": round(result.mean_step_duration(), 4),
            }
        )
    return rows


def fig2b_reference_fit(max_steps: int = 220) -> Dict:
    """Fit Eq. (2) to a smoothed PMF loss history (Fig. 2b)."""
    _result, steps, losses = _loss_history(max_steps=max_steps)
    smoothed = ewma(losses, alpha=0.3)
    curve = ReferenceCurve.fit(steps, smoothed)
    predicted = curve.predict(steps)
    fit_rmse = float(np.sqrt(np.mean((predicted - smoothed) ** 2)))
    t0, t1, t2, t3 = curve.theta
    return {
        "theta0": round(t0, 4),
        "theta1": round(t1, 4),
        "theta2": round(t2, 4),
        "theta3": round(t3, 4),
        "fit_rmse": round(fit_rmse, 5),
        "points": len(steps),
    }


def _rel_err(actual: float, predicted) -> float:
    """Scalar relative error |actual - predicted| / |actual| (Fig. 2c)."""
    predicted = float(np.asarray(predicted).ravel()[0])
    return abs(actual - predicted) / max(abs(actual), 1e-12)


def _knee_index(losses: np.ndarray) -> int:
    knee = SlopeKneeDetector().detect(list(losses))
    if knee is None:
        # Fall back to a third of the history: enough fast-region points.
        knee = max(10, len(losses) // 3)
    return knee


def _windowed(values: np.ndarray, index: int, half: int = 8) -> float:
    """Mean of ``values`` in a small window around ``index`` (denoising)."""
    lo = max(0, index - half)
    hi = min(len(values), index + half + 1)
    return float(np.mean(values[lo:hi]))


def fig2c_horizon_error(
    horizons=(50, 100, 150, 200), max_steps: int = 320
) -> List[Dict]:
    """Relative prediction error vs. forecast horizon (Fig. 2c).

    The reference curve is fitted on the history up to the knee, the slow
    curve on the first 40 post-knee points, and both predict 50-200 steps
    past the knee.  Actual losses are window-averaged to factor out
    mini-batch noise (the paper's curves come from much larger batches).
    """
    _result, steps, losses = _loss_history(max_steps=max_steps)
    smoothed = ewma(losses, alpha=0.2)
    knee = max(_knee_index(smoothed), 60)
    rows = []
    ref = ReferenceCurve.fit(steps[:knee], smoothed[:knee])
    slow = SlowCurve.fit(
        steps[knee : knee + 40], smoothed[knee : knee + 40],
        origin=int(steps[knee]) - 1,
    )
    for h in horizons:
        target = knee + h
        if target >= len(steps):
            continue
        actual = _windowed(smoothed, target)
        ref_err = _rel_err(actual, ref.predict(steps[target]))
        slow_err = _rel_err(actual, slow.predict(steps[target]))
        rows.append(
            {
                "horizon_steps": h,
                "ref_curve_err_pct": round(100 * ref_err, 3),
                "slow_curve_err_pct": round(100 * slow_err, 3),
            }
        )
    return rows


def fig2d_error_vs_points(
    point_counts=(10, 20, 40, 80), horizon: int = 60, max_steps: int = 320
) -> List[Dict]:
    """Slow-curve error vs. number of fitting points (Fig. 2d)."""
    _result, steps, losses = _loss_history(max_steps=max_steps)
    smoothed = ewma(losses, alpha=0.2)
    knee = max(_knee_index(smoothed), 60)
    rows = []
    for k in point_counts:
        hi = knee + k
        target = hi + horizon
        if target >= len(steps):
            continue
        slow = SlowCurve.fit(
            steps[knee:hi], smoothed[knee:hi], origin=int(steps[knee]) - 1
        )
        actual = _windowed(smoothed, target)
        err = _rel_err(actual, slow.predict(steps[target]))
        rows.append(
            {
                "fit_points": k,
                "horizon_steps": horizon,
                "slow_curve_err_pct": round(100 * err, 3),
            }
        )
    return rows


def main() -> str:
    """Run all four panels and render them."""
    parts = [
        render_table(fig2a_training_speed(), "Fig 2a: training speed vs workers"),
        render_table([fig2b_reference_fit()], "Fig 2b: reference curve fit"),
        render_table(fig2c_horizon_error(), "Fig 2c: prediction error vs horizon"),
        render_table(fig2d_error_vs_points(), "Fig 2d: error vs fitting points"),
    ]
    return "\n\n".join(parts)


if __name__ == "__main__":
    print(main())
