"""Learning-curve models and non-negative least-squares fitting (§4.2).

Two curve families, exactly as in the paper:

Reference curve (fast-convergence region), Eq. (2)::

    L_P(t) = 1 / (theta0 * t^theta1 + theta2) + theta3

Slow-convergence curve (after the knee), Eq. (3), as in SLAQ [37]::

    l_p(t) = 1 / (theta0 * t^2 + theta1 * t + theta2) + theta3

All coefficients are constrained non-negative; fitting uses
``scipy.optimize.curve_fit`` with box bounds (the paper cites SciPy's
curve_fit as its NNLS solver).  Loss values should be EWMA-smoothed before
fitting (the supervisor does this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["ReferenceCurve", "SlowCurve", "CurveFitError", "prediction_error"]

_EPS = 1e-12


class CurveFitError(RuntimeError):
    """Raised when a learning curve cannot be fitted to the data."""


def _reference_form(t, a, b, c, d):
    return 1.0 / (a * np.power(t, b) + c + _EPS) + d


def _slow_form(t, a, b, c, d):
    return 1.0 / (a * t * t + b * t + c + _EPS) + d


def _fit(form, t, y, p0) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("t and y must be 1-D arrays of equal length")
    if len(t) < 5:
        raise CurveFitError(f"need >= 5 points to fit, got {len(t)}")
    if np.any(t <= 0):
        raise ValueError("steps must be positive (1-based)")
    # Imported here, its only use, so `import repro` stays SciPy-free; a job
    # with the tuner on has already resolved it in AutoTunerConfig.
    from scipy.optimize import curve_fit

    try:
        theta, _ = curve_fit(
            form,
            t,
            y,
            p0=p0,
            bounds=(0.0, np.inf),
            maxfev=20000,
        )
    except (RuntimeError, ValueError) as exc:
        raise CurveFitError(f"curve fit failed: {exc}") from exc
    return theta


@dataclass(frozen=True)
class ReferenceCurve:
    """Fitted Eq. (2): the P-worker reference loss curve ``L_P(t)``."""

    theta: Tuple[float, float, float, float]

    @classmethod
    def fit(cls, steps: np.ndarray, losses: np.ndarray) -> "ReferenceCurve":
        """Fit to (step, smoothed-loss) points from the fast region."""
        y = np.asarray(losses, dtype=np.float64)
        floor = max(float(y.min()) * 0.5, 0.0)
        p0 = [0.05, 1.0, 1.0 / max(y.max() - floor, _EPS), floor]
        theta = _fit(_reference_form, steps, y, p0)
        return cls(tuple(float(v) for v in theta))

    def predict(self, t) -> np.ndarray:
        """Expected loss at step(s) ``t``."""
        return _reference_form(np.asarray(t, dtype=np.float64), *self.theta)

    def __call__(self, t):
        return self.predict(t)


@dataclass(frozen=True)
class SlowCurve:
    """Fitted Eq. (3): the p-worker slow-convergence curve ``l_p(t)``."""

    theta: Tuple[float, float, float, float]
    #: step offset: the curve is fitted on steps since the last removal,
    #: so predictions must shift by the fit origin.
    origin: int = 0

    @classmethod
    def fit(
        cls, steps: np.ndarray, losses: np.ndarray, origin: int = 0
    ) -> "SlowCurve":
        """Fit to points collected *since the last worker removal*.

        ``steps`` are absolute step numbers; ``origin`` is subtracted so
        the quadratic's domain starts near zero (better conditioning).
        """
        steps = np.asarray(steps, dtype=np.float64) - origin
        if np.any(steps <= 0):
            raise ValueError("all steps must be > origin")
        y = np.asarray(losses, dtype=np.float64)
        floor = max(float(y.min()) * 0.5, 0.0)
        p0 = [1e-6, 1e-3, 1.0 / max(y.max() - floor, _EPS), floor]
        theta = _fit(_slow_form, steps, y, p0)
        return cls(tuple(float(v) for v in theta), origin=origin)

    def predict(self, t) -> np.ndarray:
        """Expected loss at absolute step(s) ``t``."""
        shifted = np.asarray(t, dtype=np.float64) - self.origin
        return _slow_form(np.maximum(shifted, 1.0), *self.theta)

    def __call__(self, t):
        return self.predict(t)


def prediction_error(actual: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Relative error |actual - predicted| / actual (Fig. 2c's metric)."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    return np.abs(actual - predicted) / np.maximum(np.abs(actual), _EPS)
