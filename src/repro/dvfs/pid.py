"""PID-based execution-time predictor (the paper's reactive baseline).

A discrete PID controller treats the job-to-job execution time series
as a process variable and its own prediction as the setpoint tracker:
after each job the prediction error feeds proportional, integral and
derivative terms that adjust the next prediction (Sec. 2.4, Fig 3).
Anti-windup clamps the integral so one outlier job cannot poison the
controller for many frames.

``tune_pid`` reproduces "we tuned the PID controller's parameters to
achieve the best prediction accuracy" with a grid search over gains on
the training series.  The search is a pure function of the series and
the grid, so each distinct pair is searched once per process (until
:func:`clear_tuning_cache`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class PidGains:
    """Controller gains."""

    kp: float
    ki: float
    kd: float


DEFAULT_GAINS = PidGains(kp=0.6, ki=0.05, kd=0.1)


class PidPredictor:
    """Predicts the next job's execution time from past observations."""

    def __init__(self, gains: PidGains = DEFAULT_GAINS,
                 initial_prediction: Optional[float] = None,
                 integral_limit: float = 4.0):
        self.gains = gains
        self._prediction = initial_prediction
        self._integral = 0.0
        self._prev_error = 0.0
        self._integral_limit = integral_limit
        self._reference = initial_prediction or 0.0

    def predict(self) -> Optional[float]:
        """Current prediction; None until the first observation when no
        initial prediction was given."""
        return self._prediction

    def observe(self, actual: float) -> None:
        """Feed the actual execution time of the job just finished."""
        if self._prediction is None:
            self._prediction = actual
            self._reference = max(actual, 1e-12)
            return
        error = actual - self._prediction
        self._integral += error
        limit = self._integral_limit * self._reference
        self._integral = max(-limit, min(limit, self._integral))
        derivative = error - self._prev_error
        g = self.gains
        self._prediction = max(
            self._prediction
            + g.kp * error + g.ki * self._integral + g.kd * derivative,
            0.0,
        )
        self._prev_error = error


def replay_errors(series: Sequence[float], gains: PidGains) -> float:
    """Mean squared prediction error of a PID replay over ``series``."""
    pid = PidPredictor(gains)
    total = 0.0
    count = 0
    for actual in series:
        predicted = pid.predict()
        if predicted is not None:
            err = predicted - actual
            total += err * err
            count += 1
        pid.observe(actual)
    return total / count if count else float("inf")


Grid = Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[float, ...]]

DEFAULT_GRID: Grid = (
    (0.2, 0.4, 0.6, 0.8, 1.0),   # kp
    (0.0, 0.02, 0.05, 0.1),      # ki
    (0.0, 0.1, 0.2, 0.4),        # kd
)

#: Tuned gains, keyed by ``(series, grid)``.
_TUNED: Dict[Tuple[Tuple[float, ...], Grid], PidGains] = {}


def tune_pid(series: Sequence[float],
             grid: Grid = DEFAULT_GRID) -> PidGains:
    """Grid-search gains minimizing replay MSE on a training series."""
    key = (tuple(series), grid)
    gains = _TUNED.get(key)
    if gains is None:
        gains = _TUNED[key] = _grid_search(key[0], grid)
    return gains


def clear_tuning_cache() -> None:
    """Drop every memoized tuning; the next call searches again."""
    _TUNED.clear()


def _grid_search(series: Sequence[float], grid: Grid) -> PidGains:
    if len(series) < 3:
        return DEFAULT_GAINS
    best_gains = DEFAULT_GAINS
    best_error = float("inf")
    for kp, ki, kd in itertools.product(*grid):
        gains = PidGains(kp, ki, kd)
        error = replay_errors(series, gains)
        if error < best_error:
            best_error = error
            best_gains = gains
    return best_gains
