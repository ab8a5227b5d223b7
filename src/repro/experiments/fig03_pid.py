"""Fig 3: actual vs PID-predicted execution time for H.264.

Replays a tuned PID controller over a window of foreman frames; around
each spike the PID prediction lags one frame behind (one
under-prediction causing a miss, one over-prediction wasting energy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..dvfs.pid import PidPredictor, tune_pid
from ..units import MS
from .fig02_variation import run as run_fig2
from .runner import bundle_for
from .setup import default_config


@dataclass(frozen=True)
class Fig3Result:
    actual_ms: List[float]
    predicted_ms: List[float]

    @property
    def n_jobs(self) -> int:
        return len(self.actual_ms)

    def lag_correlation(self) -> float:
        """Correlation of prediction error with the previous frame's
        change — positive when the controller chases spikes."""
        import numpy as np
        actual = np.asarray(self.actual_ms)
        predicted = np.asarray(self.predicted_ms)
        err = predicted - actual
        delta_prev = np.diff(actual, prepend=actual[0])
        if err.std() < 1e-12 or delta_prev.std() < 1e-12:
            return 0.0
        return float(np.corrcoef(err, -delta_prev)[0, 1])


def run(scale: Optional[float] = None, window: int = 35) -> Fig3Result:
    """Replay a tuned PID over a foreman window."""
    if scale is None:
        scale = default_config().scale
    bundle = bundle_for("h264", scale)
    gains = tune_pid(bundle.train_cycles)
    f0 = bundle.design.nominal_frequency
    # The pass's Fig 2 series: no frame is simulated twice.
    series = run_fig2(scale).series_ms["foreman"]
    pid = PidPredictor(gains)
    actual: List[float] = []
    predicted: List[float] = []
    for t_ms in series[:window]:
        cycles = t_ms * MS * f0
        guess = pid.predict()
        if guess is not None:
            actual.append(t_ms)
            predicted.append(guess / f0 / MS)
        pid.observe(cycles)
    return Fig3Result(actual_ms=actual, predicted_ms=predicted)


def to_text(result: Fig3Result) -> str:
    """Render the result the way the paper's figure reads."""
    lines = ["Fig 3: h264 actual vs PID-predicted execution time (ms)"]
    lines.append(f"  {'job':>4s} {'actual':>7s} {'pid':>7s} {'err%':>7s}")
    for i, (a, p) in enumerate(zip(result.actual_ms, result.predicted_ms)):
        lines.append(f"  {i:4d} {a:7.2f} {p:7.2f} {(p-a)/a*100:7.2f}")
    lines.append(f"  lag correlation: {result.lag_correlation():.2f}")
    return "\n".join(lines)
