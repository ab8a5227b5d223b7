"""The paper's DVFS model (Sec. 3.6).

Execution time decomposes as ``T = T_memory + C / f``; for the studied
accelerators memory time is negligible (compute-intensive designs with
DMA-managed scratchpads), so ``T0 = C / f0`` and the target frequency
for a job with predicted nominal-frequency time ``T0`` is::

    f = ceil_level( f0 * (T0 + T_margin) / (T_budget - T_slice - T_dvfs) )

where ``ceil_level`` rounds up to the next discrete operating point,
``T_slice`` is the time to run the prediction slice and ``T_dvfs`` the
voltage/frequency switching time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .levels import LevelTable, OperatingPoint


@dataclass(frozen=True)
class DvfsDecision:
    """Outcome of level selection for one job."""

    point: OperatingPoint
    feasible: bool  # False when even the fastest level cannot make it
    f_required: float


def required_frequency(predicted_cycles: float, f_nominal: float,
                       budget: float, margin_fraction: float = 0.0,
                       t_slice: float = 0.0,
                       t_switch: float = 0.0) -> float:
    """The minimum frequency meeting the deadline, before rounding.

    ``predicted_cycles`` is the predicted execution cycle count C (so
    ``T0 = C / f0`` cancels f0: f = C * (1 + margin) / T_avail).
    """
    if predicted_cycles < 0:
        predicted_cycles = 0.0
    available = budget - t_slice - t_switch
    if available <= 0:
        return float("inf")
    cycles_with_margin = predicted_cycles * (1.0 + margin_fraction)
    return cycles_with_margin / available


def select_level(levels: LevelTable, predicted_cycles: float,
                 budget: float, margin_fraction: float = 0.0,
                 t_slice: float = 0.0, t_switch: float = 0.0,
                 allow_boost: bool = False) -> DvfsDecision:
    """Pick the lowest operating point meeting the deadline.

    Falls back to the fastest allowed point (boost if enabled) when no
    level is fast enough — running flat-out minimizes the damage.
    """
    f_req = required_frequency(
        predicted_cycles, levels.nominal.frequency, budget,
        margin_fraction=margin_fraction, t_slice=t_slice,
        t_switch=t_switch,
    )
    point = levels.lowest_meeting(f_req, allow_boost=allow_boost)
    if point is None:
        return DvfsDecision(
            point=levels.fastest(allow_boost=allow_boost),
            feasible=False,
            f_required=f_req,
        )
    return DvfsDecision(point=point, feasible=True, f_required=f_req)
