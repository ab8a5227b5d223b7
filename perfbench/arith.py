"""The benchmark's arithmetic, kept apart from anything it measures."""

from __future__ import annotations

import hashlib
import statistics
from typing import Iterable, Sequence


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def on_time_pct(offered: int, missed: int, shed: int) -> float:
    """Share of offered jobs that finished by their deadline.

    A shed (refused) job counts as a miss: ``missed`` counts executed
    jobs that finished late, ``shed`` the refused ones.
    """
    if offered <= 0:
        raise ValueError("no jobs offered")
    if missed < 0 or shed < 0 or missed + shed > offered:
        raise ValueError(
            f"inconsistent counts: offered={offered} missed={missed} "
            f"shed={shed}")
    return 100.0 * (offered - missed - shed) / offered


def ok_pct(attempted: int, failed: int) -> float:
    """Share of attempted operations that did not fail (100 - failed%)."""
    if attempted <= 0:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return 100.0 * (attempted - failed) / attempted


def saving_pct(energy: float, baseline: float) -> float:
    """Energy saved relative to a baseline, in percent."""
    if baseline <= 0.0:
        raise ValueError("baseline energy must be positive")
    return 100.0 * (1.0 - energy / baseline)


def worst_under_pct(predicted: Iterable[float],
                    actual: Iterable[float]) -> float:
    """Largest under-prediction, in percent of the actual value
    (0 when nothing was under-predicted)."""
    worst = 0.0
    for p, a in zip(predicted, actual):
        if a > 0:
            worst = max(worst, 100.0 * (a - p) / a)
    return worst


def overhead_pct(slow_s: float, fast_s: float) -> float:
    """How much longer ``slow_s`` took than ``fast_s``, in percent."""
    if fast_s <= 0.0:
        raise ValueError("reference time must be positive")
    return 100.0 * (slow_s / fast_s - 1.0)


def digest(rows: Iterable[tuple]) -> str:
    """SHA-256 over the exact ``repr`` of each row (floats round-trip)."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def text_digest(text: str) -> str:
    """SHA-256 of a text output."""
    return hashlib.sha256(text.encode()).hexdigest()
