"""Metrics primitives: counters, gauges, and streaming histograms.

The :class:`MetricsRegistry` is the single sink every instrumented
layer writes to.  Counters and gauges are plain floats; histograms use
a log-bucketed sketch (DDSketch-style) so p50/p95/p99 come out with a
bounded *relative* error without storing individual samples — a run
over millions of jobs costs a few hundred buckets, not millions of
floats.
"""

from __future__ import annotations

import math
from typing import Dict, Optional


class StreamingHistogram:
    """A mergeable quantile sketch over log-spaced buckets.

    Values are mapped to buckets whose boundaries grow geometrically
    by ``gamma = (1 + a) / (1 - a)`` where ``a`` is the requested
    relative accuracy; any quantile estimate is then within ``a`` of
    the true value *relatively* (DDSketch's guarantee).  Negative
    values use a mirrored bucket table and zero gets its own bucket,
    so slack-style signed series work unmodified.
    """

    def __init__(self, relative_accuracy: float = 0.005):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")
        self.relative_accuracy = relative_accuracy
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._positive: Dict[int, int] = {}
        self._negative: Dict[int, int] = {}
        self._zeros = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _bucket(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def _representative(self, index: int) -> float:
        # Midpoint (harmonically) of the bucket [g^(i-1), g^i]: within
        # ``relative_accuracy`` of every value that landed in it.
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def observe(self, value: float) -> None:
        """Add one sample."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            index = self._bucket(value)
            self._positive[index] = self._positive.get(index, 0) + 1
        elif value < 0.0:
            index = self._bucket(-value)
            self._negative[index] = self._negative.get(index, 0) + 1
        else:
            self._zeros += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (exact, not sketched)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * (self.count - 1)
        cumulative = -1.0
        # Ascending value order: most-negative first (descending
        # magnitude), then zeros, then positives (ascending magnitude).
        for index in sorted(self._negative, reverse=True):
            cumulative += self._negative[index]
            if cumulative >= rank:
                return self._clamp(-self._representative(index))
        cumulative += self._zeros
        if cumulative >= rank:
            return self._clamp(0.0)
        for index in sorted(self._positive):
            cumulative += self._positive[index]
            if cumulative >= rank:
                return self._clamp(self._representative(index))
        return self.max  # numerical belt-and-braces

    def _clamp(self, value: float) -> float:
        return min(max(value, self.min), self.max)

    def snapshot(self) -> Dict[str, float]:
        """Summary dict: count, mean, min/max and the headline
        quantiles."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def to_dict(self) -> Dict[str, object]:
        """Full bucket-level state, JSON-ready and lossless.

        Unlike :meth:`snapshot` (a human summary), this round-trips
        through :meth:`from_dict` bit-exactly — bucket keys become
        strings for JSON, and the empty sketch's ``min``/``max``
        sentinels (``±inf``) become ``None`` so the payload stays
        strict-JSON parseable.
        """
        return {
            "relative_accuracy": self.relative_accuracy,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "zeros": self._zeros,
            "positive": {str(i): n for i, n in self._positive.items()},
            "negative": {str(i): n for i, n in self._negative.items()},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StreamingHistogram":
        """Rebuild a sketch from :meth:`to_dict` output.

        Restores the bucket tables *and* the exact ``min``/``max`` —
        without them a deserialized sketch whose samples all sat in
        one side (or that carried no buckets at all) would answer
        ``quantile`` from the ``-inf`` sentinel.
        """
        hist = cls(relative_accuracy=float(
            payload.get("relative_accuracy", 0.005)))
        hist.count = int(payload.get("count", 0))
        hist.total = float(payload.get("total", 0.0))
        minimum = payload.get("min")
        maximum = payload.get("max")
        hist.min = math.inf if minimum is None else float(minimum)
        hist.max = -math.inf if maximum is None else float(maximum)
        hist._zeros = int(payload.get("zeros", 0))
        hist._positive = {int(i): int(n) for i, n
                          in (payload.get("positive") or {}).items()}
        hist._negative = {int(i): int(n) for i, n
                          in (payload.get("negative") or {}).items()}
        return hist

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold ``other``'s samples into this sketch, in place.

        Bucket-level addition: the merged sketch is exactly what one
        sketch observing both sample streams would hold, which is what
        lets pool workers sketch independently and the parent combine
        them.  Requires matching bucket geometry.
        """
        if other.count == 0:
            return
        if not math.isclose(other.relative_accuracy,
                            self.relative_accuracy):
            raise ValueError(
                f"cannot merge sketches with different accuracies "
                f"({self.relative_accuracy} vs {other.relative_accuracy})")
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._zeros += other._zeros
        for index, n in other._positive.items():
            self._positive[index] = self._positive.get(index, 0) + n
        for index, n in other._negative.items():
            self._negative[index] = self._negative.get(index, 0) + n


class MetricsRegistry:
    """Named counters, gauges, and histograms for one run."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, StreamingHistogram] = {}

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        self.gauges[name] = float(value)

    def raise_gauge(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if that is larger: a
        running maximum.  The name must end in ``_max``, which is how
        :meth:`merge_dict` knows to keep the larger value."""
        if not name.endswith("_max"):
            raise ValueError(f"a running-maximum gauge must end in "
                             f"'_max', got {name!r}")
        value = float(value)
        if value > self.gauges.get(name, -math.inf):
            self.gauges[name] = value

    def histogram(self, name: str) -> StreamingHistogram:
        """Get (or lazily create) the histogram called ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = StreamingHistogram()
        return hist

    def observe(self, name: str, value: float) -> None:
        """Add a sample to histogram ``name``."""
        self.histogram(name).observe(value)

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-ready view of every metric (histograms summarized)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.snapshot()
                for name, hist in self.histograms.items()
            },
        }

    def to_dict(self) -> Dict[str, Dict]:
        """Lossless registry state (histograms at bucket level).

        The shape :meth:`merge_dict` consumes — what a pool worker
        ships back with each chunk result so no telemetry dies with
        the worker process.
        """
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.to_dict()
                for name, hist in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Dict]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        registry.merge_dict(payload)
        return registry

    def merge_dict(self, payload: Dict[str, Dict]) -> None:
        """Fold a :meth:`to_dict` payload into this registry.

        Counters add, histograms merge bucket-for-bucket, ``*_max``
        gauges keep the larger value, and other gauges take the
        incoming value (latest writer wins — callers that must keep
        their own gauges set them after merging).
        """
        for name, value in (payload.get("counters") or {}).items():
            self.inc(name, float(value))
        for name, value in (payload.get("gauges") or {}).items():
            if name.endswith("_max"):
                self.raise_gauge(name, value)
            else:
                self.set_gauge(name, float(value))
        for name, hist_payload in (payload.get("histograms") or {}).items():
            incoming = StreamingHistogram.from_dict(hist_payload)
            existing = self.histograms.get(name)
            if existing is None:
                # Adopt wholesale: keeps the sender's bucket geometry
                # instead of forcing the default accuracy on it.
                self.histograms[name] = incoming
            else:
                existing.merge(incoming)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (see :meth:`merge_dict`)."""
        self.merge_dict(other.to_dict())
