"""Streaming histogram accuracy and registry behaviour."""

import json
import math

import numpy as np
import pytest

from repro.obs import MetricsRegistry, StreamingHistogram


@pytest.mark.parametrize("dist", ["lognormal", "uniform", "normal"])
def test_quantiles_match_numpy(dist):
    rng = np.random.default_rng(42)
    if dist == "lognormal":
        samples = rng.lognormal(mean=10.0, sigma=1.5, size=20_000)
    elif dist == "uniform":
        samples = rng.uniform(1e-3, 1e3, size=20_000)
    else:
        samples = rng.normal(0.0, 50.0, size=20_000)  # signed values

    hist = StreamingHistogram(relative_accuracy=0.005)
    for value in samples:
        hist.observe(float(value))

    for q in (0.50, 0.95, 0.99):
        exact = float(np.quantile(samples, q))
        estimate = hist.quantile(q)
        # DDSketch guarantee: relative error <= accuracy (plus the
        # rank-interpolation difference vs numpy on finite samples).
        scale = max(abs(exact), 1e-9)
        assert abs(estimate - exact) / scale < 0.02, (q, exact, estimate)


def test_histogram_exact_stats():
    hist = StreamingHistogram()
    for value in (1.0, 2.0, 3.0, -4.0, 0.0):
        hist.observe(value)
    assert hist.count == 5
    assert hist.mean == pytest.approx(0.4)
    assert hist.min == -4.0 and hist.max == 3.0
    assert hist.quantile(0.0) == pytest.approx(-4.0, rel=0.02)
    assert hist.quantile(1.0) == pytest.approx(3.0, rel=0.02)


def test_histogram_empty_and_validation():
    hist = StreamingHistogram()
    assert hist.quantile(0.5) == 0.0
    assert hist.snapshot() == {"count": 0}
    with pytest.raises(ValueError):
        hist.quantile(1.5)
    with pytest.raises(ValueError):
        StreamingHistogram(relative_accuracy=0.0)


def test_histogram_memory_is_bounded():
    """The sketch stores buckets, not samples."""
    hist = StreamingHistogram(relative_accuracy=0.01)
    rng = np.random.default_rng(7)
    for value in rng.lognormal(5.0, 2.0, size=50_000):
        hist.observe(float(value))
    assert len(hist._positive) < 2_000  # vs 50k raw samples


def test_histogram_to_from_dict_round_trip_is_lossless():
    hist = StreamingHistogram(relative_accuracy=0.01)
    for value in (-5.0, 0.0, 1.0, 2.5, 1e6):
        hist.observe(value)
    payload = json.loads(json.dumps(hist.to_dict()))  # strict JSON
    back = StreamingHistogram.from_dict(payload)
    assert back.snapshot() == hist.snapshot()
    assert back.to_dict() == hist.to_dict()


def test_empty_histogram_round_trip_keeps_sentinels():
    back = StreamingHistogram.from_dict(StreamingHistogram().to_dict())
    assert back.count == 0
    assert back.quantile(0.5) == 0.0
    assert back.min == math.inf and back.max == -math.inf


def test_deserialized_sketch_quantile_never_returns_inf():
    # Regression: the quantile fallthrough returns ``self.max``, so a
    # payload whose buckets were stripped (count kept) used to answer
    # from the -inf sentinel when min/max were not restored.
    hist = StreamingHistogram()
    hist.observe(3.0)
    payload = hist.to_dict()
    payload["positive"] = {}
    back = StreamingHistogram.from_dict(payload)
    assert math.isfinite(back.quantile(0.99))
    assert back.quantile(0.99) == 3.0  # the restored max


def test_histogram_merge_equals_single_combined_sketch():
    rng = np.random.default_rng(3)
    samples = rng.lognormal(2.0, 1.0, size=2_000)
    a = StreamingHistogram(relative_accuracy=0.01)
    b = StreamingHistogram(relative_accuracy=0.01)
    combined = StreamingHistogram(relative_accuracy=0.01)
    for i, value in enumerate(samples):
        (a if i % 2 else b).observe(float(value))
        combined.observe(float(value))
    a.merge(b)
    merged, direct = a.to_dict(), combined.to_dict()
    # Totals differ only by float summation order.
    assert merged.pop("total") == pytest.approx(direct.pop("total"))
    assert merged == direct
    for q in (0.5, 0.95, 0.99):
        assert a.quantile(q) == combined.quantile(q)


def test_histogram_merge_empty_is_noop_mismatch_raises():
    a = StreamingHistogram(relative_accuracy=0.01)
    a.observe(1.0)
    a.merge(StreamingHistogram(relative_accuracy=0.005))  # empty: ok
    assert a.count == 1
    b = StreamingHistogram(relative_accuracy=0.005)
    b.observe(2.0)
    with pytest.raises(ValueError, match="different accuracies"):
        a.merge(b)


def test_registry_merge_semantics():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.inc("n", 2)
    b.inc("n", 3)
    b.inc("only_b")
    a.set_gauge("g", 1.0)
    b.set_gauge("g", 2.0)
    b.observe("h", 5.0)
    a.merge(b)
    assert a.counters["n"] == 5.0          # counters add
    assert a.counters["only_b"] == 1.0
    assert a.gauges["g"] == 2.0            # latest writer wins
    assert a.histograms["h"].count == 1    # adopted wholesale
    back = MetricsRegistry.from_dict(a.to_dict())
    assert back.to_dict() == a.to_dict()


def test_running_max_gauge_keeps_the_largest_value_across_merges():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.raise_gauge("kkt_max", 0.5)
    a.raise_gauge("kkt_max", 0.25)         # a smaller value is ignored
    b.raise_gauge("kkt_max", 0.125)
    assert a.gauges["kkt_max"] == 0.5
    a.merge(b)                             # ``_max`` gauges keep the max
    assert a.gauges["kkt_max"] == 0.5
    b.raise_gauge("kkt_max", 2.0)
    a.merge(b)
    assert a.gauges["kkt_max"] == 2.0
    with pytest.raises(ValueError, match="_max"):
        a.raise_gauge("kkt", 1.0)


def test_registry_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.inc("jobs")
    registry.inc("jobs", 4)
    registry.set_gauge("gamma", 0.25)
    registry.set_gauge("gamma", 0.5)
    for value in range(100):
        registry.observe("latency", float(value))
    snap = registry.snapshot()
    assert snap["counters"]["jobs"] == 5.0
    assert snap["gauges"]["gamma"] == 0.5
    assert snap["histograms"]["latency"]["count"] == 100
    assert snap["histograms"]["latency"]["p50"] == pytest.approx(
        49.5, abs=2.0)
    # Same name returns the same histogram object.
    assert registry.histogram("latency") is registry.histogram("latency")
