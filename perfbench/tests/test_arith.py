"""The benchmark's own arithmetic: miss/failure shares, self time,
reconciliation, and the metric list it promises.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench import arith, layers, run


class FakeTime:
    """A perf_counter that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


@pytest.fixture
def fake_time(monkeypatch):
    fake = FakeTime()
    monkeypatch.setattr(layers.time, "perf_counter", fake.perf_counter)
    return fake


def test_on_time_counts_sheds_as_misses():
    # 100 offered: 3 finished late, 2 refused -> 95% on time.
    assert arith.on_time_pct(100, 3, 2) == pytest.approx(95.0)
    assert arith.on_time_pct(100, 0, 0) == 100.0
    assert arith.on_time_pct(10, 0, 10) == 0.0


def test_on_time_rejects_inconsistent_counts():
    with pytest.raises(ValueError):
        arith.on_time_pct(10, 6, 5)
    with pytest.raises(ValueError):
        arith.on_time_pct(0, 0, 0)


def test_ok_pct_is_the_complement_of_failed_share():
    assert arith.ok_pct(200, 0) == 100.0
    assert arith.ok_pct(200, 3) == pytest.approx(100.0 - 1.5)
    with pytest.raises(ValueError):
        arith.ok_pct(0, 0)
    with pytest.raises(ValueError):
        arith.ok_pct(5, 6)


def test_worst_under_and_saving():
    # Under-predictions of 10% and 5%; the over-prediction is ignored.
    assert arith.worst_under_pct([90, 95, 120], [100, 100, 100]) == \
        pytest.approx(10.0)
    assert arith.worst_under_pct([110], [100]) == 0.0
    assert arith.saving_pct(60.0, 100.0) == pytest.approx(40.0)
    assert arith.overhead_pct(1.1, 1.0) == pytest.approx(10.0)


def test_digest_sees_every_float_digit():
    assert arith.digest([(1, 0.1 + 0.2)]) != arith.digest([(1, 0.3)])
    assert arith.digest([(1, 0.5)]) == arith.digest([(1, 0.5)])


def test_self_time_subtracts_nested_spans(fake_time):
    clock = layers.LayerClock()
    with clock.span("bench.run"):            # 0 .. 10
        fake_time.now = 1.0
        with clock.span("fit"):              # 1 .. 6
            fake_time.now = 2.0
            with clock.span("model.solve"):  # 2 .. 5
                fake_time.now = 5.0
            fake_time.now = 6.0
        with clock.span("record", jobs=7):   # 6 .. 9
            fake_time.now = 7.0
            clock.charge(layers.OBS_LAYER, 0.5)
            fake_time.now = 9.0
        fake_time.now = 10.0
    assert clock.self_s["model.fit_s"] == pytest.approx(2.0 + 3.0)
    assert clock.self_s["analysis.record_s"] == pytest.approx(2.5)
    assert clock.self_s["obs.self_s"] == pytest.approx(0.5)
    assert clock.self_s[layers.UNATTRIBUTED] == pytest.approx(2.0)
    assert clock.counts["analysis.record_jobs"] == 7
    assert clock.root_s == 10.0
    assert layers.reconcile(clock.self_s, clock.root_s) == \
        pytest.approx(0.0)


def test_unknown_span_belongs_to_its_parent_layer(fake_time):
    clock = layers.LayerClock()
    with clock.span("fit"):
        with clock.span("lasso_path.pmap"):
            fake_time.now = 4.0
    with clock.span("cache.load"):
        fake_time.now = 5.0
    assert clock.self_s["model.fit_s"] == 4.0
    assert clock.self_s[layers.UNATTRIBUTED] == 1.0


def test_work_inside_a_check_is_check_time(fake_time):
    clock = layers.LayerClock()
    with clock.span("check.baseline"):
        with clock.span("serve.stream"):
            fake_time.now = 2.0
    assert clock.self_s["check.baseline_s"] == 2.0
    assert "serve.decide_s" not in clock.self_s


def test_reconcile_rejects_gaps_and_overlaps():
    with pytest.raises(ValueError, match="sum to"):
        layers.reconcile({"a": 1.0, "b": 1.0}, 3.0)
    with pytest.raises(ValueError, match="negative"):
        layers.reconcile({"a": 4.0, "b": -1.0}, 3.0)


def test_patches_restore_every_binding():
    import types

    module = types.SimpleNamespace(f=len)
    with layers.Patches() as patches:
        patches.replace(module, "f", abs)
        assert module.f is abs
    assert module.f is len


def test_benchmark_json_lists_what_run_prints():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == \
        {"reproduce", "serve_slice", "fleet_slo"}
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == run.PER_LAYER
    assert set(layers.SPAN_LAYERS.values()) <= set(run.PER_LAYER)
