"""Arrival processes and stream construction."""

import pytest

from repro.serve import (
    StreamJob,
    burst_arrivals,
    poisson_arrivals,
    stream_from_records,
    trace_replay,
)
from tests.conftest import job


def test_poisson_deterministic_in_seed():
    a = poisson_arrivals(50.0, duration=2.0, seed=7)
    b = poisson_arrivals(50.0, duration=2.0, seed=7)
    c = poisson_arrivals(50.0, duration=2.0, seed=8)
    assert a == b
    assert a != c


def test_poisson_duration_bound():
    times = poisson_arrivals(100.0, duration=1.5, seed=0)
    assert all(0.0 < t < 1.5 for t in times)
    assert times == sorted(times)
    # Law of large numbers, loosely: ~150 arrivals expected.
    assert 100 < len(times) < 210


def test_poisson_n_jobs_bound():
    times = poisson_arrivals(100.0, n_jobs=37, seed=3)
    assert len(times) == 37
    assert times == sorted(times)


def test_poisson_mean_rate():
    times = poisson_arrivals(200.0, n_jobs=4000, seed=1)
    mean_gap = times[-1] / len(times)
    assert mean_gap == pytest.approx(1.0 / 200.0, rel=0.1)


def test_poisson_argument_validation():
    with pytest.raises(ValueError, match="exactly one"):
        poisson_arrivals(10.0, duration=1.0, n_jobs=5)
    with pytest.raises(ValueError, match="exactly one"):
        poisson_arrivals(10.0)
    with pytest.raises(ValueError, match="rate"):
        poisson_arrivals(0.0, duration=1.0)


def test_burst_preserves_average_rate():
    times = burst_arrivals(200.0, duration=20.0, seed=2)
    assert len(times) / 20.0 == pytest.approx(200.0, rel=0.15)
    assert times == sorted(times)
    assert all(0.0 <= t < 20.0 for t in times)


def test_burst_has_silent_phases():
    """Every arrival lands inside the on-phase of its period."""
    period, duty = 1.0, 0.3
    times = burst_arrivals(100.0, duration=10.0, seed=5,
                           period=period, duty=duty)
    assert times  # a 10 s window at 100/s is never empty
    for t in times:
        assert (t % period) <= period * duty + 1e-9


def test_burst_argument_validation():
    with pytest.raises(ValueError, match="duty"):
        burst_arrivals(10.0, duration=1.0, duty=0.0)
    with pytest.raises(ValueError, match="period"):
        burst_arrivals(10.0, duration=1.0, period=-1.0)


def test_trace_replay_sorts_and_compresses():
    assert trace_replay([3.0, 1.0, 2.0]) == [1.0, 2.0, 3.0]
    assert trace_replay([2.0, 4.0], speed=2.0) == [1.0, 2.0]
    with pytest.raises(ValueError, match="speed"):
        trace_replay([1.0], speed=0.0)
    with pytest.raises(ValueError, match="negative"):
        trace_replay([-1.0, 2.0])


def test_stream_job_rejects_negative_arrival():
    with pytest.raises(ValueError, match="negative"):
        StreamJob(index=0, record=job(0, 100), arrival=-0.5)


def test_stream_from_records_cycles_and_reindexes():
    records = [job(0, 100), job(1, 200)]
    jobs = stream_from_records(records, [0.3, 0.1, 0.2, 0.4, 0.5])
    assert [j.index for j in jobs] == [0, 1, 2, 3, 4]
    assert [j.record.index for j in jobs] == [0, 1, 2, 3, 4]
    # Arrivals sorted, records cycled in order.
    assert [j.arrival for j in jobs] == [0.1, 0.2, 0.3, 0.4, 0.5]
    assert [j.record.actual_cycles for j in jobs] == \
        [100, 200, 100, 200, 100]


def test_stream_from_records_validation():
    with pytest.raises(ValueError, match="zero records"):
        stream_from_records([], [0.1])
    with pytest.raises(ValueError, match="1:1"):
        stream_from_records([job(0, 100)], [0.1], inputs=[None, None])


# -- variable-frame-rate arrivals ------------------------------------

def test_vfr_deterministic_and_sorted():
    from repro.serve import vfr_arrivals

    a = vfr_arrivals(60.0, n_jobs=200, seed=4)
    b = vfr_arrivals(60.0, n_jobs=200, seed=4)
    c = vfr_arrivals(60.0, n_jobs=200, seed=5)
    assert a == b
    assert a != c
    assert len(a) == 200
    assert a == sorted(a)
    assert a[0] > 0.0


def test_vfr_gaps_bounded_by_floor_and_ceil():
    from repro.serve import vfr_arrivals

    rate, floor, ceil = 100.0, 0.5, 2.0
    times = vfr_arrivals(rate, n_jobs=500, seed=9,
                         jitter=0.4, floor=floor, ceil=ceil)
    gaps = [b - a for a, b in zip([0.0] + times[:-1], times)]
    for gap in gaps:
        assert 1.0 / (rate * ceil) - 1e-12 <= gap \
            <= 1.0 / (rate * floor) + 1e-12


def test_vfr_gaps_are_correlated_not_poisson():
    """Consecutive gaps come from a random walk: the lag-1
    autocorrelation is clearly positive (Poisson gaps have none)."""
    import numpy as np

    from repro.serve import vfr_arrivals

    times = vfr_arrivals(60.0, n_jobs=2000, seed=11, jitter=0.2)
    gaps = np.diff(np.array([0.0] + times))
    x, y = gaps[:-1] - gaps.mean(), gaps[1:] - gaps.mean()
    rho = float((x * y).mean() / gaps.var())
    assert rho > 0.5


def test_vfr_argument_validation():
    from repro.serve import vfr_arrivals

    with pytest.raises(ValueError, match="rate"):
        vfr_arrivals(0.0, n_jobs=5)
    with pytest.raises(ValueError, match="n_jobs"):
        vfr_arrivals(10.0, n_jobs=0)
    with pytest.raises(ValueError, match="jitter"):
        vfr_arrivals(10.0, n_jobs=5, jitter=-0.1)
    with pytest.raises(ValueError, match="floor"):
        vfr_arrivals(10.0, n_jobs=5, floor=1.5)


# -- adversarial size ordering ---------------------------------------

def _sized_records(sizes):
    return [job(i, c) for i, c in enumerate(sizes)]


def test_adversarial_front_loaded_descends():
    from repro.serve import adversarial_order

    records = _sized_records([30, 10, 50, 20, 40])
    out = adversarial_order(records, "front_loaded", seed=0)
    assert [r.actual_cycles for r in out] == [50, 40, 30, 20, 10]
    # A permutation: same records, same indices, just reordered.
    assert sorted(r.index for r in out) == [0, 1, 2, 3, 4]


def test_adversarial_ramp_ascends():
    from repro.serve import adversarial_order

    records = _sized_records([30, 10, 50, 20, 40])
    out = adversarial_order(records, "ramp", seed=0)
    assert [r.actual_cycles for r in out] == [10, 20, 30, 40, 50]


def test_adversarial_alternating_interleaves():
    from repro.serve import adversarial_order

    records = _sized_records([30, 10, 50, 20, 40])
    out = adversarial_order(records, "alternating", seed=0)
    assert [r.actual_cycles for r in out] == [50, 10, 40, 20, 30]


def test_adversarial_tie_break_is_seeded():
    from repro.serve import adversarial_order

    records = _sized_records([7, 7, 7, 7, 7, 7, 7, 7])
    a = [r.index for r in adversarial_order(records, "ramp", seed=1)]
    b = [r.index for r in adversarial_order(records, "ramp", seed=1)]
    assert a == b
    seeds = {tuple(r.index for r in
                   adversarial_order(records, "ramp", seed=s))
             for s in range(8)}
    assert len(seeds) > 1  # ties genuinely shuffle across seeds


def test_adversarial_argument_validation():
    from repro.serve import adversarial_order

    with pytest.raises(ValueError, match="unknown adversarial mode"):
        adversarial_order(_sized_records([1]), "chaotic")
    with pytest.raises(ValueError, match="zero records"):
        adversarial_order([], "ramp")


# -- mixed-deadline service classes ----------------------------------

def test_split_by_deadline_partitions_every_record():
    from repro.serve import DeadlineClass, split_by_deadline

    records = _sized_records(range(1, 101))
    classes = (DeadlineClass("tight", 0.002, weight=1.0),
               DeadlineClass("loose", 0.016, weight=3.0))
    parts = split_by_deadline(records, classes, seed=6)
    assert set(parts) == {"tight", "loose"}
    merged = sorted(r.index for part in parts.values() for r in part)
    assert merged == list(range(100))  # indices are 0..99  # a partition, nothing doubled
    # Weights bias the draw ~3:1.
    assert len(parts["loose"]) > len(parts["tight"])


def test_split_by_deadline_never_leaves_a_class_empty():
    from repro.serve import DeadlineClass, split_by_deadline

    records = _sized_records([5, 6])
    classes = (DeadlineClass("a", 0.01, weight=1000.0),
               DeadlineClass("b", 0.01, weight=0.001))
    parts = split_by_deadline(records, classes, seed=0)
    assert len(parts["a"]) == 1 and len(parts["b"]) == 1


def test_split_by_deadline_is_deterministic():
    from repro.serve import DeadlineClass, split_by_deadline

    records = _sized_records(range(1, 41))
    classes = (DeadlineClass("a", 0.01), DeadlineClass("b", 0.02))
    a = split_by_deadline(records, classes, seed=3)
    b = split_by_deadline(records, classes, seed=3)
    assert {k: [r.index for r in v] for k, v in a.items()} \
        == {k: [r.index for r in v] for k, v in b.items()}


def test_split_by_deadline_argument_validation():
    from repro.serve import DeadlineClass, split_by_deadline

    with pytest.raises(ValueError, match="deadline must be positive"):
        DeadlineClass("x", 0.0)
    with pytest.raises(ValueError, match="weight must be positive"):
        DeadlineClass("x", 0.01, weight=0.0)
    with pytest.raises(ValueError, match="at least one"):
        split_by_deadline(_sized_records([1]), ())
    with pytest.raises(ValueError, match="unique"):
        split_by_deadline(_sized_records([1, 2]),
                          (DeadlineClass("a", 0.1),
                           DeadlineClass("a", 0.2)))
    with pytest.raises(ValueError, match="cannot cover"):
        split_by_deadline(_sized_records([1]),
                          (DeadlineClass("a", 0.1),
                           DeadlineClass("b", 0.2)))


def test_vfr_arrival_times_are_pinned():
    """The rate walk clamps through ``workloads.rng.clip``; the arrival
    times must stay bit-for-bit what ``float(np.clip(...))`` gave.  The
    walk hits both clamps (2,000 steps of log-sd 0.25)."""
    import hashlib
    import struct

    from repro.serve import vfr_arrivals

    times = vfr_arrivals(30.0, n_jobs=2000, seed=7)
    packed = struct.pack(f"<{len(times)}d", *times)
    assert hashlib.sha256(packed).hexdigest() == (
        "30435fb039bef7763768bdaacba3506c58a8c46fccde6a8f3c743d959605458f")
