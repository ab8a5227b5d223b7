"""Serving-runtime throughput bench: jobs/s and decision latency.

Runs the online serving path end to end — realtime asyncio pacing,
per-job slice prediction on the live simulator, DVFS level selection,
stream accounting — against an open-loop Poisson load, and writes the
machine-readable perf record ``BENCH_serve.json`` at the repo root:
sustained jobs/s, p50/p99 wall-clock decision latency, and the
fallback/shed rates.

The rate-sustain acceptance gate (offered rate held within a few
percent) only fires on hosts with at least four CPUs; wall-clock
pacing on tiny CI runners is too noisy to assert against.  The
accounting and latency-sanity assertions run everywhere.
"""

import json
import os
import pathlib
import time

import pytest

from repro.check import check_fleet
from repro.experiments import bundle_for, make_controller, tech_context
from repro.serve import (
    AcceleratorStream,
    FleetConfig,
    LoadReport,
    RecordPredictor,
    ServeConfig,
    ShardSpec,
    SlicePredictor,
    build_mixed_stream,
    build_stream_jobs,
    poisson_arrivals,
    serve_fleet,
    serve_stream,
    virtual_outcomes,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_serve.json"

BENCHMARK = "cjpeg"
SCALE = 0.05
SCHEME = "prediction"
RATE = 200.0        # offered jobs/s (the acceptance criterion's rate)
DURATION = 3.0      # seconds of realtime serving
SEED = 11

ENOUGH_CPUS = (os.cpu_count() or 1) >= 4


@pytest.fixture(scope="session")
def serve_bench():
    """One realtime open-loop run at the acceptance-criterion load."""
    bundle = bundle_for(BENCHMARK, SCALE)
    ctx = tech_context(bundle, tech="asic")
    stream = AcceleratorStream(
        BENCHMARK, make_controller(ctx, SCHEME),
        ctx.energy_model, ctx.slice_energy_model,
        predictor=SlicePredictor(bundle.package),
        config=ServeConfig(deadline=ctx.config.deadline,
                           t_switch=ctx.config.t_switch))
    arrivals = poisson_arrivals(RATE, duration=DURATION, seed=SEED)
    jobs = build_stream_jobs(bundle, arrivals, with_inputs=True)
    result = serve_stream(stream, jobs, realtime=True)
    report = LoadReport.from_result(result, mode="open",
                                    offered_rate=RATE)
    return stream, result, report


def test_serve_accounting_is_clean(serve_bench):
    """Strict stream invariants hold under realtime load."""
    from tests.serve.conftest import violations_of

    stream, result, _ = serve_bench
    assert violations_of(stream, result) == []
    assert (result.n_completed + result.n_fallback + result.n_shed
            == result.n_offered)
    assert result.n_offered > 0


def test_decision_latency_is_sane(serve_bench):
    """Per-job decisions stay far below the 16.7 ms frame deadline."""
    _, result, report = serve_bench
    assert report.p50_decision_ms > 0.0
    assert report.p50_decision_ms <= report.p99_decision_ms
    assert report.p99_decision_ms < 50.0  # generous even for tiny CI


def test_sustains_offered_rate(serve_bench):
    """Acceptance: the offered 200 jobs/s is sustained in realtime."""
    if not ENOUGH_CPUS:
        pytest.skip("rate gate needs >= 4 CPUs for stable pacing")
    _, result, report = serve_bench
    # No shedding and a wall time within ~5% of the stream span means
    # the server kept pace with every arrival.
    assert report.n_shed == 0
    assert report.wall_s <= DURATION * 1.05
    assert report.n_completed + report.n_fallback == report.n_offered


def test_write_bench_serve_json(serve_bench):
    """Persist the machine-readable serving perf record — always."""
    _, result, report = serve_bench
    record = {
        "schema": 1,
        "benchmark": BENCHMARK,
        "scale": SCALE,
        "scheme": result.scheme,
        "offered_rate": RATE,
        "duration_s": DURATION,
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "n_offered": report.n_offered,
        "n_completed": report.n_completed,
        "n_fallback": report.n_fallback,
        "n_shed": report.n_shed,
        "jobs_per_s": report.wall_rate,
        "achieved_rate_virtual": report.achieved_rate,
        "p50_decision_ms": report.p50_decision_ms,
        "p99_decision_ms": report.p99_decision_ms,
        "max_decision_ms": report.max_decision_ms,
        "fallback_rate": report.fallback_rate,
        "shed_rate": report.shed_rate,
        "miss_rate": report.miss_rate,
        "wall_s": report.wall_s,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True)
                          + "\n")
    loaded = json.loads(BENCH_PATH.read_text())
    assert loaded["n_offered"] > 0
    assert loaded["jobs_per_s"] > 0.0
    assert loaded["p99_decision_ms"] >= loaded["p50_decision_ms"] > 0.0
    assert 0.0 <= loaded["fallback_rate"] <= 1.0


# -- fleet throughput: 4 shards vs the single-stream reference -------

FLEET_SHARDS = 4
FLEET_JOBS = 10_000
FLEET_RATE = 2_000.0   # virtual jobs/s: saturating, so compute-bound


@pytest.fixture(scope="session")
def fleet_bench():
    """The same offered stream three ways: one stream serially, the
    4-shard fleet serially, and the 4-shard fleet across 4 workers —
    all on the virtual clock, so wall time measures the serving
    machinery itself."""
    bundle = bundle_for(BENCHMARK, SCALE)
    ctx = tech_context(bundle, tech="asic")
    arrivals = poisson_arrivals(FLEET_RATE, n_jobs=FLEET_JOBS,
                                seed=SEED)
    serve_config = ServeConfig(deadline=ctx.config.deadline,
                               t_switch=ctx.config.t_switch)

    def make_specs():
        # Fresh controllers per run: reactive state must not leak.
        return [ShardSpec(
            name=f"{BENCHMARK}#{i}", benchmark=BENCHMARK,
            controller=make_controller(ctx, SCHEME),
            energy_model=ctx.energy_model,
            slice_energy_model=ctx.slice_energy_model,
            predictor=RecordPredictor(), config=serve_config)
            for i in range(FLEET_SHARDS)]

    stream = AcceleratorStream(
        BENCHMARK, make_controller(ctx, SCHEME),
        ctx.energy_model, ctx.slice_energy_model,
        predictor=RecordPredictor(), config=serve_config)
    t0 = time.perf_counter()
    single = serve_stream(stream, build_stream_jobs(bundle, arrivals))
    single_wall = time.perf_counter() - t0

    jobs = build_mixed_stream({BENCHMARK: bundle}, arrivals, seed=SEED)
    config = FleetConfig(policy="round_robin", strict=False)
    runs = {}
    for workers in (1, FLEET_SHARDS):
        t0 = time.perf_counter()
        runs[workers] = serve_fleet(make_specs(), jobs, config,
                                    workers=workers)
        runs[workers].wall_s = time.perf_counter() - t0
    return single, single_wall, runs


def test_fleet_accounting_is_clean(fleet_bench):
    single, _, runs = fleet_bench
    assert single.n_offered == FLEET_JOBS
    for result in runs.values():
        assert result.n_offered == FLEET_JOBS
        assert (result.n_completed + result.n_fallback + result.n_shed
                == FLEET_JOBS)
        assert check_fleet(result) == []


def test_fleet_outcomes_bit_identical_across_workers(fleet_bench):
    """Acceptance: under round-robin, a 4-worker run reproduces the
    serial reference per-job — same routing, same sheds, and
    bit-identical virtual outcomes on every shard."""
    _, _, runs = fleet_bench
    serial, parallel = runs[1], runs[FLEET_SHARDS]
    assert serial.assignments == parallel.assignments
    assert serial.sheds == parallel.sheds
    for a, b in zip(serial.shards, parallel.shards):
        assert virtual_outcomes(a) == virtual_outcomes(b)


def test_fleet_beats_single_stream_2x(fleet_bench):
    """Acceptance: 4 shards sustain at least twice the single-stream
    jobs/s (gated to hosts with real parallelism)."""
    if not ENOUGH_CPUS:
        pytest.skip("speedup gate needs >= 4 CPUs")
    _, single_wall, runs = fleet_bench
    single_rate = FLEET_JOBS / single_wall
    fleet_rate = FLEET_JOBS / runs[FLEET_SHARDS].wall_s
    assert fleet_rate >= 2.0 * single_rate


def test_write_bench_fleet_json(fleet_bench):
    """Fold the fleet figures into BENCH_serve.json (read-modify-
    write: the single-stream record may already be there)."""
    _, single_wall, runs = fleet_bench
    record = (json.loads(BENCH_PATH.read_text())
              if BENCH_PATH.exists() else {"schema": 1})
    parallel = runs[FLEET_SHARDS]
    record["fleet"] = {
        "shards": FLEET_SHARDS,
        "policy": parallel.policy,
        "n_jobs": FLEET_JOBS,
        "offered_rate_virtual": FLEET_RATE,
        "cpu_count": os.cpu_count(),
        "single_stream_jobs_per_s": FLEET_JOBS / single_wall,
        "fleet_serial_jobs_per_s": FLEET_JOBS / runs[1].wall_s,
        "fleet_parallel_jobs_per_s": FLEET_JOBS / parallel.wall_s,
        "n_completed": parallel.n_completed,
        "n_fallback": parallel.n_fallback,
        "n_shed": parallel.n_shed,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True)
                          + "\n")
    loaded = json.loads(BENCH_PATH.read_text())["fleet"]
    assert loaded["fleet_parallel_jobs_per_s"] > 0.0
    assert loaded["single_stream_jobs_per_s"] > 0.0
    assert (loaded["n_completed"] + loaded["n_fallback"]
            + loaded["n_shed"] == FLEET_JOBS)
