"""Simulation-kernel benches: interp vs stepjit vs batch.

Measures per-design simulation throughput (cycles/sec) under each
scalar backend, the batch backend's lockstep throughput across batch
widths, asserts exactness unconditionally, and writes the machine-
readable perf record ``BENCH_sim.json`` at the repo root — per-design
cycles/sec per scalar backend (fast-forward on and off), stepjit
codegen time, batch width-sweep rows (jobs/sec and cycles/sec at
widths 1/32/256/1000), the dense-path and record-path batch gates,
cold/warm offline-flow wall time, and a ``host`` provenance block
(numpy version, BLAS thread caps, cpu count) so numbers are
comparable across machines.

The scalar sweep iterates every backend in ``rtl.BACKENDS`` except
``batch``, which one-job-at-a-time scalar probes would misrepresent:
its native shape is the wide batch, measured by the width sweep and
the two gates below.

Hard speedup gates (stepjit >= 5x interp; batch >= 5x stepjit on both
the dense ff-off path and the 1000-job record path) only run on hosts
with at least four CPUs; on tiny CI runners wall-clock ratios are too
noisy to assert against.
"""

import json
import os
import pathlib
import time

import numpy as np
import pytest

from repro.accelerators import get_design
from repro.analysis import discover_features, record_jobs
from repro.flow import FlowConfig, generate_predictor
from repro.parallel import ArtifactCache, set_cache
from repro.rtl import (
    BACKENDS,
    BatchSimulation,
    compile_stepper,
    make_simulation,
    synthesize,
)
from repro.workloads import workload_for

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_sim.json"

#: Designs the kernel gate is measured on (largest + most distinct).
KERNEL_DESIGNS = ("h264", "djpeg", "aes", "sha")
SCALAR_BACKENDS = tuple(b for b in BACKENDS if b != "batch")
SCALE = 0.05
JOBS_PER_DESIGN = 3

#: The batch benches run on the design the acceptance gate names.
BATCH_DESIGN = "cjpeg"
BATCH_WIDTHS = (1, 32, 256, 1000)
BATCH_JOBS = 1000

#: Hard speedup assertions need a quiet multi-core host.
ENOUGH_CPUS = (os.cpu_count() or 1) >= 4


#: Cycle cap for the fast-forward-off throughput probes.  Without the
#: jump the kernels grind through every stall cycle, so full jobs
#: (millions of cycles) would take minutes per design; a capped run
#: measures steady-state cycles/sec just as well.  Cross-backend
#: exactness with fast-forward off is gated separately (the fuzz and
#: equivalence suites), so completion is only asserted with it on.
FF_OFF_CYCLE_CAP = 120_000

#: Dense-path gate probe: every job runs exactly this many cycles
#: under both backends, so the cycles/sec ratio is the jobs/sec ratio.
DENSE_CYCLE_CAP = 3_000
DENSE_JOBS = 200


def _host_block():
    """Provenance for cross-machine comparison of the numbers."""
    return {
        "numpy": np.__version__,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }


def _measure_backend(module, jobs, backend, fast_forward):
    sim = make_simulation(module, backend=backend,
                          track_state_cycles=False,
                          fast_forward=fast_forward)
    max_cycles = 200_000_000 if fast_forward else FF_OFF_CYCLE_CAP
    # Warm once: stepjit codegen, wire memo tables, allocator noise.
    sim.load(*jobs[0])
    warm_cycles = sim.run(max_cycles=max_cycles).cycles
    start = time.perf_counter()
    cycles = 0
    for inputs, memories in jobs:
        sim.reset()
        sim.load(inputs=inputs, memories=memories)
        result = sim.run(max_cycles=max_cycles)
        if fast_forward:
            assert result.finished
        cycles += result.cycles
    wall_s = time.perf_counter() - start
    return {
        "cycles": cycles,
        "wall_s": wall_s,
        "cycles_per_sec": cycles / wall_s if wall_s > 0 else 0.0,
        "warm_job_cycles": warm_cycles,
    }


@pytest.fixture(scope="session")
def kernel_results():
    """Per-design, per-scalar-backend throughput (both ff modes)."""
    results = {}
    for name in KERNEL_DESIGNS:
        design = get_design(name)
        module = design.build()
        jobs = [design.encode_job(item).as_pair()
                for item in workload_for(name, scale=SCALE)
                .test[:JOBS_PER_DESIGN]]
        per_backend = {}
        for backend in SCALAR_BACKENDS:
            per_backend[backend] = {
                "ff_on": _measure_backend(module, jobs, backend, True),
                "ff_off": _measure_backend(module, jobs, backend, False),
            }
        program = compile_stepper(module, track_state_cycles=False)
        results[name] = {
            "backends": per_backend,
            "stepjit_codegen_s": program.codegen_s,
            "n_jobs": len(jobs),
        }
    return results


@pytest.fixture(scope="session")
def batch_parts():
    """The batch-bench design, module, and 1000-job tiled workload."""
    design = get_design(BATCH_DESIGN)
    module = design.build()
    base = [design.encode_job(item).as_pair()
            for item in workload_for(BATCH_DESIGN, scale=SCALE).train]
    jobs = (base * (BATCH_JOBS // len(base) + 1))[:BATCH_JOBS]
    return design, module, jobs


@pytest.fixture(scope="session")
def batch_width_sweep(batch_parts):
    """Full-job batch throughput per width, fast-forward on.

    Small widths use a bounded job sample (lockstep overhead per call
    dwarfs the per-row work there); jobs/sec normalizes them out.
    """
    _design, module, jobs = batch_parts
    sim = BatchSimulation(module, events=False)
    sweep = []
    for width in BATCH_WIDTHS:
        sample = jobs[:min(len(jobs), max(width * 10, 32))]
        chunks = [sample[i:i + width]
                  for i in range(0, len(sample), width)]
        sim.run_jobs(chunks[0])  # warm: codegen + allocator noise
        start = time.perf_counter()
        cycles = 0
        for chunk in chunks:
            result = sim.run_jobs(chunk)
            assert result.finished.all()
            cycles += int(result.cycles.sum())
        wall_s = time.perf_counter() - start
        sweep.append({
            "width": width,
            "n_jobs": len(sample),
            "wall_s": wall_s,
            "jobs_per_sec": len(sample) / wall_s if wall_s > 0 else 0.0,
            "cycles_per_sec": cycles / wall_s if wall_s > 0 else 0.0,
        })
    return sweep


@pytest.fixture(scope="session")
def batch_dense_path(batch_parts):
    """Capped dense (ff off) throughput: stepjit vs width-1000 batch.

    Both backends run the same jobs for the same ``DENSE_CYCLE_CAP``
    cycles each, so the throughput ratio is the jobs/sec ratio the
    dense-path gate asserts.  Best of three to shed scheduler noise.
    """
    _design, module, jobs = batch_parts
    sim = make_simulation(module, backend="stepjit", fast_forward=False)
    sim.load(*jobs[0])
    sim.run(max_cycles=DENSE_CYCLE_CAP)
    stepjit_wall = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        cycles = 0
        for inputs, memories in jobs[:DENSE_JOBS]:
            sim.reset()
            sim.load(inputs=inputs, memories=memories)
            cycles += sim.run(max_cycles=DENSE_CYCLE_CAP).cycles
        stepjit_wall = min(stepjit_wall, time.perf_counter() - start)
    stepjit_cps = cycles / stepjit_wall

    batch = BatchSimulation(module, fast_forward=False, events=False)
    batch.run_jobs(jobs, max_cycles=200)  # warm
    batch_wall = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = batch.run_jobs(jobs, max_cycles=DENSE_CYCLE_CAP)
        batch_wall = min(batch_wall, time.perf_counter() - start)
    batch_cps = int(result.cycles.sum()) / batch_wall
    return {
        "cycle_cap": DENSE_CYCLE_CAP,
        "stepjit": {"n_jobs": DENSE_JOBS, "wall_s": stepjit_wall,
                    "cycles_per_sec": stepjit_cps},
        "batch": {"n_jobs": len(jobs), "width": len(jobs),
                  "wall_s": batch_wall, "cycles_per_sec": batch_cps},
        "batch_vs_stepjit": batch_cps / stepjit_cps,
    }


@pytest.fixture(scope="session")
def batch_record_path(batch_parts):
    """The acceptance benchmark: a 1000-job cjpeg training matrix
    recorded via ``record_jobs`` under stepjit vs batch, with the
    resulting matrices compared bit-for-bit.  Best of three."""
    _design, module, jobs = batch_parts
    features = discover_features(module, synthesize(module))

    def measure(backend):
        record_jobs(module, features, jobs[:50], backend=backend,
                    workers=1)  # warm
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            matrix = record_jobs(module, features, jobs,
                                 backend=backend, workers=1)
            best = min(best, time.perf_counter() - start)
        return matrix, best

    stepjit_matrix, stepjit_wall = measure("stepjit")
    batch_matrix, batch_wall = measure("batch")
    return {
        "design": BATCH_DESIGN,
        "n_jobs": len(jobs),
        "bit_identical": (
            np.array_equal(stepjit_matrix.x, batch_matrix.x)
            and np.array_equal(stepjit_matrix.cycles,
                               batch_matrix.cycles)),
        "stepjit": {"wall_s": stepjit_wall,
                    "jobs_per_sec": len(jobs) / stepjit_wall},
        "batch": {"wall_s": batch_wall,
                  "jobs_per_sec": len(jobs) / batch_wall},
        "batch_vs_stepjit": stepjit_wall / batch_wall,
    }


@pytest.fixture(scope="session")
def flow_walls(tmp_path_factory):
    """Cold vs warm offline-flow wall time through the artifact cache."""
    cache_dir = tmp_path_factory.mktemp("kernel-cache")
    design = get_design("aes")
    items = workload_for("aes", scale=SCALE).train
    set_cache(ArtifactCache(cache_dir))
    try:
        t0 = time.perf_counter()
        generate_predictor(design, items, FlowConfig(gamma=1e-4))
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        generate_predictor(design, items, FlowConfig(gamma=1e-4))
        warm_s = time.perf_counter() - t0
    finally:
        set_cache(None)
    return {"design": "aes", "scale": SCALE,
            "cold_s": cold_s, "warm_s": warm_s}


def test_backends_agree_on_cycle_counts(kernel_results):
    """Exactness is asserted unconditionally, on every host.

    Full jobs compare with fast-forward on; the ff_off probes compare
    against each other (all backends capped at the same cycle count).
    """
    for name, entry in kernel_results.items():
        per_backend = entry["backends"]
        reference = per_backend["interp"]["ff_on"]["cycles"]
        capped_ref = per_backend["interp"]["ff_off"]["cycles"]
        for backend in SCALAR_BACKENDS:
            assert per_backend[backend]["ff_on"]["cycles"] == reference, (
                name, backend)
            assert (per_backend[backend]["ff_off"]["cycles"]
                    == capped_ref), (name, backend)


def test_batch_record_matrix_is_bit_identical(batch_record_path):
    """The batch training matrix equals stepjit's, bit for bit —
    asserted unconditionally, on every host."""
    assert batch_record_path["bit_identical"]


def test_stepjit_speedup_gate(kernel_results):
    """Acceptance: stepjit >= 5x interp per design."""
    if not ENOUGH_CPUS:
        pytest.skip("speedup gate needs >= 4 CPUs for stable timing")
    for name, entry in kernel_results.items():
        per_backend = entry["backends"]
        interp = per_backend["interp"]["ff_on"]["cycles_per_sec"]
        stepjit = per_backend["stepjit"]["ff_on"]["cycles_per_sec"]
        assert stepjit >= 5.0 * interp, (
            f"{name}: stepjit {stepjit / interp:.2f}x interp < 5x")


def test_batch_dense_speedup_gate(batch_dense_path):
    """Acceptance: batch >= 5x stepjit jobs/sec on the ff-off dense
    path at width 1000 (same capped cycles per job on both sides)."""
    if not ENOUGH_CPUS:
        pytest.skip("speedup gate needs >= 4 CPUs for stable timing")
    ratio = batch_dense_path["batch_vs_stepjit"]
    assert ratio >= 5.0, f"batch dense path {ratio:.2f}x stepjit < 5x"


def test_batch_record_speedup_gate(batch_record_path):
    """Acceptance: recording the 1000-job cjpeg training matrix via
    batch is >= 5x faster (jobs/sec) than stepjit."""
    if not ENOUGH_CPUS:
        pytest.skip("speedup gate needs >= 4 CPUs for stable timing")
    ratio = batch_record_path["batch_vs_stepjit"]
    assert ratio >= 5.0, f"batch record path {ratio:.2f}x stepjit < 5x"


def test_batch_width_sweep_monotone_amortization(batch_width_sweep):
    """Wider batches amortize dispatch: width 1000 must beat width 1
    on jobs/sec by a wide margin (the lockstep lever itself)."""
    by_width = {row["width"]: row for row in batch_width_sweep}
    assert set(by_width) == set(BATCH_WIDTHS)
    if not ENOUGH_CPUS:
        pytest.skip("throughput comparison needs >= 4 CPUs")
    assert (by_width[1000]["jobs_per_sec"]
            > 5.0 * by_width[1]["jobs_per_sec"])


def test_stepjit_codegen_is_cheap(kernel_results):
    """Codegen amortizes in one job: well under a second per design."""
    for name, entry in kernel_results.items():
        assert entry["stepjit_codegen_s"] < 1.0, name


def test_write_bench_sim_json(kernel_results, flow_walls,
                              batch_width_sweep, batch_dense_path,
                              batch_record_path):
    """Persist the machine-readable kernel perf record."""
    record = {
        "schema": 2,
        "scale": SCALE,
        "jobs_per_design": JOBS_PER_DESIGN,
        "host": _host_block(),
        "designs": kernel_results,
        "flow": flow_walls,
        "batch": {
            "design": BATCH_DESIGN,
            "width_sweep": batch_width_sweep,
            "dense_path": batch_dense_path,
            "record_path": batch_record_path,
        },
        "speedups": {
            name: {
                "stepjit_vs_interp": (
                    entry["backends"]["stepjit"]["ff_on"]["cycles_per_sec"]
                    / entry["backends"]["interp"]["ff_on"]["cycles_per_sec"]
                ),
            }
            for name, entry in kernel_results.items()
        },
    }
    record["speedups"]["batch_vs_stepjit_record"] = (
        batch_record_path["batch_vs_stepjit"])
    record["speedups"]["batch_vs_stepjit_dense"] = (
        batch_dense_path["batch_vs_stepjit"])
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True)
                          + "\n")
    loaded = json.loads(BENCH_PATH.read_text())
    assert set(loaded["designs"]) == set(KERNEL_DESIGNS)
    assert loaded["flow"]["cold_s"] > 0 and loaded["flow"]["warm_s"] > 0
    assert loaded["host"]["numpy"] == np.__version__
