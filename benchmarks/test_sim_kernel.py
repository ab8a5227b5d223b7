"""Simulation-kernel benches: interp vs stepjit.

Measures per-design simulation throughput (cycles/sec) under each
backend, asserts exactness unconditionally, and writes the machine-
readable perf record ``BENCH_sim.json`` at the repo root — per-design
cycles/sec per backend (fast-forward on and off), stepjit codegen
time, cold/warm offline-flow wall time, and a ``host`` provenance
block (numpy version, BLAS thread caps, cpu count) so numbers are
comparable across machines.

The hard speedup gate (stepjit >= 5x interp) only runs on hosts with
at least four CPUs; on tiny CI runners wall-clock ratios are too
noisy to assert against.
"""

import json
import os
import pathlib
import time

import numpy as np
import pytest

from repro.accelerators import get_design
from repro.flow import FlowConfig, generate_predictor
from repro.parallel import ArtifactCache, set_cache
from repro.rtl import BACKENDS, compile_stepper, make_simulation
from repro.workloads import workload_for

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_sim.json"

#: Designs the kernel gate is measured on (largest + most distinct).
KERNEL_DESIGNS = ("h264", "djpeg", "aes", "sha")
SCALE = 0.05
JOBS_PER_DESIGN = 3

#: Hard speedup assertions need a quiet multi-core host.
ENOUGH_CPUS = (os.cpu_count() or 1) >= 4


#: Cycle cap for the fast-forward-off throughput probes.  Without the
#: jump the kernels grind through every stall cycle, so full jobs
#: (millions of cycles) would take minutes per design; a capped run
#: measures steady-state cycles/sec just as well.  Cross-backend
#: exactness with fast-forward off is gated separately (the fuzz and
#: equivalence suites), so completion is only asserted with it on.
FF_OFF_CYCLE_CAP = 120_000


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
    """Per-design, per-backend throughput (both ff modes)."""
    results = {}
    for name in KERNEL_DESIGNS:
        design = get_design(name)
        module = design.build()
        jobs = [design.encode_job(item).as_pair()
                for item in workload_for(name, scale=SCALE)
                .test[:JOBS_PER_DESIGN]]
        per_backend = {}
        for backend in BACKENDS:
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
        for backend in BACKENDS:
            assert per_backend[backend]["ff_on"]["cycles"] == reference, (
                name, backend)
            assert (per_backend[backend]["ff_off"]["cycles"]
                    == capped_ref), (name, backend)


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


def test_stepjit_codegen_is_cheap(kernel_results):
    """Codegen amortizes in one job: well under a second per design."""
    for name, entry in kernel_results.items():
        assert entry["stepjit_codegen_s"] < 1.0, name


def test_write_bench_sim_json(kernel_results, flow_walls):
    """Persist the machine-readable kernel perf record."""
    record = {
        "schema": 3,
        "scale": SCALE,
        "jobs_per_design": JOBS_PER_DESIGN,
        "host": _host_block(),
        "designs": kernel_results,
        "flow": flow_walls,
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
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True)
                          + "\n")
    loaded = json.loads(BENCH_PATH.read_text())
    assert set(loaded["designs"]) == set(KERNEL_DESIGNS)
    assert loaded["flow"]["cold_s"] > 0 and loaded["flow"]["warm_s"] > 0
    assert loaded["host"]["numpy"] == np.__version__
