"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {reproduce,serve_slice,fleet_slo}
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no tracing: set-up
repeated several times (median reported), then fixed passes of the
workload while another fits in ``--seconds``, then the output checks.
A pass makes one call per stream (one report for ``reproduce``);
``pass_s`` sums each call's median over the passes.

``--trace 1`` gives the per-layer metrics: two traced runs of one pass
each with an untraced one between them (the difference is the tracing
overhead), an exact-repeat check between the runs, and interleaved
comparisons.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the details (provenance, digests, raw samples).
The program runs serially: one worker, one BLAS thread, no artifact
cache and no ``REPRO_*`` settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_pct": ("%", "higher"),
    "on_time_pct": ("%", "higher"),
    "energy_saving_pct": ("%", "higher"),
    "energy_uj_per_job": ("uJ", "lower"),
}

EXPERIMENT_IDS = (
    "table3", "table4", "fig2", "fig3", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "case-study",
    "all-schemes", "multires", "taxonomy",
)

PER_LAYER = {
    "model.fit_s": ("s", "lower"),
    "model.solves": ("count", "lower"),
    "model.solver_iters": ("count", "lower"),
    "model.capped_solves": ("count", "lower"),
    "model.worst_under_pct": ("%", "lower"),
    "analysis.detect_s": ("s", "lower"),
    "analysis.record_s": ("s", "lower"),
    "analysis.record_jobs": ("count", "lower"),
    "rtl.synth_s": ("s", "lower"),
    "rtl.sim_cycles": ("count", "lower"),
    "rtl.ff_jumps": ("count", "higher"),
    "rtl.slice_sim_s": ("s", "lower"),
    "rtl.slice_runs_per_job": ("runs/job", "lower"),
    "slicing.slice_s": ("s", "lower"),
    "flow.flow_s": ("s", "lower"),
    "flow.test_records_s": ("s", "lower"),
    "experiments.bundle_s": ("s", "lower"),
    "runtime.episode_s": ("s", "lower"),
    "runtime.episodes": ("count", "lower"),
    "serve.epoch_jobs_pct": ("%", "higher"),
    "serve.epoch_len_mean": ("jobs", "higher"),
    "serve.build_s": ("s", "lower"),
    "serve.decide_s": ("s", "lower"),
    "serve.vector_vs_scalar": ("x", "higher"),
    "serve.vector_jobs_per_s": ("1/s", "higher"),
    "serve.scalar_jobs_per_s": ("1/s", "higher"),
    "serve.fleet.route_s": ("s", "lower"),
    "serve.fleet.epoch_jobs_pct": ("%", "higher"),
    "serve.fleet_s": ("s", "lower"),
    "serve.shard_s": ("s", "lower"),
    "obs.calls_per_job": ("calls/job", "lower"),
    "obs.self_s": ("s", "lower"),
    "obs.overhead_pct": ("%", "lower"),
    "check.episode_s": ("s", "lower"),
    "check.stream_s": ("s", "lower"),
    "check.fleet_s": ("s", "lower"),
    "check.baseline_s": ("s", "lower"),
    **{f"experiments.{i}_s": ("s", "lower") for i in EXPERIMENT_IDS},
    "unattributed_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

#: Fields two traced runs of one seed must reproduce exactly.
REPEAT_LAYER_FIELDS = ("model.solver_iters", "model.capped_solves",
                       "rtl.slice_runs_per_job", "serve.epoch_jobs_pct",
                       "obs.calls_per_job")
DETERMINISTIC = ("on_time_pct", "energy_saving_pct", "energy_uj_per_job")


class RepeatMismatch(Exception):
    """Two runs of one seed disagreed on a field that must repeat."""


def pin_environment() -> Dict[str, str]:
    """One BLAS thread and the program's defaults; call before numpy
    is imported."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for name in THREAD_VARS:
        os.environ[name] = "1"
    return {name: os.environ[name] for name in THREAD_VARS}


def import_program():
    """Import the workloads (and with them the program) from this
    checkout; fails when the checkout holds no program."""
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import workloads
    import repro
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")
    from repro.parallel import set_cache, set_default_jobs
    set_default_jobs(1)
    set_cache(None)
    return workloads


def provenance(threads: Dict[str, str]) -> Dict[str, object]:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_threads": threads,
        "workers": 1,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(name: str, value: float, table) -> Dict[str, object]:
    return {"value": float(value), "unit": table[name][0]}


# -- untraced: the end-to-end metrics ----------------------------------

def run_untraced(wl, seed: int, seconds: float, import_s: float):
    from perfbench.arith import median, ok_pct

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(state, None))
        if len(passes) > 1:
            # Only the first pass is checked; keeping every pass's
            # outputs would make peak memory follow the pass count.
            passes[-1].detail = None
        elapsed = time.perf_counter() - t_start
        # Stop before a pass that would end after ``seconds``.
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    checked = wl.check(state, passes[0], None)
    attempted = sum(p.attempted for p in passes) + checked.attempted
    failed = sum(p.failed for p in passes) + checked.violations
    repeat_ok = len({p.digest for p in passes}) == 1
    if not repeat_ok:
        print("FAILED: passes of one seed gave different outputs",
              file=sys.stderr)
    # A pass is one call per stream; each call's median over the
    # passes, summed, is the time of one pass.
    call_medians = [median(calls) for calls in
                    zip(*(p.call_s for p in passes))]
    values = {
        "setup_s": import_s + median(setup_times),
        "pass_s": sum(call_medians),
        "peak_rss_mb": peak_rss_mb(),
        "ok_pct": ok_pct(attempted, failed),
        **checked.metrics,
    }
    detail = {
        "import_s": import_s,
        "setup_samples_s": setup_times,
        "call_samples_s": [p.call_s for p in passes],
        "jobs_per_pass": passes[0].jobs,
        "jobs_per_s": (passes[0].jobs / values["pass_s"]
                       if passes[0].jobs else None),
        "digest": passes[0].digest,
        "digests": checked.digests,
        "violations": checked.violations,
    }
    correct = (failed == 0 and repeat_ok
               and set(values) == set(END_TO_END))
    return correct, attempted, failed, \
        {k: metric(k, v, END_TO_END) for k, v in values.items()}, detail


# -- traced: the per-layer metrics -------------------------------------

def install_wrappers(patches, clock, observed: bool) -> None:
    """Wrap each layer's public entry points in spans and counters."""
    from perfbench.layers import charged, spanned
    from repro import check, obs, serve
    from repro.experiments import runner
    from repro.model import solver
    from repro.runtime import episode
    from repro.serve import fleet

    def solved(result) -> None:
        clock.count("model.solves")
        clock.count("model.solver_iters", result.iterations)
        clock.count("model.capped_solves", 0 if result.converged else 1)

    patches.everywhere(solver.solve, spanned(
        clock, "model.solve", solver.solve, after=solved))
    patches.everywhere(episode.run_episode, spanned(
        clock, "runtime.run_episode", episode.run_episode,
        after=lambda _: clock.count("runtime.episodes")))
    for name in ("check_episode", "check_stream", "check_epochs",
                 "check_fleet"):
        func = getattr(check, name)
        patches.everywhere(func, spanned(
            clock, "check." + name[len("check_"):], func))
    patches.everywhere(runner.tech_context, spanned(
        clock, "runner.tech_context", runner.tech_context))
    for func in (serve.poisson_arrivals, serve.build_stream_jobs,
                 serve.build_mixed_stream):
        patches.everywhere(func, spanned(clock, "serve.build", func))
    patches.everywhere(serve.serve_stream, spanned(
        clock, "serve.stream", serve.serve_stream))
    patches.replace(serve.SlicePredictor, "predict", spanned(
        clock, "rtl.slice_sim", serve.SlicePredictor.predict,
        after=lambda _: clock.count("rtl.slice_runs")))
    patches.replace(serve.FleetDispatcher, "dispatch", spanned(
        clock, "serve.fleet.route", serve.FleetDispatcher.dispatch))
    patches.replace(fleet, "_run_shard", spanned(
        clock, "serve.shard", fleet._run_shard))
    if observed:
        for owner, names in (
                (obs.MetricsRegistry, ("inc", "observe", "set_gauge")),
                (obs.TimeSeriesRegistry, ("inc", "observe")),
                (obs.SloTracker, ("evaluate", "finalize")),
                (obs.Observer, ("emit",))):
            for name in names:
                patches.replace(owner, name,
                                charged(clock, getattr(owner, name)))


def one_run(wl, seed: int, traced: bool):
    """Set-up, one pass and the checks, traced or not."""
    from contextlib import nullcontext

    from perfbench.layers import LayerClock, Patches

    clock = LayerClock() if traced else None

    def phase(name: str, observe: bool):
        if clock is None:
            return nullcontext()
        return traced_phase(clock, name, observe)

    with Patches() as patches:
        if clock is not None:
            install_wrappers(patches, clock, wl.observed)
        t0 = time.perf_counter()
        with (clock.span("bench.run") if clock else nullcontext()):
            with phase("bench.setup", True):
                state = wl.setup(seed)
            calls = clock.counts["obs.calls"] if clock else 0.0
            with phase("bench.pass", wl.pass_session):
                first = wl.run_pass(state, clock)
            if clock is not None:
                clock.counts["obs.pass_calls"] = \
                    clock.counts["obs.calls"] - calls
            with phase("bench.check", wl.pass_session):
                checked = wl.check(state, first, clock)
        wall = time.perf_counter() - t0
    return {"clock": clock, "wall_s": wall, "pass": first,
            "check": checked, "state": state}


@contextmanager
def traced_phase(clock, name: str, observe: bool) -> Iterator[None]:
    """A span for one phase; with ``observe``, under an observer whose
    spans go to ``clock`` and whose counters it absorbs."""
    from repro.obs import session

    with clock.span(name):
        if not observe:
            yield
            return
        with session(command="perfbench") as observer:
            observer.tracer = clock
            yield
        clock.absorb(observer.metrics.counters)


def layer_values(run, compare: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced run."""
    from perfbench.layers import reconcile

    clock = run["clock"]
    counts = clock.counts
    if clock.root_s <= 0.0:
        raise ValueError("traced run recorded no root span")
    reconcile(clock.self_s, clock.root_s)
    jobs = run["pass"].jobs
    values = {name: 0.0 for name in PER_LAYER}
    for layer, seconds in clock.self_s.items():
        if layer not in values:
            raise KeyError(f"span layer {layer!r} is not a metric")
        values[layer] = seconds
    values.update({
        "model.solves": counts["model.solves"],
        "model.solver_iters": counts["model.solver_iters"],
        "model.capped_solves": counts["model.capped_solves"],
        "analysis.record_jobs": counts["analysis.record_jobs"],
        "rtl.sim_cycles": sum(v for k, v in counts.items()
                              if k.startswith("sim.")
                              and k.endswith(".cycles")),
        "rtl.ff_jumps": sum(v for k, v in counts.items()
                            if k.startswith("sim.")
                            and k.endswith(".ff_jumps")),
        "runtime.episodes": counts["runtime.episodes"],
        "trace.wall_s": clock.root_s,
    })
    if jobs:
        values["rtl.slice_runs_per_job"] = counts["rtl.slice_runs"] / jobs
        values["obs.calls_per_job"] = counts["obs.pass_calls"] / jobs
    if counts["serve.fleet.offered"]:
        values["serve.fleet.epoch_jobs_pct"] = (
            100.0 * counts["serve.fleet.epoch_jobs"]
            / counts["serve.fleet.offered"])
    values.update(run["check"].layer)
    values.update(compare)
    return values


def deterministic(run) -> Dict[str, object]:
    """A run's values that must repeat exactly for one seed."""
    from perfbench.arith import ok_pct

    checked = run["check"]
    first = run["pass"]
    return {
        **{k: checked.metrics.get(k) for k in DETERMINISTIC},
        "ok_pct": ok_pct(first.attempted + checked.attempted,
                         first.failed + checked.violations),
        "digest": first.digest,
        **{f"digest.{k}": v for k, v in checked.digests.items()},
    }


def first_mismatch(a: Dict[str, object],
                   b: Dict[str, object]) -> Optional[str]:
    """The first field whose value differs between two runs."""
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return key
    return None


def run_traced(wl, seed: int, import_s: float):
    from perfbench.arith import overhead_pct

    traced_a = one_run(wl, seed, traced=True)
    plain = one_run(wl, seed, traced=False)
    traced_b = one_run(wl, seed, traced=True)
    layers = [layer_values(r, {}) for r in (traced_a, traced_b)]
    for key in REPEAT_LAYER_FIELDS:
        if layers[0][key] != layers[1][key]:
            raise RepeatMismatch(key)
    det = [deterministic(r) for r in (traced_a, plain, traced_b)]
    for other in det[1:]:
        field = first_mismatch(det[0], other)
        if field is not None:
            raise RepeatMismatch(field)
    compare = wl.compare(plain["state"])
    values = layer_values(traced_a, compare)
    # The first run in a process also pays first-use costs (kernel
    # code generation, lazy imports), so the overhead compares the two
    # runs that follow it.
    values["trace.overhead_pct"] = overhead_pct(traced_b["wall_s"],
                                                plain["wall_s"])
    first = traced_a["pass"]
    checked = traced_a["check"]
    attempted = first.attempted + checked.attempted
    failed = first.failed + checked.violations
    detail = {
        "import_s": import_s,
        "wall_s": {"traced_a": traced_a["wall_s"],
                   "untraced": plain["wall_s"],
                   "traced_b": traced_b["wall_s"]},
        "deterministic": det[0],
        "counters": dict(traced_a["clock"].counts),
    }
    return failed == 0, attempted, failed, \
        {k: metric(k, v, PER_LAYER) for k, v in values.items()}, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reproduce", "serve_slice", "fleet_slo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_environment()
    t0 = time.perf_counter()
    workloads = import_program()
    import_s = time.perf_counter() - t0
    host = provenance(threads)
    wl = workloads.WORKLOADS[args.workload]()
    if args.trace:
        try:
            correct, attempted, failed, metrics, detail = run_traced(
                wl, args.seed, import_s)
        except RepeatMismatch as exc:
            print(f"exact-repeat check failed: {exc.args[0]} differs "
                  f"between two runs of seed {args.seed}",
                  file=sys.stderr)
            return 1
    else:
        correct, attempted, failed, metrics, detail = run_untraced(
            wl, args.seed, args.seconds, import_s)
    host["loadavg_end"] = list(os.getloadavg())
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "host": host, **detail},
                     default=str))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
