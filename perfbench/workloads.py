"""The three workloads, each driven through ``repro``'s public API.

A workload has four steps, which ``run.py`` times and traces:

* ``setup(seed)`` builds everything the measured work needs (for the
  serve workloads: cold bundles, tech contexts, the seeded streams);
* ``run_pass(state, clock)`` does one fixed unit of the measured work
  (one report, or one serve call per stream) and returns a
  :class:`Pass` with the host wall time of each call;
* ``check(state, first, clock)`` runs the output checks on the first
  pass and computes the deterministic end-to-end metrics;
* ``compare(state)`` (traced runs only) times interleaved variants of
  the same work: the serve engines, and the observer off against on.

Functions a traced run wraps are called through their module
(``serve.serve_stream``, ``runner.run_scheme`` ...), so the wrappers
installed on those modules see every call.
"""

from __future__ import annotations

import importlib
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import check, serve
from repro.cli import EXPERIMENTS
from repro.experiments import charts, fig11_schemes, runner
from repro.obs import SloTracker, parse_slo, session
from repro.workloads import ALL_BENCHMARKS

from .arith import (
    digest,
    on_time_pct,
    overhead_pct,
    saving_pct,
    text_digest,
    worst_under_pct,
)
from .layers import LayerClock

SCALE = 1.0
#: Every ``repro report`` experiment (``fig19`` is left out, as the
#: report leaves it out).
REPORT_IDS = [i for i in EXPERIMENTS if i != "fig19"]
#: Modules imported up front, so import cost lands in set-up time.
EXPERIMENT_MODULES = {
    exp_id: importlib.import_module(f"repro.experiments.{module}")
    for exp_id, module in EXPERIMENTS.items() if exp_id in REPORT_IDS
}
SLO_SPECS = ("miss_rate<5%", "p99_decision_ms<1")


@dataclass
class Pass:
    """One unit of measured work."""

    call_s: List[float]  # host seconds of each measured call
    attempted: int       # operations: experiments run or jobs offered
    failed: int          # experiments that raised, prediction fallbacks
    digest: str          # all outputs, for the repeat checks
    jobs: int = 0        # jobs offered (serve workloads)
    detail: object = None


@dataclass
class Check:
    """Output checks and deterministic metrics of the first pass."""

    attempted: int
    violations: int
    metrics: Dict[str, float]
    digests: Dict[str, str] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)


def sub_seed(seed: int, k: int) -> int:
    """The ``k``-th stream's arrival seed within a run's seed."""
    return seed * 100 + k


def outcome_rows(result) -> List[tuple]:
    """A served stream's outcomes on the virtual clock, without the
    measured ``decision_s``: two runs of one stream must match."""
    return [(o.index, o.status, o.start, o.t_slice, o.t_switch,
             o.t_exec, o.energy, o.missed, o.voltage, o.frequency,
             o.boosted, o.job.predicted_cycles, o.job.slice_cycles)
            for o in result.outcomes]


def _report_failure(what: str) -> None:
    print(f"FAILED: {what}", file=sys.stderr)
    traceback.print_exc()


def _span(clock: Optional[LayerClock], name: str):
    return clock.span(name) if clock is not None else nullcontext()


# -- reproduce --------------------------------------------------------

class Reproduce:
    """A cold ``repro report``: every experiment but ``fig19``."""

    name = "reproduce"
    #: A traced pass runs under an observer, to read the program's
    #: spans and counters.
    pass_session = True
    observed = False

    def setup(self, seed: int) -> dict:
        # The paper's workloads are fixed by their own seeds; there is
        # nothing to generate.  Set-up is the import cost.
        runner.clear_bundle_cache()
        return {}

    def _experiment(self, exp_id: str):
        # As ``repro report`` renders each section.
        module = EXPERIMENT_MODULES[exp_id]
        if exp_id == "fig17":
            result = module.run(scale=SCALE, tech="fpga")
            return result, module.to_text(result, tech="fpga")
        result = module.run(scale=SCALE)
        text = module.to_text(result)
        if exp_id == "fig11":
            text += "\n\n" + charts.fig11_chart(result)
        elif exp_id == "fig15":
            text += "\n\n" + charts.fig15_chart(result)
        return result, text

    def run_pass(self, state: dict, clock: Optional[LayerClock]) -> Pass:
        runner.clear_bundle_cache()
        digests: Dict[str, str] = {}
        results = {}
        failed = 0
        t0 = time.perf_counter()
        for exp_id in REPORT_IDS:
            with _span(clock, "experiments." + exp_id):
                try:
                    results[exp_id], text = self._experiment(exp_id)
                except Exception:
                    _report_failure(f"experiment {exp_id}")
                    failed += 1
                    continue
            digests[exp_id] = text_digest(text)
        wall = time.perf_counter() - t0
        return Pass(call_s=[wall], attempted=len(REPORT_IDS), failed=failed,
                    digest=digest(sorted(digests.items())),
                    detail={"digests": digests, "results": results})

    def check(self, state: dict, first: Pass,
              clock: Optional[LayerClock]) -> Check:
        # Every bundle x scheme x {asic, fpga} episode, re-run strict.
        violations = 0
        attempted = 0
        energy_per_job = []
        with _span(clock, "check.episode"):
            for name in ALL_BENCHMARKS:
                bundle = runner.bundle_for(name, SCALE)
                for tech in ("asic", "fpga"):
                    ctx = runner.tech_context(bundle, tech=tech)
                    for scheme in runner.ALL_SCHEMES:
                        attempted += 1
                        try:
                            result = runner.run_scheme(ctx, scheme,
                                                       strict=True)
                        except check.InvariantError as exc:
                            violations += len(exc.violations)
                            continue
                        if tech == "asic" and scheme == "prediction":
                            energy_per_job.append(
                                result.total_energy / result.n_jobs)
        results = first.detail["results"]
        metrics = {
            "energy_uj_per_job":
                1e6 * sum(energy_per_job) / len(energy_per_job),
        }
        layer = {}
        if "fig11" in results:
            pred = fig11_schemes.headline(results["fig11"])
            metrics["energy_saving_pct"] = \
                pred["prediction_energy_savings_pct"]
            metrics["on_time_pct"] = 100.0 - pred["prediction_miss_pct"]
        if "fig10" in results:
            layer["model.worst_under_pct"] = max(
                r.max_under_pct
                for r in results["fig10"].reports.values())
        return Check(attempted=attempted, violations=violations,
                     metrics=metrics, digests=first.detail["digests"],
                     layer=layer)

    def compare(self, state: dict) -> Dict[str, float]:
        return {}


# -- the serve workloads ------------------------------------------------

def _stream_result_metrics(results, baseline_results) -> Dict[str, float]:
    offered = sum(r.n_offered for r in results)
    missed = sum(r.miss_count for r in results)
    shed = sum(r.n_shed for r in results)
    executed = [o for r in results for o in r.executed]
    energy = sum(o.energy for o in executed) / len(executed)
    base = [o for r in baseline_results for o in r.executed]
    base_energy = sum(o.energy for o in base) / len(base)
    return {
        "on_time_pct": on_time_pct(offered, missed, shed),
        "energy_uj_per_job": 1e6 * energy,
        "energy_saving_pct": saving_pct(energy, base_energy),
    }


def _worst_under(results) -> float:
    executed = [o for r in results for o in r.executed
                if o.job.predicted_cycles is not None]
    return worst_under_pct([o.job.predicted_cycles for o in executed],
                           [o.job.actual_cycles for o in executed])


class ServeSlice:
    """One ``cjpeg`` stream served with the live slice predictor."""

    name = "serve_slice"
    pass_session = False      # served with no observer installed
    observed = False
    rate = 24.0               # jobs/s, open loop, below saturation
    streams = 4
    jobs_per_stream = 500

    def setup(self, seed: int) -> dict:
        runner.clear_bundle_cache()
        bundle = runner.bundle_for("cjpeg", SCALE)
        ctx = runner.tech_context(bundle, tech="asic")
        streams = [
            serve.build_stream_jobs(
                bundle,
                serve.poisson_arrivals(self.rate,
                                       n_jobs=self.jobs_per_stream,
                                       seed=sub_seed(seed, k)),
                with_inputs=True)
            for k in range(self.streams)]
        return {"bundle": bundle, "ctx": ctx, "streams": streams}

    def _stream(self, state: dict, scheme: str,
                engine: Optional[str] = None) -> serve.AcceleratorStream:
        ctx = state["ctx"]
        controller = runner.make_controller(ctx, scheme)
        predictor = (serve.SlicePredictor(state["bundle"].package)
                     if controller.uses_slice else None)
        return serve.AcceleratorStream(
            "cjpeg", controller, ctx.energy_model,
            ctx.slice_energy_model, predictor=predictor,
            config=serve.ServeConfig(deadline=ctx.config.deadline,
                                     t_switch=ctx.config.t_switch,
                                     engine=engine))

    def _serve(self, state: dict, k: int, scheme: str = "prediction",
               engine: Optional[str] = None):
        stream = self._stream(state, scheme, engine)
        t0 = time.perf_counter()
        result = serve.serve_stream(stream, state["streams"][k])
        return stream, result, time.perf_counter() - t0

    def run_pass(self, state: dict, clock: Optional[LayerClock]) -> Pass:
        calls = []
        served = []
        for k in range(self.streams):
            stream, result, seconds = self._serve(state, k)
            calls.append(seconds)
            served.append((stream, result))
        results = [r for _, r in served]
        return Pass(
            call_s=calls,
            attempted=sum(r.n_offered for r in results),
            failed=sum(r.n_fallback for r in results),
            digest=digest(row for r in results
                          for row in outcome_rows(r)),
            jobs=sum(r.n_offered for r in results),
            detail=served)

    def check(self, state: dict, first: Pass,
              clock: Optional[LayerClock]) -> Check:
        violations = 0
        for stream, result in first.detail:
            violations += len(check.check_stream(
                result,
                energy_model=stream.energy_model,
                slice_energy_model=stream.slice_energy_model,
                levels=stream.levels,
                t_switch=stream.config.t_switch,
                uses_slice=stream.controller.uses_slice,
                charge_overheads=stream.controller.charge_overheads))
            violations += len(check.check_epochs(result,
                                                 stream.epoch_log))
        results = [r for _, r in first.detail]
        with _span(clock, "check.baseline"):
            baseline = [self._serve(state, k, "baseline")[1]
                        for k in range(self.streams)]
        epochs = [m for stream, _ in first.detail
                  for _, m in stream.epoch_log]
        return Check(
            attempted=len(first.detail), violations=violations,
            metrics=_stream_result_metrics(results, baseline),
            layer={
                "model.worst_under_pct": _worst_under(results),
                "serve.epoch_jobs_pct": 100.0 * sum(epochs) / first.jobs,
                "serve.epoch_len_mean": (sum(epochs) / len(epochs)
                                         if epochs else 0.0),
            })

    def compare(self, state: dict) -> Dict[str, float]:
        """The same streams under the default engine and ``scalar``,
        interleaved."""
        walls = {None: 0.0, "scalar": 0.0}
        jobs = 0
        for k in range(self.streams):
            rows = []
            for engine in walls:
                _, result, seconds = self._serve(state, k, engine=engine)
                walls[engine] += seconds
                rows.append(outcome_rows(result))
            if rows[0] != rows[1]:
                raise AssertionError(
                    f"stream {k}: the serve engines disagree")
            jobs += len(state["streams"][k])
        return {
            "serve.vector_jobs_per_s": jobs / walls[None],
            "serve.scalar_jobs_per_s": jobs / walls["scalar"],
            "serve.vector_vs_scalar": walls["scalar"] / walls[None],
        }


FLEET_SHARDS = ("cjpeg", "djpeg", "cjpeg", "djpeg")


class FleetSlo:
    """A four-shard fleet under SLO watch, as ``repro serve --slo``."""

    name = "fleet_slo"
    pass_session = False      # each serve call opens its own observer
    observed = True
    rate = 200.0
    streams = 2
    jobs_per_stream = 10_000

    def setup(self, seed: int) -> dict:
        runner.clear_bundle_cache()
        bundles = {name: runner.bundle_for(name, SCALE)
                   for name in dict.fromkeys(FLEET_SHARDS)}
        contexts = {name: runner.tech_context(bundle, tech="asic")
                    for name, bundle in bundles.items()}
        streams = []
        for k in range(self.streams):
            arrivals = serve.poisson_arrivals(
                self.rate, n_jobs=self.jobs_per_stream,
                seed=sub_seed(seed, k))
            streams.append(serve.build_mixed_stream(
                bundles, arrivals, seed=sub_seed(seed, k)))
        return {"contexts": contexts, "streams": streams}

    def _specs(self, state: dict, scheme: str) -> List[serve.ShardSpec]:
        specs = []
        for i, bench in enumerate(FLEET_SHARDS):
            ctx = state["contexts"][bench]
            specs.append(serve.ShardSpec(
                name=f"{bench}#{i}", benchmark=bench,
                controller=runner.make_controller(ctx, scheme),
                energy_model=ctx.energy_model,
                slice_energy_model=ctx.slice_energy_model,
                predictor=serve.RecordPredictor(),
                config=serve.ServeConfig(deadline=ctx.config.deadline,
                                         t_switch=ctx.config.t_switch)))
        return specs

    def _serve(self, state: dict, k: int, scheme: str = "prediction",
               observer: bool = True, engine: Optional[str] = None,
               clock: Optional[LayerClock] = None):
        specs = self._specs(state, scheme)
        config = serve.FleetConfig(policy=serve.LEAST_LOADED,
                                   engine=engine)
        jobs = state["streams"][k]
        if not observer:
            t0 = time.perf_counter()
            result = serve.serve_fleet(specs, jobs, config=config,
                                       workers=1)
            return result, time.perf_counter() - t0
        with session(command="serve --fleet") as obs:
            obs.slo = SloTracker([parse_slo(s) for s in SLO_SPECS])
            if clock is not None:
                obs.tracer = clock
            t0 = time.perf_counter()
            result = serve.serve_fleet(specs, jobs, config=config,
                                       workers=1)
            seconds = time.perf_counter() - t0
        if clock is not None:
            clock.absorb(obs.metrics.counters)
        return result, seconds

    def run_pass(self, state: dict, clock: Optional[LayerClock]) -> Pass:
        calls = []
        results = []
        for k in range(self.streams):
            result, seconds = self._serve(state, k, clock=clock)
            calls.append(seconds)
            results.append(result)
        jobs = sum(r.n_offered for r in results)
        return Pass(call_s=calls, attempted=jobs,
                    failed=sum(r.n_fallback for r in results),
                    digest=digest(row for r in results
                                  for row in fleet_rows(r)),
                    jobs=jobs, detail=results)

    def check(self, state: dict, first: Pass,
              clock: Optional[LayerClock]) -> Check:
        results = first.detail
        violations = sum(len(check.check_fleet(r)) for r in results)
        with _span(clock, "check.baseline"):
            baseline = [
                self._serve(state, k, "baseline", observer=False)[0]
                for k in range(self.streams)]
        shards = [s for r in results for s in r.shards]
        metrics = _stream_result_metrics(
            shards, [s for r in baseline for s in r.shards])
        offered = sum(r.n_offered for r in results)
        missed = sum(s.miss_count for s in shards)
        metrics["on_time_pct"] = on_time_pct(
            offered, missed, sum(r.n_shed for r in results))
        return Check(attempted=len(results), violations=violations,
                     metrics=metrics,
                     layer={"model.worst_under_pct": _worst_under(shards)})

    def compare(self, state: dict) -> Dict[str, float]:
        """The ``scalar`` engine against the default, and the observer
        on against off, interleaved on the same streams."""
        variants = {
            "scalar": {"engine": "scalar", "observer": False},
            "off": {"observer": False},
            "on": {"observer": True},
        }
        walls = dict.fromkeys(variants, 0.0)
        jobs = 0
        for k in range(self.streams):
            rows = set()
            for key, kwargs in variants.items():
                result, seconds = self._serve(state, k, **kwargs)
                walls[key] += seconds
                rows.add(digest(fleet_rows(result)))
            if len(rows) != 1:
                raise AssertionError(
                    f"fleet stream {k}: engine or observer changed "
                    "the outcomes")
            jobs += len(state["streams"][k])
        return {
            "serve.vector_jobs_per_s": jobs / walls["off"],
            "serve.scalar_jobs_per_s": jobs / walls["scalar"],
            "serve.vector_vs_scalar": walls["scalar"] / walls["off"],
            "obs.overhead_pct": overhead_pct(walls["on"], walls["off"]),
        }


def fleet_rows(result) -> List[tuple]:
    """A fleet run's outcomes, sheds and routing, without wall times."""
    rows: List[tuple] = []
    for spec, shard in zip(result.specs, result.shards):
        rows.extend((spec.name,) + row for row in outcome_rows(shard))
    rows.extend((s.index, s.reason) for s in result.sheds)
    rows.extend(sorted(result.assignments.items()))
    return rows


WORKLOADS = {w.name: w for w in (Reproduce, ServeSlice, FleetSlo)}
