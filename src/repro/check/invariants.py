"""Invariant checker: replay an episode and assert its accounting.

The episode runner maintains a set of closed-form identities — the
timeline chain, the deadline predicate, switch/slice charging rules,
and energy decomposition.  The paper's headline numbers (near-oracle
energy at near-zero misses) are only as trustworthy as these identities,
so this module re-derives every one of them from the recorded
:class:`~repro.runtime.jobs.JobOutcome` stream and reports each
discrepancy as an :class:`InvariantViolation`.

The checker is pure (no mutation, no I/O beyond ``check.*`` metrics)
and deliberately *independent* of the runner's control flow: it
recomputes expectations from first principles instead of calling back
into :func:`~repro.runtime.episode.run_episode`, so a bug in the
runner cannot hide itself.

Invariant catalog (codes as emitted):

* ``timeline.release`` — job *i* is released at ``i * deadline``;
* ``timeline.start`` — ``start == max(prev_finish, release)`` (budget
  carry-over: an overrunning job delays its successor, nothing else);
* ``time.exec`` — ``t_exec == actual_cycles / frequency``;
* ``time.slice`` — slice time equals ``slice_cycles / f_nominal``;
* ``time.negative`` — no time component is negative;
* ``deadline.miss_flag`` — ``missed`` agrees with the shared epsilon
  predicate :func:`repro.units.deadline_missed`;
* ``switch.charge`` — a switch is charged exactly when the level
  changed and the scheme charges overheads; its duration is exactly
  the configured ``t_switch``;
* ``caps.switch_free`` / ``caps.slice_free`` — overhead-free schemes
  (oracle, *_no_overhead) never pay switch or slice time;
* ``energy.recompute`` — the recorded energy equals execution energy
  plus switch-window leakage plus slice energy, re-derived from
  :class:`~repro.dvfs.energy.JobActivity` and the energy models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..dvfs.energy import EnergyModel, JobActivity
from ..dvfs.levels import LevelTable, OperatingPoint
from ..obs import get_observer
from ..runtime.episode import EpisodeResult, switch_window_energy
from ..units import DVFS_SWITCH_TIME, TIME_EPS_REL, deadline_missed

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..serve.fleet import FleetResult
    from ..serve.server import StreamResult


@dataclass(frozen=True)
class InvariantViolation:
    """One broken identity, pinned to a job (or the whole episode)."""

    code: str                 # catalog code, e.g. "timeline.start"
    job_index: Optional[int]  # positional index; None = episode-level
    message: str
    expected: object = None
    actual: object = None

    def __str__(self) -> str:
        """Render as ``code[job]: message (expected=…, actual=…)``."""
        where = f"[job {self.job_index}]" if self.job_index is not None \
            else "[episode]"
        detail = ""
        if self.expected is not None or self.actual is not None:
            detail = f" (expected={self.expected!r}, actual={self.actual!r})"
        return f"{self.code}{where}: {self.message}{detail}"


class InvariantError(AssertionError):
    """Raised by strict mode when an episode breaks its invariants."""

    def __init__(self, violations: List[InvariantViolation]):
        self.violations = list(violations)
        lines = "\n  ".join(str(v) for v in self.violations[:20])
        more = len(self.violations) - 20
        suffix = f"\n  … and {more} more" if more > 0 else ""
        super().__init__(
            f"{len(self.violations)} episode invariant violation(s):\n"
            f"  {lines}{suffix}"
        )


@dataclass(frozen=True)
class SchemeCaps:
    """What a scheme is entitled to charge: slice and/or overheads."""

    uses_slice: bool
    charge_overheads: bool


#: Capability rules per scheme name.  ``uses_slice`` mirrors the
#: controller attribute *after* construction (the overhead-free
#: predictive variants drop their slice), so the checker can infer
#: capabilities from an :class:`EpisodeResult` alone.
SCHEME_CAPS = {
    "baseline": SchemeCaps(False, True),
    "table": SchemeCaps(False, True),
    "pid": SchemeCaps(False, True),
    "history": SchemeCaps(False, True),
    "governor": SchemeCaps(False, True),
    "prediction": SchemeCaps(True, True),
    "prediction_boost": SchemeCaps(True, True),
    "prediction_no_overhead": SchemeCaps(False, False),
    "prediction_boost_no_overhead": SchemeCaps(False, False),
    "oracle": SchemeCaps(False, False),
}


def capabilities_for(controller_name: str) -> Optional[SchemeCaps]:
    """The capability rules for a scheme name, or ``None`` if unknown.

    Unknown names (ad-hoc test controllers) skip capability checks but
    still get the timeline, deadline, and energy identities.
    """
    return SCHEME_CAPS.get(controller_name)


def _times_equal(a: float, b: float, scale: float,
                 rel_eps: float) -> bool:
    # Wall-clock comparison at the deadline's magnitude: two times are
    # "the same instant" when they differ by rounding slop only.
    return abs(a - b) <= rel_eps * max(scale, abs(a), abs(b))


def _energies_equal(a: float, b: float, rel_eps: float) -> bool:
    return abs(a - b) <= rel_eps * max(abs(a), abs(b), 1e-30)


def check_episode(result: EpisodeResult,
                  energy_model: Optional[EnergyModel] = None,
                  slice_energy_model: Optional[EnergyModel] = None,
                  levels: Optional[LevelTable] = None,
                  t_switch: float = DVFS_SWITCH_TIME,
                  uses_slice: Optional[bool] = None,
                  charge_overheads: Optional[bool] = None,
                  rel_eps: float = TIME_EPS_REL,
                  energy_rel_eps: float = 1e-9
                  ) -> List[InvariantViolation]:
    """Re-derive every accounting identity of ``result`` and diff.

    ``energy_model``/``slice_energy_model`` enable the energy
    recomputation check; ``levels`` enables the first-job switch check
    and the slice-time formula (both need the nominal point).
    Capability flags default to the :data:`SCHEME_CAPS` entry for the
    episode's controller name.  Returns all violations found (empty
    list = episode is internally consistent).
    """
    caps = capabilities_for(result.controller)
    if uses_slice is None:
        uses_slice = caps.uses_slice if caps is not None else None
    if charge_overheads is None:
        charge_overheads = caps.charge_overheads if caps is not None else None

    deadline = result.task.deadline
    violations: List[InvariantViolation] = []

    def bad(code: str, job: Optional[int], message: str,
            expected: object = None, actual: object = None) -> None:
        violations.append(InvariantViolation(
            code=code, job_index=job, message=message,
            expected=expected, actual=actual))

    prev_finish = 0.0
    prev_point: Optional[OperatingPoint] = (
        levels.nominal if levels is not None else None)
    nominal = levels.nominal if levels is not None else None

    for i, o in enumerate(result.outcomes):
        point = OperatingPoint(voltage=o.voltage, frequency=o.frequency,
                               is_boost=o.boosted)

        # -- timeline ------------------------------------------------
        release = i * deadline
        if not _times_equal(o.release, release, deadline, rel_eps):
            bad("timeline.release", i,
                "job released off its period boundary",
                expected=release, actual=o.release)
        start = max(prev_finish, o.release)
        if not _times_equal(o.start, start, deadline, rel_eps):
            bad("timeline.start", i,
                "start is not max(previous finish, release) — the "
                "timeline has a gap or an overlap",
                expected=start, actual=o.start)

        # -- time components ------------------------------------------
        for field in ("t_slice", "t_switch", "t_exec"):
            if getattr(o, field) < 0.0:
                bad("time.negative", i, f"{field} is negative",
                    expected=0.0, actual=getattr(o, field))
        t_exec = o.job.actual_cycles / o.frequency
        if not _times_equal(o.t_exec, t_exec, deadline, rel_eps):
            bad("time.exec", i,
                "t_exec does not equal actual_cycles / frequency",
                expected=t_exec, actual=o.t_exec)

        # -- deadline flag --------------------------------------------
        missed = deadline_missed(o.finish, o.release, deadline, rel_eps)
        if o.missed != missed:
            bad("deadline.miss_flag", i,
                "miss flag disagrees with the shared epsilon predicate",
                expected=missed, actual=o.missed)

        # -- switch charging ------------------------------------------
        changed = (prev_point is not None and point != prev_point)
        if charge_overheads is False and o.t_switch != 0.0:
            bad("caps.switch_free", i,
                "overhead-free scheme charged switch time",
                expected=0.0, actual=o.t_switch)
        elif charge_overheads and t_switch > 0.0:
            if prev_point is not None:
                expected_switch = t_switch if changed else 0.0
                if o.t_switch != expected_switch:
                    bad("switch.charge", i,
                        "switch time charged iff the level changed, "
                        "at exactly the configured switching time",
                        expected=expected_switch, actual=o.t_switch)
            elif o.t_switch not in (0.0, t_switch):
                bad("switch.charge", i,
                    "switch time is neither zero nor the configured "
                    "switching time",
                    expected=(0.0, t_switch), actual=o.t_switch)

        # -- slice charging -------------------------------------------
        if uses_slice is False and o.t_slice != 0.0:
            bad("caps.slice_free", i,
                "scheme without a prediction slice charged slice time",
                expected=0.0, actual=o.t_slice)
        if uses_slice and nominal is not None:
            t_slice = o.job.slice_cycles / nominal.frequency
            if not _times_equal(o.t_slice, t_slice, deadline, rel_eps):
                bad("time.slice", i,
                    "slice time does not equal slice_cycles / f_nominal",
                    expected=t_slice, actual=o.t_slice)

        # -- energy decomposition -------------------------------------
        if energy_model is not None:
            energy = energy_model.job_energy(o.job.activity, point,
                                             o.t_exec)
            energy += switch_window_energy(energy_model, point, o.t_switch)
            recomputable = True
            if o.t_slice > 0.0:
                if slice_energy_model is not None and nominal is not None:
                    slice_activity = JobActivity(cycles=o.job.slice_cycles)
                    energy += slice_energy_model.job_energy(
                        slice_activity, nominal, o.t_slice)
                else:
                    recomputable = False  # cannot price the slice
            if recomputable and not _energies_equal(o.energy, energy,
                                                    energy_rel_eps):
                bad("energy.recompute", i,
                    "recorded energy does not decompose into exec + "
                    "switch leakage + slice energy",
                    expected=energy, actual=o.energy)

        prev_finish = o.start + o.t_slice + o.t_switch + o.t_exec
        prev_point = point

    observer = get_observer()
    if observer is not None:
        observer.metrics.inc("check.episodes")
        observer.metrics.inc("check.jobs", len(result.outcomes))
        if violations:
            observer.metrics.inc("check.violations", len(violations))

    return violations


def check_stream(result: "StreamResult",
                 energy_model: Optional[EnergyModel] = None,
                 slice_energy_model: Optional[EnergyModel] = None,
                 levels: Optional[LevelTable] = None,
                 t_switch: float = DVFS_SWITCH_TIME,
                 uses_slice: Optional[bool] = None,
                 charge_overheads: Optional[bool] = None,
                 rel_eps: float = TIME_EPS_REL,
                 energy_rel_eps: float = 1e-9
                 ) -> List[InvariantViolation]:
    """Re-derive every identity of a served stream and diff.

    The serving runtime's analogue of :func:`check_episode` — the same
    time/energy/capability identities, plus the stream-level laws the
    batch runner never needed:

    * ``stream.conservation`` — every offered job appears exactly once
      (dense unique indices, ``len(outcomes) == n_offered``) and ends
      in exactly one terminal state, so completed + fallback + shed
      adds back up to offered (``stream.terminal`` flags any unknown
      state);
    * ``stream.timeline`` — executed jobs chain on the virtual clock:
      ``release == arrival`` and ``start == max(prev_finish,
      release)`` in arrival order (shed jobs do not occupy the
      server);
    * ``stream.shed`` — a shed job never touched the accelerator:
      zero time, zero energy, no miss, no operating point;
    * ``stream.fallback`` — a fallback job abandoned the prediction
      path: no slice time, dispatched at least as fast as nominal.

    Fallback jobs participate in the switch-point chain (dispatching
    at nominal *is* a level change when the previous job ran slower)
    and in the energy decomposition; their slice identities are the
    degraded ones above rather than the scheme's.  Deadlines are
    relative to each job's own arrival (``release + deadline``).
    """
    caps = capabilities_for(result.scheme)
    if uses_slice is None:
        uses_slice = caps.uses_slice if caps is not None else None
    if charge_overheads is None:
        charge_overheads = caps.charge_overheads if caps is not None else None

    # Imported here (not at module top) to keep repro.check importable
    # without the serve package and free of import cycles.
    from ..serve.server import FALLBACK, SHED, TERMINAL_STATES

    deadline = result.deadline
    violations: List[InvariantViolation] = []

    def bad(code: str, job: Optional[int], message: str,
            expected: object = None, actual: object = None) -> None:
        violations.append(InvariantViolation(
            code=code, job_index=job, message=message,
            expected=expected, actual=actual))

    # -- conservation -------------------------------------------------
    if len(result.outcomes) != result.n_offered:
        bad("stream.conservation", None,
            "outcome count does not match offered count — a job was "
            "dropped or duplicated",
            expected=result.n_offered, actual=len(result.outcomes))
    indices = [o.index for o in result.outcomes]
    if len(set(indices)) != len(indices):
        bad("stream.conservation", None,
            "duplicate job indices — a job terminated twice",
            expected=len(indices), actual=len(set(indices)))
    all_terminal = True
    for o in result.outcomes:
        if o.status not in TERMINAL_STATES:
            all_terminal = False
            bad("stream.terminal", o.index,
                f"unknown terminal state {o.status!r}",
                expected=TERMINAL_STATES, actual=o.status)
    if (all_terminal
            and len(result.outcomes) == result.n_offered
            and (result.n_completed + result.n_fallback + result.n_shed
                 != result.n_offered)):
        bad("stream.conservation", None,
            "completed + fallback + shed does not add up to offered",
            expected=result.n_offered,
            actual=(result.n_completed + result.n_fallback
                    + result.n_shed))

    prev_finish = 0.0
    prev_point: Optional[OperatingPoint] = (
        levels.nominal if levels is not None else None)
    nominal = levels.nominal if levels is not None else None

    for o in result.outcomes:
        i = o.index

        # -- release pins to the arrival instant -----------------------
        if not _times_equal(o.release, o.arrival, deadline, rel_eps):
            bad("stream.timeline", i,
                "release is not the arrival instant",
                expected=o.arrival, actual=o.release)

        if o.status == SHED:
            # -- shed jobs never touched the accelerator ---------------
            for fname in ("t_slice", "t_switch", "t_exec", "energy",
                          "frequency", "voltage"):
                if getattr(o, fname) != 0.0:
                    bad("stream.shed", i,
                        f"shed job has nonzero {fname}",
                        expected=0.0, actual=getattr(o, fname))
            if o.missed:
                bad("stream.shed", i,
                    "shed job flagged as a deadline miss",
                    expected=False, actual=True)
            continue

        point = OperatingPoint(voltage=o.voltage, frequency=o.frequency,
                               is_boost=o.boosted)
        fallback = o.status == FALLBACK

        # -- timeline chain over executed jobs -------------------------
        start = max(prev_finish, o.release)
        if not _times_equal(o.start, start, deadline, rel_eps):
            bad("stream.timeline", i,
                "start is not max(previous finish, release) — the "
                "stream timeline has a gap or an overlap",
                expected=start, actual=o.start)

        # -- time components -------------------------------------------
        for fname in ("t_slice", "t_switch", "t_exec"):
            if getattr(o, fname) < 0.0:
                bad("time.negative", i, f"{fname} is negative",
                    expected=0.0, actual=getattr(o, fname))
        t_exec = o.job.actual_cycles / o.frequency
        if not _times_equal(o.t_exec, t_exec, deadline, rel_eps):
            bad("time.exec", i,
                "t_exec does not equal actual_cycles / frequency",
                expected=t_exec, actual=o.t_exec)

        # -- deadline flag (relative to the job's own arrival) ---------
        missed = deadline_missed(o.finish, o.release, deadline, rel_eps)
        if o.missed != missed:
            bad("deadline.miss_flag", i,
                "miss flag disagrees with the shared epsilon predicate",
                expected=missed, actual=o.missed)

        # -- fallback semantics ----------------------------------------
        if fallback:
            if o.t_slice != 0.0:
                bad("stream.fallback", i,
                    "fallback job charged slice time — degraded jobs "
                    "abandon the prediction path entirely",
                    expected=0.0, actual=o.t_slice)
            if nominal is not None and o.frequency < nominal.frequency:
                bad("stream.fallback", i,
                    "fallback job dispatched below nominal frequency",
                    expected=nominal.frequency, actual=o.frequency)

        # -- switch charging -------------------------------------------
        changed = (prev_point is not None and point != prev_point)
        if charge_overheads is False and o.t_switch != 0.0:
            bad("caps.switch_free", i,
                "overhead-free scheme charged switch time",
                expected=0.0, actual=o.t_switch)
        elif charge_overheads and t_switch > 0.0:
            if prev_point is not None:
                expected_switch = t_switch if changed else 0.0
                if o.t_switch != expected_switch:
                    bad("switch.charge", i,
                        "switch time charged iff the level changed, "
                        "at exactly the configured switching time",
                        expected=expected_switch, actual=o.t_switch)
            elif o.t_switch not in (0.0, t_switch):
                bad("switch.charge", i,
                    "switch time is neither zero nor the configured "
                    "switching time",
                    expected=(0.0, t_switch), actual=o.t_switch)

        # -- slice charging --------------------------------------------
        if uses_slice is False and o.t_slice != 0.0:
            bad("caps.slice_free", i,
                "scheme without a prediction slice charged slice time",
                expected=0.0, actual=o.t_slice)
        if uses_slice and not fallback and nominal is not None:
            t_slice = o.job.slice_cycles / nominal.frequency
            if not _times_equal(o.t_slice, t_slice, deadline, rel_eps):
                bad("time.slice", i,
                    "slice time does not equal slice_cycles / f_nominal",
                    expected=t_slice, actual=o.t_slice)

        # -- energy decomposition --------------------------------------
        if energy_model is not None:
            energy = energy_model.job_energy(o.job.activity, point,
                                             o.t_exec)
            energy += switch_window_energy(energy_model, point, o.t_switch)
            recomputable = True
            if o.t_slice > 0.0:
                if slice_energy_model is not None and nominal is not None:
                    slice_activity = JobActivity(cycles=o.job.slice_cycles)
                    energy += slice_energy_model.job_energy(
                        slice_activity, nominal, o.t_slice)
                else:
                    recomputable = False  # cannot price the slice
            if recomputable and not _energies_equal(o.energy, energy,
                                                    energy_rel_eps):
                bad("energy.recompute", i,
                    "recorded energy does not decompose into exec + "
                    "switch leakage + slice energy",
                    expected=energy, actual=o.energy)

        prev_finish = o.start + o.t_slice + o.t_switch + o.t_exec
        prev_point = point

    observer = get_observer()
    if observer is not None:
        observer.metrics.inc("check.streams")
        observer.metrics.inc("check.jobs", len(result.outcomes))
        if violations:
            observer.metrics.inc("check.violations", len(violations))

    return violations


def check_fleet(result: "FleetResult",
                rel_eps: float = TIME_EPS_REL,
                energy_rel_eps: float = 1e-9
                ) -> List[InvariantViolation]:
    """Re-derive the fleet-wide accounting of a dispatched run.

    The fleet analogue of :func:`check_stream`.  Every shard is first
    replayed through :func:`check_stream` with its own spec's energy
    models, level table, and capability flags (the per-stream
    identities must hold *inside* each shard), then the dispatcher
    tier's own laws are checked on top:

    * ``fleet.conservation`` — offered equals dispatcher sheds plus
      the sum of shard offers, and the fleet-wide index space
      ``0..n_offered-1`` partitions *exactly* between dispatcher sheds
      and shard outcomes (no job lost, duplicated, or invented);
    * ``fleet.routing`` — every shard outcome belongs to a job whose
      benchmark tag matches that shard's benchmark, and agrees with
      the dispatcher's recorded assignment;
    * ``fleet.shed`` — every dispatcher shed carries a known reason;
    * ``fleet.tenant`` — conservation holds *per tenant*: each
      tenant's offered count equals its completed + fallback + shed
      across dispatcher and shards.
    """
    violations: List[InvariantViolation] = []

    def bad(code: str, job: Optional[int], message: str,
            expected: object = None, actual: object = None) -> None:
        violations.append(InvariantViolation(
            code=code, job_index=job, message=message,
            expected=expected, actual=actual))

    # -- per-shard stream identities ----------------------------------
    for shard_index, (spec, shard) in enumerate(
            zip(result.specs, result.shards)):
        violations.extend(check_stream(
            shard,
            energy_model=spec.energy_model,
            slice_energy_model=spec.slice_energy_model,
            levels=spec.controller.levels,
            t_switch=spec.config.t_switch,
            uses_slice=spec.controller.uses_slice,
            charge_overheads=spec.controller.charge_overheads,
            rel_eps=rel_eps,
            energy_rel_eps=energy_rel_eps,
        ))

        # -- routing: only matching-benchmark jobs on this shard -------
        for o in shard.outcomes:
            tagged = result.benchmarks.get(o.index)
            if tagged != spec.benchmark:
                bad("fleet.routing", o.index,
                    f"job tagged {tagged!r} landed on shard "
                    f"{spec.name!r} serving {spec.benchmark!r}",
                    expected=spec.benchmark, actual=tagged)
            assigned = result.assignments.get(o.index)
            if assigned != shard_index:
                bad("fleet.routing", o.index,
                    "outcome shard disagrees with the dispatcher's "
                    "recorded assignment",
                    expected=assigned, actual=shard_index)

    # -- dispatcher sheds ---------------------------------------------
    from ..serve.fleet import SHED_REASONS

    for shed in result.sheds:
        if shed.reason not in SHED_REASONS:
            bad("fleet.shed", shed.index,
                f"unknown dispatcher shed reason {shed.reason!r}",
                expected=SHED_REASONS, actual=shed.reason)

    # -- fleet-wide conservation --------------------------------------
    n_shard_offered = sum(r.n_offered for r in result.shards)
    if len(result.sheds) + n_shard_offered != result.n_offered:
        bad("fleet.conservation", None,
            "dispatcher sheds + shard offers do not add up to the "
            "fleet's offered count",
            expected=result.n_offered,
            actual=len(result.sheds) + n_shard_offered)
    seen = [shed.index for shed in result.sheds]
    for shard in result.shards:
        seen.extend(o.index for o in shard.outcomes)
    if len(set(seen)) != len(seen):
        bad("fleet.conservation", None,
            "a fleet index terminated more than once across "
            "dispatcher sheds and shard outcomes",
            expected=len(seen), actual=len(set(seen)))
    expected_indices = set(range(result.n_offered))
    if set(seen) != expected_indices:
        missing = sorted(expected_indices - set(seen))[:5]
        extra = sorted(set(seen) - expected_indices)[:5]
        bad("fleet.conservation", None,
            "fleet indices do not partition 0..n_offered-1 "
            f"(missing {missing}, unexpected {extra})",
            expected=result.n_offered, actual=len(set(seen)))

    # -- per-tenant conservation --------------------------------------
    for tenant, row in sorted(result.tenant_summary().items()):
        settled = row["completed"] + row["fallback"] + row["shed"]
        if settled != row["offered"]:
            bad("fleet.tenant", None,
                f"tenant {tenant!r}: completed + fallback + shed does "
                "not add up to offered",
                expected=row["offered"], actual=settled)

    observer = get_observer()
    if observer is not None:
        observer.metrics.inc("check.fleets")
        if violations:
            observer.metrics.inc("check.violations", len(violations))

    return violations


def check_epochs(result: "StreamResult",
                 epoch_log: List[tuple],
                 rel_eps: float = TIME_EPS_REL
                 ) -> List[InvariantViolation]:
    """Audit a decision-epoch log against the finished stream.

    Serving decides one job at a time, so
    :attr:`~repro.serve.AcceleratorStream.epoch_log` is always empty
    and this audit always passes; it is kept only because the
    benchmark in ``perfbench/`` calls it.  A decision epoch is a run
    of arrivals decided together, which is sound only when their
    decisions are independent.  For every epoch ``(first_index,
    n_jobs)`` in the log:

    * ``stream.epoch.shape`` — the epoch is non-empty and its first
      job exists in the result;
    * ``stream.epoch.overlap`` — epochs are ordered and disjoint: no
      job is decided in two epochs;
    * ``stream.epoch.regime`` — every epoch job ran in the uncoupled
      regime: executed (never shed), micro-batch of exactly one, and
      ``start == arrival`` (the server was idle at every admission);
    * ``stream.epoch.chain`` — within an epoch each job's virtual
      finish lies at or before its successor's arrival, which is
      precisely the independence condition that justified deciding
      them together.

    Together with ``stream.conservation`` (from :func:`check_stream`)
    this closes the loop: epoch jobs + scalar jobs + sheds account for
    every offered job exactly once.
    """
    from ..serve.server import SHED

    violations: List[InvariantViolation] = []

    def bad(code: str, job: Optional[int], message: str,
            expected: object = None, actual: object = None) -> None:
        violations.append(InvariantViolation(
            code=code, job_index=job, message=message,
            expected=expected, actual=actual))

    deadline = result.deadline
    position = {o.index: k for k, o in enumerate(result.outcomes)}
    prev_end = 0
    prev_first = None
    for first_index, n_jobs in epoch_log:
        if n_jobs < 1:
            bad("stream.epoch.shape", first_index,
                "epoch committed no jobs", expected=">= 1",
                actual=n_jobs)
            continue
        p = position.get(first_index)
        if p is None:
            bad("stream.epoch.shape", first_index,
                "epoch's first job is missing from the result")
            continue
        if prev_first is not None and first_index <= prev_first:
            bad("stream.epoch.overlap", first_index,
                "epochs are out of order",
                expected=f"> {prev_first}", actual=first_index)
        if p < prev_end:
            bad("stream.epoch.overlap", first_index,
                "epoch overlaps its predecessor — a job was decided "
                "twice", expected=f">= position {prev_end}", actual=p)
        if p + n_jobs > len(result.outcomes):
            bad("stream.epoch.shape", first_index,
                "epoch extends past the end of the result",
                expected=len(result.outcomes), actual=p + n_jobs)
            prev_end = len(result.outcomes)
            prev_first = first_index
            continue
        epoch = result.outcomes[p:p + n_jobs]
        for k, o in enumerate(epoch):
            if o.status == SHED:
                bad("stream.epoch.regime", o.index,
                    "epoch contains a shed job — epochs only form "
                    "while admission cannot shed",
                    expected="executed", actual=o.status)
                continue
            if o.batch_size != 1:
                bad("stream.epoch.regime", o.index,
                    "epoch job ran in a micro-batch larger than one",
                    expected=1, actual=o.batch_size)
            if not _times_equal(o.start, o.arrival, deadline, rel_eps):
                bad("stream.epoch.regime", o.index,
                    "epoch job did not start at its arrival — the "
                    "server was not idle", expected=o.arrival,
                    actual=o.start)
            if k + 1 < n_jobs:
                succ = epoch[k + 1]
                if o.finish > succ.arrival + rel_eps * deadline:
                    bad("stream.epoch.chain", o.index,
                        "epoch job finishes after its successor's "
                        "arrival — the decisions were not independent",
                        expected=f"<= {succ.arrival}", actual=o.finish)
        prev_end = p + n_jobs
        prev_first = first_index

    observer = get_observer()
    if observer is not None and violations:
        observer.metrics.inc("check.violations", len(violations))
    return violations
