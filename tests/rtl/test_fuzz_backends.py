"""Differential fuzzing: all simulation backends must agree exactly.

Generates small random-but-terminating modules exercising the whole
semantic surface — multi-FSM designs with wait counters, dynamic
waits, up counters, arc actions, conditional update rules and
memory-driven guards — and asserts cycle count, final architectural
state, ``state_cycles`` and listener event sequences are identical
between ``interp`` (the reference) and ``stepjit``, with fast-forward
both on and off.

Termination by construction: every FSM is a forward chain of states
(arcs only advance), wait counters are loaded from bounded memory
words, and dynamic-wait durations are bounded expressions — so every
run finishes in at most a few thousand cycles.

The ``batch`` backend joins on the same modules: the width-1 scalar
adapter must match interp on cycles, final state, ``state_cycles``
and *aggregate* events (the lockstep kernel replaces the ordered
listener callbacks with per-row event totals), and the wide
``BatchSimulation`` path must match per-row against rows with
divergent inputs.
"""

import random
from collections import Counter

import pytest

from repro.rtl import (
    BatchScalarSimulation,
    BatchSimulation,
    Fsm,
    MemRead,
    Module,
    Sig,
    Simulation,
    StepSimulation,
    down_counter,
    up_counter,
)
from tests.rtl.test_simulator import Recorder


def build_fuzz_module(seed: int) -> Module:
    """One random small module; same seed -> same design."""
    rng = random.Random(seed)
    m = Module(f"fuzz{seed}")
    m.port("n", 8)
    m.memory("data", depth=16, width=8)
    m.reg("acc", 16)
    m.reg("last", 8)
    cur = m.wire("cur", MemRead("data", Sig("step_count") & 0xF), 8)

    n_fsms = rng.randint(1, 2)
    final_guards = []
    for f_idx in range(n_fsms):
        fsm = Fsm(f"f{f_idx}", initial="S0")
        n_states = rng.randint(3, 6)
        names = [f"S{i}" for i in range(n_states)]
        waits = []
        for i in range(n_states - 1):
            src, dst = names[i], names[i + 1]
            kind = rng.choice(["plain", "guard", "wait", "dyn", "act"])
            if kind == "guard":
                fsm.transition(src, dst, cond=Sig("n") > rng.randint(0, 2))
                fsm.transition(src, dst)  # default keeps it moving
            elif kind == "act":
                fsm.transition(src, dst, actions=[
                    ("acc", Sig("acc") + cur),
                    ("last", cur),
                ])
            else:
                fsm.transition(src, dst)
            if kind == "wait":
                counter = f"w{f_idx}_{i}"
                fsm.wait_state(dst, counter)
                waits.append((counter, fsm.arc_signal(src, dst)))
            elif kind == "dyn":
                fsm.dynamic_wait(dst, (cur & 0x7) + rng.randint(0, 3))
        m.fsm(fsm)
        for counter, load in waits:
            m.counter(down_counter(
                counter, load_cond=load,
                load_value=(cur & 0xF) * rng.randint(1, 3),
                width=8,
            ))
        final_guards.append(
            Sig(fsm.state_signal) == fsm.code_of(names[-1]))

    m.counter(up_counter("step_count", reset_cond=0, width=8))
    if rng.random() < 0.5:
        m.counter(up_counter(
            "busy_count", reset_cond=Sig("n") == 0, width=8,
            enable=Sig("f0__state") != 0,
        ))
    if rng.random() < 0.5:
        m.update("acc", Sig("acc") + 1, cond=Sig("step_count") & 1)
    if rng.random() < 0.5:
        m.update("last", Sig("n"), fsm="f0", state="S1")

    done = final_guards[0]
    for guard in final_guards[1:]:
        done = done & guard
    m.set_done(done)
    return m.finalize()


def _agg_events(transitions, loads, resets):
    # Order-free event totals: what the batch backend's event columns
    # can express.  Zero entries never appear (Counter semantics).
    load_counts = Counter(name for name, _value in loads)
    load_sums = Counter()
    for name, value in loads:
        load_sums[name] += value
    reset_counts = Counter(name for name, _value in resets)
    reset_sums = Counter()
    for name, value in resets:
        reset_sums[name] += value
    def _nonzero(counter):
        return {key: value for key, value in counter.items() if value}
    return (dict(Counter(transitions)), _nonzero(load_counts),
            _nonzero(load_sums), _nonzero(reset_counts),
            _nonzero(reset_sums))


class _BatchEventSink:
    """Minimal batch-capable listener: keeps the raw event columns."""

    def __init__(self):
        self.events = None
        self.row = None

    def absorb_batch_events(self, events, row):
        self.events = events
        self.row = row


def _events_agg_from_batch(events, row):
    def _nonzero(mapping):
        return {key: int(column[row])
                for key, column in mapping.items() if column[row]}
    return (_nonzero(events.transition_counts),
            _nonzero(events.load_counts),
            _nonzero(events.load_value_sums),
            _nonzero(events.reset_counts),
            _nonzero(events.reset_value_sums))


def _run_one(module, cls, fast_forward):
    recorder = Recorder()
    sim = cls(module, listener=recorder, fast_forward=fast_forward)
    sim.load(inputs={"n": 3},
             memories={"data": [((7 * i) ^ 5) & 0xFF for i in range(16)]})
    result = sim.run(max_cycles=100_000)
    assert result.finished, f"{module.name} did not terminate"
    return {
        "cycles": result.cycles,
        "state": dict(sim.state),
        "state_cycles": dict(sim.state_cycles),
        "fsm_state": dict(sim._fsm_state),
        "events": (recorder.transitions, recorder.loads, recorder.resets),
        "events_agg": _agg_events(recorder.transitions, recorder.loads,
                                  recorder.resets),
    }


def _run_batch_one(module, fast_forward):
    sink = _BatchEventSink()
    sim = BatchScalarSimulation(module, listener=sink,
                                fast_forward=fast_forward)
    sim.load(inputs={"n": 3},
             memories={"data": [((7 * i) ^ 5) & 0xFF for i in range(16)]})
    result = sim.run(max_cycles=100_000)
    assert result.finished, f"{module.name} did not terminate (batch)"
    return {
        "cycles": result.cycles,
        "state": dict(sim.state),
        "state_cycles": dict(sim.state_cycles),
        "fsm_state": dict(sim._fsm_state),
        "events_agg": _events_agg_from_batch(sink.events, sink.row),
    }


@pytest.mark.parametrize("seed", range(25))
def test_backends_agree_on_random_modules(seed):
    module = build_fuzz_module(seed)
    runs = {}
    for fast_forward in (True, False):
        runs["interp"] = _run_one(module, Simulation, fast_forward)
        runs["stepjit"] = _run_one(module, StepSimulation, fast_forward)
        runs["batch"] = _run_batch_one(module, fast_forward)
        for backend in ("stepjit", "batch"):
            fields = ("cycles", "state", "state_cycles", "fsm_state",
                      "events_agg" if backend == "batch" else "events")
            for field in fields:
                assert runs[backend][field] == runs["interp"][field], (
                    f"seed {seed}, ff={fast_forward}: {backend} "
                    f"disagrees with interp on {field}")


@pytest.mark.parametrize("seed", range(0, 25, 5))
def test_fast_forward_is_exact_per_backend(seed):
    """ff on/off must agree within each backend, not just across."""
    module = build_fuzz_module(seed)
    for cls in (Simulation, StepSimulation):
        on = _run_one(module, cls, True)
        off = _run_one(module, cls, False)
        for field in ("cycles", "state", "state_cycles", "events"):
            assert on[field] == off[field], (seed, cls.__name__, field)
    on = _run_batch_one(module, True)
    off = _run_batch_one(module, False)
    for field in ("cycles", "state", "state_cycles", "events_agg"):
        assert on[field] == off[field], (seed, "batch", field)


@pytest.mark.parametrize("seed", range(0, 25, 3))
def test_batch_wide_agrees_with_interp(seed):
    """Rows with divergent inputs: each must match its own interp run."""
    module = build_fuzz_module(seed)
    rng = random.Random(1000 + seed)
    jobs = []
    for _row in range(17):
        words = [rng.randrange(256) for _ in range(rng.randrange(1, 17))]
        jobs.append(({"n": rng.randrange(8)}, {"data": words}))
    batch = BatchSimulation(module, track_state_cycles=True)
    result = batch.run_jobs(jobs, max_cycles=100_000)
    assert result.finished.all()
    for row, (inputs, memories) in enumerate(jobs):
        recorder = Recorder()
        sim = Simulation(module, listener=recorder)
        sim.load(inputs=inputs, memories=memories)
        ref = sim.run(max_cycles=100_000)
        assert ref.finished
        assert int(result.cycles[row]) == ref.cycles, (seed, row)
        assert result.state_cycles_for(row) == dict(sim.state_cycles), (
            seed, row)
        want = _agg_events(recorder.transitions, recorder.loads,
                           recorder.resets)
        got = _events_agg_from_batch(result.events, row)
        assert got == want, (seed, row)
