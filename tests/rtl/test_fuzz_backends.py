"""Differential fuzzing: both simulation backends must agree exactly.

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

A seeded mutation of the stepjit emitter (its fast-forward veto
tables emptied) must make the same comparison fail, so the fuzz is
known to catch a wrong jump.
"""

import random

import pytest

from repro.rtl import (
    Fsm,
    MemRead,
    Module,
    Sig,
    Simulation,
    StepSimulation,
    down_counter,
    up_counter,
)
from repro.rtl.stepjit import _StepCompiler
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
    }


@pytest.mark.parametrize("seed", range(25))
def test_backends_agree_on_random_modules(seed):
    module = build_fuzz_module(seed)
    for fast_forward in (True, False):
        ref = _run_one(module, Simulation, fast_forward)
        got = _run_one(module, StepSimulation, fast_forward)
        for field in ("cycles", "state", "state_cycles", "fsm_state",
                      "events"):
            assert got[field] == ref[field], (
                f"seed {seed}, ff={fast_forward}: stepjit "
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


def test_fuzz_catches_emitter_without_fast_forward_vetoes(monkeypatch):
    """Mutation smoke: with every fast-forward veto dropped from the
    generated kernel, stepjit jumps over cycles the interpreter steps
    through, and the fuzz comparison must see it on some seed."""
    monkeypatch.setattr(_StepCompiler, "veto_terms",
                        lambda self, pair: [])
    diverged = []
    for seed in range(25):
        module = build_fuzz_module(seed)  # fresh module: no cached kernel
        ref = _run_one(module, Simulation, True)
        try:
            got = _run_one(module, StepSimulation, True)
        except AssertionError:
            diverged.append(seed)
            continue
        if got != ref:
            diverged.append(seed)
    assert diverged, "emptied veto tables went unnoticed on every seed"
