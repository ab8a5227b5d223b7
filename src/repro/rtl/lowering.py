"""The front-end shared by the generated-code simulation backends.

:mod:`repro.rtl.stepjit` (one job per call) and
:mod:`repro.rtl.batchsim` (a batch of jobs in lockstep) both lower a
finalized :class:`Module` into the source of one ``_step`` function.
They render expressions and cycle phases differently, but start from
the same front-end, which :class:`_KernelCompiler` holds:

* the slot layout — the scalar signals in :meth:`Simulation.reset`
  order, the memories and the wires, each bound to a collision-free
  Python local;
* the per-counter locals (next value, "changing", "zero-up") and the
  pending-register locals of the two-phase commit;
* the indented-line emitter;
* the fast-forward veto tables, built from :class:`_DepAnalysis` the
  way ``Simulation._try_skip`` reads them.
"""

from __future__ import annotations

import keyword
import re
from typing import FrozenSet, Iterable, List, Tuple

from .fsm import Fsm
from .module import Module
from .simulator import _DepAnalysis

_MEM_PREFIX = "__mem__"


class _Names:
    """Collision-free Python identifiers for generated locals."""

    def __init__(self, reserved: Iterable[str]) -> None:
        self._used = set(keyword.kwlist) | set(reserved)

    def make(self, prefix: str, name: str) -> str:
        """A fresh identifier derived from ``prefix`` + ``name``."""
        base = prefix + re.sub(r"\W", "_", name)
        candidate = base
        serial = 1
        while candidate in self._used:
            serial += 1
            candidate = f"{base}_{serial}"
        self._used.add(candidate)
        return candidate


class _KernelCompiler:
    """Slot layout, line emitter and veto tables for one module variant.

    Subclasses set ``RESERVED`` (the identifiers their generated source
    binds itself, so no signal local may take them) and ``TAG`` (their
    name in error messages), then render expressions and phases on top.
    """

    RESERVED: FrozenSet[str] = frozenset()
    TAG = "kernel"

    def __init__(self, module: Module, elide: FrozenSet[Tuple[str, str]],
                 track_state_cycles: bool, fast_forward: bool):
        if not module.finalized:
            raise ValueError(
                f"module {module.name} must be finalized first")
        self.m = module
        self.elide = elide
        self.track = track_state_cycles
        self.fast_forward = fast_forward
        self.deps = _DepAnalysis(module)

        self.names = names = _Names(self.RESERVED)
        # Scalar slot order mirrors Simulation.reset() (minus memories).
        self.scalar_names: List[str] = (
            [p.name for p in module.ports.values()]
            + [r.name for r in module.regs.values()]
            + [c.name for c in module.counters.values()]
            + [f.state_signal for f in module.fsms.values()]
            + [b.output for b in module.datapath_blocks]
            + [f.dynbusy_signal for f in module.fsms.values()
               if f.dynamic_waits]
        )
        self.scalar_local = {
            name: names.make("v_", name) for name in self.scalar_names
        }
        self.mem_names = list(module.memories)
        self.mem_local = {
            name: names.make("m_", name) for name in self.mem_names
        }
        self.wire_local = {
            name: names.make("w_", name) for name in module.wire_order
        }
        self.fsms: List[Fsm] = list(module.fsms.values())
        self.dyn_fsms = [f for f in self.fsms if f.dynamic_waits]
        self.down = [c for c in module.counters.values() if c.mode == "down"]
        self.up = [c for c in module.counters.values() if c.mode == "up"]
        self.cn = {c.name: names.make("cn_", c.name)
                   for c in self.down + self.up}
        self.ch = {c.name: names.make("ch_", c.name)
                   for c in self.down + self.up}
        self.zu = {c.name: names.make("zu_", c.name) for c in self.up}
        written = {u.reg for u in module.updates}
        for fsm in self.fsms:
            for t in fsm.transitions:
                for reg, _value in t.actions:
                    written.add(reg)
        self.pending_regs = [r for r in module.regs if r in written]
        self.p_local = {r: names.make("p_", r) for r in self.pending_regs}

        self._lines: List[str] = []
        self._indent = 1

    # -- emission helpers ----------------------------------------------
    def w(self, line: str = "") -> None:
        """Append one indented source line."""
        self._lines.append("    " * self._indent + line if line else "")

    def push(self) -> None:
        """Increase indentation."""
        self._indent += 1

    def pop(self) -> None:
        """Decrease indentation."""
        self._indent -= 1

    def ref(self, name: str) -> str:
        """The local holding a named signal (or memory)."""
        local = self.scalar_local.get(name)
        if local is not None:
            return local
        local = self.wire_local.get(name)
        if local is not None:
            return local
        if name.startswith(_MEM_PREFIX):
            return self.mem_local[name[len(_MEM_PREFIX):]]
        raise KeyError(
            f"{self.TAG}: unknown signal {name!r} in {self.m.name}")

    # -- veto tables ----------------------------------------------------
    def veto_terms(self, pair) -> List[str]:
        """Locals that, where set, veto a fast-forward jump."""
        unstable, zerocmp = pair
        terms = []
        for name in sorted(unstable):
            flag = self.ch.get(name)
            if flag is not None:
                terms.append(flag)
        for name in sorted(zerocmp):
            # Zero-compares are stable except on an up counter leaving 0.
            flag = self.zu.get(name)
            if flag is not None:
                terms.append(flag)
        return terms

    def arc_veto_terms(self, fsm: Fsm, state: str) -> List[str]:
        """Veto locals for the arcs out of one state."""
        terms: List[str] = []
        for t in fsm.transitions_from(state):
            for term in self.veto_terms(self.deps.analyze(t.cond)):
                if term not in terms:
                    terms.append(term)
        return terms
