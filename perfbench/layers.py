"""Per-layer self time, measured from outside the program.

:class:`LayerClock` stands in for ``repro.obs``' tracer: installed as
an observer's ``tracer`` it receives every span the program already
opens (``flow``, ``fit``, ``record``, ``serve`` ...), and the
benchmark's own wrappers (:class:`Patches`) open more spans around
calls into each layer's public functions.  Each span's *self* time —
its duration minus the time its child spans cover — is added to the
layer its name maps to, online, so no span list grows with the run.

A span whose name maps to no layer belongs to its parent's layer, so a
span added inside the program later does not break the accounting.
Everything inside a ``check.*`` span is checking time: the episodes or
streams a check re-runs count there, not in their own layers.
Spans named ``bench.*`` (the benchmark's own phases) count as
unattributed time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

UNATTRIBUTED = "unattributed_s"

#: Span name -> layer metric.  Program spans first, then the spans the
#: benchmark's wrappers open.
SPAN_LAYERS: Dict[str, str] = {
    # program spans (repro.obs)
    "bundle": "experiments.bundle_s",
    "flow": "flow.flow_s",
    "synthesize": "rtl.synth_s",
    "detect": "analysis.detect_s",
    "record": "analysis.record_s",
    "fit": "model.fit_s",
    "slice": "slicing.slice_s",
    "test_records": "flow.test_records_s",
    "episode": "runtime.episode_s",
    "serve": "serve.decide_s",
    "serve.fleet": "serve.fleet_s",
    # benchmark wrapper spans
    "model.solve": "model.fit_s",
    "runtime.run_episode": "runtime.episode_s",
    "runner.tech_context": "experiments.bundle_s",
    "rtl.slice_sim": "rtl.slice_sim_s",
    "serve.stream": "serve.decide_s",
    "serve.build": "serve.build_s",
    "serve.fleet.route": "serve.fleet.route_s",
    "serve.shard": "serve.shard_s",
    "check.episode": "check.episode_s",
    "check.stream": "check.stream_s",
    "check.epochs": "check.stream_s",
    "check.fleet": "check.fleet_s",
    "check.baseline": "check.baseline_s",
}

#: Span label -> counter: ``record`` spans carry the job count.
SPAN_LABEL_COUNTS: Dict[str, Tuple[str, str]] = {
    "record": ("jobs", "analysis.record_jobs"),
}

OBS_LAYER = "obs.self_s"


def layer_of(name: str) -> Optional[str]:
    """The layer metric a span name maps to (``None``: inherit)."""
    if name.startswith("bench."):
        return UNATTRIBUTED
    if name.startswith("experiments."):
        return name + "_s"
    return SPAN_LAYERS.get(name)


class LayerClock:
    """Nested spans folded into per-layer self time as they close.

    Drop-in for ``repro.obs.Tracer`` (``span(name, **labels)``), so it
    can be assigned to an ``Observer.tracer``.  ``charge`` records a
    leaf span after the fact, for calls too frequent to wrap in a
    context manager.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Duration of spans opened with nothing around them.
        self.root_s = 0.0
        #: Open frames: [layer, seconds covered by child spans].
        self._stack: List[list] = []
        self.obs_busy = False

    def _close(self, layer: str, duration: float, child_s: float) -> None:
        self.self_s[layer] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.root_s += duration

    @contextmanager
    def span(self, name: str, **labels: object) -> Iterator[None]:
        """Time a region; its self time goes to the name's layer."""
        parent = self._stack[-1][0] if self._stack else UNATTRIBUTED
        layer = layer_of(name)
        if layer is None or parent.startswith("check."):
            layer = parent
        frame = [layer, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - t0
            if self._stack.pop() is not frame:
                raise RuntimeError(f"span {name!r} closed out of order")
            self._close(layer, duration, frame[1])
            counted = SPAN_LABEL_COUNTS.get(name)
            if counted is not None and counted[0] in labels:
                self.counts[counted[1]] += float(labels[counted[0]])

    def charge(self, layer: str, duration: float) -> None:
        """Record a leaf span of ``duration`` seconds that just ended."""
        self._close(layer, duration, 0.0)

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a named counter."""
        self.counts[name] += amount

    def absorb(self, counters: Dict[str, float]) -> None:
        """Add a ``repro.obs`` metrics registry's counters."""
        for name, value in counters.items():
            self.counts[name] += value


def reconcile(self_s: Dict[str, float], wall_s: float,
              rel_tol: float = 1e-9) -> float:
    """Check that layer self times sum to ``wall_s``; returns the gap.

    Every self time must be non-negative (a negative one means spans
    overlapped instead of nesting) and their sum must equal the wall
    time of the region they were measured in.
    """
    negative = {k: v for k, v in self_s.items() if v < -rel_tol * wall_s}
    if negative:
        raise ValueError(f"negative self time: {negative}")
    gap = sum(self_s.values()) - wall_s
    if abs(gap) > rel_tol * max(wall_s, 1.0):
        raise ValueError(
            f"layer self times sum to {sum(self_s.values())!r} s, "
            f"traced wall time is {wall_s!r} s")
    return gap


class Patches:
    """Replace attributes for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def everywhere(self, func: Callable, new: Callable) -> None:
        """Rebind ``func`` in every loaded ``repro`` module that holds
        it (``from x import f`` copies the binding)."""
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.replace(module, attr, new)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> bool:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        return False


def spanned(clock: LayerClock, name: str, func: Callable,
            after: Optional[Callable] = None) -> Callable:
    """``func`` inside a ``name`` span; ``after(result)`` sees each
    return value (outside the span)."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with clock.span(name):
            result = func(*args, **kwargs)
        if after is not None:
            after(result)
        return result
    return wrapper


def charged(clock: LayerClock, func: Callable) -> Callable:
    """``func`` timed as a leaf of the ``obs`` layer and counted in
    ``obs.calls``; calls nested inside another charged call count once.
    """
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if clock.obs_busy:
            return func(*args, **kwargs)
        clock.obs_busy = True
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            clock.charge(OBS_LAYER, time.perf_counter() - t0)
            clock.obs_busy = False
            clock.counts["obs.calls"] += 1
    return wrapper
