"""Stable content fingerprints for cacheable offline-flow artifacts.

A cache entry is only as trustworthy as its key.  The fingerprints here
are pure functions of artifact *content* — never of object identity,
memory layout, or wall-clock — so they are stable across processes and
interpreter runs:

* :func:`design_hash` — SHA-256 of the design's Verilog export, the
  canonical structural description of a module (ports, wires, FSMs,
  counters, memories, updates).  Any structural edit changes the hash;
  renaming a Python variable that doesn't alter the RTL does not.
* :func:`jobs_fingerprint` — digest of the encoded training jobs (port
  values and scratchpad contents), so a cached feature matrix is only
  reused for byte-identical workload data.
* :func:`flow_config_fingerprint` — digest of every
  :class:`~repro.flow.pipeline.FlowConfig` field.  Execution knobs
  (worker counts, cache dirs) deliberately live *outside* FlowConfig so
  they never perturb cache keys.
* :func:`code_version` — package version plus
  :data:`CACHE_SCHEMA_VERSION`; bump the schema constant whenever the
  pickled artifact layout changes to orphan stale entries.

:func:`combine_fingerprints` folds the parts into one key for the
on-disk cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

#: Bump when the pickled layout of cached artifacts changes; old cache
#: entries then miss instead of unpickling into stale shapes.
CACHE_SCHEMA_VERSION = 3


def _update(h, obj) -> None:
    # Type-tagged, order-stable serialization into the running hash.
    if obj is None:
        h.update(b"N;")
    elif isinstance(obj, bool):
        h.update(b"b1;" if obj else b"b0;")
    elif isinstance(obj, int):
        h.update(b"i" + str(obj).encode() + b";")
    elif isinstance(obj, float):
        h.update(b"f" + repr(obj).encode() + b";")
    elif isinstance(obj, str):
        data = obj.encode()
        h.update(b"s" + str(len(data)).encode() + b":" + data)
    elif isinstance(obj, bytes):
        h.update(b"y" + str(len(obj)).encode() + b":" + obj)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"a" + str(arr.dtype).encode() + str(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"l" if isinstance(obj, list) else b"t")
        h.update(str(len(obj)).encode() + b":")
        if len(obj) > 64 and all(
                isinstance(x, int) and not isinstance(x, bool)
                for x in obj):
            # Scratchpad contents: hash as one int64 block, not one
            # update per word (a megabyte memory costs ~ms, not ~s).
            try:
                _update(h, np.asarray(obj, dtype=np.int64))
                return
            except OverflowError:
                pass
        for item in obj:
            _update(h, item)
    elif isinstance(obj, dict):
        h.update(b"d" + str(len(obj)).encode() + b":")
        for key in sorted(obj, key=repr):
            _update(h, key)
            _update(h, obj[key])
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"c" + type(obj).__name__.encode() + b":")
        for field in dataclasses.fields(obj):
            _update(h, field.name)
            _update(h, getattr(obj, field.name))
    else:
        raise TypeError(
            f"cannot fingerprint {type(obj).__name__!r} values; "
            f"convert to plain data first"
        )


def stable_hash(obj) -> str:
    """SHA-256 hex digest of a plain-data value (dicts key-sorted)."""
    h = hashlib.sha256()
    _update(h, obj)
    return h.hexdigest()


def design_hash(module) -> str:
    """Structural hash of a finalized module via its Verilog export."""
    from ..rtl.verilog import to_verilog

    return hashlib.sha256(to_verilog(module).encode()).hexdigest()


def jobs_fingerprint(
    jobs: Iterable[Tuple[Dict[str, int], Dict[str, Sequence[int]]]]
) -> str:
    """Digest of encoded jobs: (port dict, memory dict) pairs."""
    h = hashlib.sha256()
    h.update(b"jobs:")
    for inputs, memories in jobs:
        _update(h, inputs)
        _update(h, {name: list(words) for name, words in memories.items()})
    return h.hexdigest()


def flow_config_fingerprint(config) -> str:
    """Digest of every FlowConfig field (model-relevant knobs only)."""
    return stable_hash(config)


def workload_fingerprint(name: str, scale: float) -> str:
    """Digest of a registry workload identity: (name, scale).

    Registry workloads are deterministic functions of (name, scale) —
    the generators use fixed seeds — so identity is content here.
    """
    return stable_hash(("workload", name, float(scale)))


def code_version() -> str:
    """Package version + cache schema, part of every cache key."""
    from .. import __version__

    return f"{__version__}+schema{CACHE_SCHEMA_VERSION}"


def combine_fingerprints(*parts: str) -> str:
    """Fold part digests into the final content-addressed key."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() + b"\n")
    return h.hexdigest()
