"""Parallel execution and persistent artifact caching for the flow.

Two cooperating layers turn the embarrassingly parallel offline flow
(independent training jobs, independent Lasso solves and refits,
independent benchmark bundles) into wall-clock wins:

* :mod:`~repro.parallel.pool` — :func:`pmap`, an order-preserving
  process-pool map with chunking, a ``--jobs N`` / ``REPRO_JOBS`` knob
  and a zero-overhead serial fallback;
* :mod:`~repro.parallel.cache` — :class:`ArtifactCache`, an on-disk
  content-addressed store for feature matrices and benchmark bundles,
  keyed by the :mod:`~repro.parallel.fingerprint` digests of design
  structure, workload content, flow configuration and code version.

Both report into the observability subsystem (``pool.*`` and
``cache.*`` metrics plus spans), so ``repro report`` shows pool
utilization and cache effectiveness next to the stage timings.
"""

from .cache import (
    DEFAULT_CACHE_DIR,
    ArtifactCache,
    CacheStats,
    get_cache,
    set_cache,
)
from .fingerprint import (
    CACHE_SCHEMA_VERSION,
    code_version,
    combine_fingerprints,
    design_hash,
    flow_config_fingerprint,
    jobs_fingerprint,
    stable_hash,
    workload_fingerprint,
)
from .pool import (
    get_default_jobs,
    pmap,
    resolve_jobs,
    set_default_jobs,
)

__all__ = [
    "ArtifactCache", "CACHE_SCHEMA_VERSION", "CacheStats",
    "DEFAULT_CACHE_DIR", "code_version", "combine_fingerprints",
    "design_hash", "flow_config_fingerprint", "get_cache",
    "get_default_jobs", "jobs_fingerprint", "pmap", "resolve_jobs",
    "set_cache", "set_default_jobs", "stable_hash",
    "workload_fingerprint",
]
