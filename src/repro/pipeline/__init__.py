"""Parallel sweep pipeline with a persistent artifact store.

This package scales the implementation flow from "one multiplier at a time"
to production-size grids (ROADMAP: sharding, batching, caching):

* :mod:`repro.pipeline.store` — the shared caching layer: the generic
  thread-safe :class:`LRUCache` (also backing :mod:`repro.multipliers.cache`
  and the backend registry) and
  the content-addressed on-disk :class:`ArtifactStore` under
  ``~/.cache/gf2m-repro`` (or ``--cache-dir`` / ``$GF2M_REPRO_CACHE_DIR``);
* :mod:`repro.pipeline.scheduler` — :class:`SweepJob` execution, store-first
  (a miss generates the multiplier and runs
  :func:`~repro.synth.flow.implement` on it), serially or on a process
  pool, with deterministic result ordering;
* :mod:`repro.pipeline.sweep` — the ``repro sweep`` grid API
  (field × method × device × effort) and its table/JSON/CSV renderers.

Quick start
-----------
>>> from repro.pipeline import run_sweep
>>> result = run_sweep(fields=[(8, 2)], methods=["thiswork"], jobs=1)
>>> [outcome.result.method for outcome in result.outcomes]
['thiswork']
"""

from .._lazy import lazy_attributes

# The store is what the rest of the program imports (the caches, the
# artifact store); the scheduler and the sweep load on first access,
# through __getattr__.
from .store import (
    ArtifactStore,
    CacheInfo,
    LRUCache,
    StoreInfo,
    canonical_fingerprint,
    default_cache_root,
)

_LAZY = {
    "scheduler": ("JobOutcome", "SweepJob", "artifact_key", "execute_job", "run_jobs"),
    "sweep": ("SweepResult", "build_sweep_jobs", "format_sweep", "run_sweep"),
}

__all__ = [
    "JobOutcome",
    "SweepJob",
    "artifact_key",
    "execute_job",
    "run_jobs",
    "ArtifactStore",
    "CacheInfo",
    "LRUCache",
    "StoreInfo",
    "canonical_fingerprint",
    "default_cache_root",
    "SweepResult",
    "build_sweep_jobs",
    "format_sweep",
    "run_sweep",
]


__getattr__, __dir__ = lazy_attributes(
    globals(), {name: module for module, names in _LAZY.items() for name in names}, __all__
)
