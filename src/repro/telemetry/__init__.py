"""repro.telemetry — zero-dependency observability for every substrate.

Three pieces, importable independently and free of any intra-``repro``
imports at module level (so the hot backends can instrument themselves
without cycles):

* :mod:`repro.telemetry.metrics` — process-wide counters / gauges /
  timing observations with **mergeable** snapshots, so sweep workers and
  ECDH shards report back across process boundaries;
* :mod:`repro.telemetry.trace` — span tracing exported as Chrome
  trace-event JSON (open in Perfetto), behind the global ``--trace-out``
  CLI flag;
* :mod:`repro.telemetry.dashboard` — the perf-trajectory dashboard over
  the committed ``BENCH_*.json`` files with advisory regression flags.

:func:`snapshot_all` is the one aggregate view behind ``repro stats``:
the metrics registry plus the hit/miss/eviction stats of every named
:class:`~repro.pipeline.store.LRUCache`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_attributes
from . import metrics, trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any, Dict

__all__ = ["metrics", "trace", "dashboard", "snapshot_all"]

# The dashboard loads on first access: only ``repro dashboard`` needs it.
__getattr__, __dir__ = lazy_attributes(globals(), {"dashboard": "dashboard"}, __all__)


def snapshot_all() -> "Dict[str, Any]":
    """Metrics snapshot plus every named LRU cache's live stats."""
    # Imported lazily: pipeline.store itself records into this package.
    from ..pipeline.store import named_caches

    caches = {
        name: {
            "hits": info.hits,
            "misses": info.misses,
            "evictions": info.evictions,
            "currsize": info.currsize,
            "maxsize": info.maxsize,
        }
        for name, info in sorted(
            (name, cache.info()) for name, cache in named_caches().items()
        )
    }
    return {"metrics": metrics.REGISTRY.snapshot(), "caches": caches}
