"""Process-wide metrics: counters, gauges and timing observations.

The registry is deliberately tiny — three dictionaries behind one lock —
because it sits inside hot paths (``multiply_batch`` on every backend,
the artifact store, the sweep scheduler).  Two design rules keep it out
of the way of the benchmarks:

* **one attribute check gates everything** — instrumented call sites do
  ``reg = REGISTRY`` then ``if reg.enabled:``; with the no-op
  :class:`NullRegistry` installed that is a single class-attribute load
  and the hot path performs no dict lookups at all;
* **snapshots are mergeable** — process-pool sweep workers and ``repro
  ecdh --jobs`` shards (both through :func:`map_isolated`) run with
  their own local registry, return
  :meth:`MetricsRegistry.snapshot` next to their results, and the parent
  folds them in with :meth:`MetricsRegistry.merge`.  Counters and
  observation summaries add; gauges are last-write-wins.

Histogram-style data is kept as *observations*: per-name
``count/total/min/max`` summaries **plus a log-spaced bucket histogram**
(:data:`HISTOGRAM_BOUNDS`: powers of two from ~1 µs to 512, one shared
axis for every observation so latencies and batch-fill lane counts use
the same machinery).  Bucket counts merge across process snapshots by
plain element-wise addition — merged histograms are *exactly* equal to
the serial ones, which is what lets the serving layer report real
p50/p95/p99 (:func:`summary_quantile`) from worker-process snapshots
without a third-party sketch dependency.

Telemetry is **on** — the per-batch cost is two dict updates, invisible
next to any field operation — and a process switches it off for A/B
measurements with :func:`disable` (``set_registry(NullRegistry())``).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "Stopwatch",
    "REGISTRY",
    "HISTOGRAM_BOUNDS",
    "default_registry",
    "set_registry",
    "enable",
    "disable",
    "timed",
    "run_isolated",
    "map_isolated",
    "summary_quantile",
    "summary_quantiles",
]

#: Shared log-spaced bucket upper bounds for every observation histogram:
#: powers of two from 2^-20 (~0.95 µs) to 2^9 (512).  One fixed axis keeps
#: bucket counts mergeable by plain addition across process snapshots; the
#: range covers both sub-millisecond span timings and lane-count
#: observations like ``service.batch_fill`` (≤ 512 lanes).  Values above
#: the last bound land in a final overflow bucket.
HISTOGRAM_BOUNDS: "tuple" = tuple(2.0 ** exponent for exponent in range(-20, 10))

_BUCKETS = len(HISTOGRAM_BOUNDS) + 1


class Stopwatch:
    """Context manager that always measures and optionally records.

    ``with timed("cli.bench.compiled") as timer: ...`` then
    ``timer.seconds`` — the elapsed time is available to the caller even
    when telemetry is off (the CLI prints rates from it), and is folded
    into the registry's observations only when the registry is enabled.
    """

    __slots__ = ("_registry", "name", "seconds", "_start")

    def __init__(self, registry: "MetricsRegistry | NullRegistry", name: str) -> None:
        self._registry = registry
        self.name = name
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._start
        registry = self._registry
        if registry.enabled:
            registry.observe(self.name, self.seconds)


class MetricsRegistry:
    """Thread-safe counters / gauges / observations with mergeable snapshots."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: "Dict[str, int]" = {}
        self._gauges: "Dict[str, float]" = {}
        # name -> [count, total_seconds, min_seconds, max_seconds]
        self._observations: "Dict[str, list]" = {}

    # -- recording ----------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        bucket = bisect_left(HISTOGRAM_BOUNDS, seconds)
        with self._lock:
            entry = self._observations.get(name)
            if entry is None:
                buckets = [0] * _BUCKETS
                buckets[bucket] = 1
                self._observations[name] = [1, seconds, seconds, seconds, buckets]
            else:
                entry[0] += 1
                entry[1] += seconds
                if seconds < entry[2]:
                    entry[2] = seconds
                if seconds > entry[3]:
                    entry[3] = seconds
                entry[4][bucket] += 1

    def record_batch(self, backend_name: str, op: str, elements: int) -> None:
        """Count one batched field-op call and its element width."""
        prefix = f"backend.{backend_name}.{op}"
        with self._lock:
            counters = self._counters
            counters[prefix + ".calls"] = counters.get(prefix + ".calls", 0) + 1
            counters[prefix + ".elements"] = counters.get(prefix + ".elements", 0) + elements

    def timed(self, name: str) -> Stopwatch:
        return Stopwatch(self, name)

    # -- snapshots ----------------------------------------------------

    def snapshot(self) -> "Dict[str, Any]":
        """A plain-dict copy, safe to pickle across process boundaries."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "observations": {
                    name: {
                        "count": entry[0],
                        "total_s": entry[1],
                        "min_s": entry[2],
                        "max_s": entry[3],
                        "buckets": list(entry[4]),
                    }
                    for name, entry in self._observations.items()
                },
            }

    def merge(self, snapshot: "Optional[Dict[str, Any]]") -> None:
        """Fold a :meth:`snapshot` from another registry into this one."""
        if not snapshot:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                self._gauges[name] = value
            for name, summary in snapshot.get("observations", {}).items():
                incoming = summary["buckets"]
                entry = self._observations.get(name)
                if entry is None:
                    self._observations[name] = [
                        summary["count"],
                        summary["total_s"],
                        summary["min_s"],
                        summary["max_s"],
                        list(incoming),
                    ]
                else:
                    entry[0] += summary["count"]
                    entry[1] += summary["total_s"]
                    entry[2] = min(entry[2], summary["min_s"])
                    entry[3] = max(entry[3], summary["max_s"])
                    buckets = entry[4]
                    for index, value in enumerate(incoming):
                        buckets[index] += value

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._observations.clear()


class NullRegistry:
    """No-op stand-in: ``enabled`` is False and every method does nothing."""

    enabled = False

    def inc(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, seconds: float) -> None:
        pass

    def record_batch(self, backend_name: str, op: str, elements: int) -> None:
        pass

    def timed(self, name: str) -> Stopwatch:
        return Stopwatch(self, name)

    def snapshot(self) -> "Dict[str, Any]":
        return {"counters": {}, "gauges": {}, "observations": {}}

    def merge(self, snapshot: "Optional[Dict[str, Any]]") -> None:
        pass

    def reset(self) -> None:
        pass


#: The process-wide default registry.  Instrumented call sites read this
#: module attribute at call time (``metrics.REGISTRY``), so swapping it
#: with :func:`set_registry` redirects all future recording.
REGISTRY: "MetricsRegistry | NullRegistry" = MetricsRegistry()


def default_registry() -> "MetricsRegistry | NullRegistry":
    return REGISTRY


def set_registry(registry: "MetricsRegistry | NullRegistry") -> "MetricsRegistry | NullRegistry":
    """Install ``registry`` process-wide; returns the previous one."""
    global REGISTRY
    previous = REGISTRY
    REGISTRY = registry
    return previous


def enable() -> MetricsRegistry:
    """Ensure a live registry is installed (keeps an existing live one)."""
    global REGISTRY
    if not isinstance(REGISTRY, MetricsRegistry):
        REGISTRY = MetricsRegistry()
    return REGISTRY


def disable() -> None:
    """Install the no-op registry (hot paths cost one attribute check)."""
    set_registry(NullRegistry())


def timed(name: str) -> Stopwatch:
    """A :class:`Stopwatch` bound to the current process-wide registry."""
    return Stopwatch(REGISTRY, name)


def run_isolated(function, *args, **kwargs) -> "tuple":
    """``(function(*args, **kwargs), snapshot)`` recorded in a fresh registry.

    The process-pool idiom: a worker task records into its own local
    :class:`MetricsRegistry` (so counters a forked child inherited are
    never re-reported) and ships the snapshot back for the parent to
    :meth:`~MetricsRegistry.merge`.  With telemetry disabled the function
    runs bare and the snapshot is ``None``.
    """
    if not REGISTRY.enabled:
        return function(*args, **kwargs), None
    local = MetricsRegistry()
    previous = set_registry(local)
    try:
        result = function(*args, **kwargs)
    finally:
        set_registry(previous)
    return result, local.snapshot()


def _run_isolated_task(task: "tuple") -> "tuple":
    function, payload = task
    return run_isolated(function, payload)


def map_isolated(function, payloads: "Sequence[Any]", workers: int, mp_context=None) -> "List[Any]":
    """``[function(payload) for payload in payloads]`` on a process pool.

    Each task runs in :func:`run_isolated` in its worker, its snapshot
    comes back beside its result, and every snapshot folds into this
    process's :data:`REGISTRY`, so the aggregate matches a serial run.
    Results keep payload order.  ``function`` must be picklable (a
    module-level function), and so must the payloads.  The pool is imported
    here, so importing this module never loads :mod:`multiprocessing`.
    """
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, mp_context=mp_context) as pool:
        pairs = list(pool.map(_run_isolated_task, [(function, payload) for payload in payloads]))
    registry = REGISTRY
    if registry.enabled:
        for _, snapshot in pairs:
            registry.merge(snapshot)
    return [result for result, _ in pairs]


def summary_quantile(summary: "Dict[str, Any]", q: float) -> "Optional[float]":
    """Estimated ``q``-quantile of one observation summary's histogram.

    Walks the cumulative bucket counts to the bucket holding the target
    rank and interpolates geometrically inside it (the buckets are
    log-spaced, so geometric interpolation is the unbiased choice); the
    estimate is clamped into the exact recorded ``[min_s, max_s]`` range.
    Returns ``None`` for an empty summary.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    count = summary.get("count", 0)
    if not count:
        return None
    buckets = summary["buckets"]
    minimum, maximum = summary["min_s"], summary["max_s"]
    rank = max(1, min(count, int(q * count + 0.5)) if q > 0 else 1)
    if q >= 1.0:
        return maximum
    cumulative = 0
    for index, bucket_count in enumerate(buckets):
        if not bucket_count:
            continue
        cumulative += bucket_count
        if cumulative < rank:
            continue
        lower = HISTOGRAM_BOUNDS[index - 1] if index > 0 else minimum
        upper = HISTOGRAM_BOUNDS[index] if index < len(HISTOGRAM_BOUNDS) else maximum
        fraction = (rank - (cumulative - bucket_count)) / bucket_count
        if lower > 0 and upper > lower:
            estimate = lower * (upper / lower) ** fraction
        else:
            estimate = lower + (upper - lower) * fraction
        return min(max(estimate, minimum), maximum)
    return maximum  # pragma: no cover - bucket counts always sum to count


def summary_quantiles(
    summary: "Dict[str, Any]", qs: "Sequence[float]" = (0.5, 0.95, 0.99)
) -> "Dict[str, Optional[float]]":
    """``{"p50": ..., "p95": ..., "p99": ...}`` for one observation summary."""
    return {f"p{round(q * 100)}": summary_quantile(summary, q) for q in qs}
