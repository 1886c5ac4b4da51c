"""Dynamic micro-batching: coalesce single requests into batched lanes.

A :class:`DynamicBatcher` accepts one request at a time (each parked
behind a :class:`concurrent.futures.Future`), groups compatible requests
by :data:`GroupKey` — ``(op, curve, scalar_rep)``, the tuple that decides
whether two requests can share one batched ladder call — and hands each
group to a ``dispatch`` callable as one :class:`Batch` when either

* the group reaches ``max_lanes`` pending requests (**size flush** — the
  batch is as wide as the batched kernels want it), or
* ``max_delay_s`` has elapsed since the group's *oldest* request
  (**deadline flush** — a lone request never waits longer than the
  deadline for company).

Size flushes happen inline on the submitting thread, so a full batch
never waits for the flusher to wake; deadline flushes come from one
background flusher thread that sleeps until the earliest pending
deadline.  ``dispatch`` runs outside the batcher lock and is free to
block (the server's dispatch submits to the worker pool).

Telemetry (all through :mod:`repro.telemetry.metrics`):

* ``service.requests`` / ``service.batches`` counters,
* ``service.flush.size`` / ``service.flush.deadline`` / ``service.flush.close``
  flush-reason counters,
* ``service.batch_fill`` — a bucketed histogram of flushed lane counts,
* ``service.queue.depth`` — a gauge of requests currently parked.

With a tracer installed, every flush records a ``serve.flush`` span
covering the batch-assembly window (oldest enqueue → flush), so
``--trace-out`` makes batch assembly visible in Perfetto.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Tuple

from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any, Callable, Dict, List, Optional

#: (op, curve name, resolved scalar_rep) — requests sharing a key can
#: ride one batched protocol call.
GroupKey = Tuple[str, str, str]

__all__ = ["GroupKey", "PendingRequest", "Batch", "DynamicBatcher"]


#: Default flush policy: the batched kernels' preferred lane count and
#: a deadline short enough to be invisible next to one m=163 ladder.
DEFAULT_MAX_LANES = 256
DEFAULT_MAX_DELAY_S = 0.005


@dataclass
class PendingRequest:
    """One enqueued request: its payload, its future, and when it arrived."""

    payload: "Dict[str, Any]"
    future: "Future"
    enqueued_at: float = field(default_factory=time.perf_counter)


@dataclass
class Batch:
    """What ``dispatch`` receives: one flushed group of compatible requests."""

    key: "GroupKey"
    requests: "List[PendingRequest]"
    reason: str  # "size" | "deadline" | "close"
    flushed_at: float

    def __len__(self) -> int:
        return len(self.requests)


class DynamicBatcher:
    """Thread-safe size-or-deadline request coalescer.

    ``dispatch(batch)`` is called outside the internal lock, from the
    submitting thread on size flushes and from the flusher thread on
    deadline flushes.  Exceptions raised by ``dispatch`` are routed to
    the batch's request futures, so a failing dispatch never takes the
    flusher thread down.
    """

    def __init__(
        self,
        dispatch: "Callable[[Batch], None]",
        *,
        max_lanes: int = DEFAULT_MAX_LANES,
        max_delay_s: float = DEFAULT_MAX_DELAY_S,
    ) -> None:
        if max_lanes < 1:
            raise ValueError("max_lanes must be at least 1")
        if max_delay_s <= 0:
            raise ValueError("max_delay_s must be positive")
        self._dispatch = dispatch
        self.max_lanes = max_lanes
        self.max_delay_s = max_delay_s
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._groups: "Dict[GroupKey, List[PendingRequest]]" = {}
        self._deadlines: "Dict[GroupKey, float]" = {}
        self._closed = False
        self._flusher = threading.Thread(
            target=self._run_flusher, name="repro-serve-flusher", daemon=True
        )
        self._flusher.start()

    # -- submission ---------------------------------------------------

    def submit(self, key: "GroupKey", payload: "Dict[str, Any]") -> "Future":
        """Enqueue one request; returns the future its result will land on."""
        request = PendingRequest(payload, Future())
        full: "Optional[Batch]" = None
        with self._wakeup:
            if self._closed:
                raise RuntimeError("the batcher is closed")
            group = self._groups.setdefault(key, [])
            group.append(request)
            registry = _metrics.REGISTRY
            if registry.enabled:
                registry.inc("service.requests")
                registry.gauge("service.queue.depth", self._depth_locked())
            if len(group) >= self.max_lanes:
                full = self._take_locked(key, "size")
            elif len(group) == 1:
                self._deadlines[key] = request.enqueued_at + self.max_delay_s
                self._wakeup.notify()
        if full is not None:
            self._dispatch_batch(full)
        return request.future

    def queue_depth(self) -> int:
        """Requests currently parked across all groups."""
        with self._lock:
            return self._depth_locked()

    def _depth_locked(self) -> int:
        return sum(len(group) for group in self._groups.values())

    # -- flushing -----------------------------------------------------

    def _take_locked(self, key: "GroupKey", reason: str) -> Batch:
        """Detach one group as a :class:`Batch` (caller holds the lock)."""
        requests = self._groups.pop(key)
        self._deadlines.pop(key, None)
        registry = _metrics.REGISTRY
        if registry.enabled:
            registry.inc("service.batches")
            registry.inc(f"service.flush.{reason}")
            registry.observe("service.batch_fill", len(requests))
            registry.gauge("service.queue.depth", self._depth_locked())
        return Batch(key, requests, reason, time.perf_counter())

    def _dispatch_batch(self, batch: Batch) -> None:
        oldest = min(request.enqueued_at for request in batch.requests)
        _trace.record_span(
            "serve.flush",
            oldest,
            batch.flushed_at - oldest,
            op=batch.key[0],
            curve=batch.key[1],
            lanes=len(batch),
            reason=batch.reason,
        )
        try:
            self._dispatch(batch)
        except Exception as error:  # route, don't kill the flusher
            for request in batch.requests:
                if not request.future.done():
                    request.future.set_exception(error)

    def _run_flusher(self) -> None:
        while True:
            due: "List[Batch]" = []
            with self._wakeup:
                if self._closed and not self._groups:
                    return
                now = time.perf_counter()
                for key in list(self._deadlines):
                    if self._closed or self._deadlines[key] <= now:
                        due.append(self._take_locked(key, "close" if self._closed else "deadline"))
                if not due:
                    next_deadline = min(self._deadlines.values(), default=None)
                    timeout = None if next_deadline is None else max(next_deadline - now, 0.0)
                    self._wakeup.wait(timeout)
                    continue
            for batch in due:
                self._dispatch_batch(batch)

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Flush leftovers (reason ``close``) and stop the flusher thread."""
        with self._wakeup:
            self._closed = True
            self._wakeup.notify()
        self._flusher.join()
