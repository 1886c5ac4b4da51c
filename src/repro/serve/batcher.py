"""Continuous micro-batching: coalesce single requests into batched lanes.

A :class:`DynamicBatcher` accepts one request at a time (each parked
behind a :class:`concurrent.futures.Future`), groups compatible requests
by :data:`GroupKey` — ``(op, curve)``, the pair that decides whether two
requests can share one batched protocol call — and hands a group to
``dispatch`` as one :class:`Batch` as soon as a worker can take it
(continuous batching, as in Yu et al., "Orca", OSDI 2022):

* **idle flush** — a worker slot is free: inside ``submit``, or when a
  finished batch frees its slot for the group holding the oldest waiting
  request.  A lone request on an idle service never waits for company;
* **size flush** — the group reaches ``max_lanes``, even while every slot
  is busy.  It holds no slot, so full groups of a hot key never keep a
  freed slot from the oldest waiting request;
* **close flush** — :meth:`DynamicBatcher.close` drains what still waits.

Groups accumulate only while every slot is busy: no timer, no thread.

Telemetry (all through :mod:`repro.telemetry.metrics`):

* ``service.requests`` / ``service.batches`` counters,
* ``service.flush.idle`` / ``service.flush.size`` / ``service.flush.close``
  flush-reason counters,
* ``service.batch_fill`` — a bucketed histogram of flushed lane counts,
* ``service.queue_wait`` — each request's wait from enqueue to flush,
* ``service.queue.depth`` — a gauge of requests currently parked.

With a tracer installed, every flush records a ``serve.flush`` span
covering the batch-assembly window (oldest enqueue → flush), so
``--trace-out`` makes batch assembly visible in Perfetto.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Tuple

from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any, Callable, Dict, List, Optional

#: (op, curve name) — requests sharing a key ride one batched protocol
#: call, on the curve's scalar route.
GroupKey = Tuple[str, str]

__all__ = ["GroupKey", "PendingRequest", "Batch", "DynamicBatcher"]


#: The batched kernels' preferred lane count: a group this large is
#: dispatched even while every worker is busy.
DEFAULT_MAX_LANES = 256


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
    reason: str  # "idle" | "size" | "close"
    flushed_at: float

    def __len__(self) -> int:
        return len(self.requests)


class DynamicBatcher:
    """Thread-safe slot-driven request coalescer.

    ``slots`` idle flushes may be in flight at once (the worker pool's
    width); size and close flushes hold no slot.  ``dispatch(batch)`` runs
    outside the lock, on the submitting thread or on the one that completed
    the previous lease, and returns the batch's lease future (one result row
    per request).  The batcher fans the rows out, or routes the error of a
    failed lease (or of a raising ``dispatch``) to every request, and frees
    the slot if the batch held one.
    """

    def __init__(
        self,
        dispatch: "Callable[[Batch], Future]",
        *,
        max_lanes: int = DEFAULT_MAX_LANES,
        slots: int = 1,
    ) -> None:
        if max_lanes < 1:
            raise ValueError("max_lanes must be at least 1")
        if slots < 1:
            raise ValueError("slots must be at least 1")
        self._dispatch = dispatch
        self.max_lanes = max_lanes
        self.slots = slots
        self._lock = threading.Lock()
        # Dict order is creation order, and a group is created by its oldest
        # request: the first key always holds the oldest waiting request.
        self._groups: "Dict[GroupKey, List[PendingRequest]]" = {}
        self._busy = 0  # slot-holding (idle) leases in flight, at most slots
        self._closed = False

    # -- submission ---------------------------------------------------

    def submit(self, key: "GroupKey", payload: "Dict[str, Any]") -> "Future":
        """Enqueue one request; returns the future its result will land on."""
        request = PendingRequest(payload, Future())
        batch: "Optional[Batch]" = None
        with self._lock:
            if self._closed:
                raise RuntimeError("the batcher is closed")
            group = self._groups.setdefault(key, [])
            group.append(request)
            registry = _metrics.REGISTRY
            if registry.enabled:
                registry.inc("service.requests")
                registry.gauge("service.queue.depth", self._depth_locked())
            if self._busy < self.slots:
                batch = self._take_locked(key, "idle")
            elif len(group) >= self.max_lanes:
                batch = self._take_locked(key, "size")
        self._dispatch_batch(batch)
        return request.future

    def queue_depth(self) -> int:
        """Requests currently parked across all groups."""
        with self._lock:
            return self._depth_locked()

    def _depth_locked(self) -> int:
        return sum(len(group) for group in self._groups.values())

    # -- the batch lifecycle ------------------------------------------

    def _take_locked(self, key: "GroupKey", reason: str) -> Batch:
        """Detach one group as a :class:`Batch` (lock held); idle takes a slot."""
        requests = self._groups.pop(key)
        if reason == "idle":
            self._busy += 1
        registry = _metrics.REGISTRY
        if registry.enabled:
            registry.inc("service.batches")
            registry.inc(f"service.flush.{reason}")
            registry.observe("service.batch_fill", len(requests))
            registry.gauge("service.queue.depth", self._depth_locked())
        return Batch(key, requests, reason, time.perf_counter())

    def _dispatch_batch(self, batch: "Optional[Batch]") -> None:
        """Lease ``batch`` out (outside the lock); its callback frees the slot."""
        if batch is None:
            return
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
        registry = _metrics.REGISTRY
        if registry.enabled:
            for request in batch.requests:
                registry.observe("service.queue_wait", batch.flushed_at - request.enqueued_at)
        try:
            lease = self._dispatch(batch)
        except Exception as error:  # the requests see a failed lease
            lease = Future()
            lease.set_exception(error)
        lease.add_done_callback(functools.partial(self._finished, batch))

    def _finished(self, batch: Batch, lease: "Future") -> None:
        """Hand the batch's slot on, if it held one, then fan the lease's rows
        (row ``i`` to request ``i``) or its error out: no client hears back
        before the slot is free."""
        if batch.reason == "idle":
            self._dispatch_batch(self._release())
        error = lease.exception()
        rows = lease.result() if error is None else [None] * len(batch)
        for request, row in zip(batch.requests, rows):
            with contextlib.suppress(InvalidStateError):  # cancelled meanwhile
                if error is None:
                    request.future.set_result(row)
                else:
                    request.future.set_exception(error)

    def _release(self) -> "Optional[Batch]":
        """Free one slot; take the group holding the oldest waiting request."""
        with self._lock:
            self._busy -= 1
            if self._groups:
                return self._take_locked(next(iter(self._groups)), "idle")
        return None

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Flush every waiting group (reason ``close``) and refuse new requests."""
        with self._lock:
            self._closed = True
            batches = [self._take_locked(key, "close") for key in list(self._groups)]
        for batch in batches:
            self._dispatch_batch(batch)
