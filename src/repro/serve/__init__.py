"""repro.serve — crypto-as-a-service: dynamic micro-batching front-end.

The repo's whole performance story (compiled circuit engines, native
word kernels, τ/comb recodings) pays off when requests arrive in
*batches* — but real traffic arrives one request at a time.
This package closes that gap with the same request-coalescing pattern
production inference servers use to amortize kernel launches:

* :mod:`repro.serve.batcher` — a thread-safe :class:`DynamicBatcher`
  that parks each request behind a future and dispatches a group of
  compatible requests (same curve × op) as one batch the moment a worker
  is free, or at the lane target (default 256) while every worker is
  busy — continuous batching, no timer;
* :mod:`repro.serve.workers` — a :class:`WorkerPool` of warmed worker
  processes (forked where the platform can, spawned otherwise; also the
  sharding engine behind ``repro ecdh --jobs``) that execute leased
  batches through the batched protocol entry points, each on its curve's
  scalar route, and fold their telemetry snapshots back into the parent
  registry;
* :mod:`repro.serve.server` — :class:`CryptoService`, a stdlib-asyncio
  JSON-over-HTTP/1.1 front-end exposing ``/ecdh``, ``/keygen``,
  ``/sign``, ``/healthz`` and ``/stats``;
* :mod:`repro.serve.loadgen` — the many-small-clients closed-loop load
  generator behind ``repro loadgen`` and the served layer of
  ``benchmarks/bench_layers.py``.

Everything is stdlib-only: no new runtime dependencies.
"""

from __future__ import annotations

from .batcher import Batch, DynamicBatcher, GroupKey
from .server import CryptoService
from .workers import WorkerPool, ecdh_sharded

__all__ = [
    "Batch",
    "DynamicBatcher",
    "GroupKey",
    "CryptoService",
    "WorkerPool",
    "ecdh_sharded",
]
