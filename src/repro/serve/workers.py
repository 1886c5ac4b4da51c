"""Worker pool: execute leased batches on warmed backends, across cores.

Two consumers share this module:

* the serving layer: a :class:`WorkerPool` executes each flushed
  :class:`~repro.serve.batcher.Batch` through the batched protocol entry
  points (:func:`~repro.curves.protocols.ecdh_batch`, generator
  ``multiply_batch`` for keygen, :func:`~repro.curves.protocols
  .sign_batch`) on a worker that resolved its backend **once** and warmed
  every compiled cache at startup — the first request never pays compile
  latency.  A lane the batch refuses gets an error row, and the other
  lanes keep the results the batch computed, or rerun as one batch when
  it refused before computing any (:func:`execute_group`);
* ``repro ecdh --jobs``: :func:`ecdh_sharded` splits one large agreement
  batch across the same kind of pool.

Both pools start their processes from one explicit multiprocessing
context (:func:`pool_context`: ``fork`` when the platform has it, so
children inherit the parent's warm caches for free; ``spawn`` otherwise,
where the per-worker initializer re-warms), and every worker entry point
is a module-level function fed only picklable data (names and integers,
never backend instances).  Every group runs on its curve's scalar route
(the protocol default ``"auto"``: τ-adic on Koblitz curves, the binary
ladder otherwise; the comb for generator multiplies).

Telemetry crosses the process boundary the PR 8 way: each worker task
runs against a fresh local :class:`~repro.telemetry.metrics
.MetricsRegistry` (a forked child's copy of the parent registry must not
be double-reported) and ships its snapshot back with the results; the
parent folds every snapshot into the process registry, so parallel
aggregates match serial runs exactly.

``workers=0`` selects the **inline** mode: batches execute on a single
worker *thread* in the server process.  On one-core machines this beats a
process pool (no pickling, no IPC — and the native backend's cffi calls
release the GIL, so the event loop keeps parsing the next wave while the
C kernel runs); it is also what the tests use.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING

from ..curves import LaneError, curve_by_name, ecdh_batch, sign_batch
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any, Dict, List, Optional, Sequence, Tuple

    from ..backends.base import FieldBackend
    from ..curves.point import BinaryCurve, Point
    from .batcher import GroupKey

__all__ = [
    "OP_FIELDS",
    "pool_context",
    "warm_curve",
    "execute_group",
    "WorkerPool",
    "ecdh_sharded",
]

#: Request payload fields per operation, in columnar order.  The server
#: validates these on ingress; the pool ships them as parallel lists.
OP_FIELDS: "Dict[str, Tuple[str, ...]]" = {
    "ecdh": ("private", "peer_x", "peer_y"),
    "keygen": ("private",),
    "sign": ("private", "digest"),
}


def pool_context():
    """The pools' multiprocessing context (never the mutable global one).

    ``fork`` when the platform offers it — children inherit every warm
    cache (compiled circuits, comb tables, executor lowerings) for free —
    and ``spawn`` otherwise, where the worker initializer re-warms.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def warm_curve(curve: "BinaryCurve", backend: "Optional[str]" = None) -> "FieldBackend":
    """Resolve one backend for ``curve`` and pre-pay every compile cost.

    Runs tiny batches through the two routes a service request can take —
    the curve's ladder (τ-adic on Koblitz curves, binary otherwise) and
    the fixed-base route (which builds or loads the comb table; toy
    curves quietly keep the ladder) — so the compiled formulas, executor
    lowerings and comb tables are all hot before the first real request
    arrives.
    """
    resolved = curve.field.resolve_backend(backend)
    generator = curve.generator
    for fixed_base in (False, None):
        curve.multiply_batch(
            [generator, generator], [2, 3],
            backend=resolved, scalar_rep="auto", fixed_base=fixed_base,
        )
    return resolved


# -- batch execution (runs inside workers) ----------------------------


def execute_group(
    curve: "BinaryCurve",
    backend: "FieldBackend | str | None",
    op: str,
    columns: "Dict[str, List[int]]",
) -> "List[Dict[str, Any]]":
    """Execute one compatible group through the batched protocol entry points.

    Returns one result row per request: ``{"x", "y"}`` for ecdh/keygen
    (``None`` coordinates for the point at infinity), ``{"r", "s"}`` for
    sign.  A batch that refuses some lanes (:class:`~repro.curves.point
    .LaneError`: an off-curve or low-order peer, a shared point at
    infinity, a private key out of range) answers each of them with
    ``{"error": reason}``; the others take the results the error carries
    when the batch had computed them (a shared point at infinity), and
    rerun as one batch otherwise.  The group counts one
    ``service.batch_fallback`` and its ``service.rejected_lanes``.  Any
    other exception fails the whole group.
    """
    count = len(columns["private"])
    rows: "List[Any]" = [None] * count
    lanes: "Sequence[int]" = range(count)
    subset = columns
    while True:
        try:
            results = _execute_batch(curve, backend, op, subset)
        except LaneError as refused:
            for position, reason in refused.lanes.items():
                rows[lanes[position]] = {"error": reason}
            kept = [position for position in range(len(lanes)) if position not in refused.lanes]
            lanes = [lanes[position] for position in kept]
            if refused.results is None:
                subset = {name: [values[lane] for lane in lanes] for name, values in columns.items()}
                continue
            results = [_row(refused.results[position]) for position in kept]
        for lane, row in zip(lanes, results):
            rows[lane] = row
        rejected = count - len(lanes)
        registry = _metrics.REGISTRY
        if rejected and registry.enabled:
            registry.inc("service.batch_fallback")
            registry.inc("service.rejected_lanes", rejected)
        return rows


def _execute_batch(
    curve: "BinaryCurve",
    backend: "FieldBackend | str | None",
    op: str,
    columns: "Dict[str, List[int]]",
) -> "List[Dict[str, Any]]":
    """One batched protocol call over every lane of ``columns``."""
    if op == "ecdh":
        peers = [
            curve.point(x, y, check=False)
            for x, y in zip(columns["peer_x"], columns["peer_y"])
        ]
        points = ecdh_batch(curve, columns["private"], peers, backend=backend)
        return [_row(point) for point in points]
    if op == "keygen":
        privates = columns["private"]
        points = curve.multiply_batch(
            [curve.generator] * len(privates), privates, backend=backend, scalar_rep="auto"
        )
        return [_row(point) for point in points]
    if op == "sign":
        signatures = sign_batch(curve, columns["private"], columns["digest"], backend=backend)
        return [{"r": signature.r, "s": signature.s} for signature in signatures]
    raise ValueError(f"unknown op {op!r}; known: {', '.join(OP_FIELDS)}")


def _row(point: "Point") -> "Dict[str, Any]":
    """The result row of an ecdh or keygen lane."""
    return {"x": point.x, "y": point.y}


#: Per-worker-process state installed by :func:`_worker_init`.
_WORKER_CURVES: "Dict[str, Tuple[BinaryCurve, FieldBackend]]" = {}


def _worker_init(backend_name: "Optional[str]", curve_names: "Tuple[str, ...]") -> None:
    """Process-pool initializer: resolve and warm every served curve once."""
    # A terminal Ctrl-C is delivered to the whole foreground process
    # group; shutdown is the parent's job, so workers must not die (or
    # spray tracebacks) on the shared SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for name in curve_names:
        curve = curve_by_name(name)
        _WORKER_CURVES[name] = (curve, warm_curve(curve, backend_name))


def _worker_probe(delay_s: float) -> int:
    """Startup barrier task: holds a worker busy so every worker spawns."""
    time.sleep(delay_s)
    return os.getpid()


def _worker_execute(task: "Tuple[str, str, Dict[str, List[int]]]"):
    """One leased batch, executed against a local metrics registry.

    Returns ``(rows, snapshot)``; the parent folds the snapshot so the
    registry aggregates match a serial run (a forked child's inherited
    registry contents must never be re-reported).
    """
    op, curve_name, columns = task
    curve, backend = _WORKER_CURVES[curve_name]
    return _metrics.run_isolated(execute_group, curve, backend, op, columns)


class WorkerPool:
    """Executes compatible request groups on warmed workers.

    ``workers >= 1`` resolves every listed curve's backend in this process
    (so a cold cache builds the native kernel once, here), then builds a
    :class:`ProcessPoolExecutor` over :func:`pool_context` whose
    initializer warms every listed curve, and runs a startup barrier
    so no worker (and therefore no request) pays compile latency later.
    ``workers=0`` executes inline on one worker thread in this process
    (best on single-core machines; used by the tests).  ``backend`` is a
    registry *name* (or ``None`` for the per-field default) — instances do
    not cross process boundaries.  The pool serves only the listed curves:
    a group on any other fails its future with ``KeyError``.
    """

    def __init__(
        self,
        *,
        workers: "Optional[int]" = None,
        backend: "Optional[str]" = None,
        curves: "Sequence[str]" = (),
    ) -> None:
        if backend is not None and not isinstance(backend, str):
            raise TypeError("WorkerPool takes a backend *name*; instances cannot cross processes")
        self.backend_name = backend
        self.workers = (os.cpu_count() or 1) if workers is None else workers
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        self.curve_names = tuple(curves)
        if self.workers == 0:
            self._inline_curves: "Dict[str, Tuple[BinaryCurve, FieldBackend]]" = {}
            for name in self.curve_names:
                curve = curve_by_name(name)
                self._inline_curves[name] = (curve, warm_curve(curve, backend))
            self._executor: "Any" = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-worker"
            )
        else:
            # Resolve every served curve's backend here, before any worker
            # starts: on a cold cache that builds the native kernel once, in
            # this process (forked workers inherit it, spawned ones load it
            # from the cache), instead of once per worker initializer.
            for name in self.curve_names:
                curve_by_name(name).field.resolve_backend(backend)
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=pool_context(),
                initializer=_worker_init,
                initargs=(backend, self.curve_names),
            )
            # Startup barrier: one probe per worker forces every process to
            # spawn and run the warming initializer now, not on first lease.
            wait([self._executor.submit(_worker_probe, 0.05) for _ in range(self.workers)])

    # -- leasing ------------------------------------------------------

    def submit(self, key: "GroupKey", columns: "Dict[str, List[int]]") -> "Future":
        """Lease one group to a worker; the future resolves to result rows."""
        op, curve_name = key
        outer: "Future" = Future()
        submitted_at = time.perf_counter()
        lanes = len(columns["private"])
        if self.workers == 0:
            inner = self._executor.submit(self._execute_inline, key, columns)
        else:
            inner = self._executor.submit(_worker_execute, (op, curve_name, columns))

        def _complete(done: "Future") -> None:
            elapsed = time.perf_counter() - submitted_at
            _trace.record_span(
                "serve.execute", submitted_at, elapsed, op=op, curve=curve_name, lanes=lanes
            )
            registry = _metrics.REGISTRY
            if registry.enabled:
                registry.observe("service.execute", elapsed)
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
                return
            rows, snapshot = done.result()
            if snapshot is not None and registry.enabled:
                registry.merge(snapshot)
            outer.set_result(rows)

        inner.add_done_callback(_complete)
        return outer

    def _execute_inline(self, key: "GroupKey", columns: "Dict[str, List[int]]"):
        """Inline-mode task: same-process execution, no snapshot to fold."""
        op, curve_name = key
        curve, backend = self._inline_curves[curve_name]
        return execute_group(curve, backend, op, columns), None

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def describe(self) -> str:
        mode = "inline thread" if self.workers == 0 else f"{self.workers} process(es)"
        backend = self.backend_name or "default"
        return f"worker pool: {mode}, backend {backend}, curves {', '.join(self.curve_names) or '-'}"


# -- CLI sharding (repro ecdh --jobs) ---------------------------------


def _ecdh_shard(payload) -> list:
    """One shard of a large agreement batch (module-level: spawn-safe).

    Takes plain picklable data (curve name, backend name, the shard's
    first lane, scalars, peer coordinates) and returns coordinate tuples
    so shards compose deterministically.  Refused lanes are named by
    their index in the whole batch.
    """
    curve_name, backend, start, privates, peer_coords = payload
    curve = curve_by_name(curve_name)
    peers = [curve.point(x, y, check=False) for x, y in peer_coords]
    try:
        points = ecdh_batch(curve, privates, peers, backend=backend)
    except LaneError as refused:
        raise LaneError({start + lane: reason for lane, reason in refused.lanes.items()}) from None
    return [(point.x, point.y) for point in points]


def ecdh_sharded(
    curve: "BinaryCurve",
    privates: "Sequence[int]",
    peers: "Sequence[Point]",
    jobs: int,
    *,
    backend: "Optional[str]" = None,
) -> "List[Point]":
    """A batch of shared points, sharded across ``jobs`` worker processes.

    Under ``fork`` (:func:`pool_context`) the children inherit the warm
    caches, under ``spawn`` each shard pays its own warm-up (the shard
    *is* the work, so there is nothing separate to pre-warm).  Results
    are byte-identical to the unsharded :func:`~repro.curves.protocols
    .ecdh_batch`, and shard telemetry snapshots fold back into the
    parent registry.  ``backend`` must be a registry name (or
    ``None``): instances cannot cross process boundaries.
    """
    if backend is not None and not isinstance(backend, str):
        raise TypeError("ecdh_sharded takes a backend *name*; instances cannot cross processes")
    if jobs <= 1 or len(privates) < 2:
        return ecdh_batch(curve, privates, peers, backend=backend)
    jobs = min(jobs, len(privates))
    chunk = (len(privates) + jobs - 1) // jobs
    payloads = [
        (
            curve.name,
            backend,
            start,
            list(privates[start:start + chunk]),
            [(point.x, point.y) for point in peers[start:start + chunk]],
        )
        for start in range(0, len(privates), chunk)
    ]
    shards = _metrics.map_isolated(_ecdh_shard, payloads, jobs, pool_context())
    return [curve.point(x, y, check=False) for coords in shards for x, y in coords]
