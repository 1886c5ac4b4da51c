"""Process-pool scheduler for pipeline jobs with deterministic ordering.

A :class:`SweepJob` freezes everything that determines one implementation
run: ``(method, field, device, options)``.  :func:`execute_job` runs one job
— first consulting the content-addressed :class:`~repro.pipeline.store.ArtifactStore`
(a warm hit costs one JSON read instead of seconds of synthesis) — and
:func:`run_jobs` fans a job list out over a process pool
(:func:`~repro.telemetry.metrics.map_isolated`).

Determinism: results are collected *in submission order* regardless of
worker completion order, and the flow itself is deterministic (no RNG), so
a parallel sweep's rows are byte-identical to the serial one's — a property
the test suite asserts rather than assumes.

The job and its outcome are plain picklable dataclasses; workers receive the
store *root path* (not the store object) and open their own instance, so the
pool works under both the ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

from ..galois.pentanomials import type_ii_pentanomial
from ..multipliers.registry import generate_multiplier
from ..netlist.verify import verify_by_simulation
from ..synth.device import ARTIX7
from ..synth.flow import SynthesisOptions, implement
from ..synth.report import ImplementationResult
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace
from .store import ArtifactStore, canonical_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..synth.device import DeviceModel

__all__ = ["SweepJob", "JobOutcome", "artifact_key", "execute_job", "run_jobs"]


@dataclass(frozen=True)
class SweepJob:
    """One (field, method, device, options) point of a sweep grid."""

    method: str
    m: int
    n: int
    device: DeviceModel = ARTIX7
    options: SynthesisOptions = SynthesisOptions()
    #: Formally verify the generated circuit (the sweep enables this for
    #: small fields only; it does not change the produced metrics).
    verify: bool = False
    #: Execution backend the job runs under (:mod:`repro.backends` name, or
    #: ``None`` for the default).  Verifying jobs additionally cross-check
    #: the generated circuit through this substrate, and the artifact key
    #: includes it, so sweeps under different backends never share cache
    #: entries.
    backend: Optional[str] = None

    @property
    def modulus(self) -> int:
        """The type II pentanomial of this job's field."""
        return type_ii_pentanomial(self.m, self.n)

    @property
    def label(self) -> str:
        """Compact human-readable identifier used in logs and benchmarks."""
        return f"{self.method}@({self.m},{self.n})/{self.device.name}/e{self.options.effort}"

    def with_options(self, **changes: Any) -> "SweepJob":
        """A copy of this job with some ``SynthesisOptions`` fields replaced."""
        return replace(self, options=replace(self.options, **changes))


@dataclass
class JobOutcome:
    """The result of one executed (or cache-served) sweep job."""

    job: SweepJob
    result: ImplementationResult
    cache_hit: bool
    elapsed_s: float


def artifact_key(job: SweepJob) -> str:
    """The content-addressed store key of a job's implementation result.

    Covers the method, the exact modulus, every ``SynthesisOptions`` field,
    every ``DeviceModel`` field and the execution backend — change any of
    them and the key (hence the cache entry) changes, so artifacts produced
    under different backends are never conflated.  The ``verify`` flag is
    deliberately excluded: verification cannot alter the produced metrics,
    exactly like the in-memory
    :class:`~repro.multipliers.cache.MultiplierCache` key.
    """
    return canonical_fingerprint(
        {
            "artifact": "implementation-result",
            "method": job.method,
            "modulus": job.modulus,
            "device": job.device,
            "options": job.options,
            "backend": job.backend,
        }
    )


def execute_job(job: SweepJob, store: Optional[ArtifactStore] = None) -> JobOutcome:
    """Run one job, store-first.

    On a store hit the result is rehydrated from JSON without touching the
    synthesis flow.  On a miss the job generates its multiplier (through
    the process-wide multiplier cache), cross-checks it through its
    backend when it verifies and names one, runs
    :func:`~repro.synth.flow.implement` on it, and persists the result
    for every later sweep (including ones in other processes).
    """
    started = time.perf_counter()
    key = artifact_key(job)
    with _trace.span("sweep.job", label=job.label):
        if store is not None:
            payload = store.get_json(key)
            if payload is not None:
                result = ImplementationResult.from_json_dict(payload["result"])
                _record_job(True, time.perf_counter() - started)
                return JobOutcome(job=job, result=result, cache_hit=True, elapsed_s=time.perf_counter() - started)
        multiplier = generate_multiplier(job.method, job.modulus, verify=job.verify)
        if job.verify and job.backend is not None:
            # Verifying jobs that name an execution backend also assert parity
            # of the generated circuit through that substrate — the sweep-level
            # twin of the formal product-spec check.
            if not verify_by_simulation(multiplier.netlist, job.modulus, trials=64, backend=job.backend):
                raise RuntimeError(
                    f"{job.method} multiplier for modulus 0x{job.modulus:x} failed the "
                    f"{job.backend!r}-backend simulation cross-check"
                )
        result = implement(multiplier, job.device, job.options)
        if store is not None:
            store.put_json(
                key,
                {
                    "result": result.to_json_dict(),
                    "job": {
                        "method": job.method,
                        "m": job.m,
                        "n": job.n,
                        "device": job.device.name,
                        "effort": job.options.effort,
                        "backend": job.backend,
                    },
                },
            )
    _record_job(False, time.perf_counter() - started)
    return JobOutcome(job=job, result=result, cache_hit=False, elapsed_s=time.perf_counter() - started)


def _record_job(cache_hit: bool, elapsed_s: float) -> None:
    """Telemetry for one finished job: hit/miss counter + elapsed summary."""
    registry = _metrics.REGISTRY
    if registry.enabled:
        registry.inc("sweep.jobs.cache_hit" if cache_hit else "sweep.jobs.executed")
        registry.observe("sweep.job.seconds", elapsed_s)


def _execute_job_in_worker(payload) -> JobOutcome:
    """Top-level worker entry point (must be picklable by the pool)."""
    job, store_root = payload
    return execute_job(job, store=ArtifactStore(store_root) if store_root is not None else None)


def run_jobs(
    jobs: Sequence[SweepJob],
    parallelism: int = 1,
    store: Optional[ArtifactStore] = None,
) -> List[JobOutcome]:
    """Execute a job list, serially or on a process pool, in job order.

    ``parallelism`` ≤ 1 runs in-process (no pool, easiest to debug and
    profile); higher values spread cold jobs over worker processes that
    share the on-disk store.  The returned list always matches the order of
    ``jobs``.
    """
    if not jobs:
        return []
    if parallelism <= 1 or len(jobs) == 1:
        return [execute_job(job, store=store) for job in jobs]
    store_root = str(store.root) if store is not None else None
    # Each worker's counters fold into this process's registry, so `repro
    # stats` after a parallel sweep reads the same aggregate a serial run
    # would have recorded.
    return _metrics.map_isolated(
        _execute_job_in_worker,
        [(job, store_root) for job in jobs],
        min(parallelism, len(jobs)),
    )


def outcome_rows(outcomes: Sequence[JobOutcome]) -> List[Dict[str, Any]]:
    """Flat dict rows (result metrics + job coordinates) for JSON/CSV export."""
    rows: List[Dict[str, Any]] = []
    for outcome in outcomes:
        row = outcome.result.as_dict()
        row["effort"] = outcome.job.options.effort
        row["cache_hit"] = outcome.cache_hit
        rows.append(row)
    return rows
