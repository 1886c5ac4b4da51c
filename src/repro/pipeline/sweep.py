"""Production sweep API: field × method × device × effort grids.

``run_sweep`` is what the ``repro sweep`` CLI subcommand and the Table V
comparison harness drive: it expands a grid into :class:`SweepJob` tuples
(field-major, then method, device, effort — the paper's Table V row order),
executes them through the scheduler (serially or on a process pool, with
the artifact store short-circuiting warm jobs) and renders the results as a
table, JSON or CSV.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING, Tuple

from ..galois.pentanomials import PAPER_TABLE5_FIELDS, lookup_field
from ..multipliers.registry import TABLE5_METHODS, available_methods
from ..synth.device import ARTIX7
from ..synth.flow import SynthesisOptions
from ..synth.report import format_table
from .scheduler import SweepJob, outcome_rows, run_jobs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..synth.device import DeviceModel
    from .scheduler import JobOutcome
    from .store import ArtifactStore

__all__ = [
    "SweepResult",
    "build_sweep_jobs",
    "run_sweep",
    "format_sweep",
    "format_outcome_stats",
]

#: Fields with m at or below this are formally verified during generation
#: (mirrors ``run_comparison``'s default).
DEFAULT_VERIFY_UP_TO = 16


@dataclass
class SweepResult:
    """Everything one sweep produced, in deterministic grid order."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0
    parallelism: int = 1
    cache_dir: Optional[str] = None

    @property
    def cache_hits(self) -> int:
        """Jobs served straight from the artifact store."""
        return sum(1 for outcome in self.outcomes if outcome.cache_hit)

    @property
    def cache_misses(self) -> int:
        """Jobs that had to run the full synthesis flow."""
        return len(self.outcomes) - self.cache_hits

    def rows(self) -> List[Dict[str, Any]]:
        """Flat dict rows (metrics + effort + cache flag) for export."""
        return outcome_rows(self.outcomes)

    def summary(self) -> str:
        """One-line report the CLI prints (and the CI warm-cache step greps)."""
        cache = (
            f"cache: {self.cache_hits} hits, {self.cache_misses} misses ({self.cache_dir})"
            if self.cache_dir is not None
            else "cache: disabled"
        )
        return (
            f"{len(self.outcomes)} jobs in {self.elapsed_s:.2f}s "
            f"(parallelism {self.parallelism}) | {cache}"
        )


def _resolve_methods(methods: Optional[Sequence[str]]) -> List[str]:
    if methods is None:
        return list(TABLE5_METHODS)
    known = set(available_methods())
    resolved = [name.strip() for name in methods if name.strip()]
    unknown = [name for name in resolved if name not in known]
    if unknown:
        raise KeyError(f"unknown multiplier method(s) {unknown}; available: {', '.join(sorted(known))}")
    return resolved


def build_sweep_jobs(
    fields: Optional[Iterable[Tuple[int, int]]] = None,
    methods: Optional[Sequence[str]] = None,
    devices: Optional[Sequence[DeviceModel]] = None,
    efforts: Optional[Sequence[int]] = None,
    options: SynthesisOptions = SynthesisOptions(),
    verify_up_to: int = DEFAULT_VERIFY_UP_TO,
) -> List[SweepJob]:
    """Expand the grid into jobs, field-major in the paper's Table V order.

    ``fields`` defaults to the paper's nine Table V fields, ``methods`` to
    its six rows, ``devices`` to Artix-7 and ``efforts`` to the effort baked
    into ``options`` — so a bare ``build_sweep_jobs()`` reproduces exactly
    the grid of the serial comparison harness.
    """
    selected_fields = (
        [lookup_field(m, n) for m, n in fields] if fields is not None else list(PAPER_TABLE5_FIELDS)
    )
    selected_methods = _resolve_methods(methods)
    selected_devices = list(devices) if devices is not None else [ARTIX7]
    selected_efforts = list(efforts) if efforts is not None else [options.effort]
    jobs: List[SweepJob] = []
    for spec in selected_fields:
        for method in selected_methods:
            for device in selected_devices:
                for effort in selected_efforts:
                    jobs.append(
                        SweepJob(
                            method=method,
                            m=spec.m,
                            n=spec.n,
                            device=device,
                            options=replace(options, effort=effort),
                            verify=spec.m <= verify_up_to,
                        )
                    )
    return jobs


def run_sweep(
    fields: Optional[Iterable[Tuple[int, int]]] = None,
    methods: Optional[Sequence[str]] = None,
    devices: Optional[Sequence[DeviceModel]] = None,
    efforts: Optional[Sequence[int]] = None,
    options: SynthesisOptions = SynthesisOptions(),
    jobs: int = 1,
    store: Optional[ArtifactStore] = None,
    verify_up_to: int = DEFAULT_VERIFY_UP_TO,
) -> SweepResult:
    """Run a full sweep grid and return its deterministic result set.

    ``jobs`` is the scheduler parallelism (1 = serial, in-process).  Pass an
    :class:`ArtifactStore` to make the sweep incremental: a warm re-run of
    the same grid reads every row from disk and touches no synthesis code.
    """
    job_list = build_sweep_jobs(
        fields=fields,
        methods=methods,
        devices=devices,
        efforts=efforts,
        options=options,
        verify_up_to=verify_up_to,
    )
    started = time.perf_counter()
    outcomes = run_jobs(job_list, parallelism=jobs, store=store)
    return SweepResult(
        outcomes=outcomes,
        elapsed_s=time.perf_counter() - started,
        parallelism=max(1, jobs),
        cache_dir=str(store.root) if store is not None else None,
    )


def _format_table(result: SweepResult) -> str:
    """Table rendering: paper layout, with device/effort columns when swept."""
    devices = {outcome.job.device.name for outcome in result.outcomes}
    efforts = {outcome.job.options.effort for outcome in result.outcomes}
    if len(devices) <= 1 and len(efforts) <= 1:
        # Single-point grid: identical rows to the serial `compare` table.
        return format_table([outcome.result for outcome in result.outcomes], title="Sweep results")
    lines: List[str] = ["Sweep results"]
    header = (
        f"{'method':<15s} {'LUTs':>7s} {'Slices':>7s} {'Time (ns)':>10s} {'AxT':>12s}"
        f"  {'field':<10s} {'device':<18s} {'effort':>6s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for outcome in result.outcomes:
        row = outcome.result
        lines.append(
            f"{row.method:<15s} {row.luts:>7d} {row.slices:>7d} "
            f"{row.delay_ns:>10.2f} {row.area_time:>12.2f}  {row.field_label:<10s} "
            f"{outcome.job.device.name:<18s} {outcome.job.options.effort:>6d}"
        )
    return "\n".join(lines)


def format_outcome_stats(outcomes: Sequence["JobOutcome"]) -> List[str]:
    """The per-job ``--stats`` lines: cache status, label, elapsed time.

    One line per outcome, straight from the scheduler's recorded
    ``cache_hit``/``elapsed_s`` fields — the CLI prints these verbatim and
    the tests assert the correspondence end-to-end.
    """
    lines: List[str] = []
    for outcome in outcomes:
        status = "hit " if outcome.cache_hit else "miss"
        lines.append(
            f"  [{status}] {outcome.job.label:<45s} {outcome.elapsed_s * 1000:>8.1f} ms"
        )
    return lines


def format_sweep(result: SweepResult, fmt: str = "table") -> str:
    """Render a sweep as ``table``, ``json`` or ``csv``."""
    if fmt == "table":
        return _format_table(result)
    if fmt == "json":
        return json.dumps(result.rows(), indent=1, sort_keys=True)
    if fmt == "csv":
        rows = result.rows()
        buffer = io.StringIO()
        if rows:
            writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        return buffer.getvalue().rstrip("\n")
    raise ValueError(f"unknown sweep format {fmt!r} (expected table, json or csv)")
