"""The Table V comparison harness.

``run_comparison`` regenerates the paper's Table V: for each requested field
it generates every Table V construction, runs the implementation flow and
collects the LUT / slice / delay / Area×Time metrics.  ``compare_to_paper``
then lines our measurements up with the published numbers and evaluates the
qualitative claims the reproduction cares about (see EXPERIMENTS.md).

The harness is a thin consumer of :mod:`repro.pipeline`: it expands the
(field, method) grid into sweep jobs and runs them through the scheduler,
each job one :func:`~repro.synth.flow.implement` call, so it inherits
process-pool parallelism (``jobs=N``) and warm artifact-store re-runs
(``store=...``) while producing exactly the rows a serial loop over
``implement()`` would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING, Tuple

from ..galois.pentanomials import PAPER_TABLE5_FIELDS, lookup_field
from ..multipliers.registry import TABLE5_METHODS
from ..pipeline.scheduler import run_jobs
from ..pipeline.sweep import build_sweep_jobs
from ..synth.device import ARTIX7
from ..synth.flow import SynthesisOptions
from ..synth.report import format_table
from .paper_data import PAPER_TABLE5

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..galois.pentanomials import FieldSpec
    from ..pipeline.store import ArtifactStore
    from ..synth.device import DeviceModel
    from ..synth.report import ImplementationResult

__all__ = ["ComparisonRow", "FieldComparison", "run_comparison", "compare_to_paper", "claims_report"]


@dataclass
class ComparisonRow:
    """Our measurement for one (field, method), with the paper's row attached."""

    result: ImplementationResult
    paper_luts: Optional[int] = None
    paper_slices: Optional[int] = None
    paper_time_ns: Optional[float] = None
    paper_area_time: Optional[float] = None

    @property
    def method(self) -> str:
        return self.result.method


@dataclass
class FieldComparison:
    """All methods compared on one field."""

    spec: FieldSpec
    rows: List[ComparisonRow] = field(default_factory=list)

    def best_measured(self, metric: str = "area_time") -> str:
        """Method with the best (lowest) measured value of the given metric."""
        return min(self.rows, key=lambda row: getattr(row.result, metric)).method

    def best_published(self) -> Optional[str]:
        """Method with the best published Area×Time, if paper data exists."""
        with_paper = [row for row in self.rows if row.paper_area_time is not None]
        if not with_paper:
            return None
        return min(with_paper, key=lambda row: row.paper_area_time).method

    def row(self, method: str) -> ComparisonRow:
        """The row of a given method."""
        for row in self.rows:
            if row.method == method:
                return row
        raise KeyError(f"method {method!r} not part of this comparison")


def run_comparison(
    fields: Optional[Iterable[Tuple[int, int]]] = None,
    methods: Optional[Sequence[str]] = None,
    device: DeviceModel = ARTIX7,
    options: SynthesisOptions = SynthesisOptions(),
    verify_up_to: int = 16,
    jobs: int = 1,
    store: Optional[ArtifactStore] = None,
) -> List[FieldComparison]:
    """Regenerate the paper's Table V for the given fields and methods.

    ``fields`` defaults to all nine paper fields; ``methods`` to the paper's
    six Table V rows.  Multipliers for fields with ``m <= verify_up_to`` are
    additionally formally verified during generation (larger ones are
    verified by the dedicated test suite instead, to keep sweeps fast).

    ``jobs`` > 1 fans the (field, method) grid out over the pipeline's
    process pool; passing an :class:`~repro.pipeline.store.ArtifactStore`
    makes re-runs incremental.  Both leave the produced rows bit-identical
    to the serial, uncached path.
    """
    selected_fields = [lookup_field(m, n) for m, n in fields] if fields is not None else list(PAPER_TABLE5_FIELDS)
    selected_methods = list(methods) if methods is not None else list(TABLE5_METHODS)
    job_list = build_sweep_jobs(
        fields=[(spec.m, spec.n) for spec in selected_fields],
        methods=selected_methods,
        devices=[device],
        options=options,
        verify_up_to=verify_up_to,
    )
    outcomes = run_jobs(job_list, parallelism=jobs, store=store)
    results = iter(outcomes)
    comparisons: List[FieldComparison] = []
    for spec in selected_fields:
        comparison = FieldComparison(spec=spec)
        paper_rows = PAPER_TABLE5.get((spec.m, spec.n), {})
        for method in selected_methods:
            result = next(results).result
            paper = paper_rows.get(method)
            comparison.rows.append(
                ComparisonRow(
                    result=result,
                    paper_luts=paper[0] if paper else None,
                    paper_slices=paper[1] if paper else None,
                    paper_time_ns=paper[2] if paper else None,
                    paper_area_time=paper[3] if paper else None,
                )
            )
        comparisons.append(comparison)
    return comparisons


def compare_to_paper(comparisons: List[FieldComparison]) -> str:
    """Render a side-by-side paper-vs-measured table (used by EXPERIMENTS.md)."""
    lines: List[str] = []
    header = (
        f"{'field':<10s} {'method':<15s} "
        f"{'LUTs':>7s} {'paper':>7s}  {'ns':>6s} {'paper':>6s}  {'AxT':>11s} {'paper':>11s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for comparison in comparisons:
        for row in comparison.rows:
            result = row.result
            lines.append(
                f"{comparison.spec.name.split('/')[-1]:<10s} {result.method:<15s} "
                f"{result.luts:>7d} {row.paper_luts if row.paper_luts is not None else '-':>7}  "
                f"{result.delay_ns:>6.2f} {row.paper_time_ns if row.paper_time_ns is not None else '-':>6}  "
                f"{result.area_time:>11.1f} {row.paper_area_time if row.paper_area_time is not None else '-':>11}"
            )
        lines.append("-" * len(header))
    return "\n".join(lines)


def claims_report(comparisons: List[FieldComparison]) -> Dict[str, object]:
    """Evaluate the paper's qualitative claims on our measurements.

    Returns a dictionary with, per claim, the fields where it holds:

    * ``proposed_beats_parenthesized`` — "this work" is at least as good as
      ref [7] in LUTs, delay and Area×Time (the paper: true for all fields);
    * ``proposed_best_area_time`` — "this work" has the best measured
      Area×Time (the paper: true for 7 of 9 fields);
    * ``proposed_lowest_delay`` — "this work" has the lowest measured delay
      (the paper: true for most fields).
    """
    beats_parenthesized: List[str] = []
    best_area_time: List[str] = []
    lowest_delay: List[str] = []
    for comparison in comparisons:
        label = f"({comparison.spec.m},{comparison.spec.n})"
        methods = {row.method for row in comparison.rows}
        if "thiswork" not in methods:
            continue
        proposed = comparison.row("thiswork").result
        if "imana2016" in methods:
            parenthesized = comparison.row("imana2016").result
            if (
                proposed.luts <= parenthesized.luts
                and proposed.delay_ns <= parenthesized.delay_ns
                and proposed.area_time <= parenthesized.area_time
            ):
                beats_parenthesized.append(label)
        if comparison.best_measured("area_time") == "thiswork":
            best_area_time.append(label)
        if comparison.best_measured("delay_ns") == "thiswork":
            lowest_delay.append(label)
    return {
        "fields": [f"({c.spec.m},{c.spec.n})" for c in comparisons],
        "proposed_beats_parenthesized": beats_parenthesized,
        "proposed_best_area_time": best_area_time,
        "proposed_lowest_delay": lowest_delay,
    }


def comparison_table(comparisons: List[FieldComparison], title: str = "") -> str:
    """Plain measured table in the paper's Table V layout."""
    results = [row.result for comparison in comparisons for row in comparison.rows]
    return format_table(results, title=title)
