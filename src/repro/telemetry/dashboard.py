"""Perf-trajectory dashboard over the committed ``BENCH_*.json`` files.

The repo's performance story lives in the bench reports committed at the
repo root: one file per bench, each either a single snapshot (``{bench,
commit_pr, config, results}``) or a list of such snapshots — the
trajectory form ``benchmarks/bench_layers.py --json`` appends to.  This
module reads all of them, pivots every rate field into per-series
trajectories (one series per bench × result identity, e.g. ``layer=field_op
backend=native m=163 route=mul batch=2048``), renders the table as
markdown or standalone HTML, and flags any series whose latest value fell
below the best value recorded under an *earlier* ``commit_pr`` by more
than both ``tolerance`` and the relative IQR either snapshot recorded for
its row.  :func:`splice_readme` renders README's perf tables from one
snapshot of ``BENCH_layers.json``.

Metric fields are recognised by name: ``rate``/``*_rate``/``*_per_s`` —
all higher-is-better absolute rates; ratios are derived for display and
never tracked.  Regression flags are advisory (``repro dashboard
--check`` warns but exits 0 unless ``--strict``): the hard perf floors
asserted by the benchmark remain the gate.
"""

from __future__ import annotations

import glob
import html as _html
import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any, Dict, List, Tuple

__all__ = [
    "TrajectoryPoint",
    "Regression",
    "is_metric_key",
    "load_bench_files",
    "validate_snapshot",
    "build_trajectory",
    "find_regressions",
    "render_markdown",
    "render_html",
    "render_dashboard",
    "render_readme_blocks",
    "splice_readme",
]

DEFAULT_TOLERANCE = 0.10

#: Result-row keys that identify a series (as opposed to carrying a metric).
IDENTITY_KEYS = ("layer", "backend", "curve", "method", "m", "n", "route", "batch", "pairs", "clients")

_REQUIRED_SNAPSHOT_KEYS = ("bench", "commit_pr", "config", "results")


def is_metric_key(key: str) -> bool:
    """True for higher-is-better rate fields by naming convention (never a ratio)."""
    return key == "rate" or key.endswith("_rate") or key.endswith("_per_s")


@dataclass(frozen=True)
class TrajectoryPoint:
    """One metric value from one snapshot of one bench series."""

    bench: str
    series: str
    metric: str
    value: float
    commit_pr: int
    timestamp: str
    source: str
    #: The relative spread of a row's ``rate``: the row's ``iqr`` over its
    #: ``rate`` (zero for other metrics and for rows that record none).
    spread: float = 0.0


def _beyond_noise(latest: TrajectoryPoint, best: TrajectoryPoint, tolerance: float) -> bool:
    """Whether ``latest`` fell below ``best`` by more than the tolerance and both spreads."""
    return 1.0 - latest.value / best.value > max(tolerance, latest.spread, best.spread)


@dataclass(frozen=True)
class Regression:
    """A series whose latest value dropped below the best prior PR's."""

    latest: TrajectoryPoint
    best_prior: TrajectoryPoint
    drop: float  # fractional drop vs best prior, e.g. 0.12 for -12%

    def describe(self) -> str:
        return (
            f"{self.latest.bench} [{self.latest.series}] {self.latest.metric}: "
            f"{self.latest.value:.4g} (PR {self.latest.commit_pr}) vs best "
            f"{self.best_prior.value:.4g} (PR {self.best_prior.commit_pr}) "
            f"= -{self.drop * 100:.1f}%"
        )


def validate_snapshot(snapshot: "Dict[str, Any]") -> "List[str]":
    """Schema problems in one ``{bench, commit_pr, config, results}`` snapshot."""
    problems: "List[str]" = []
    if not isinstance(snapshot, dict):
        return [f"snapshot is {type(snapshot).__name__}, expected object"]
    for key in _REQUIRED_SNAPSHOT_KEYS:
        if key not in snapshot:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    if not isinstance(snapshot["bench"], str):
        problems.append("bench is not a string")
    if not isinstance(snapshot["commit_pr"], int):
        problems.append("commit_pr is not an integer")
    config = snapshot["config"]
    if not isinstance(config, dict):
        problems.append("config is not an object")
    else:
        platform = config.get("platform")
        if not isinstance(platform, dict) or "python" not in platform or "machine" not in platform:
            problems.append("config.platform must carry python + machine stamps")
    results = snapshot["results"]
    if not isinstance(results, list) or not results:
        problems.append("results must be a non-empty list")
    elif not all(isinstance(row, dict) for row in results):
        problems.append("results rows must be objects")
    return problems


def _coerce_entries(payload: "Any", source: str) -> "List[Dict[str, Any]]":
    """A bench file's payload as a list of snapshots (both shapes accepted)."""
    entries = payload if isinstance(payload, list) else [payload]
    for index, entry in enumerate(entries):
        problems = validate_snapshot(entry)
        if problems:
            raise ValueError(f"{source} entry {index}: " + "; ".join(problems))
    return entries


def load_bench_files(
    directory: str, pattern: str = "BENCH_*.json"
) -> "List[Tuple[str, Dict[str, Any]]]":
    """All snapshots under ``directory`` as ``(filename, snapshot)`` pairs.

    Raises :class:`ValueError` naming the offending file on malformed
    JSON or schema violations, and if no bench files are found at all.
    """
    paths = sorted(glob.glob(os.path.join(directory, pattern)))
    if not paths:
        raise ValueError(f"no {pattern} files found in {directory}")
    loaded: "List[Tuple[str, Dict[str, Any]]]" = []
    for path in paths:
        name = os.path.basename(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"{name}: {exc}") from exc
        for entry in _coerce_entries(payload, name):
            loaded.append((name, entry))
    return loaded


def _series_label(row: "Dict[str, Any]") -> str:
    parts = [f"{key}={row[key]}" for key in IDENTITY_KEYS if key in row]
    return " ".join(parts) if parts else "(all)"


def build_trajectory(
    entries: "List[Tuple[str, Dict[str, Any]]]",
) -> "Dict[Tuple[str, str, str], List[TrajectoryPoint]]":
    """Pivot snapshots into per-(bench, series, metric) point lists.

    Points are ordered by ``(commit_pr, timestamp)`` so the last element
    of every list is the latest measurement.
    """
    trajectory: "Dict[Tuple[str, str, str], List[TrajectoryPoint]]" = {}
    for source, snapshot in entries:
        bench = snapshot["bench"]
        commit_pr = snapshot["commit_pr"]
        timestamp = str(snapshot["config"].get("timestamp_utc", ""))
        for row in snapshot["results"]:
            series = _series_label(row)
            iqr = row.get("iqr") if isinstance(row.get("iqr"), (int, float)) else 0.0
            for key, value in row.items():
                if not is_metric_key(key) or not isinstance(value, (int, float)):
                    continue
                point = TrajectoryPoint(
                    bench=bench,
                    series=series,
                    metric=key,
                    value=float(value),
                    commit_pr=commit_pr,
                    timestamp=timestamp,
                    source=source,
                    spread=iqr / value if key == "rate" and value > 0 else 0.0,
                )
                trajectory.setdefault((bench, series, key), []).append(point)
    for points in trajectory.values():
        points.sort(key=lambda point: (point.commit_pr, point.timestamp))
    return trajectory


def find_regressions(
    trajectory: "Dict[Tuple[str, str, str], List[TrajectoryPoint]]",
    tolerance: float = DEFAULT_TOLERANCE,
) -> "List[Regression]":
    """Series whose latest value fell below the best prior PR's beyond the noise.

    A drop counts when it exceeds both ``tolerance`` and the relative IQR
    recorded in either snapshot's row.
    """
    regressions: "List[Regression]" = []
    for points in trajectory.values():
        latest = points[-1]
        prior = [point for point in points if point.commit_pr < latest.commit_pr]
        if not prior:
            continue
        best_prior = max(prior, key=lambda point: point.value)
        if best_prior.value <= 0:
            continue
        if _beyond_noise(latest, best_prior, tolerance):
            drop = 1.0 - latest.value / best_prior.value
            regressions.append(Regression(latest=latest, best_prior=best_prior, drop=drop))
    regressions.sort(key=lambda reg: -reg.drop)
    return regressions


# ---------------------------------------------------------------------------
# rendering


@dataclass
class _BenchTable:
    """One bench's pivot: rows = series × metric, columns = commit PRs."""

    bench: str
    sources: "List[str]" = field(default_factory=list)
    prs: "List[int]" = field(default_factory=list)
    # (series, metric) -> {commit_pr: latest point for that PR}
    rows: "Dict[Tuple[str, str], Dict[int, TrajectoryPoint]]" = field(default_factory=dict)


def _tabulate(
    trajectory: "Dict[Tuple[str, str, str], List[TrajectoryPoint]]",
) -> "List[_BenchTable]":
    tables: "Dict[str, _BenchTable]" = {}
    for (bench, series, metric), points in sorted(trajectory.items()):
        table = tables.setdefault(bench, _BenchTable(bench=bench))
        cells = table.rows.setdefault((series, metric), {})
        for point in points:
            cells[point.commit_pr] = point  # later timestamps win within a PR
            if point.commit_pr not in table.prs:
                table.prs.append(point.commit_pr)
            if point.source not in table.sources:
                table.sources.append(point.source)
    for table in tables.values():
        table.prs.sort()
    return [tables[name] for name in sorted(tables)]


def _format_value(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.3g}"


def _delta_cell(
    cells: "Dict[int, TrajectoryPoint]", prs: "List[int]", tolerance: float
) -> str:
    """The "vs best prior" column: signed % change, flagged as :func:`find_regressions` does."""
    latest_pr = max(cells)
    latest = cells[latest_pr]
    prior = [cells[pr] for pr in cells if pr < latest_pr]
    if not prior:
        return "—"
    best = max(prior, key=lambda point: point.value)
    if best.value <= 0:
        return "—"
    text = f"{(latest.value / best.value - 1.0) * 100:+.1f}%"
    if _beyond_noise(latest, best, tolerance):
        text = f"⚠ {text} (best PR {best.commit_pr})"
    return text


def render_markdown(
    trajectory: "Dict[Tuple[str, str, str], List[TrajectoryPoint]]",
    tolerance: float = DEFAULT_TOLERANCE,
) -> str:
    """The whole trajectory as one markdown document."""
    tables = _tabulate(trajectory)
    regressions = find_regressions(trajectory, tolerance)
    lines = ["# Perf trajectory", ""]
    lines.append(
        f"{len(trajectory)} series across {len(tables)} benches; "
        f"{len(regressions)} regression flag(s) beyond {tolerance * 100:.0f}% tolerance and the recorded spread."
    )
    lines.append("")
    for table in tables:
        lines.append(f"## {table.bench}  ({', '.join(table.sources)})")
        lines.append("")
        header = ["series", "metric"] + [f"PR {pr}" for pr in table.prs] + ["vs best prior"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for (series, metric), cells in sorted(table.rows.items()):
            row = [series, metric]
            for pr in table.prs:
                point = cells.get(pr)
                row.append(_format_value(point.value) if point is not None else "")
            row.append(_delta_cell(cells, table.prs, tolerance))
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    if regressions:
        lines.append("## Regression flags")
        lines.append("")
        for regression in regressions:
            lines.append(f"- ⚠ {regression.describe()}")
        lines.append("")
    return "\n".join(lines)


_HTML_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem; color: #1a1a2e; }
table { border-collapse: collapse; margin: 1rem 0 2rem; }
th, td { border: 1px solid #c8c8d8; padding: 0.3rem 0.7rem; text-align: right; }
th, td.label { text-align: left; }
td.flag { background: #ffe3e3; font-weight: 600; }
caption { caption-side: top; text-align: left; font-weight: 600; padding: 0.3rem 0; }
"""


def render_html(
    trajectory: "Dict[Tuple[str, str, str], List[TrajectoryPoint]]",
    tolerance: float = DEFAULT_TOLERANCE,
) -> str:
    """The trajectory as one standalone HTML page."""
    tables = _tabulate(trajectory)
    regressions = find_regressions(trajectory, tolerance)
    out = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'><title>Perf trajectory</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        "<h1>Perf trajectory</h1>",
        f"<p>{len(trajectory)} series across {len(tables)} benches; "
        f"{len(regressions)} regression flag(s) beyond {tolerance * 100:.0f}% tolerance and the recorded spread.</p>",
    ]
    for table in tables:
        out.append("<table>")
        out.append(f"<caption>{_html.escape(table.bench)} ({_html.escape(', '.join(table.sources))})</caption>")
        header = ["series", "metric"] + [f"PR {pr}" for pr in table.prs] + ["vs best prior"]
        out.append("<tr>" + "".join(f"<th>{_html.escape(cell)}</th>" for cell in header) + "</tr>")
        for (series, metric), cells in sorted(table.rows.items()):
            delta = _delta_cell(cells, table.prs, tolerance)
            cls = " class='flag'" if delta.startswith("⚠") else ""
            cells_html = [
                f"<td class='label'>{_html.escape(series)}</td>",
                f"<td class='label'>{_html.escape(metric)}</td>",
            ]
            for pr in table.prs:
                point = cells.get(pr)
                cells_html.append(f"<td>{_format_value(point.value) if point is not None else ''}</td>")
            cells_html.append(f"<td{cls}>{_html.escape(delta)}</td>")
            out.append("<tr>" + "".join(cells_html) + "</tr>")
        out.append("</table>")
    if regressions:
        out.append("<h2>Regression flags</h2><ul>")
        for regression in regressions:
            out.append(f"<li>⚠ {_html.escape(regression.describe())}</li>")
        out.append("</ul>")
    out.append("</body></html>")
    return "\n".join(out)


def render_dashboard(
    directory: str,
    fmt: str = "markdown",
    tolerance: float = DEFAULT_TOLERANCE,
) -> "Tuple[str, List[Regression]]":
    """Load, pivot and render in one call; returns (document, regressions)."""
    trajectory = build_trajectory(load_bench_files(directory))
    renderer = render_html if fmt == "html" else render_markdown
    return renderer(trajectory, tolerance), find_regressions(trajectory, tolerance)


# ---------------------------------------------------------------------------
# README tables from one BENCH_layers.json snapshot

def _rate_text(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f}M/s"
    if value >= 1e4:
        return f"{value / 1e3:.0f}k/s"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k/s"
    return f"{value:.3g}/s"


def _table(header: "List[str]", rows: "List[List[str]]") -> "List[str]":
    return [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
        *("| " + " | ".join(row) + " |" for row in rows),
    ]


def render_readme_blocks(snapshot: "Dict[str, Any]") -> "Dict[str, str]":
    """README's perf tables, by block name, from one ``layers`` snapshot.

    Cells are the rows' median rates; the ratio columns are derived from
    them here and nowhere else.  A grid point the snapshot lacks (a
    ``--quick`` run has no m = 233) renders as "–".
    """
    results = snapshot["results"]

    def find(layer: str, backend: str, where: "Any", route: str, size: "Any" = None) -> "Any":
        """The median rate of the matching row (any batch size unless given), or None."""
        for row in results:
            if ((row["layer"], row["backend"], row.get("curve") or row.get("m"), row["route"])
                    == (layer, backend, where, route) and size in (None, row.get("batch") or row.get("clients"))):
                return row["rate"]
        return None

    def rate(key: tuple) -> str:
        value = find(*key)
        return "–" if value is None else _rate_text(value)

    def ratio(high: tuple, low: tuple) -> str:
        top, bottom = find(*high), find(*low)
        return "–" if top is None or bottom is None else f"**{top / bottom:.2f}×**"

    def op(m: int, backend: str, route: str = "multiply_batch") -> tuple:
        return ("field_op", backend, m, route)

    fields = sorted({row["m"] for row in results if row["layer"] == "field_op"})
    engine = [
        [f"GF(2^{m})", rate(op(m, "netlist")), rate(op(m, "engine")), ratio(op(m, "engine"), op(m, "netlist"))]
        for m in fields
    ]
    backends = [
        [f"GF(2^{m})", name, *(rate(op(m, name, route)) for route in ("multiply_batch", "mul", "square", "inverse")),
         ratio(op(m, name), op(m, "python"))]
        for m in fields
        for name in ("python", "engine", "native")
    ]

    koblitz = []
    for curve, backend in sorted({(row["curve"], row["backend"]) for row in results if row["layer"] == "scalar_mul"},
                                 key=lambda pair: (int(pair[0][2:]), pair[1])):
        keys = {route: (layer, backend, curve, route) for layer, route in (
            ("scalar_mul", "binary"), ("scalar_mul", "comb"), ("protocol", "ecdh_binary"),
            ("protocol", "ecdh_tau"), ("protocol", "sign"), ("protocol", "exchange_binary"),
            ("protocol", "exchange_tau_comb"),
        )}
        koblitz.append([
            curve, backend, *(rate(keys[route]) for route in ("binary", "comb", "ecdh_binary", "ecdh_tau", "sign")),
            ratio(keys["comb"], keys["binary"]), ratio(keys["ecdh_tau"], keys["ecdh_binary"]),
            ratio(keys["sign"], keys["comb"]), ratio(keys["exchange_tau_comb"], keys["exchange_binary"]),
        ])

    serving = []
    for clients, backend in sorted({(row["clients"], row["backend"]) for row in results if row["layer"] == "served"}):
        served = ("served", backend, "B-163", "ecdh", clients)
        offline = ("protocol", backend, "B-163", "ecdh_binary", clients)
        serving.append([backend, str(clients), rate(served), rate(offline), ratio(served, offline)])

    platform = snapshot["config"]["platform"]
    source = (
        f"`BENCH_layers.json`, PR {snapshot['commit_pr']} (Python {platform['python']} on "
        f"{platform['machine']}): medians of interleaved repeats, measured and checked against "
        "their floors by `benchmarks/bench_layers.py`."
    )
    tables = {
        "engine": _table(["field", "interpreted netlist", "compiled engine", "engine vs netlist"], engine),
        "backends": _table(
            ["field", "backend", "int-list `multiply_batch`", "packed mul", "packed square", "packed inverse",
             "`multiply_batch` vs python"], backends),
        "koblitz": _table(
            ["curve", "backend", "ladder keygen", "comb keygen", "binary ECDH", "τ ECDH", "sign", "comb vs ladder",
             "τ vs binary", "sign vs comb keygen", "exchange vs all-binary"], koblitz),
        "serving": _table(["backend", "clients", "served", "offline batch", "served vs offline"], serving),
    }
    return {name: "\n".join(lines + ["", source]) for name, lines in tables.items()}


def splice_readme(text: str, snapshot: "Dict[str, Any]") -> str:
    """``text`` with every README perf block re-rendered from ``snapshot``."""
    for name, block in render_readme_blocks(snapshot).items():
        start, end = f"<!-- BENCH_layers:{name} -->", f"<!-- /BENCH_layers:{name} -->"
        head, found, rest = text.partition(start)
        _, closed, tail = rest.partition(end)
        if not (found and closed):
            raise ValueError(f"README has no {start} ... {end} block")
        text = f"{head}{start}\n{block}\n{end}{tail}"
    return text
