"""Shared measurement and report-emission helpers for the BENCH_* scripts.

Every benchmark in this directory follows the same discipline:

* **warm-up outside the timed region** — one untimed call at full batch
  width absorbs one-time costs (circuit generation, extension compilation,
  lane-buffer allocation) before any clock starts;
* **best-of-N timing** — the fastest of ``repeats`` runs is reported,
  damping scheduler noise on shared CI machines, with every repeated
  result asserted identical to the warm-up result (a benchmark that is
  not deterministic is not measuring anything);
* **one committed JSON schema** — ``{bench, commit_pr, config, results}``
  with a ``platform`` block inside ``config``, written with stable key
  order so refreshed trajectory snapshots diff cleanly.

The timing loops and the JSON writer live here so the individual scripts
(:mod:`bench_backends`, :mod:`bench_native`, :mod:`bench_koblitz`,
:mod:`bench_serve`, :mod:`bench_telemetry_overhead`) hold only what is
unique to each: the workload, the grid, and the asserted floors.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def best_of(callable_: "Callable[[], Any]", repeats: int) -> "Tuple[Any, float]":
    """(result, best seconds) over ``repeats`` timed calls (first is warm-up).

    The warm-up result is the reference: every timed repetition must
    reproduce it byte for byte or the measurement aborts.
    """
    result = callable_()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        repeated = callable_()
        best = min(best, time.perf_counter() - start)
        if repeated != result:
            raise AssertionError("benchmark workload is not deterministic")
    return result, best


def best_of_interleaved(
    callables: "Sequence[Callable[[], Any]]", repeats: int
) -> "List[Tuple[Any, float]]":
    """Per-callable (result, best seconds), the timed calls interleaved.

    Shared runners see load spikes lasting whole seconds; timing each path
    in its own contiguous block hands whichever ran in the quiet window an
    unearned win.  Round-robin interleaving gives every path one sample per
    load regime, and best-of picks each path's quiet-window figure.
    """
    results = [callable_() for callable_ in callables]
    bests = [float("inf")] * len(callables)
    for _ in range(repeats):
        for index, callable_ in enumerate(callables):
            start = time.perf_counter()
            repeated = callable_()
            bests[index] = min(bests[index], time.perf_counter() - start)
            if repeated != results[index]:
                raise AssertionError("benchmark workload is not deterministic")
    return list(zip(results, bests))


def rate(count: int, seconds: float) -> float:
    """Operations per second, infinity-safe for sub-resolution timings."""
    return count / seconds if seconds > 0 else float("inf")


def platform_block() -> "Dict[str, str]":
    """The ``config.platform`` stamp shared by every committed BENCH_* file."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def git_commit_hash() -> "Optional[str]":
    """The current git HEAD hash, or ``None`` outside a repository.

    Benchmarks can run from an exported tarball; the stamp is provenance,
    not a requirement, so failures degrade to ``None`` rather than abort.
    """
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    commit = completed.stdout.strip()
    return commit or None


def timestamp_utc() -> str:
    """Second-resolution ISO-8601 UTC timestamp (``...Z``) for the stamp."""
    now = datetime.datetime.now(datetime.timezone.utc)
    return now.strftime("%Y-%m-%dT%H:%M:%SZ")


def write_bench_json(
    path: str,
    bench: str,
    commit_pr: int,
    config: "Dict[str, Any]",
    results: "List[Dict[str, Any]]",
) -> None:
    """Write one trajectory report in the shared BENCH_* schema.

    ``config`` gains the :func:`platform_block` stamp plus provenance
    stamps — the producing :func:`git_commit_hash` and an ISO-8601 UTC
    :func:`timestamp_utc` — so the perf-trajectory dashboard can order and
    attribute refreshes exactly.  Explicit ``platform``/``git_commit``/
    ``timestamp_utc`` keys in ``config`` win, for replaying foreign
    reports; keys are sorted and the file ends in a newline so committed
    snapshots diff cleanly across refreshes.

    Refreshing an existing file keeps its history: snapshots from *other*
    PRs stay in place (the file becomes a chronological list the dashboard
    renders as a trajectory), while a re-run under the same ``commit_pr``
    replaces that PR's snapshot, so CI re-runs never duplicate entries.
    """
    payload = {
        "bench": bench,
        "commit_pr": commit_pr,
        "config": {
            "platform": platform_block(),
            "git_commit": git_commit_hash(),
            "timestamp_utc": timestamp_utc(),
            **config,
        },
        "results": results,
    }
    history = [
        snapshot
        for snapshot in _load_history(path)
        if snapshot.get("commit_pr") != commit_pr
    ]
    history.append(payload)
    history.sort(key=lambda snapshot: snapshot.get("commit_pr", 0))
    document: "Any" = history[0] if len(history) == 1 else history
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path} ({len(history)} snapshot(s))")


def _load_history(path: str) -> "List[Dict[str, Any]]":
    """Existing snapshots at ``path``: ``[]`` if absent, list either way."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        return []
    if isinstance(existing, list):
        return [snapshot for snapshot in existing if isinstance(snapshot, dict)]
    if isinstance(existing, dict):
        return [existing]
    return []
