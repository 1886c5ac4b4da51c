"""Sweep pipeline — cold vs warm cache and serial vs parallel wall-times.

Measures the full ``repro.pipeline`` sweep path over a small grid:

* **cold serial** — empty artifact store, one process: every job generates
  its multiplier and runs the whole implementation flow (``implement()``);
* **warm serial** — identical grid, now every job is one JSON read from the
  content-addressed store.  The acceptance figure of the pipeline PR —
  **warm ≥ 10× faster than cold** — is asserted, not just reported;
* **cold parallel** — a fresh store and a process pool, to show the
  scheduler scaling (on multi-core runners; on a single hardware thread the
  pool only adds overhead, so no ratio is asserted).

Run standalone for the CI smoke check or a quick local look::

    PYTHONPATH=src python benchmarks/bench_sweep_pipeline.py --quick

or under pytest with the rest of the benchmark suite.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

from repro.pipeline import ArtifactStore, run_sweep
from repro.synth.flow import SynthesisOptions

from conftest import bench_effort

#: The default grid: small fields so a cold run stays in seconds.
DEFAULT_FIELDS = [(8, 2), (16, 3), (20, 5)]
QUICK_FIELDS = [(8, 2), (16, 3)]
DEFAULT_METHODS = ["thiswork", "imana2016", "paar"]
QUICK_METHODS = ["thiswork", "imana2016"]

#: The PR's acceptance floor for warm-over-cold speedup.
WARM_SPEEDUP_FLOOR = 10.0


def measure_sweep(fields, methods, effort, root: Path, jobs: int = 1):
    """One sweep wall-time over the given grid (store rooted at ``root``)."""
    store = ArtifactStore(root)
    started = time.perf_counter()
    result = run_sweep(
        fields=fields, methods=methods, options=SynthesisOptions(effort=effort), jobs=jobs, store=store
    )
    elapsed = time.perf_counter() - started
    return result, elapsed


def measure_grid(fields, methods, effort, workdir: Path, jobs: int = 2):
    """Cold serial, warm serial and cold parallel wall-times for one grid."""
    cold_result, cold_s = measure_sweep(fields, methods, effort, workdir / "serial", jobs=1)
    warm_result, warm_s = measure_sweep(fields, methods, effort, workdir / "serial", jobs=1)
    parallel_result, parallel_s = measure_sweep(fields, methods, effort, workdir / "parallel", jobs=jobs)

    if warm_result.cache_hits != len(warm_result.outcomes):
        raise AssertionError(
            f"warm sweep expected all hits, got {warm_result.cache_hits}/{len(warm_result.outcomes)}"
        )
    warm_rows = [outcome.result for outcome in warm_result.outcomes]
    if warm_rows != [outcome.result for outcome in cold_result.outcomes]:
        raise AssertionError("warm sweep rows differ from the cold run")
    if warm_rows != [outcome.result for outcome in parallel_result.outcomes]:
        raise AssertionError("parallel sweep rows differ from the serial run")

    return {
        "jobs": len(cold_result.outcomes),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "parallel_s": parallel_s,
        "warm_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "parallel_speedup": cold_s / parallel_s if parallel_s > 0 else float("inf"),
        "parallelism": jobs,
    }


def report(row) -> str:
    return "\n".join(
        [
            f"sweep grid: {row['jobs']} jobs",
            f"  cold serial     {row['cold_s'] * 1000:>10.1f} ms",
            f"  warm serial     {row['warm_s'] * 1000:>10.1f} ms   ({row['warm_speedup']:.1f}x vs cold)",
            f"  cold parallel   {row['parallel_s'] * 1000:>10.1f} ms   "
            f"({row['parallel_speedup']:.2f}x vs serial, {row['parallelism']} workers)",
        ]
    )


# --------------------------------------------------------------------- pytest
def test_warm_cache_sweep_is_10x_faster(tmp_path):
    """The acceptance figure: a warm artifact-store re-run skips all synthesis."""
    row = measure_grid(DEFAULT_FIELDS, DEFAULT_METHODS, bench_effort(), tmp_path)
    print("\n" + report(row))
    assert row["warm_speedup"] >= WARM_SPEEDUP_FLOOR, (
        f"warm sweep only {row['warm_speedup']:.1f}x faster than cold "
        f"(floor {WARM_SPEEDUP_FLOOR:.0f}x)"
    )


def test_parallel_sweep_matches_serial_rows(tmp_path):
    """Determinism under the process pool (the consistency checks assert inside)."""
    row = measure_grid(QUICK_FIELDS, QUICK_METHODS, 1, tmp_path, jobs=3)
    print("\n" + report(row))


# ----------------------------------------------------------------- standalone
def main(argv=None):
    parser = argparse.ArgumentParser(description="sweep pipeline cold/warm + serial/parallel wall-times")
    parser.add_argument("--quick", action="store_true", help="smaller grid (CI smoke)")
    parser.add_argument("--jobs", type=int, default=2, help="parallel workers (default 2)")
    parser.add_argument("--effort", type=int, default=None, help="mapping effort (default REPRO_BENCH_EFFORT)")
    args = parser.parse_args(argv)
    fields = QUICK_FIELDS if args.quick else DEFAULT_FIELDS
    methods = QUICK_METHODS if args.quick else DEFAULT_METHODS
    effort = args.effort if args.effort is not None else bench_effort()
    with tempfile.TemporaryDirectory(prefix="gf2m-sweep-bench-") as workdir:
        row = measure_grid(fields, methods, effort, Path(workdir), jobs=args.jobs)
    print(report(row))
    if row["warm_speedup"] < WARM_SPEEDUP_FLOOR:
        raise SystemExit(
            f"warm-cache regression: {row['warm_speedup']:.1f}x < {WARM_SPEEDUP_FLOOR:.0f}x"
        )
    print(f"ok: warm cache {row['warm_speedup']:.1f}x over cold (floor {WARM_SPEEDUP_FLOOR:.0f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
