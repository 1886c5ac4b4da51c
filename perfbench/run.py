"""One layered benchmark of the gf2m-repro protocol stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``offline.py`` and ``serving.py``): ``ecdh-b163``,
``koblitz-mix`` and ``serve-trickle``.  Every run
builds the program from the source tree next to this directory, in a
fresh artifact cache under ``.perfbench/`` (so set-up includes the native
build, program compiles and comb-table builds), checks every result and
prints, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
of cold set-ups, each from process start to the first verified result of
every route the workload uses: the run's own, plus on ``ecdh-b163`` two
fresh probe processes (``--setup-probe``) started after the timed window.
A shared host's speed drifts by up to 2x between runs, so ``setup_s`` and
the offline workloads' rates and latencies are reported at a reference
host speed: scaled by a big-int calibration loop run during the timed
window (after every call offline; ``system.calibration_s``).  Serving
rates and latencies are not scaled: the loop, run in the load generator's
process, tracks a multi-process service worse than the run-to-run spread
it would remove.  The raw figures, the raw set-up samples and the measured
slowdown are in the ``report`` line.
``--trace 1`` is a separate run: it wraps the program's public entry
points (``tracing.py``), keeps the spans in memory, writes them to
``.perfbench/trace-<workload>.json`` at the end, prints each layer's self
time on stderr and reports the per-layer metrics.  A metric of a layer
the workload does not exercise is reported as 0 and listed under
``idle`` in the ``report`` line printed before the result.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from system import CLOCK_TICKS, machine_record, median, peak_rss_mb, slowdown

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

WORKLOADS = {
    "ecdh-b163": ("offline", "EcdhB163"),
    "koblitz-mix": ("offline", "KoblitzMix"),
    "serve-trickle": ("serving", "ServeTrickle"),
}

#: Cold set-ups per timed run: the run's own plus fresh probe processes.
#: A cold set-up of the other workloads builds comb tables for 10-27 s,
#: which the run budget affords once.
SETUP_REPEATS = {"ecdh-b163": 3}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ecdh_per_s": "1/s",
    "goodput_rps": "1/s",
    "latency_p50_ms": "ms",
}

PER_LAYER = {
    "backends.mul_ns_per_lane": "ns",
    "backends.square_ns_per_lane": "ns",
    "backends.inverse_ns_per_lane": "ns",
    "backends.ir.calls_per_result": "count",
    "backends.ir.run_us_per_call": "us",
    "backends.ir.run_share": "ratio",
    "backends.ir.compile_s": "s",
    "curves.scalarmul.comb_build_s": "s",
    "curves.binary_ms_per_batch": "ms",
    "curves.tau_ms_per_batch": "ms",
    "curves.comb_ms_per_batch": "ms",
    "curves.self_share": "ratio",
    "curves.protocols.self_share": "ratio",
    "curves.protocols.sign_rounds_per_batch": "count",
    "curves.protocols.keygen_per_s": "1/s",
    "curves.protocols.sign_per_s": "1/s",
    "serve.batcher.batch_fill_mean": "lanes",
    "serve.batcher.deadline_flush_share": "ratio",
    "serve.batcher.queue_wait_p50_ms": "ms",
    "serve.workers.execute_p50_ms": "ms",
    "serve.workers.inflight_max": "count",
    "serve.workers.busy_share": "ratio",
    "serve.workers.fallbacks": "count",
    "serve.workers.cpu_ms_per_request": "ms",
    "serve.server.latency_p50_ms": "ms",
    "serve.server.http_overhead_p50_ms": "ms",
    "serve.server.cpu_ms_per_request": "ms",
    "loadgen.latency_tail_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.cpu_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.covered_share": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="T-13 curves and small sizes (smoke test)")
    parser.add_argument("--corrupt", action="store_true", help="corrupt one result (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def isolate(cache_dir):
    """Point the program's artifact cache and temp files inside the checkout."""
    os.environ["GF2M_REPRO_CACHE_DIR"] = str(cache_dir)
    scratch = Path(cache_dir).parent / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    # Every workload runs on the per-field default backend, telemetry on.
    os.environ.pop("GF2M_REPRO_BACKEND", None)
    os.environ.pop("GF2M_REPRO_TELEMETRY", None)
    source = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, source)


def load_workload(args):
    module_name, class_name = WORKLOADS[args.workload]
    module = __import__(module_name)
    return getattr(module, class_name)(args.seed, toy=args.toy, corrupt=args.corrupt)


def process_age():
    """Seconds since this process was created (start time from ``/proc``)."""
    start_ticks = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / CLOCK_TICKS


def probe_setups(args, run_dir, count):
    """Cold set-up seconds of ``count`` fresh probe processes, each with its own cache."""
    samples = []
    for attempt in range(count):
        command = [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--cache-dir", str(run_dir / f"probe-{attempt}" / "cache"),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        ]
        probe = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=150)
        lines = probe.stdout.split()
        if probe.returncode != 0 or len(lines) != 2 or lines[0] != "setup-ready":
            raise RuntimeError(f"cold set-up probe failed (exit {probe.returncode})")
        samples.append(float(lines[1]))
    return samples


def backend_costs(fields, seed, budget_s=0.25):
    """Median ns per lane of direct 256-lane ``*_batch`` calls, averaged over fields."""
    rng = random.Random(seed)
    totals = {"multiply_batch": [], "square_batch": [], "inverse_batch": []}
    distinct = {field.modulus: field for field in fields}
    for field in distinct.values():
        backend = field.resolve_backend(None)
        a = [rng.randrange(1, field.order) for _ in range(256)]
        b = [rng.randrange(1, field.order) for _ in range(256)]
        for op, call in (
            ("multiply_batch", lambda: backend.multiply_batch(a, b)),
            ("square_batch", lambda: backend.square_batch(a)),
            ("inverse_batch", lambda: backend.inverse_batch(a)),
        ):
            samples = []
            deadline = time.perf_counter() + budget_s
            while len(samples) < 5 or time.perf_counter() < deadline:
                started = time.perf_counter()
                call()
                samples.append(time.perf_counter() - started)
            totals[op].append(median(samples) / 256 * 1e9)
    return {
        "backends.mul_ns_per_lane": sum(totals["multiply_batch"]) / len(distinct),
        "backends.square_ns_per_lane": sum(totals["square_batch"]) / len(distinct),
        "backends.inverse_ns_per_lane": sum(totals["inverse_batch"]) / len(distinct),
    }


def program_layers(tracer, window, results):
    """Per-layer metrics of the backend, IR, curve and protocol layers from the spans."""
    from tracing import END, LAYER, NAME, PARENT, START, layer_self_times, span_cost_seconds

    spans = tracer.spans
    indices = tracer.window(*window)
    wall = window[1] - window[0]

    def duration(index):
        return spans[index][END] - spans[index][START]

    named = {}
    for index in indices:
        named.setdefault(spans[index][NAME], []).append(index)
    runs = named.get("CompiledNativeIR.run_arrays", [])
    run_total = sum(map(duration, runs))
    children = {}
    for index in indices:
        if spans[index][PARENT] is not None:
            children.setdefault(spans[index][PARENT], set()).add(spans[index][NAME])
    routes = {"binary": [], "tau": [], "comb": []}
    for index in named.get("BinaryCurve.multiply_batch", []):
        kids = children.get(index, ())
        route = "tau" if "scalarmul.multiply_tau_batch" in kids else \
            "comb" if "scalarmul.multiply_comb_batch" in kids else "binary"
        routes[route].append(duration(index))
    top_curves = [
        index for index in indices
        if spans[index][LAYER] == "curves"
        and (spans[index][PARENT] is None or spans[spans[index][PARENT]][LAYER] != "curves")
    ]
    protocol_spans = [index for index in indices if spans[index][LAYER] == "curves.protocols"]
    sign_spans = set(named.get("protocols.sign_batch", []))
    sign_rounds = sum(
        1 for index in named.get("BinaryCurve.multiply_batch", []) if spans[index][PARENT] in sign_spans
    )
    selfs = layer_self_times(spans, indices)
    curve_time = sum(map(duration, top_curves))
    protocol_time = sum(map(duration, protocol_spans))
    every = range(len(spans))
    metrics = {
        "backends.ir.calls_per_result": len(runs) / results if results else 0.0,
        "backends.ir.run_us_per_call": run_total / len(runs) * 1e6 if runs else 0.0,
        "backends.ir.run_share": run_total / wall,
        "backends.ir.compile_s": sum(
            (duration(i) for i in every if spans[i][NAME] == "NativeIRExecutor.compile"), 0.0
        ),
        "curves.scalarmul.comb_build_s": sum(
            (duration(i) for i in every if spans[i][NAME] == "scalarmul.comb_table"), 0.0
        ),
        "curves.self_share": selfs.get("curves", 0.0) / curve_time if curve_time else 0.0,
        "curves.protocols.self_share": selfs.get("curves.protocols", 0.0) / protocol_time if protocol_time else 0.0,
        "curves.protocols.sign_rounds_per_batch": sign_rounds / len(sign_spans) if sign_spans else 0.0,
        "trace.covered_share": sum(selfs.get(layer, 0.0) for layer in ("curves", "backends.ir", "backends"))
        / protocol_time if protocol_time else 0.0,
        "trace.overhead_share": len(indices) * span_cost_seconds() / wall,
    }
    for route, durations in routes.items():
        metrics[f"curves.{route}_ms_per_batch"] = sum(durations) / len(durations) * 1e3 if durations else 0.0
    return metrics, selfs


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=WORK))
    try:
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, run_dir):
    isolate(Path(args.cache_dir) if args.setup_probe else run_dir / "cache")
    workload = load_workload(args)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        backend_classes = {type(field.resolve_backend(None)) for field in workload.fields()}
        tracing.install_program_wrappers(tracer, backend_classes)
    try:
        workload.setup(args.seconds)
        setup_samples = [process_age()]
        if args.setup_probe:
            print("setup-ready", setup_samples[0], flush=True)
            return 0
        outcome = workload.measure(args.seconds)
        rss = peak_rss_mb(workload.pids())
    finally:
        workload.close()
    if not (args.trace or args.toy):
        # Further cold set-ups run in fresh processes after the timed window.
        setup_samples += probe_setups(args, run_dir, SETUP_REPEATS.get(args.workload, 1) - 1)
    backends = workload.backends()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "backends": backends,
        "machine": machine_record(ROOT),
        "fail_ratio": outcome["failed"] / outcome["attempted"],
        "failures": getattr(workload, "failures", [])[:5],
        "setup_samples_s": setup_samples,
        "slowdown": slowdown(outcome["calibration"]),
        "raw_end_to_end": outcome["end_to_end"],
    }
    report.update(outcome["report"])
    failed = outcome["failed"]
    if any(name != "native" for name in backends.values()):
        # A silent fallback to another substrate is a failed run, not a slow one.
        failed = outcome["attempted"]
    if args.trace:
        tracer.enabled = False
        layer = dict.fromkeys(PER_LAYER, 0.0)
        layer.update(outcome["per_layer"])
        program, selfs = program_layers(tracer, outcome["window"], outcome["results"])
        layer.update(program)
        layer.update(backend_costs(workload.fields(), args.seed))
        tracer.uninstall()
        tracer.write(WORK / f"trace-{args.workload}.json")
        wall = outcome["window"][1] - outcome["window"][0]
        print(f"{'layer':<18} {'self ms':>10} {'share':>7}", file=sys.stderr)
        for name, seconds in sorted(selfs.items(), key=lambda item: -item[1]):
            print(f"{name:<18} {seconds * 1e3:>10.1f} {seconds / wall:>7.1%}", file=sys.stderr)
        report["layer_self_s"] = selfs
        report["idle"] = sorted(name for name, value in layer.items() if value == 0.0)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = dict(outcome["end_to_end"], setup_s=median(setup_samples), peak_rss_mb=rss)
        # CPU-bound figures are reported at the reference host's speed.
        for name in (*outcome["cpu_bound"], "setup_s"):
            scale = report["slowdown"] if END_TO_END[name] == "1/s" else 1 / report["slowdown"]
            values[name] *= scale
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print("report " + json.dumps(report, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
