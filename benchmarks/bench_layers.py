"""The layered benchmark: one row per layer × backend × curve or field × route.

One process measures the stack layer by layer and checks every batch
against its reference before its rate counts:

``field_op``     int-list ``multiply_batch`` on every backend and on the
                 interpreted netlist (``simulate_words``), plus packed
                 mul / square / inverse through each ``ir_executor()``;
``ladder_step``  the compiled B-163 López-Dahab step, metrics on and off;
``scalar_mul``   generator multiplies: binary ladder and comb;
``protocol``     ``ecdh_batch`` per route (binary, τ) and one ECDH exchange
                 (two keygens, one agreement): all-binary vs τ + comb;
``served``       single-request ECDH traffic through ``CryptoService``
                 (inline worker thread) next to the offline batch.

Each row holds the median and IQR of interleaved repeats as an absolute
rate; ratios live only in the floor checks and the printed report.  Every
floor is asserted (the process exits nonzero if one fails), after the
report is printed and the JSON written.

``--json PATH`` adds this run's snapshot to the history in PATH (one
snapshot per ``commit_pr``, which is read from git: the newest ``PR N:``
subject reachable from HEAD, plus one when tracked files are modified)
and re-renders the README tables next to PATH from the file's latest
snapshot.  ``--quick`` is the CI grid: m = 163, K-163 and 64 clients;
the full run adds m = 233 and 283 and their floors, K-233 to K-571 on
native, and 256 clients, unasserted.

    PYTHONPATH=src python benchmarks/bench_layers.py --quick
    PYTHONPATH=src python benchmarks/bench_layers.py --json BENCH_layers.json
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import datetime
import gc
import json
import os
import platform
import random
import re
import statistics
import subprocess
import threading
import time

from repro.backends import get_backend
from repro.backends.ir import IRBuilder, schedule_program
from repro.curves import curve_by_name, ecdh_batch
from repro.curves.formulas import ladder_step_program
from repro.galois.field import GF2mField
from repro.galois.pentanomials import smallest_type_ii_pentanomial
from repro.multipliers.registry import generate_multiplier
from repro.netlist.simulate import simulate_words
from repro.serve.loadgen import run_load
from repro.serve.server import CryptoService
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry.dashboard import splice_readme

#: Operand pairs per field-op batch; the interpreted netlist runs a
#: prefix, and inversions run on a ladder batch's width (Montgomery's
#: trick on every interpreting executor, whatever its multiplier).
PAIRS = 2048
NETLIST_PAIRS = 256
INVERSE_LANES = 256
BACKENDS = ("python", "engine", "native")
#: Interleaved rounds of the field-op layer (~0.7 s each at m = 163).  A
#: call shorter than FIELD_OP_SAMPLE_S runs back to back within its sample:
#: a lone native call of ~50 µs after the python backend's work times the
#: cold caches, not the kernel.
FIELD_OP_ROUNDS = 9
FIELD_OP_SAMPLE_S = 0.005

#: Field-op floors by m: engine over the netlist, engine over python and
#: native over engine, all on int-list ``multiply_batch``.
ENGINE_FLOORS = {163: 10.0, 233: 10.0, 283: 10.0}
ENGINE_PYTHON_FLOORS = {163: 5.0, 233: 2.0, 283: 2.0}
NATIVE_FLOORS = {163: 5.0, 233: 2.0}

#: Metrics on over metrics off on the compiled B-163 ladder step: the
#: median of many interleaved, paired ``thread_time`` ratios.  A sample is
#: a run of steps (fewer on engine, whose step costs far more than
#: native's): its length sets the run time, the pair count the verdict's
#: stability.
TELEMETRY_CEILING = 1.03
LADDER_LANES = 128
LADDER_STEPS = {"engine": 4, "native": 163}

#: K-163 floors at batch 256: the ECDH exchange (two keygens and one
#: agreement) over all-binary, τ agreement over binary, comb keygen over
#: ladder keygen.
KOBLITZ_BATCH = 256
EXCHANGE_FLOORS = {"engine": 1.8, "native": 1.2}
TAU_FLOORS = {"native": 1.2}
COMB_FLOOR = 2.0
TRAJECTORY_CURVES = ("K-233", "K-283", "K-409", "K-571")

#: Served over offline ECDH on B-163, engine, by concurrent clients (the
#: offline batch is one request per client).  256 clients run unasserted:
#: engine reads 0.54-0.67 there.  Native runs unasserted: its ladders are
#: so cheap that the HTTP front end sets its rate.
SERVE_CURVE = "B-163"
SERVE_FLOORS = {64: 0.35}
SERVE_REQUESTS = {64: 2, 256: 4}

PR_SUBJECT = re.compile(r"\bPR (\d+):")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _host_loop_s():
    """Seconds for a fixed chain of big-int steps: the host's speed right now."""
    started = time.perf_counter()
    value = 0x123456789ABCDEF
    for _ in range(12000):
        value = (value * 0x9E3779B97F4A7C15 ^ (value >> 7)) & ((1 << 192) - 1)
    return time.perf_counter() - started


def _median_iqr(values):
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return median, high - low


class Run:
    """Rows, floor verdicts and host-speed samples of one benchmark run."""

    def __init__(self, quick):
        self.quick = quick
        self.rows = []
        self.verdicts = []
        self.host_s = []

    def rounds(self, backend_name):
        """Rounds per curve-layer grid point.

        An engine round takes seconds; a native one tens of milliseconds,
        so native gets enough rounds for its medians to hold still on a
        shared host.
        """
        if backend_name == "engine":
            return 3 if self.quick else 5
        return 15 if self.quick else 25

    def time(self, calls, repeats):
        """Seconds per call over interleaved rounds, every result checked.

        ``calls`` maps a name to ``(call, check)``; ``check(result)`` must
        hold for each result before its time counts.  One host-speed
        sample is taken per round.
        """
        seconds = {name: [] for name in calls}
        for _ in range(repeats):
            self.host_s.append(_host_loop_s())
            for name, (call, check) in calls.items():
                started = time.perf_counter()
                result = call()
                elapsed = time.perf_counter() - started
                if not check(result):
                    raise AssertionError(f"{name}: result differs from its reference")
                seconds[name].append(elapsed)
        return seconds

    def add(self, layer, backend, route, unit, count, seconds, **identity):
        """One row: the median and IQR of ``count / seconds`` over the repeats."""
        rate, iqr = _median_iqr([count / s for s in seconds])
        row = {"layer": layer, "backend": backend, "route": route, **identity}
        row.update(unit=unit, rate=rate, iqr=iqr, repeats=len(seconds))
        self.rows.append(row)
        return rate

    def check(self, label, value, bound, ceiling=False):
        ok = value <= bound if ceiling else value >= bound
        self.verdicts.append((label, value, ("<=" if ceiling else ">=") + f" {bound:g}", ok))


# ------------------------------------------------------------------ field op
def _one_op_programs(field):
    """A product and a squaring, each a one-op FieldIR program."""
    mul = IRBuilder("bench_mul")
    mul.output("c", mul.mul(mul.input("a"), mul.input("b")))
    square = IRBuilder("bench_square")
    square.output("c", square.square(square.input("a")))
    return (
        schedule_program(mul.build(), field.m, {}, key=("bench-mul", field.modulus)),
        schedule_program(square.build(), field.m, {"square": field.square_map},
                         key=("bench-square", field.modulus)),
    )


def field_ops(run, m):
    field = GF2mField(smallest_type_ii_pentanomial(m), check_irreducible=False)
    rng = random.Random(2018 + m)
    a = [rng.randrange(1, field.order) for _ in range(PAIRS)]
    b = [rng.randrange(1, field.order) for _ in range(PAIRS)]
    products = [field.multiply(x, y) for x, y in zip(a, b)]
    squares = [field.square(x) for x in a]
    inverses = [field.inverse(x) for x in a[:INVERSE_LANES]]
    netlist = generate_multiplier("thiswork", field.modulus, verify=False).netlist
    mul_program, square_program = _one_op_programs(field)

    calls = {"netlist": (
        lambda: simulate_words(netlist, m, a[:NETLIST_PAIRS], b[:NETLIST_PAIRS]),
        lambda out: out == products[:NETLIST_PAIRS],
    )}
    for name in BACKENDS:
        backend = get_backend(name, field)
        executor = backend.ir_executor()
        mul, square = executor.compile(mul_program), executor.compile(square_program)
        pa, pb, pi = executor.pack(a), executor.pack(b), executor.pack(a[:INVERSE_LANES])

        def matches(expected, unpack=executor.unpack):
            return lambda out: unpack(out[0], PAIRS) == expected

        calls[name] = (lambda backend=backend: backend.multiply_batch(a, b), lambda out: out == products)
        calls[name, "mul"] = (lambda mul=mul, pa=pa, pb=pb: mul.run_arrays([pa, pb], []), matches(products))
        calls[name, "square"] = (lambda square=square, pa=pa: square.run_arrays([pa], []), matches(squares))
        calls[name, "inverse"] = (
            lambda executor=executor, pi=pi: executor.inverse_packed(pi, INVERSE_LANES),
            lambda out, unpack=executor.unpack: out[1] == [] and unpack(out[0], INVERSE_LANES) == inverses,
        )
    calls_per_sample = {}
    for name, (call, check) in calls.items():
        started = time.perf_counter()
        call()  # also compiles and fills the caches outside the timed rounds
        reps = calls_per_sample[name] = max(1, round(FIELD_OP_SAMPLE_S / (time.perf_counter() - started)))
        calls[name] = (lambda call=call, reps=reps: [call() for _ in range(reps)],
                       lambda outs, check=check: all(map(check, outs)))
    rates = {}
    for name, seconds in run.time(calls, FIELD_OP_ROUNDS).items():
        backend, route = (name, "multiply_batch") if isinstance(name, str) else name
        count = NETLIST_PAIRS if backend == "netlist" else INVERSE_LANES if route == "inverse" else PAIRS
        unit = "products/s" if route in ("multiply_batch", "mul") else f"{route}s/s"
        rates[name] = run.add("field_op", backend, route, unit, count * calls_per_sample[name], seconds,
                              m=m, batch=count)
    for label, high, low, floors in (
        ("engine / netlist", "engine", "netlist", ENGINE_FLOORS),
        ("engine / python", "engine", "python", ENGINE_PYTHON_FLOORS),
        ("native / engine", "native", "engine", NATIVE_FLOORS),
    ):
        if m in floors:
            run.check(f"field_op m={m} multiply_batch {label}", rates[high] / rates[low], floors[m])


# --------------------------------------------------------------- ladder step
def _ladder(executor, base, bits, steps):
    """A function running ``steps`` ladder steps from one packed start state."""
    lanes = len(base)
    compiled = executor.compile(ladder_step_program(curve_by_name("B-163")))
    state = [executor.pack(column) for column in ([1] * lanes, [0] * lanes, base, [1] * lanes)]
    fixed = executor.pack(base)
    masks = [executor.broadcast_bits([(word >> bit) & 1 for word in bits]) for bit in reversed(range(steps))]

    def run_steps():
        registers = state
        for mask in masks:
            registers = compiled.run_arrays((*registers, fixed), (mask,))
        return registers

    return run_steps


def ladder_step(run, backend_name, pairs):
    """Metrics on vs off on the compiled B-163 ladder step, in paired CPU times."""
    field = curve_by_name("B-163").field
    steps = LADDER_STEPS[backend_name]
    rng = random.Random(2018)
    bits = [rng.getrandbits(steps) for _ in range(LADDER_LANES)]
    base = [rng.randrange(1, field.order) for _ in range(LADDER_LANES)]
    executor = get_backend(backend_name, field).ir_executor()
    run_steps = _ladder(executor, base, bits, steps)

    def sample(enabled):
        registry = telemetry_metrics.MetricsRegistry() if enabled else telemetry_metrics.NullRegistry()
        previous = telemetry_metrics.set_registry(registry)
        gc.disable()  # a collection of the process's netlists would land in one side of a pair
        try:
            started = time.thread_time()
            registers = run_steps()
            elapsed = time.thread_time() - started
        finally:
            gc.enable()
            telemetry_metrics.set_registry(previous)
        return elapsed, [executor.unpack(register, LADDER_LANES) for register in registers]

    python = get_backend("python", field).ir_executor()
    prefix = [python.unpack(register, 4) for register in _ladder(python, base[:4], bits[:4], steps)()]
    _, expected = sample(False)
    if [values[:4] for values in expected] != prefix:
        raise AssertionError(f"ladder_step {backend_name}: registers differ from the python executor's")
    seconds = {False: [], True: []}
    ratios = []
    for index in range(pairs):
        run.host_s.append(_host_loop_s())
        for enabled in (index % 2 == 1, index % 2 == 0):
            elapsed, registers = sample(enabled)
            if registers != expected:
                raise AssertionError(f"ladder_step {backend_name}: metrics changed the registers")
            seconds[enabled].append(elapsed)
        ratios.append(seconds[True][-1] / seconds[False][-1])
    for enabled, route in ((False, "metrics_off"), (True, "metrics_on")):
        run.add("ladder_step", backend_name, route, "lane-steps/CPU-s", LADDER_LANES * steps,
                seconds[enabled], curve="B-163", batch=LADDER_LANES)
    run.check(f"ladder_step B-163 {backend_name} metrics on / off, median of {pairs} paired CPU times",
              statistics.median(ratios), TELEMETRY_CEILING, ceiling=True)


# ------------------------------------------------- scalar mul and protocol op
def koblitz(run, curve_name, backend_name):
    """Generator multiplies per route, ``ecdh_batch`` per route, and the exchange."""
    curve = curve_by_name(curve_name)
    backend = get_backend(backend_name, curve.field)
    rng = random.Random(2018)
    privates = [rng.randrange(1, curve.order) for _ in range(KOBLITZ_BATCH)]
    peer_privates = [rng.randrange(1, curve.order) for _ in range(KOBLITZ_BATCH)]
    generators = [curve.generator] * KOBLITZ_BATCH

    def keygen(**route):
        return lambda: curve.multiply_batch(generators, privates, backend=backend, **route)

    def agree(scalar_rep):
        return lambda: ecdh_batch(curve, privates, peers, backend=backend, scalar_rep=scalar_rep)

    peers = curve.multiply_batch(generators, peer_privates)  # inputs, on the default backend
    # Every route compiles (and the comb builds its table) on a few lanes
    # before the timed rounds.
    for route in ({"scalar_rep": "binary", "fixed_base": False}, {"fixed_base": True}):
        curve.multiply_batch(generators[:2], privates[:2], backend=backend, **route)
    for scalar_rep in ("binary", "tau"):
        ecdh_batch(curve, privates[:2], peers[:2], backend=backend, scalar_rep=scalar_rep)
    publics = [curve.multiply(curve.generator, d) for d in privates[:2]]
    shared = [curve.multiply(peer, d) for peer, d in zip(peers[:2], privates[:2])]
    # Every result must match the first round's, whose routes must agree
    # with each other and, on a prefix, with the scalar ladder.
    reference = {}

    def same_as_first(key, prefix):
        def check(out):
            if key not in reference:
                reference[key] = out if out[:2] == prefix else None
            return out == reference[key]
        return check

    seconds = run.time({
        "binary": (keygen(scalar_rep="binary", fixed_base=False), same_as_first("keygen", publics)),
        "comb": (keygen(fixed_base=True), same_as_first("keygen", publics)),
        "ecdh_binary": (agree("binary"), same_as_first("shared", shared)),
        "ecdh_tau": (agree("tau"), same_as_first("shared", shared)),
    }, run.rounds(backend_name))
    seconds["exchange_binary"] = [2 * k + a for k, a in zip(seconds["binary"], seconds["ecdh_binary"])]
    seconds["exchange_tau_comb"] = [2 * k + a for k, a in zip(seconds["comb"], seconds["ecdh_tau"])]
    rates = {}
    for route, layer, unit in (
        ("binary", "scalar_mul", "keys/s"),
        ("comb", "scalar_mul", "keys/s"),
        ("ecdh_binary", "protocol", "agreements/s"),
        ("ecdh_tau", "protocol", "agreements/s"),
        ("exchange_binary", "protocol", "exchanges/s"),
        ("exchange_tau_comb", "protocol", "exchanges/s"),
    ):
        rates[route] = run.add(layer, backend_name, route, unit, KOBLITZ_BATCH, seconds[route],
                               curve=curve_name, batch=KOBLITZ_BATCH)
    if curve_name != "K-163":
        return
    where = f"K-163 {backend_name}"
    if backend_name in EXCHANGE_FLOORS:
        run.check(f"protocol {where} exchange τ + comb / all-binary",
                  rates["exchange_tau_comb"] / rates["exchange_binary"], EXCHANGE_FLOORS[backend_name])
    if backend_name in TAU_FLOORS:
        run.check(f"protocol {where} ecdh τ / binary", rates["ecdh_tau"] / rates["ecdh_binary"],
                  TAU_FLOORS[backend_name])
    run.check(f"scalar_mul {where} comb / binary ladder", rates["comb"] / rates["binary"], COMB_FLOOR)


# -------------------------------------------------------------- served request
@contextlib.contextmanager
def _service(backend_name):
    """The port of a ``CryptoService`` serving on its own thread and event loop."""
    service = CryptoService(backend=backend_name, curves=(SERVE_CURVE,), workers=0, seed=2018)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name="bench-serve", daemon=True)
    thread.start()
    try:
        yield asyncio.run_coroutine_threadsafe(service.start(), loop).result(120)
    finally:
        asyncio.run_coroutine_threadsafe(service.stop(), loop).result(120)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(120)
        loop.close()


def served(run, backend_name, clients):
    """Closed-loop single-request clients vs the offline batch of one request each."""
    curve = curve_by_name(SERVE_CURVE)
    backend = get_backend(backend_name, curve.field)
    requests = SERVE_REQUESTS[clients]
    rng = random.Random(2018)
    privates = [rng.randrange(1, curve.field.order) for _ in range(clients)]
    peers = curve.multiply_batch([curve.generator] * clients,
                                 [rng.randrange(1, curve.field.order) for _ in range(clients)])
    ecdh_batch(curve, privates[:2], peers[:2], backend=backend)  # compile outside the timed rounds
    shared = [curve.multiply(peer, d) for peer, d in zip(peers[:2], privates[:2])]
    expected, loads = [], []

    def offline_check(out):
        if not expected:
            expected.append(out if out[:2] == shared else None)
        return out == expected[0]

    with _service(backend_name) as port:
        def wave(clients=clients, requests=requests, spot_checks=0):
            """One closed-loop wave, every response checked against the batched reference."""
            loads.append(asyncio.run(run_load(
                "127.0.0.1", port, op="ecdh", curve=SERVE_CURVE, clients=clients,
                requests_per_client=requests, seed=2018, spot_checks=spot_checks,
            )))
            return loads[-1]

        # Connections, JSON paths and caches warm up, and the loadgen's
        # batched reference is checked against the scalar ladder once.
        wave(clients=min(clients, 16), requests=1, spot_checks=2)
        seconds = run.time({
            "offline": (lambda: ecdh_batch(curve, privates, peers, backend=backend), offline_check),
            "served": (wave, lambda load: not load.errors and load.verified == load.total),
        }, run.rounds(backend_name))
    offline = run.add("protocol", backend_name, "ecdh_binary", "agreements/s", clients, seconds["offline"],
                      curve=SERVE_CURVE, batch=clients)
    # The load generator times its own window, without its set-up.
    rate = run.add("served", backend_name, "ecdh", "requests/s", clients * requests,
                   [load.elapsed_s for load in loads[1:]], curve=SERVE_CURVE, clients=clients)
    if backend_name == "engine" and clients in SERVE_FLOORS:
        run.check(f"served {SERVE_CURVE} {backend_name} {clients} clients / offline batch",
                  rate / offline, SERVE_FLOORS[clients])


# ------------------------------------------------------------------ snapshot
def _git(root, *args):
    try:
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              check=True, timeout=60).stdout
    except (OSError, subprocess.SubprocessError) as error:
        raise SystemExit(f"cannot read the git history of {root}: {error}") from None


def commit_pr(root=ROOT):
    """The PR a snapshot of ``root``'s tree belongs to.

    The newest ``PR N:`` commit subject reachable from HEAD names the last
    PR; modified tracked files make the tree the next one.  Without such
    a subject there is no number to give, and guessing one would misfile
    the snapshot, so that is an error.
    """
    for subject in _git(root, "log", "--format=%s").splitlines():
        match = PR_SUBJECT.search(subject)
        if match:
            modified = bool(_git(root, "status", "--porcelain", "--untracked-files=no").strip())
            return int(match.group(1)) + modified
    raise SystemExit(f"no 'PR N:' commit subject is reachable from HEAD in {root}")


def snapshot(run):
    host, host_iqr = _median_iqr([1.0 / seconds for seconds in run.host_s])
    return {
        "bench": "layers",
        "commit_pr": commit_pr(),
        "config": {
            "platform": {"python": platform.python_version(), "machine": platform.machine()},
            "git_commit": _git(ROOT, "rev-parse", "HEAD").strip(),
            "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "host_speed": {"unit": "big-int loops/s", "rate": host, "iqr": host_iqr},
            "quick": run.quick,
        },
        "results": run.rows,
    }


def write_history(path, payload):
    """Add ``payload`` to the snapshot list at ``path``, replacing its PR's."""
    history = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            history = json.load(handle)
    history = [entry for entry in history if entry["commit_pr"] != payload["commit_pr"]] + [payload]
    history.sort(key=lambda entry: entry["commit_pr"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=1, sort_keys=True)
        handle.write("\n")
    readme = os.path.join(os.path.dirname(os.path.abspath(path)), "README.md")
    if os.path.exists(readme):
        with open(readme, encoding="utf-8") as handle:
            text = handle.read()
        with open(readme, "w", encoding="utf-8") as handle:
            handle.write(splice_readme(text, history[-1]))
    print(f"wrote {path} ({len(history)} snapshot(s), PR {payload['commit_pr']})")


def report(run):
    lines = [f"{'layer':<12s} {'backend':<9s} {'where':<8s} {'route':<18s} {'batch':>6s} "
             f"{'median rate':>16s} {'IQR':>6s}"]
    for row in run.rows:
        where = row.get("curve") or f"m={row['m']}"
        batch = row.get("batch") or row.get("clients")
        lines.append(
            f"{row['layer']:<12s} {row['backend']:<9s} {where:<8s} {row['route']:<18s} {batch:>6d} "
            f"{row['rate']:>14,.0f}/s {row['iqr'] / row['rate']:>6.1%}  {row['unit']}"
        )
    lines.append("")
    for label, value, bound, ok in run.verdicts:
        lines.append(f"{'ok  ' if ok else 'FAIL'} {label}: {value:.3f} ({bound})")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description="the layered benchmark (see the module docstring)")
    parser.add_argument("--quick", action="store_true",
                        help="the CI grid: m=163, K-163 and 64 clients (full runs add more)")
    parser.add_argument("--json", metavar="PATH",
                        help="add the snapshot to this history file and re-render the README beside it")
    args = parser.parse_args(argv)
    run = Run(args.quick)
    for m in (163,) if args.quick else (163, 233, 283):
        field_ops(run, m)
    for backend_name in ("engine", "native"):
        ladder_step(run, backend_name, pairs=81 if args.quick else 161)
    for backend_name in ("engine", "native"):
        koblitz(run, "K-163", backend_name)
    for curve_name in () if args.quick else TRAJECTORY_CURVES:
        koblitz(run, curve_name, "native")
    for clients in (64,) if args.quick else (64, 256):
        for backend_name in ("engine", "native"):
            served(run, backend_name, clients)
    print(report(run))
    if args.json:
        write_history(args.json, snapshot(run))
    failed = [label for label, _, _, ok in run.verdicts if not ok]
    if failed:
        raise SystemExit(f"{len(failed)} floor(s) failed: " + "; ".join(failed))
    print(f"ok: {len(run.verdicts)} floors hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
