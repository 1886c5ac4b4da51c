"""Command-line interface: ``gf2m-repro`` / ``python -m repro``.

Subcommands
-----------
``tables``      print the paper's Tables I-IV for a field
``methods``     list the available multiplier constructions
``fields``      list the paper's field catalog
``generate``    generate a multiplier, verify it and print its statistics
``implement``   run the full FPGA flow on one multiplier
``compare``     regenerate (part of) the paper's Table V
``sweep``       run a field x method x device x effort grid through the
                parallel pipeline with the persistent artifact store
``emit``        write VHDL/Verilog (and optionally a testbench) to a file
``batch``       multiply operand streams through a batch backend
``bench``       measure backend vs scalar-reference throughput (or, without
                ``--backend``, interpreted vs compiled)
``curves``      list the elliptic-curve catalog (NIST-degree K/B curves)
``ecdh``        run the batched ECDH workload on one curve and report ops/s
``keygen``      run the batched key-generation workload (fixed-base comb)
``serve``       run the batching crypto service (JSON over HTTP/1.1)
``loadgen``     drive a running service with concurrent verifying clients
``stats``       print the telemetry registry (counters, timing summaries)
                and every named LRU cache's hit/miss/eviction stats
``dashboard``   render the per-PR perf trajectory from the committed
                ``BENCH_*.json`` files, with advisory regression flags

:func:`build_parser` declares each subcommand once, with its options and
its handler (``set_defaults(run=...)``); :func:`main` calls
``args.run(args)``.  An option several subcommands share (``--backend``,
``--check``, ``--seed``, ...) is declared once (:func:`_option`); a
subcommand that needs another default sets it with ``set_defaults``.

``batch``, ``bench``, ``ecdh``, ``keygen`` and ``serve`` accept
``--backend`` (``python`` | ``engine`` | ``native``, see
:mod:`repro.backends`; without it each field resolves its default).
Every subcommand resolves it at a single site,
:func:`_resolve_cli_backend`, so none can drift apart in error behavior.
The curve alone picks the scalar route of ``ecdh``, ``keygen`` and the
service: τ-adic on Koblitz curves, the binary ladder otherwise, and the
fixed-base comb for generator multiplies.

``--trace-out FILE`` (top level, or after ``sweep`` or any ``--backend``
subcommand) records a span trace of the run and writes it as Chrome
trace-event JSON — open it in Perfetto (https://ui.perfetto.dev) to see
pack / per-fused-pass / unpack / inversion timings nested under each
ladder.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import contextmanager
from typing import Callable, List, Optional

from .analysis.compare import claims_report, comparison_table, compare_to_paper, run_comparison
from .analysis.tables import render_table1, render_table2, render_table3, render_table4
from .backends import available_backends, default_backend_name, get_backend
from .backends.steps import LadderSteps, run_steps_python
from .curves import CURVES, curve_by_name, is_koblitz, keygen_batch
from .engine import engine_for
from .galois.field import GF2mField
from .galois.gf2poly import poly_to_string
from .galois.pentanomials import PAPER_TABLE5_FIELDS, type_ii_pentanomial
from .hdl.testbench import vhdl_testbench
from .hdl.verilog import netlist_to_verilog
from .hdl.vhdl import multiplier_to_behavioral_vhdl, netlist_to_vhdl
from .multipliers.cache import default_multiplier_cache
from .multipliers.registry import TABLE5_METHODS, describe_methods, generate_multiplier
from .netlist.simulate import simulate_words
from .pipeline.store import ArtifactStore
from .pipeline.sweep import format_outcome_stats, format_sweep, run_sweep
from .synth.device import DEVICES, device_by_name
from .synth.flow import SynthesisOptions, implement
from .telemetry import metrics as telemetry_metrics
from .telemetry import snapshot_all
from .telemetry import trace as telemetry_trace
from .telemetry.dashboard import DEFAULT_TOLERANCE, render_dashboard

__all__ = ["main", "build_parser"]


def _option(*flags: str, **options) -> Callable[[argparse.ArgumentParser], argparse.Action]:
    """One declaration of an option several subcommands share.

    :func:`build_parser` adds it to every subcommand that lists it, each
    with its own action: argparse ``parents`` would share one action, so a
    subcommand's ``set_defaults`` would change its siblings' default too.
    """
    return lambda parser: parser.add_argument(*flags, **options)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="gf2m-repro",
        description="Reproduction of 'Reconfigurable implementation of GF(2^m) bit-parallel multipliers' (DATE 2018)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record a span trace of this run and write it as Chrome "
        "trace-event JSON (open in Perfetto or chrome://tracing)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *shared, **defaults) -> argparse.ArgumentParser:
        """Declare subcommand ``name``, handled by ``run(args)``, with its ``shared`` options."""
        subparser = subparsers.add_parser(name, help=summary)
        for add in shared:
            add(subparser)
        subparser.set_defaults(run=run, **defaults)
        return subparser

    field = (
        _option("-m", type=int, default=8, help="field degree m (default 8)"),
        _option("-n", type=int, default=2, help="pentanomial parameter n (default 2)"),
    )
    cache = (
        _option(
            "--cache-dir",
            default=None,
            help="artifact store directory (default ~/.cache/gf2m-repro or $GF2M_REPRO_CACHE_DIR)",
        ),
        _option("--no-cache", action="store_true", help="bypass the on-disk artifact store entirely"),
    )
    backend = _option(
        "--backend",
        default=None,
        choices=available_backends(),
        help="execution backend (default: per-field resolution)",
    )
    # The top-level --trace-out, also accepted after the subcommand.
    # SUPPRESS keeps a subcommand that was not given the flag from
    # overwriting the top-level value with its own default.
    trace = _option(
        "--trace-out", default=argparse.SUPPRESS, metavar="FILE",
        help="record a span trace of this run as Chrome trace-event JSON",
    )
    circuit = _option(
        "--method",
        default=None,
        help="circuit construction for circuit backends (default thiswork for type II fields)",
    )
    method = _option("--method", default="thiswork", help="construction name (default thiswork)")
    methods = _option("--methods", default=",".join(TABLE5_METHODS), help="comma separated construction names")
    fields = _option(
        "--fields",
        default="paper",
        help="comma separated m:n pairs, or 'paper' for all nine paper fields (default %(default)s)",
    )
    effort = _option("--effort", type=int, default=2, help="mapping effort (default 2)")
    jobs = _option("--jobs", type=int, default=1, help="worker processes (default 1)")
    output = _option("--output", default="-", help="output file (default stdout)")
    seed = _option("--seed", type=int, default=2018, help="seed for the random draws (default 2018)")
    curve = _option(
        "--curve", default="B-163", help="catalog curve name (default %(default)s; see 'repro curves')"
    )
    check = _option(
        "--check", type=int, default=0, metavar="N",
        help="cross-check the first N results against the scalar-ladder reference path "
        "(default %(default)s)",
    )
    host = _option("--host", default="127.0.0.1", help="service address (default 127.0.0.1)")
    port = _option(
        "--port", type=int, default=8742, help="service port (default 8742; 'serve --port 0' picks a free port)"
    )

    tables = command("tables", _run_tables, "print the paper's Tables I-IV for a field", *field)
    tables.add_argument("--which", choices=["1", "2", "3", "4", "all"], default="all")

    command("methods", _run_methods, "list available multiplier constructions")
    command("fields", _run_fields, "list the paper's field catalog")
    command("generate", _run_generate, "generate and verify one multiplier", *field, method)
    command("implement", _run_implement, "run the FPGA flow on one multiplier", *field, method, effort)

    compare = command(
        "compare", _run_compare, "regenerate (part of) the paper's Table V",
        fields, methods, effort, *cache, jobs, fields="8:2,64:23",
    )
    compare.add_argument("--paper", action="store_true", help="show paper values side by side")
    compare.add_argument("--claims", action="store_true", help="evaluate the paper's qualitative claims")

    sweep = command(
        "sweep", _run_sweep, "run a field x method x device x effort grid through the parallel pipeline",
        trace, fields, methods, *cache, jobs,
    )
    sweep.add_argument(
        "--devices",
        default="artix7",
        help=f"comma separated device names (default artix7; known: {', '.join(sorted(DEVICES))})",
    )
    sweep.add_argument("--efforts", default="2", help="comma separated mapping efforts (default 2)")
    sweep.add_argument("--format", choices=["table", "json", "csv"], default="table")
    sweep.add_argument("--stats", action="store_true", help="also print per-run scheduler/cache statistics")

    emit = command("emit", _run_emit, "emit HDL for one multiplier", *field, method, output)
    emit.add_argument("--language", choices=["vhdl", "vhdl-behavioral", "verilog"], default="vhdl")
    emit.add_argument("--testbench", action="store_true", help="also emit a VHDL testbench")

    batch = command(
        "batch", _run_batch, "multiply operand streams through a batch backend",
        backend, circuit, trace, *field, seed, output,
    )
    batch.add_argument("--count", type=int, default=1000, help="number of random operand pairs (default 1000)")
    batch.add_argument("--input", help="file with one 'hexA hexB' pair per line instead of random operands")
    batch.add_argument(
        "--chunk-size", type=int, default=None,
        help="pairs per evaluation of a circuit backend (default: the backend's)",
    )
    batch.add_argument("--check", action="store_true", help="verify every product against the reference field")
    batch.add_argument("--stats", action="store_true", help="print throughput and cache statistics")

    bench = command(
        "bench", _run_bench,
        "throughput of one field: backend vs scalar reference (or interpreted vs compiled)",
        backend, circuit, trace, *field,
    )
    bench.add_argument(
        "--check", action="store_true",
        help="with --backend: cross-check every product against the scalar reference",
    )
    bench.add_argument("--pairs", type=int, default=2048, help="operand pairs per measurement (default 2048)")
    bench.add_argument("--quick", action="store_true", help="small fast run for CI smoke tests")
    bench.add_argument(
        "--describe", action="store_true",
        help="print the FieldIR pass schedule of the López-Dahab ladder step (and its lowering "
        "on the backend's executor) instead of benchmarking",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="trace the compiled López-Dahab ladder step and print a per-fused-pass "
        "timing breakdown instead of benchmarking (needs a FieldIR-capable backend)",
    )

    command("curves", _run_curves, "list the elliptic-curve catalog")

    ecdh = command(
        "ecdh", _run_ecdh, "batched ECDH key agreement workload on one curve",
        backend, trace, curve, jobs, seed, check,
    )
    ecdh.add_argument("--batch", type=int, default=64, help="independent key agreements per side (default 64)")

    keygen = command(
        "keygen", _run_keygen, "batched key generation workload on one curve (fixed-base comb)",
        backend, trace, curve, seed, check, curve="K-163",
    )
    keygen.add_argument("--batch", type=int, default=256, help="key pairs to generate (default 256)")

    serve = command(
        "serve", _run_serve, "run the batching crypto service (JSON over HTTP/1.1, stdlib asyncio)",
        backend, trace, host, port,
    )
    serve.add_argument(
        "--curves", default="B-163,K-163", metavar="NAMES",
        help="comma-separated catalog curves to warm and serve (default B-163,K-163)",
    )
    serve.add_argument(
        "--max-lanes", type=int, default=256,
        help="dispatch a batch group at this many requests even while every worker "
        "is busy (default 256); otherwise it goes when a worker is free",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes executing batches (default: CPU count; 0 runs "
        "batches inline on one worker thread — best on single-core machines)",
    )
    serve.add_argument(
        "--seed", type=int, default=None,
        help="seed the server-side keygen scalar draws (reproducible runs)",
    )

    loadgen = command(
        "loadgen", _run_loadgen,
        "drive a running service with many concurrent single-request clients, verifying "
        "every response against a locally batched expectation",
        host, port, curve, check, check=4,
    )
    loadgen.add_argument("--op", choices=["ecdh", "keygen", "sign"], default="ecdh")
    loadgen.add_argument("--clients", type=int, default=64, help="concurrent closed-loop clients (default 64)")
    loadgen.add_argument(
        "--requests", type=int, default=4, metavar="N",
        help="requests per client, sent back-to-back on one keep-alive connection (default 4)",
    )
    loadgen.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    loadgen.add_argument(
        "--connect-timeout", type=float, default=30.0, metavar="S",
        help="keep retrying the initial connections for this long (default 30 s)",
    )
    loadgen.add_argument(
        "--stats", action="store_true",
        help="fetch and print the service's /stats after the run",
    )

    stats = command(
        "stats", _run_stats, "print the telemetry registry and every named LRU cache's statistics"
    )
    stats.add_argument("--format", choices=["table", "json"], default="table")

    dashboard = command(
        "dashboard", _run_dashboard,
        "render the per-PR perf trajectory from the committed BENCH_*.json files", output,
    )
    dashboard.add_argument(
        "--dir", default=".", help="directory holding the BENCH_*.json files (default: .)"
    )
    dashboard.add_argument("--format", choices=["markdown", "html"], default="markdown")
    dashboard.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="fractional drop vs the best prior PR that raises a regression flag, "
        f"if it also exceeds the relative IQR both rows recorded (default {DEFAULT_TOLERANCE})",
    )
    dashboard.add_argument(
        "--check", action="store_true",
        help="print regression flags to stderr instead of the rendered document; "
        "warn-only by default — exits 0 unless --strict is also given",
    )
    dashboard.add_argument(
        "--strict", action="store_true",
        help="with --check: exit 1 when any regression is flagged (CI uses this on "
        "the committed-trajectory job; PR runs stay warn-only)",
    )
    return parser


# ---------------------------------------------------------------- helpers
@contextmanager
def _clean_exit(errors=(KeyError, ValueError)):
    """Turn ``errors`` raised in the block into an exit with the error's message.

    The message is ``args[0]``: ``str()`` of a ``KeyError`` would quote it.
    """
    try:
        yield
    except errors as error:
        raise SystemExit(str(error.args[0]) if error.args else str(error)) from None


def _rate(count: int, seconds: float) -> float:
    """``count`` per second, infinite when the timer read zero."""
    return count / seconds if seconds > 0 else float("inf")


def _names(text: str) -> List[str]:
    """The non-empty items of a comma separated list argument."""
    return [name.strip() for name in text.split(",") if name.strip()]


def _write_output(path: str, text: str, what: str, file=None) -> None:
    """Print ``text`` when ``path`` is ``-``, else write the same bytes there and note it on ``file``."""
    if path == "-":
        if text:
            print(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n" if text else "")
    print(f"wrote {what} to {path}", file=file)


def _random_pairs(m: int, count: int, seed: int) -> tuple:
    """``count`` random operand pairs of GF(2^m), as two lists."""
    rng = random.Random(seed)
    return [rng.getrandbits(m) for _ in range(count)], [rng.getrandbits(m) for _ in range(count)]


def _read_operand_pairs(path: str, m: int) -> tuple:
    """Read one whitespace-separated hex pair per line (blank lines ignored)."""
    a_values: List[int] = []
    b_values: List[int] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as error:
        raise SystemExit(f"cannot read operand file: {error}") from None
    with handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise SystemExit(f"{path}:{line_number}: expected 'hexA hexB', got {stripped!r}")
            try:
                a, b = int(parts[0], 16), int(parts[1], 16)
            except ValueError:
                raise SystemExit(
                    f"{path}:{line_number}: operands must be hexadecimal, got {stripped!r}"
                ) from None
            if a.bit_length() > m or b.bit_length() > m:
                raise SystemExit(
                    f"{path}:{line_number}: operand wider than m={m} bits: {stripped!r}"
                )
            a_values.append(a)
            b_values.append(b)
    return a_values, b_values


def _resolve_cli_backend(field: GF2mField, name, method=None, chunk_size=None, verify=True):
    """Resolve a ``--backend``/``--method`` pair, exiting cleanly on errors.

    ``name=None`` resolves through the registry's per-field default.
    Unknown names, contradictory options (``--method`` with the scalar or
    native backend) and a missing C toolchain for ``native`` all surface
    as actionable messages instead of tracebacks.  ``verify=False`` skips
    formal circuit verification (the large-field fast path of ``repro
    batch``/``bench``); it does not apply to ``native``, which evaluates
    no generated circuit.
    """
    with _clean_exit((KeyError, ValueError, ImportError)):
        if name is None:
            name = default_backend_name(field)
        options = {}
        if method is not None:
            options["method"] = method
        if name in ("engine", "native"):
            if chunk_size is not None:
                options["chunk_size"] = chunk_size
            if name != "native" and not verify:
                options["verify"] = False
        return get_backend(name, field, **options)


def _field_backend(args, chunk_size=None):
    """The ``-m``/``-n`` field and its resolved ``--backend``/``--method`` backend."""
    field = GF2mField(type_ii_pentanomial(args.m, args.n), check_irreducible=False)
    backend = _resolve_cli_backend(
        field, args.backend, method=args.method, chunk_size=chunk_size, verify=args.m <= 16
    )
    return field, backend


def _multiply_and_check(backend, field, a_values, b_values, prefix: str, checked: int) -> tuple:
    """``(products, seconds, reference seconds)`` of one timed batch.

    A one-pair call pays one-time costs first; the batch is timed as
    ``{prefix}.multiply``, and its first ``checked`` products are
    recomputed with ``field.multiply`` (timed as ``{prefix}.reference``).
    A mismatch exits instead of reporting anything.
    """
    backend.multiply_batch(a_values[:1], b_values[:1])
    with telemetry_metrics.timed(f"{prefix}.multiply") as timer:
        products = backend.multiply_batch(a_values, b_values)
    with telemetry_metrics.timed(f"{prefix}.reference") as reference_timer:
        reference = [field.multiply(a, b) for a, b in zip(a_values[:checked], b_values[:checked])]
    for a, b, product, expected in zip(a_values, b_values, products, reference):
        if product != expected:
            raise SystemExit(f"MISMATCH: {backend.name}: {a:x} * {b:x} -> {product:x} != reference")
    return products, timer.seconds, reference_timer.seconds


def _workload_curve(args):
    """``(curve, backend)`` of ``ecdh``/``keygen``, with ``--batch``/``--check`` validated."""
    with _clean_exit():
        curve = curve_by_name(args.curve)
    if args.batch < 1:
        raise SystemExit("--batch must be at least 1")
    if args.check < 0:
        raise SystemExit("--check must be non-negative")
    # Resolve eagerly so a bad backend (or missing C toolchain) fails before work.
    return curve, _resolve_cli_backend(curve.field, args.backend)


def _check_against_ladder(curve, noun: str, rows) -> None:
    """Exit unless every ``(result, base, scalar)`` row matches the scalar ladder."""
    for index, (result, base, scalar) in enumerate(rows):
        if result != curve.multiply(base, scalar):
            raise SystemExit(f"MISMATCH: batched {noun} {index} != scalar-ladder reference")
    print(f"checked {len(rows)} {noun}s against the scalar-ladder reference: byte-identical")


def _parse_fields(text: str) -> List[tuple]:
    """Parse ``--fields`` ('paper' or comma separated ``m:n`` pairs).

    Malformed specs exit with an actionable message instead of a bare
    ``ValueError`` traceback.
    """
    if text.strip().lower() == "paper":
        return [(spec.m, spec.n) for spec in PAPER_TABLE5_FIELDS]
    fields = []
    for chunk in _names(text):
        m_text, sep, n_text = chunk.partition(":")
        try:
            if not sep:
                raise ValueError
            m_value, n_value = int(m_text), int(n_text)
        except ValueError:
            raise SystemExit(
                f"invalid field spec {chunk!r}: expected 'm:n' with decimal integers "
                f"(e.g. '163:66'), or 'paper' for the paper's nine fields"
            ) from None
        try:
            type_ii_pentanomial(m_value, n_value)
        except ValueError as error:
            raise SystemExit(f"invalid field spec {chunk!r}: {error}") from None
        fields.append((m_value, n_value))
    if not fields:
        raise SystemExit("no fields given: pass comma separated 'm:n' pairs or 'paper'")
    return fields


def _parse_int_list(text: str, what: str) -> List[int]:
    """Parse a comma separated integer list CLI argument."""
    try:
        values = [int(chunk) for chunk in _names(text)]
    except ValueError:
        raise SystemExit(f"invalid {what} list {text!r}: expected comma separated integers") from None
    if not values:
        raise SystemExit(f"no {what} given in {text!r}")
    return values


def _artifact_store(args) -> Optional[ArtifactStore]:
    """The artifact store selected by --cache-dir/--no-cache (None = disabled)."""
    if args.no_cache:
        return None
    return ArtifactStore(args.cache_dir) if args.cache_dir else ArtifactStore()


# ---------------------------------------------------------------- handlers
def _run_tables(args) -> int:
    modulus = type_ii_pentanomial(args.m, args.n)
    renderers = {"1": render_table1, "2": render_table2, "3": render_table3, "4": render_table4}
    selected = renderers.values() if args.which == "all" else [renderers[args.which]]
    for renderer in selected:
        print(renderer(modulus))
        print()
    return 0


def _run_methods(args) -> int:
    for metadata in describe_methods():
        print(f"{metadata['name']:<15s} {metadata['reference']:<45s} {metadata['description']}")
    return 0


def _run_fields(args) -> int:
    for spec in PAPER_TABLE5_FIELDS:
        print(f"({spec.m},{spec.n})  {spec.standard or '-':<6s} {spec.modulus_string()}")
    return 0


def _run_generate(args) -> int:
    modulus = type_ii_pentanomial(args.m, args.n)
    multiplier = generate_multiplier(args.method, modulus)
    print(multiplier.describe())
    print(f"modulus: {poly_to_string(modulus)}")
    print("formally verified against the product specification: yes")
    return 0


def _run_implement(args) -> int:
    modulus = type_ii_pentanomial(args.m, args.n)
    multiplier = generate_multiplier(args.method, modulus, verify=args.m <= 16)
    result = implement(multiplier, options=SynthesisOptions(effort=args.effort))
    for key, value in result.as_dict().items():
        print(f"{key:20s} {value}")
    return 0


def _run_compare(args) -> int:
    fields = _parse_fields(args.fields)
    with _clean_exit():
        comparisons = run_comparison(
            fields=fields,
            methods=_names(args.methods),
            options=SynthesisOptions(effort=args.effort),
            jobs=args.jobs,
            store=_artifact_store(args),
        )
    if args.paper:
        print(compare_to_paper(comparisons))
    else:
        print(comparison_table(comparisons, title="Measured comparison (paper Table V layout)"))
    if args.claims:
        report = claims_report(comparisons)
        print()
        for claim, fields_holding in report.items():
            print(f"{claim}: {fields_holding}")
    return 0


def _run_sweep(args) -> int:
    fields = _parse_fields(args.fields)
    methods = _names(args.methods)
    if not methods:
        raise SystemExit("no methods given: pass comma separated construction names (see 'repro methods')")
    with _clean_exit():
        devices = [device_by_name(name) for name in _names(args.devices)]
    if not devices:
        raise SystemExit("no devices given: pass comma separated device names (e.g. 'artix7')")
    efforts = _parse_int_list(args.efforts, "effort")
    with _clean_exit():
        result = run_sweep(
            fields=fields,
            methods=methods,
            devices=devices,
            efforts=efforts,
            jobs=args.jobs,
            store=_artifact_store(args),
        )
    print(format_sweep(result, fmt=args.format))
    if args.stats:
        for line in format_outcome_stats(result.outcomes):
            print(line, file=sys.stderr)
    print(f"sweep: {result.summary()}", file=sys.stderr)
    return 0


def _run_emit(args) -> int:
    modulus = type_ii_pentanomial(args.m, args.n)
    multiplier = generate_multiplier(args.method, modulus, verify=args.m <= 16)
    if args.language == "vhdl":
        text = netlist_to_vhdl(multiplier.netlist)
    elif args.language == "vhdl-behavioral":
        text = multiplier_to_behavioral_vhdl(multiplier)
    else:
        text = netlist_to_verilog(multiplier.netlist)
    if args.testbench:
        text += "\n" + vhdl_testbench(modulus)
    _write_output(args.output, text, args.language)
    return 0


def _run_batch(args) -> int:
    if args.input:
        a_values, b_values = _read_operand_pairs(args.input, args.m)
    else:
        a_values, b_values = _random_pairs(args.m, args.count, args.seed)
    field, backend = _field_backend(args, chunk_size=args.chunk_size)
    products, elapsed, _ = _multiply_and_check(
        backend, field, a_values, b_values, "cli.batch", len(a_values) if args.check else 0
    )
    digits = (args.m + 3) // 4
    lines = "\n".join(f"{product:0{digits}x}" for product in products)
    _write_output(args.output, lines, f"{len(products)} products")
    if args.check:
        print(f"checked {len(products)} products against the reference field: all match")
    if args.stats:
        print(backend.describe())
        print(
            f"{len(products)} products in {elapsed * 1000:.1f} ms "
            f"({_rate(len(products), elapsed):,.0f} products/s)"
        )
        print(f"multiplier cache: {default_multiplier_cache().info()}")
    return 0


def _run_bench(args) -> int:
    if args.pairs < 1:
        raise SystemExit("--pairs must be at least 1")
    if args.describe:
        return _run_bench_describe(args)
    if args.profile:
        return _run_bench_profile(args)
    if args.backend:
        return _run_bench_backend(args)
    modulus = type_ii_pentanomial(args.m, args.n)
    method = args.method or "thiswork"
    pairs = min(args.pairs, 256) if args.quick else args.pairs
    a_values, b_values = _random_pairs(args.m, pairs, 2018)
    multiplier = generate_multiplier(method, modulus, verify=args.m <= 16)

    with telemetry_metrics.timed("cli.bench.interpreted") as interpreted_timer:
        interpreted = simulate_words(multiplier.netlist, args.m, a_values, b_values)
    interpreted_s = interpreted_timer.seconds

    engine = engine_for(method, modulus, verify=False)
    engine.multiply_batch(a_values[:1], b_values[:1])  # warm the compiled path
    with telemetry_metrics.timed("cli.bench.compiled") as compiled_timer:
        compiled = engine.multiply_batch(a_values, b_values)
    compiled_s = compiled_timer.seconds

    if compiled != interpreted:
        raise SystemExit("engine and interpreter disagree — refusing to report throughput")
    print(f"GF(2^{args.m}) {method}: {pairs} pairs")
    print(f"  interpreted  {_rate(pairs, interpreted_s):>12,.0f} products/s")
    print(f"  compiled     {_rate(pairs, compiled_s):>12,.0f} products/s")
    print(f"  speedup      {interpreted_s / compiled_s:>12.1f}x")
    return 0


def _run_bench_backend(args) -> int:
    """``repro bench --backend X``: backend vs scalar reference throughput.

    Always cross-checks a subset against ``GF2mField.multiply``;
    ``--check`` extends the cross-check to every product (the CI parity
    smoke step relies on this).
    """
    pairs = min(args.pairs, 512) if args.quick else args.pairs
    a_values, b_values = _random_pairs(args.m, pairs, 2018)
    field, backend = _field_backend(args)
    scalar_pairs = pairs if args.check else min(pairs, 256)
    _, backend_s, scalar_s = _multiply_and_check(
        backend, field, a_values, b_values, "cli.bench", scalar_pairs
    )
    backend_rate = _rate(pairs, backend_s)
    scalar_rate = _rate(scalar_pairs, scalar_s)
    print(backend.describe())
    print(f"GF(2^{args.m}) {backend.name}: {pairs} pairs")
    print(f"  scalar ref   {scalar_rate:>12,.0f} products/s")
    print(f"  {backend.name:<12s} {backend_rate:>12,.0f} products/s")
    print(f"  speedup      {backend_rate / scalar_rate:>12.1f}x")
    if args.check:
        print(f"checked {pairs} products against the scalar reference: all match")
    return 0


def _bench_ladder_step(args):
    """``(field, backend, program)`` of ``bench --describe/--profile``, after naming both.

    The scheduled López-Dahab ladder step over the bench field, on the
    resolved backend.  A catalog curve over the bench field supplies the
    curve constant ``b``; fields without a catalog curve use ``b = 1``,
    which has the identical pass structure.
    """
    from .backends.ir import schedule_program
    from .curves.formulas import ladder_step_ir, ladder_step_program

    field, backend = _field_backend(args)
    curve = next(
        (curve_by_name(spec.name) for spec in CURVES if (spec.m, spec.n) == (args.m, args.n)),
        None,
    )
    if curve is not None:
        program = ladder_step_program(curve)
        print(f"formula: López-Dahab ladder step on {curve.name}")
    else:
        program = schedule_program(
            ladder_step_ir(), field.m,
            {"square": field.square_map, "mul_b": field.constant_multiplier(1)},
        )
        print(f"formula: López-Dahab ladder step over GF(2^{args.m}) (no catalog curve; b=1)")
    print(backend.describe())
    return field, backend, program


def _run_bench_describe(args) -> int:
    """``repro bench --describe``: the formula compiler's pass schedule.

    Prints the scheduled ladder step (:func:`_bench_ladder_step`) — the
    headline consumer of the formula compiler — and its lowering on the
    resolved backend's executor.
    """
    _, backend, program = _bench_ladder_step(args)
    print(program.describe())
    print(f"compiled: {backend.ir_executor().compile(program).describe()}")
    return 0


def _run_bench_profile(args) -> int:
    """``repro bench --profile``: per-fused-pass timings of the ladder step.

    Runs ``m`` ladder steps (:func:`_bench_ladder_step`) over a random
    batch through the Python step loop (``run_steps_python``, one
    ``run_arrays`` per step, on every backend: native's one-call loop has
    no pass boundaries to time) under a temporary tracer, and prints where
    each step's time goes — the per-pass breakdown behind the one
    ``ladder.step`` number.  The header and the total say which loop they
    time; on native they also say that batches run that loop in C, so the
    total is not the rate of a native batch.
    """
    field, backend, program = _bench_ladder_step(args)
    executor = backend.ir_executor()
    lanes = min(256, executor.chunk_size, args.pairs)
    steps = field.m if not args.quick else min(field.m, 24)
    rng = random.Random(2018)
    base = [rng.getrandbits(args.m) or 1 for _ in range(lanes)]
    scalars = [rng.getrandbits(steps) | 1 << (steps - 1) for _ in range(lanes)]
    state = [executor.pack(values) for values in ([1] * lanes, [0] * lanes, base, [1] * lanes)]
    fixed = (executor.pack(base),)
    compiled = [executor.compile(program)]
    run_steps_python(executor, compiled, state, fixed, LadderSteps([1] * lanes))  # warm
    previous = telemetry_trace.set_tracer(telemetry_trace.Tracer())
    try:
        with telemetry_metrics.timed("cli.bench.profile") as timer:
            run_steps_python(executor, compiled, state, fixed, LadderSteps(scalars))
        summary = telemetry_trace.aggregate_spans(
            telemetry_trace.TRACER.events(), prefix="ir.pass."
        )
    finally:
        telemetry_trace.set_tracer(previous)
    print(f"{steps} fused steps x {lanes} lanes through the Python step loop, traced per pass:")
    total_s = sum(entry["total_s"] for entry in summary.values())
    header = f"  {'pass':<24s} {'count':>7s} {'total ms':>10s} {'share':>7s} {'per-step µs':>12s}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    for name in sorted(summary):
        entry = summary[name]
        share = entry["total_s"] / total_s * 100 if total_s > 0 else 0.0
        per_step_us = entry["total_s"] / steps * 1e6
        print(
            f"  {name:<24s} {entry['count']:>7.0f} {entry['total_s'] * 1000:>10.2f} "
            f"{share:>6.1f}% {per_step_us:>12.1f}"
        )
    overhead_s = timer.seconds - total_s
    print(
        f"  {'(outside passes)':<24s} {'':>7s} {overhead_s * 1000:>10.2f} "
        f"{(overhead_s / timer.seconds * 100 if timer.seconds > 0 else 0.0):>6.1f}%"
    )
    print(
        f"total {timer.seconds * 1000:.2f} ms in the Python step loop "
        f"({_rate(steps * lanes, timer.seconds):,.0f} ladder-step-lanes/s)"
    )
    if executor.kind == "native":
        print("native batches run this step loop in C, one call per chunk: "
              "the total above is not their rate")
    return 0


def _run_curves(args) -> int:
    print(f"{'name':<7s} {'field':<10s} {'a':>1s} {'order':<12s} {'standard':<12s} note")
    for spec in CURVES:
        order = f"{spec.order.bit_length()}-bit n" if spec.order else "unknown"
        print(
            f"{spec.name:<7s} ({spec.m},{spec.n:<3d})  {spec.a:>1d} {order:<12s} "
            f"{spec.standard or '-':<12s} {spec.note}"
        )
    return 0


def _run_ecdh(args) -> int:
    """``repro ecdh``: both sides' keygen, then the agreements, optionally sharded."""
    from .serve.workers import ecdh_sharded

    curve, resolved = _workload_curve(args)
    print(curve.describe())

    with telemetry_metrics.timed("cli.ecdh.keygen") as keygen_timer:
        alice, bob = (
            keygen_batch(curve, args.batch, seed=args.seed + side, backend=args.backend)
            for side in (0, 1)
        )
    with telemetry_metrics.timed("cli.ecdh.agreement") as agree_timer:
        alice_shared, bob_shared = (
            ecdh_sharded(
                curve,
                [pair.private for pair in mine],
                [pair.public for pair in theirs],
                args.jobs,
                backend=args.backend,
            )
            for mine, theirs in ((alice, bob), (bob, alice))
        )

    if alice_shared != bob_shared:
        raise SystemExit("ECDH FAILURE: the two sides disagree on the shared secret")
    if args.check:
        _check_against_ladder(curve, "agreement", [
            (shared, theirs.public, mine.private)
            for shared, mine, theirs in zip(alice_shared[:args.check], alice, bob)
        ])

    ladders = 2 * args.batch  # one per side per agreement
    rep_label = "tau-adic" if is_koblitz(curve) else "binary"
    print(
        f"batch {args.batch}, jobs {args.jobs}, backend {resolved.name} "
        f"({resolved.ir_executor().kind} executor, {rep_label} scalars): "
        f"all {args.batch} shared secrets agree"
    )
    for label, seconds in (("keygen", keygen_timer.seconds), ("agreement", agree_timer.seconds)):
        print(
            f"  {label:<10s} {ladders:>6d} ladders in {seconds * 1000:>8.1f} ms "
            f"({_rate(ladders, seconds):,.1f} ops/s)"
        )
    return 0


def _run_keygen(args) -> int:
    """``repro keygen``: the batched key-generation workload on one curve."""
    curve, resolved = _workload_curve(args)
    print(curve.describe())
    generator = curve.generator  # derive outside the timed region
    with telemetry_metrics.timed("cli.keygen") as timer:
        pairs = keygen_batch(curve, args.batch, seed=args.seed, backend=args.backend)
    if args.check:
        _check_against_ladder(
            curve, "public key", [(pair.public, generator, pair.private) for pair in pairs[:args.check]]
        )
    print(
        f"batch {args.batch}, backend {resolved.name}: "
        f"{args.batch} key pairs in {timer.seconds * 1000:.1f} ms "
        f"({_rate(args.batch, timer.seconds):,.1f} keys/s)"
    )
    counters = telemetry_metrics.REGISTRY.snapshot()["counters"]
    hits, builds = counters.get("comb.table.hit", 0), counters.get("comb.table.build", 0)
    if hits or builds:
        print(f"  comb table: {builds} build(s), {hits} store hit(s)")
    return 0


def _run_serve(args) -> int:
    """``repro serve``: run the batching service until interrupted or terminated."""
    import asyncio
    import signal

    from .serve import CryptoService

    curves = tuple(_names(args.curves))
    if not curves:
        raise SystemExit("--curves must name at least one catalog curve")
    with _clean_exit():
        service = CryptoService(
            backend=args.backend,
            curves=curves,
            max_lanes=args.max_lanes,
            workers=args.workers,
            seed=args.seed,
        )
    print(service.pool.describe(), file=sys.stderr)

    def announce(port: int) -> None:
        print(
            f"serving {', '.join(curves)} on http://{args.host}:{port} "
            f"(max_lanes {args.max_lanes})",
            file=sys.stderr,
        )

    async def serve() -> None:
        # SIGTERM (kill, service managers) shuts down as Ctrl-C does: the
        # cancelled run() closes the batcher, then the worker pool, so no
        # worker process outlives the server.
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, asyncio.current_task().cancel)
        await service.run(args.host, args.port, announce=announce)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    return 0


def _run_loadgen(args) -> int:
    """``repro loadgen``: fire many small clients at a running service."""
    import asyncio

    from .serve.loadgen import generate_load, http_get

    if args.clients < 1 or args.requests < 1:
        raise SystemExit("--clients and --requests must be at least 1")
    if args.check < 0:
        raise SystemExit("--check must be non-negative")
    try:
        with _clean_exit():
            result = generate_load(
                args.host, args.port,
                op=args.op, curve=args.curve,
                clients=args.clients, requests_per_client=args.requests,
                seed=args.seed, spot_checks=args.check, connect_timeout_s=args.connect_timeout,
            )
    except OSError as error:
        raise SystemExit(
            f"cannot reach the service at {args.host}:{args.port}: {error}"
        ) from None
    quantiles = result.latency_quantiles()
    print(
        f"{args.op} on {args.curve}: {result.completed}/{result.total} completed, "
        f"{result.verified} verified against the batched reference "
        f"({result.spot_checked} also against the scalar ladder)"
    )
    print(
        f"  throughput {result.throughput:>10,.1f} req/s over {result.elapsed_s * 1000:.1f} ms "
        f"({args.clients} clients x {args.requests} requests)"
    )
    if quantiles:
        print(
            "  latency    "
            + "  ".join(f"{name} {value * 1000:.2f} ms" for name, value in quantiles.items())
        )
    for line in result.errors[:10]:
        print(f"  error: {line}", file=sys.stderr)
    if len(result.errors) > 10:
        print(f"  ... and {len(result.errors) - 10} more errors", file=sys.stderr)
    if args.stats:
        status, payload = asyncio.run(http_get(args.host, args.port, "/stats"))
        print(json.dumps(payload, indent=2))
    return 1 if result.errors or result.completed != result.total else 0


def _run_stats(args) -> int:
    """``repro stats``: the registry plus every named cache, table or JSON."""
    snapshot = snapshot_all()
    if args.format == "json":
        print(json.dumps(snapshot, indent=1, sort_keys=True))
        return 0
    counters = snapshot["metrics"]["counters"]
    observations = snapshot["metrics"]["observations"]
    gauges = snapshot["metrics"]["gauges"]
    print("counters")
    for name in sorted(counters):
        print(f"  {name:<48s} {counters[name]:>14,d}")
    if not counters:
        print("  (none)")
    if gauges:
        print("gauges")
        for name in sorted(gauges):
            print(f"  {name:<48s} {gauges[name]:>14,.6g}")
    print("timings")
    for name in sorted(observations):
        entry = observations[name]
        mean_ms = entry["total_s"] / entry["count"] * 1000 if entry["count"] else 0.0
        print(
            f"  {name:<48s} {entry['count']:>8,d} x {mean_ms:>10.3f} ms avg "
            f"(total {entry['total_s']:.3f} s, min {entry['min_s'] * 1000:.3f} ms, "
            f"max {entry['max_s'] * 1000:.3f} ms)"
        )
    if not observations:
        print("  (none)")
    print("caches  (hits / misses / evictions / size)")
    for name, info in sorted(snapshot["caches"].items()):
        print(
            f"  {name:<48s} {info['hits']:>8,d} / {info['misses']:>6,d} / "
            f"{info['evictions']:>4,d} / {info['currsize']}({info['maxsize']})"
        )
    return 0


def _run_dashboard(args) -> int:
    """``repro dashboard``: perf trajectory over the committed bench files."""
    try:
        document, regressions = render_dashboard(
            args.dir, fmt=args.format, tolerance=args.tolerance
        )
    except ValueError as error:
        raise SystemExit(f"dashboard: {error}") from None
    if not args.check:
        _write_output(args.output, document, f"{args.format} dashboard", file=sys.stderr)
    strict = args.check and args.strict
    if regressions:
        print(
            f"dashboard: {len(regressions)} regression flag(s) beyond "
            f"{args.tolerance * 100:.0f}% tolerance ({'strict' if strict else 'warn-only'})",
            file=sys.stderr,
        )
        if args.check:
            for regression in regressions:
                print(f"  {'FAIL' if strict else 'WARN'} {regression.describe()}", file=sys.stderr)
    elif args.check:
        print("dashboard: no regressions flagged", file=sys.stderr)
    return 1 if strict and regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if not args.trace_out:
        return args.run(args)
    # --trace-out: collect spans for the whole command, write the Chrome
    # trace-event file even when the command exits early, then restore the
    # no-op tracer (main() may be called repeatedly in one process).
    telemetry_trace.enable()
    try:
        return args.run(args)
    finally:
        count = telemetry_trace.write_chrome_trace(args.trace_out)
        print(f"wrote {count} trace events to {args.trace_out}", file=sys.stderr)
        telemetry_trace.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
