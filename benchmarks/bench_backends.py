"""Backend throughput — python (scalar) vs engine vs bitslice vs native (C).

Runs every registered execution backend (:mod:`repro.backends`) available
on this machine over the PR 1 throughput grid — the NIST fields
m ∈ {163, 233, 283} at 2048 operand pairs — asserts cross-backend
byte-parity on every measured batch, and emits a machine-readable JSON
report (``BENCH_backends.json``, schema
``{bench, commit_pr, config, results}`` via :mod:`_harness`).  A snapshot of that file is
committed at the repo root as the in-repo performance trajectory, and CI
additionally uploads the freshly measured one as a workflow artifact.

The acceptance figure asserted here (and in the CI quick run): the numpy
``bitslice`` backend must beat the ``python`` scalar reference by ≥ 5× at
m = 163, batch 2048.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_backends.py --quick --json BENCH_backends.json

or under pytest-benchmark with the rest of the suite.  One-time costs
(circuit generation, compilation, segment building) are excluded from the
throughput figures — the backend caches amortize them across calls.
"""

from __future__ import annotations

import argparse
import random

from _harness import best_of, rate, write_bench_json
from repro.backends import available_backends, get_backend, numpy_available
from repro.galois.field import GF2mField
from repro.galois.pentanomials import smallest_type_ii_pentanomial, type_ii_parameters

#: The PR 1 throughput grid: NIST ECDSA degrees the tentpole targets.
FIELDS_M = (163, 233, 283)

#: Pairs per measurement — the grid point the ≥5× bitslice floor is pinned to.
DEFAULT_PAIRS = 2048

#: The scalar path is ~10× slower; measure it on a subset and scale.
SCALAR_PAIRS = 512

#: The asserted acceptance floor: bitslice over python at m=163, batch 2048.
BITSLICE_FLOOR = 5.0

#: The PR that produced the committed trajectory snapshot (JSON schema field).
COMMIT_PR = 8


def measure_backend(backend, a_values, b_values, measure_pairs=None, repeats=3):
    """Products/second of one backend on the given operand streams.

    The warm-up call runs at full batch width so one-time costs — circuit
    compilation *and* lane-buffer allocation — stay out of the timed
    region, and the fastest of ``repeats`` runs is reported to damp
    scheduler noise on shared CI machines.
    """
    pairs = len(a_values) if measure_pairs is None else min(measure_pairs, len(a_values))
    a_measured, b_measured = a_values[:pairs], b_values[:pairs]
    products, best = best_of(lambda: backend.multiply_batch(a_measured, b_measured), repeats)
    return products, rate(pairs, best)


def measure_field(m, pairs=DEFAULT_PAIRS, backends=None, seed=2018):
    """Throughput rows of every backend for GF(2^m), parity-checked."""
    modulus = smallest_type_ii_pentanomial(m)
    if modulus is None:
        raise ValueError(f"no type II pentanomial for m={m}")
    field = GF2mField(modulus, check_irreducible=False)
    rng = random.Random(seed)
    a_values = [rng.getrandbits(m) for _ in range(pairs)]
    b_values = [rng.getrandbits(m) for _ in range(pairs)]

    rows = []
    reference = None
    scalar_rate = None
    for name in backends or available_backends():
        try:
            backend = get_backend(name, field)
        except ImportError:
            # Optional substrates (numpy for bitslice, a C compiler for
            # native) may be absent; the grid covers what this machine has.
            if name == "python":
                raise
            continue
        measure_pairs = SCALAR_PAIRS if backend.name == "python" else None
        products, rate = measure_backend(backend, a_values, b_values, measure_pairs)
        if reference is None:
            # The scalar reference comes first in registration order; pin it.
            if name != "python":
                raise AssertionError("expected the python reference backend to run first")
            reference = backend.multiply_batch(a_values, b_values)
            scalar_rate = rate
        if products != reference[: len(products)]:
            raise AssertionError(f"{name} backend disagrees with the scalar reference at m={m}")
        rows.append(
            {
                "m": m,
                "n": type_ii_parameters(modulus)[1],
                "backend": name,
                "pairs": pairs,
                "measured_pairs": len(products),
                "rate": rate,
                "speedup_vs_python": rate / scalar_rate,
            }
        )
    return rows


def report(rows):
    lines = [
        f"{'field':>10s} {'backend':<10s} {'rate':>14s} {'vs python':>10s}",
    ]
    for row in rows:
        lines.append(
            f"GF(2^{row['m']:<4d}) {row['backend']:<10s} {row['rate']:>12,.0f}/s"
            f" {row['speedup_vs_python']:>9.1f}x"
        )
    return "\n".join(lines)


def bitslice_speedup(rows, m=163):
    """The asserted figure: bitslice over python at the given field."""
    for row in rows:
        if row["m"] == m and row["backend"] == "bitslice":
            return row["speedup_vs_python"]
    raise AssertionError(f"no bitslice row for m={m}")


# --------------------------------------------------------------------- pytest
def test_backend_throughput_and_parity_gf2_163(benchmark):
    """The acceptance figure: bitslice ≥5× the scalar reference at m=163/2048."""
    if not numpy_available():  # pragma: no cover - CI installs numpy
        import pytest

        pytest.skip("numpy not installed; bitslice backend unavailable")
    modulus = smallest_type_ii_pentanomial(163)
    field = GF2mField(modulus, check_irreducible=False)
    backend = get_backend("bitslice", field)
    rng = random.Random(2018)
    a_values = [rng.getrandbits(163) for _ in range(DEFAULT_PAIRS)]
    b_values = [rng.getrandbits(163) for _ in range(DEFAULT_PAIRS)]
    backend.multiply_batch(a_values[:1], b_values[:1])
    benchmark(backend.multiply_batch, a_values, b_values)

    rows = measure_field(163)
    print("\n" + report(rows))
    speedup = bitslice_speedup(rows)
    assert speedup >= BITSLICE_FLOOR, f"bitslice only {speedup:.1f}x over the scalar reference"


def test_backend_throughput_nist_fields():
    """Parity + a sane bitslice speedup on every grid field (fewer pairs)."""
    if not numpy_available():  # pragma: no cover - CI installs numpy
        import pytest

        pytest.skip("numpy not installed; bitslice backend unavailable")
    rows = [row for m in FIELDS_M for row in measure_field(m, pairs=1024)]
    print("\n" + report(rows))
    for row in rows:
        if row["backend"] == "bitslice":
            assert row["speedup_vs_python"] >= 2.0, (
                f"m={row['m']}: bitslice only {row['speedup_vs_python']:.1f}x"
            )


# ----------------------------------------------------------------- standalone
def main(argv=None):
    parser = argparse.ArgumentParser(description="backend throughput comparison")
    parser.add_argument("--quick", action="store_true", help="m=163 only (CI smoke; still batch 2048)")
    parser.add_argument("--pairs", type=int, default=DEFAULT_PAIRS)
    parser.add_argument("--fields", default=None, help="comma separated m values (default 163,233,283)")
    parser.add_argument("--json", default=None, metavar="PATH", help="write the machine-readable report here")
    args = parser.parse_args(argv)
    if args.fields:
        fields = [int(chunk) for chunk in args.fields.split(",")]
    else:
        fields = [163] if args.quick else list(FIELDS_M)
    rows = [row for m in fields for row in measure_field(m, pairs=args.pairs)]
    print(report(rows))
    if args.json:
        write_bench_json(
            args.json,
            "backends",
            COMMIT_PR,
            {"fields": fields, "pairs": args.pairs},
            rows,
        )
    if 163 in fields and args.pairs >= DEFAULT_PAIRS:
        speedup = bitslice_speedup(rows)
        if speedup < BITSLICE_FLOOR:
            raise SystemExit(
                f"bitslice regression: {speedup:.1f}x < {BITSLICE_FLOOR:.0f}x over the scalar reference"
            )
        print(f"ok: bitslice {speedup:.1f}x over the scalar reference at m=163 (floor {BITSLICE_FLOOR:.0f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
