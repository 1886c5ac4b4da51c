"""Koblitz algorithmic paths — τ-adic Frobenius ladders and fixed-base combs.

The PR 9 tentpole figures.  Every earlier speedup changed the execution
substrate under an unchanged algorithm; this benchmark prices the two
*algorithmic* replacements from :mod:`repro.curves.scalarmul` against the
binary Montgomery ladder on the **same** backend:

* **agreement** — batched ECDH shared-point computation with
  ``scalar_rep="tau"`` (squarings ride the Frobenius endomorphism) vs
  ``scalar_rep="binary"``;
* **keygen** — batched generator multiplication through the precomputed
  comb table (``fixed_base=True``) vs the full ladder;
* **protocol** — one full ECDH exchange per pair (two keygens + one
  agreement per side), algorithmic paths vs all-binary.  This is the
  committed acceptance figure (per-backend floors in
  :data:`PROTOCOL_FLOORS`): comb keygen is where τ-curve deployments
  spend most of their ladders, and the two paths compose.

All paths are asserted byte-identical to each other and spot-checked
against the scalar-ladder reference before any rate is reported.  The
trajectory covers K-163..K-571 (full runs; quick CI runs keep the
headline K-163 grid on both plane-resident backends).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_koblitz.py --quick --json BENCH_koblitz.json
"""

from __future__ import annotations

import argparse
import random

from _harness import best_of_interleaved, rate, write_bench_json
from repro.backends import get_backend, native_available, numpy_available
from repro.curves import curve_by_name, ecdh_batch

#: The headline grid point: NIST-degree K-163 at batch 256.
DEFAULT_CURVE = "K-163"
DEFAULT_BATCH = 256

#: Asserted CI floors on the headline grid point (conservative for shared
#: runners; local targets run higher — see BENCH_koblitz.json).  The
#: protocol floor is per-backend: the bitslice planes execute squarings as
#: fused XOR passes, so τ pays off outright (measured ~2.1×); the native
#: backend runs its binary ladder as fast as the C kernel while τ still
#: recodes and builds its tables in Python, so its K-163 win comes from the
#: comb alone (~1.6×; τ overtakes binary only near K-571).
PROTOCOL_FLOORS = {"bitslice": 1.8, "native": 1.2}
KEYGEN_FLOOR = 2.0     # comb keygen vs ladder keygen, every backend

#: The committed-JSON schema version shared by the BENCH_* trajectory files.
COMMIT_PR = 9

#: Trajectory curves beyond the headline (full runs, native backend).
TRAJECTORY_CURVES = ("K-233", "K-283", "K-409", "K-571")


def _draws(curve, batch, seed):
    rng = random.Random(seed)
    bound = curve.order if curve.order is not None else curve.field.order
    privates = [rng.randrange(1, bound) for _ in range(batch)]
    peer_privates = [rng.randrange(1, bound) for _ in range(batch)]
    return privates, peer_privates


def measure_koblitz(
    curve_name=DEFAULT_CURVE,
    batch=DEFAULT_BATCH,
    repeats=3,
    check=4,
    seed=2018,
    backend_name="native",
):
    """One benchmark row: τ/comb vs binary-ladder throughput, parity-checked."""
    curve = curve_by_name(curve_name)
    backend = get_backend(backend_name, curve.field)
    privates, peer_privates = _draws(curve, batch, seed)
    generator = curve.generator
    bases = [generator] * batch
    # Peers via the binary ladder (also warms circuit and table caches).
    peers = curve.multiply_batch(
        bases, peer_privates, backend=backend, scalar_rep="binary", fixed_base=False
    )

    # -------- keygen: comb table vs binary ladder on the generator batch
    (comb_pub, comb_s), (ladder_pub, ladder_s) = best_of_interleaved(
        (
            lambda: curve.multiply_batch(
                bases, privates, backend=backend, fixed_base=True
            ),
            lambda: curve.multiply_batch(
                bases, privates, backend=backend, scalar_rep="binary", fixed_base=False
            ),
        ),
        repeats,
    )
    if comb_pub != ladder_pub:
        raise AssertionError("comb keygen disagrees with the ladder keygen")

    # -------- agreement: τ-adic Frobenius ladder vs binary ladder
    (tau_shared, tau_s), (binary_shared, binary_s) = best_of_interleaved(
        (
            lambda: ecdh_batch(
                curve, privates, peers, backend=backend, scalar_rep="tau"
            ),
            lambda: ecdh_batch(
                curve, privates, peers, backend=backend, scalar_rep="binary"
            ),
        ),
        repeats,
    )
    if tau_shared != binary_shared:
        raise AssertionError("τ-adic agreement disagrees with the binary ladder")
    for index in range(min(check, batch)):
        if tau_shared[index] != curve.multiply(peers[index], privates[index]):
            raise AssertionError(f"batched agreement {index} != scalar-ladder reference")
        if comb_pub[index] != curve.multiply(generator, privates[index]):
            raise AssertionError(f"batched keypair {index} != scalar-ladder reference")

    # One ECDH exchange per pair costs two keygens and one agreement per
    # side; per-side seconds compare the composed algorithmic paths.
    algorithmic_s = 2 * comb_s + tau_s
    binary_total_s = 2 * ladder_s + binary_s
    return {
        "curve": curve_name,
        "m": curve.field.m,
        "batch": batch,
        "backend": backend_name,
        "checked_vs_scalar": min(check, batch),
        "tau_agreement_per_s": rate(batch, tau_s),
        "binary_agreement_per_s": rate(batch, binary_s),
        "speedup_tau_vs_binary": binary_s / tau_s if tau_s > 0 else float("inf"),
        "comb_keygen_per_s": rate(batch, comb_s),
        "ladder_keygen_per_s": rate(batch, ladder_s),
        "speedup_comb_vs_ladder": ladder_s / comb_s if comb_s > 0 else float("inf"),
        "ecdh_protocol_per_s": rate(batch, algorithmic_s),
        "speedup_protocol_vs_binary": (
            binary_total_s / algorithmic_s if algorithmic_s > 0 else float("inf")
        ),
    }


def measure_comb_only(curve_name, batch, repeats, backend_name, seed=2018):
    """A keygen-only row for non-Koblitz curves (B-163: comb, no τ)."""
    curve = curve_by_name(curve_name)
    backend = get_backend(backend_name, curve.field)
    privates, _ = _draws(curve, batch, seed)
    bases = [curve.generator] * batch
    curve.multiply_batch(bases[:4], privates[:4], backend=backend, fixed_base=True)  # warm
    (comb_pub, comb_s), (ladder_pub, ladder_s) = best_of_interleaved(
        (
            lambda: curve.multiply_batch(bases, privates, backend=backend, fixed_base=True),
            lambda: curve.multiply_batch(
                bases, privates, backend=backend, scalar_rep="binary", fixed_base=False
            ),
        ),
        repeats,
    )
    if comb_pub != ladder_pub:
        raise AssertionError("comb keygen disagrees with the ladder keygen")
    return {
        "curve": curve_name,
        "m": curve.field.m,
        "batch": batch,
        "backend": backend_name,
        "comb_keygen_per_s": rate(batch, comb_s),
        "ladder_keygen_per_s": rate(batch, ladder_s),
        "speedup_comb_vs_ladder": ladder_s / comb_s if comb_s > 0 else float("inf"),
    }


def report(rows):
    lines = [
        f"{'curve':>7s} {'backend':>9s} {'batch':>6s} {'tau agree':>12s} {'bin agree':>12s}"
        f" {'tau/bin':>8s} {'comb kg':>12s} {'ladder kg':>12s} {'comb/lad':>8s} {'protocol':>9s}"
    ]
    for row in rows:
        tau = row.get("tau_agreement_per_s")
        lines.append(
            f"{row['curve']:>7s} {row['backend']:>9s} {row['batch']:>6d}"
            + (f" {tau:>10,.0f}/s" if tau else f" {'-':>12s}")
            + (
                f" {row['binary_agreement_per_s']:>10,.0f}/s"
                if "binary_agreement_per_s" in row
                else f" {'-':>12s}"
            )
            + (
                f" {row['speedup_tau_vs_binary']:>7.2f}x"
                if "speedup_tau_vs_binary" in row
                else f" {'-':>8s}"
            )
            + f" {row['comb_keygen_per_s']:>10,.0f}/s {row['ladder_keygen_per_s']:>10,.0f}/s"
            + f" {row['speedup_comb_vs_ladder']:>7.2f}x"
            + (
                f" {row['speedup_protocol_vs_binary']:>8.2f}x"
                if "speedup_protocol_vs_binary" in row
                else f" {'-':>9s}"
            )
        )
    return "\n".join(lines)


def _assert_floors(row):
    protocol = row["speedup_protocol_vs_binary"]
    keygen = row["speedup_comb_vs_ladder"]
    floor = PROTOCOL_FLOORS.get(row["backend"])
    if floor is not None and protocol < floor:
        raise SystemExit(
            f"koblitz regression on {row['backend']}: ECDH protocol only "
            f"{protocol:.2f}x over all-binary (floor {floor:.1f}x)"
        )
    if keygen < KEYGEN_FLOOR:
        raise SystemExit(
            f"koblitz regression on {row['backend']}: comb keygen only "
            f"{keygen:.2f}x over the ladder (floor {KEYGEN_FLOOR:.1f}x)"
        )


def _headline_backends():
    names = []
    if numpy_available():
        names.append("bitslice")
    if native_available():
        names.append("native")
    return names


# --------------------------------------------------------------------- pytest
def test_koblitz_floors():
    """The CI gate: per-backend protocol floors and comb keygen ≥2× on K-163."""
    backends = _headline_backends()
    if not backends:  # pragma: no cover - CI installs numpy/cffi
        import pytest

        pytest.skip("no plane-resident backend available")
    row = measure_koblitz(backend_name=backends[-1])
    print("\n" + report([row]))
    _assert_floors(row)


# ----------------------------------------------------------------- standalone
def main(argv=None):
    parser = argparse.ArgumentParser(
        description="τ-adic ladders and fixed-base combs vs the binary ladder"
    )
    parser.add_argument("--curve", default=DEFAULT_CURVE)
    parser.add_argument("--batch", type=int, default=DEFAULT_BATCH)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true", help="3 repeats, headline grid only")
    parser.add_argument("--json", default=None, metavar="PATH", help="write the machine-readable report here")
    args = parser.parse_args(argv)
    batch = args.batch
    repeats = min(args.repeats, 3) if args.quick else args.repeats
    backends = _headline_backends()
    if not backends:
        raise SystemExit("no plane-resident backend available (install numpy or cffi)")
    rows = [
        measure_koblitz(
            curve_name=args.curve, batch=batch, repeats=repeats, backend_name=name
        )
        for name in backends
    ]
    if not args.quick:
        for name in backends:
            rows.append(measure_comb_only("B-163", batch, repeats, name))
        if "native" in backends:
            for curve_name in TRAJECTORY_CURVES:
                rows.append(
                    measure_koblitz(
                        curve_name=curve_name,
                        batch=min(batch, 128),
                        repeats=max(repeats - 1, 1),
                        backend_name="native",
                    )
                )
    print(report(rows))
    if args.json:
        write_bench_json(
            args.json,
            "koblitz",
            COMMIT_PR,
            {"curve": args.curve, "batch": batch, "repeats": repeats},
            rows,
        )
    for row in rows:
        if row["curve"] == args.curve and "speedup_protocol_vs_binary" in row:
            _assert_floors(row)
    best = max(
        row["speedup_protocol_vs_binary"]
        for row in rows
        if "speedup_protocol_vs_binary" in row
    )
    print(
        f"ok: ECDH protocol up to {best:.2f}x over all-binary "
        f"(floors: protocol {PROTOCOL_FLOORS}, comb keygen {KEYGEN_FLOOR:.1f}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
