#!/usr/bin/env python3
"""τ-adic scalars and fixed-base combs on the NIST Koblitz curves.

On a Koblitz curve (coefficients in GF(2)) the Frobenius map
τ(x, y) = (x², y²) is a curve endomorphism, so a scalar recoded in ℤ[τ]
replaces the Montgomery ladder's ~m point doublings with field squarings —
the operation the paper's type II pentanomial fields execute almost for
free as fused linear passes.  This example drives both algorithmic paths
from `repro.curves.scalarmul` end to end on K-163:

1. reduces a scalar in ℤ[τ] and prints its width-4 τ-adic window digits,
   the recoding the batched ladder runs: nonzeros land only at positions
   ≡ 0 (mod 4) (plus a short tail), so every lane of a batch shares one
   masked add per four Frobenius squarings,
2. runs a batched key agreement with ``scalar_rep="tau"`` and shows it is
   byte-identical to the binary ladder,
3. generates key pairs through the fixed-base comb table (built lazily,
   persisted in the artifact store — the second run is a cache hit), and
   times both against the plain ladder.

Run with:  python examples/koblitz_tau_keygen.py [--curve K-233]
"""

from __future__ import annotations

import argparse
import time

from repro.curves import curve_by_name, ecdh_batch, keygen_batch, tau_window_digits
from repro.telemetry import metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--curve", default="K-163", help="Koblitz catalog curve (default K-163)")
    parser.add_argument("--batch", type=int, default=64, help="lanes in the batched demos (default 64)")
    args = parser.parse_args()

    curve = curve_by_name(args.curve)
    print(f"{curve.name}: {curve.field.modulus_string()}")

    # 1. τ-adic window recoding: ~m digits, nonzeros window-aligned.
    scalar = (curve.order * 2) // 3
    digits = tau_window_digits(curve, scalar)
    nonzero = [position for position, digit in enumerate(digits) if digit]
    aligned = sum(1 for position in nonzero if position % 4 == 0)
    print(
        f"width-4 τ-adic window digits of a {scalar.bit_length()}-bit scalar: "
        f"{len(digits)} digits, {len(nonzero)} nonzero, {aligned} of them at positions ≡ 0 (mod 4)"
    )

    # 2. τ-adic agreement, byte-identical to the binary ladder.
    alice = keygen_batch(curve, args.batch, seed=1)
    bob = keygen_batch(curve, args.batch, seed=2)
    privates = [pair.private for pair in alice]
    peers = [pair.public for pair in bob]
    start = time.perf_counter()
    shared_tau = ecdh_batch(curve, privates, peers, scalar_rep="tau")
    tau_s = time.perf_counter() - start
    start = time.perf_counter()
    shared_binary = ecdh_batch(curve, privates, peers, scalar_rep="binary")
    binary_s = time.perf_counter() - start
    assert shared_tau == shared_binary
    print(
        f"τ-adic agreement == binary ladder on {args.batch} lanes "
        f"({tau_s * 1000:.1f} ms vs {binary_s * 1000:.1f} ms)"
    )

    # 3. Fixed-base comb keygen vs the full ladder, with table telemetry.
    registry = metrics.enable()
    start = time.perf_counter()
    comb_pairs = keygen_batch(curve, args.batch, seed=3, fixed_base=True)
    comb_s = time.perf_counter() - start
    start = time.perf_counter()
    ladder_pairs = keygen_batch(curve, args.batch, seed=3, scalar_rep="binary", fixed_base=False)
    ladder_s = time.perf_counter() - start
    assert comb_pairs == ladder_pairs
    counters = registry.snapshot()["counters"]
    builds = counters.get("comb.table.build", 0)
    hits = counters.get("comb.table.hit", 0)
    print(
        f"comb keygen == ladder keygen ({comb_s * 1000:.1f} ms vs {ladder_s * 1000:.1f} ms, "
        f"{ladder_s / comb_s:.1f}x; table: {builds} build(s), {hits} store hit(s))"
    )


if __name__ == "__main__":
    main()
