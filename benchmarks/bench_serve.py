"""Serving-layer throughput: single-request traffic vs the offline batch.

The PR 10 tentpole figure.  An offline ``ecdh_batch`` at batch 256 is the
repo's best case — every ladder step amortised across all lanes.  The
serving layer's claim is that **many concurrent single-request clients**
get (nearly) that same throughput: the :class:`DynamicBatcher` coalesces
the compatible requests that arrive while the worker is busy into full
batches before they reach a ladder (continuous batching: a group goes the
moment the worker is free, so each closed-loop wave's first request
starts alone and the rest of the wave rides the next batch).

The measurement: a :class:`CryptoService` runs on its own thread; the
closed-loop load generator (``repro.serve.loadgen``) fires ``clients``
concurrent keep-alive HTTP clients at it, every response verified against
the locally batched reference (and a prefix against the scalar ladder).
The reported ratio is

    sustained served requests/s  /  offline batched ladders/s

on the *same backend and batch width* — so it prices exactly what the
service adds: HTTP parsing, JSON, batching, futures and the event loop.
The asserted floor is :data:`SERVE_FLOOR` (ISSUE 10's "within 20%") on
the best backend row of the full run, and the more conservative
:data:`QUICK_FLOOR` for ``--quick`` CI runs on shared runners.

Server and clients share one machine (and on single-core boxes, one
core), so the ratio is only reachable when per-request Python overhead is
small next to a ladder's share of its batch — which is why the headline
row uses the ``bitslice`` substrate (the paper's netlist under the
interpreting executor, ~6–14 ms/ladder at batch 256 on a shared 2-core
x86-64 host); the ``native`` row (~0.16 ms/ladder) is reported unasserted
as the stretch target for the trajectory.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serve.py --json BENCH_serve.json
"""

from __future__ import annotations

import argparse
import asyncio
import random
import threading

from _harness import best_of, rate, write_bench_json
from repro.backends import get_backend, numpy_available
from repro.curves import curve_by_name, ecdh_batch
from repro.serve.loadgen import run_load
from repro.serve.server import CryptoService

#: The headline grid point: NIST-degree B-163, 256 concurrent clients.
DEFAULT_CURVE = "B-163"
DEFAULT_CLIENTS = 256
DEFAULT_REQUESTS_PER_CLIENT = 4

#: Asserted floors for served/offline throughput on the best backend row.
SERVE_FLOOR = 0.80
QUICK_FLOOR = 0.35

#: The committed-JSON schema version shared by the BENCH_* trajectory files.
COMMIT_PR = 10

#: The asserted substrate (and the unasserted stretch row).
GATED_BACKEND = "bitslice"
STRETCH_BACKEND = "native"


class _ServiceThread:
    """A CryptoService on its own thread with its own event loop."""

    def __init__(self, **service_kwargs):
        self.service = CryptoService(**service_kwargs)
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.port = None
        self._thread = threading.Thread(target=self._run, name="bench-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(120):
            raise RuntimeError("the service thread never came up")

    def _run(self):
        asyncio.set_event_loop(self._loop)
        self.port = self._loop.run_until_complete(self.service.start())
        self._ready.set()
        self._loop.run_forever()
        self._loop.run_until_complete(self.service.stop())
        self._loop.close()

    def stop(self):
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=120)


def measure_serve(
    curve_name=DEFAULT_CURVE,
    backend_name=GATED_BACKEND,
    clients=DEFAULT_CLIENTS,
    requests_per_client=DEFAULT_REQUESTS_PER_CLIENT,
    repeats=2,
    workers=0,
    max_lanes=256,
    seed=2018,
):
    """One benchmark row: sustained served throughput vs the offline batch.

    The service batches continuously (no flush deadline to tune per
    substrate): with ``workers=0`` its one slot takes a group whenever the
    inline worker is free, so at ``clients`` closed-loop clients a batch
    holds whatever arrived during the previous one.
    """
    curve = curve_by_name(curve_name)
    backend = get_backend(backend_name, curve.field)
    offline_batch = min(clients, max_lanes)
    rng = random.Random(seed)
    bound = curve.order if curve.order is not None else curve.field.order
    privates = [rng.randrange(1, bound) for _ in range(offline_batch)]
    peer_privates = [rng.randrange(1, bound) for _ in range(offline_batch)]
    # Peers via the batched ladder itself (also warms circuit/program caches).
    peers = curve.multiply_batch([curve.generator] * offline_batch, peer_privates, backend=backend)
    _, offline_s = best_of(
        lambda: ecdh_batch(curve, privates, peers, backend=backend), repeats
    )
    offline_rate = rate(offline_batch, offline_s)

    runner = _ServiceThread(
        backend=backend_name, curves=(curve_name,), workers=workers,
        max_lanes=max_lanes, seed=seed,
    )
    try:
        # Warm wave: HTTP/JSON paths, connection setup, comb/ladder caches.
        warm = asyncio.run(run_load(
            "127.0.0.1", runner.port, op="ecdh", curve=curve_name,
            clients=min(32, clients), requests_per_client=1,
            seed=seed + 1, spot_checks=0,
        ))
        if warm.errors:
            raise AssertionError(f"warm wave failed: {warm.errors[:3]}")
        # Best-of-N waves, like best_of() on the offline side: closed-loop
        # batch assembly is sensitive to scheduler noise on shared machines.
        result = None
        for wave in range(repeats):
            candidate = asyncio.run(run_load(
                "127.0.0.1", runner.port, op="ecdh", curve=curve_name,
                clients=clients, requests_per_client=requests_per_client,
                seed=seed + 2 + wave, spot_checks=4,
            ))
            if candidate.errors:
                raise AssertionError(f"load run failed: {candidate.errors[:3]}")
            if candidate.verified != candidate.total:
                raise AssertionError(
                    f"only {candidate.verified}/{candidate.total} responses "
                    f"verified byte-identical"
                )
            if result is None or candidate.throughput > result.throughput:
                result = candidate
    finally:
        runner.stop()
    quantiles = result.latency_quantiles()
    return {
        "curve": curve_name,
        "m": curve.field.m,
        "backend": backend_name,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "workers": workers,
        "max_lanes": max_lanes,
        "verified": result.verified,
        "checked_vs_scalar": result.spot_checked,
        "served_requests_per_s": result.throughput,
        "offline_ladders_per_s": offline_rate,
        "speedup_served_vs_offline": result.throughput / offline_rate,
        "latency_p50_ms": quantiles["p50"] * 1000.0,
        "latency_p95_ms": quantiles["p95"] * 1000.0,
        "latency_p99_ms": quantiles["p99"] * 1000.0,
    }


def report(rows):
    lines = [
        f"{'curve':>7s} {'backend':>9s} {'clients':>8s} {'served':>12s} "
        f"{'offline':>12s} {'ratio':>6s} {'p50':>8s} {'p99':>8s}"
    ]
    for row in rows:
        lines.append(
            f"{row['curve']:>7s} {row['backend']:>9s} {row['clients']:>8d} "
            f"{row['served_requests_per_s']:>10,.0f}/s {row['offline_ladders_per_s']:>10,.0f}/s "
            f"{row['speedup_served_vs_offline']:>6.2f} "
            f"{row['latency_p50_ms']:>6.1f}ms {row['latency_p99_ms']:>6.1f}ms"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- pytest
def test_served_throughput_tracks_offline_batch():
    """The CI gate: coalesced single-request traffic reaches QUICK_FLOOR of
    the offline batch on the gated substrate, every response verified."""
    if not numpy_available():  # pragma: no cover - CI installs numpy
        import pytest

        pytest.skip("numpy not installed; bitslice backend unavailable")
    row = measure_serve(clients=64, requests_per_client=2, repeats=1)
    print("\n" + report([row]))
    assert row["speedup_served_vs_offline"] >= QUICK_FLOOR, (
        f"served traffic at only {row['speedup_served_vs_offline']:.2f}x of the "
        f"offline batch (floor {QUICK_FLOOR})"
    )


# ----------------------------------------------------------------- standalone
def main(argv=None):
    parser = argparse.ArgumentParser(description="batching service vs offline batch throughput")
    parser.add_argument("--curve", default=DEFAULT_CURVE)
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS)
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS_PER_CLIENT)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--workers", type=int, default=0,
                        help="service worker processes (default 0: inline worker thread)")
    parser.add_argument("--quick", action="store_true",
                        help="64 clients x 2 requests, gated backend only (CI smoke)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the machine-readable report here")
    args = parser.parse_args(argv)
    clients = 64 if args.quick else args.clients
    requests_per_client = 2 if args.quick else args.requests
    repeats = 1 if args.quick else args.repeats
    floor = QUICK_FLOOR if args.quick else SERVE_FLOOR

    rows = [measure_serve(
        curve_name=args.curve, backend_name=GATED_BACKEND, clients=clients,
        requests_per_client=requests_per_client, repeats=repeats, workers=args.workers,
    )]
    if not args.quick:
        # The stretch row: same service, native substrate.  Unasserted — at
        # ~0.16 ms/ladder the per-request HTTP+JSON overhead dominates on a
        # shared machine; the trajectory tracks how close the service gets.
        rows.append(measure_serve(
            curve_name=args.curve, backend_name=STRETCH_BACKEND, clients=clients,
            requests_per_client=requests_per_client, repeats=repeats, workers=args.workers,
        ))
    print(report(rows))
    if args.json:
        write_bench_json(
            args.json,
            "serve",
            COMMIT_PR,
            {
                "curve": args.curve, "clients": clients,
                "requests_per_client": requests_per_client,
                "repeats": repeats, "workers": args.workers,
                "gated_backend": GATED_BACKEND, "floor": floor,
            },
            rows,
        )
    gated = rows[0]["speedup_served_vs_offline"]
    if gated < floor:
        raise SystemExit(
            f"serving regression: {gated:.2f}x < {floor:.2f}x of the offline batch "
            f"on {GATED_BACKEND}"
        )
    print(
        f"ok: served single-request traffic at {gated:.2f}x of the offline "
        f"batch-{min(clients, 256)} figure on {GATED_BACKEND} (floor {floor:.2f})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
