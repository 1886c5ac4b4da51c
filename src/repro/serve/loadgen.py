"""Closed-loop load generator: many small clients, every response verified.

This is the demand side of the serving story: ``clients`` concurrent
keep-alive connections each issue ``requests_per_client`` single-request
POSTs back-to-back (closed loop — a client sends its next request the
moment the previous response lands), which is exactly the traffic shape
the :class:`~repro.serve.batcher.DynamicBatcher` exists to coalesce.

Requests are generated **deterministically** from a seed, so every
response can be verified:

* all responses are checked byte-for-byte against a locally *batched*
  computation of the same workload (``ecdh_batch`` / ``multiply_batch``
  / ``sign_batch``), and
* the first ``spot_checks`` requests are additionally recomputed on the
  scalar reference path (``ecdh_shared`` / ``curve.multiply`` /
  ``ecdsa_sign``) — the slow, independent implementation — closing the
  loop on the repo-wide batched == scalar byte-identity guarantee.

Used by ``repro loadgen``, ``benchmarks/bench_layers.py`` and the CI
service smoke test.  Stdlib only.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..curves import curve_by_name, ecdh_batch, ecdsa_sign, keygen_batch, sign_batch
from ..curves.protocols import ecdh_shared

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any, Dict, List, Optional, Tuple

    from ..curves.point import BinaryCurve

__all__ = ["LoadResult", "build_workload", "run_load", "generate_load", "http_get"]


# -- minimal HTTP/1.1 client plumbing ---------------------------------


async def _read_response(reader: "asyncio.StreamReader") -> "Tuple[int, Dict[str, Any]]":
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    try:
        status = int(status_line.split()[1])
    except (IndexError, ValueError):
        raise ConnectionError(f"malformed status line: {status_line!r}") from None
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, json.loads(body or "{}")


async def _post(reader, writer, path: str, payload: "Dict[str, Any]"):
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: loadgen\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        f"Connection: keep-alive\r\n\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()
    return await _read_response(reader)


async def http_get(host: str, port: int, path: str) -> "Tuple[int, Dict[str, Any]]":
    """One-shot GET (``/healthz``, ``/stats``) against a running service."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


async def _connect_with_retry(host: str, port: int, timeout_s: float):
    """Open a connection, retrying while the server is still coming up."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return await asyncio.open_connection(host, port)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            await asyncio.sleep(0.05)


# -- deterministic workloads ------------------------------------------


def build_workload(
    curve: "BinaryCurve",
    op: str,
    total: int,
    *,
    seed: int = 0,
) -> "Tuple[List[Dict[str, Any]], List[Dict[str, int]]]":
    """``(request bodies, expected result rows)`` for ``total`` requests.

    The expected rows come from the local *batched* protocol entry
    points; :func:`run_load` separately spot-checks a prefix on the
    scalar reference path.
    """
    rng = random.Random(seed)
    bound = curve.order if curve.order is not None else curve.field.order
    privates = [rng.randrange(1, bound) for _ in range(total)]
    base = {"curve": curve.name}
    if op == "ecdh":
        peers = [pair.public for pair in keygen_batch(curve, total, seed=seed + 1)]
        requests = [
            dict(base, private=format(private, "x"),
                 peer_x=format(peer.x, "x"), peer_y=format(peer.y, "x"))
            for private, peer in zip(privates, peers)
        ]
        points = ecdh_batch(curve, privates, peers)
        expected = [{"x": point.x, "y": point.y} for point in points]
    elif op == "keygen":
        requests = [dict(base, private=format(private, "x")) for private in privates]
        points = curve.multiply_batch([curve.generator] * total, privates, scalar_rep="auto")
        expected = [{"x": point.x, "y": point.y} for point in points]
    elif op == "sign":
        digests = [rng.getrandbits(256) for _ in range(total)]
        requests = [
            dict(base, private=format(private, "x"), digest=format(digest, "x"))
            for private, digest in zip(privates, digests)
        ]
        signatures = sign_batch(curve, privates, digests)
        expected = [{"r": signature.r, "s": signature.s} for signature in signatures]
    else:
        raise ValueError(f"unknown op {op!r}: use ecdh, keygen or sign")
    return requests, expected


def _spot_check(
    curve: "BinaryCurve", op: str, total: int, count: int, *, seed: int,
) -> "List[Dict[str, int]]":
    """Scalar-reference results for the first ``count`` requests."""
    rng = random.Random(seed)
    bound = curve.order if curve.order is not None else curve.field.order
    privates = [rng.randrange(1, bound) for _ in range(total)]
    rows: "List[Dict[str, int]]" = []
    if op == "ecdh":
        peers = [pair.public for pair in keygen_batch(curve, total, seed=seed + 1)]
        for private, peer in zip(privates[:count], peers[:count]):
            point = ecdh_shared(curve, private, peer)
            rows.append({"x": point.x, "y": point.y})
    elif op == "keygen":
        for private in privates[:count]:
            point = curve.multiply(curve.generator, private)
            rows.append({"x": point.x, "y": point.y})
    else:
        digests = [rng.getrandbits(256) for _ in range(total)]
        for private, digest in zip(privates[:count], digests[:count]):
            signature = ecdsa_sign(curve, private, digest)
            rows.append({"r": signature.r, "s": signature.s})
    return rows


# -- the load run -----------------------------------------------------


@dataclass
class LoadResult:
    """What one load run measured (latencies in seconds)."""

    op: str
    curve: str
    clients: int
    requests_per_client: int
    completed: int
    verified: int
    spot_checked: int
    elapsed_s: float
    latencies_s: "List[float]" = field(default_factory=list, repr=False)
    errors: "List[str]" = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.clients * self.requests_per_client

    @property
    def throughput(self) -> float:
        """Completed requests per second of wall-clock."""
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def latency_quantiles(self) -> "Dict[str, float]":
        """Exact p50/p95/p99 from the recorded per-request latencies."""
        if not self.latencies_s:
            return {}
        ordered = sorted(self.latencies_s)
        last = len(ordered) - 1
        return {
            f"p{round(q * 100)}": ordered[min(last, int(q * len(ordered)))]
            for q in (0.5, 0.95, 0.99)
        }


async def run_load(
    host: str,
    port: int,
    *,
    op: str = "ecdh",
    curve: str = "B-163",
    clients: int = 64,
    requests_per_client: int = 4,
    seed: int = 0,
    spot_checks: int = 4,
    connect_timeout_s: float = 30.0,
    verify: bool = True,
) -> LoadResult:
    """Drive a running service with ``clients`` concurrent closed loops.

    Request ``i`` (client ``c``, round ``r``, ``i = c * rounds + r``) is
    generated from ``seed``; with ``verify`` every response is compared
    to the locally batched expectation and the first ``spot_checks``
    responses additionally to the scalar reference.  Mismatches and
    non-200s land in :attr:`LoadResult.errors`.
    """
    curve_obj = curve_by_name(curve)
    total = clients * requests_per_client
    requests, expected = build_workload(curve_obj, op, total, seed=seed)
    if verify and spot_checks:
        reference = _spot_check(curve_obj, op, total, min(spot_checks, total), seed=seed)
        for index, row in enumerate(reference):
            if row != expected[index]:  # pragma: no cover - would be a repo-wide bug
                raise AssertionError(
                    f"batched and scalar reference disagree at request {index}: "
                    f"{expected[index]} vs {row}"
                )
    latencies = [0.0] * total
    errors: "List[str]" = []
    completed = 0
    verified = 0
    path = f"/{op}"

    async def _client(client_index: int) -> None:
        nonlocal completed, verified
        reader, writer = await _connect_with_retry(host, port, connect_timeout_s)
        try:
            for round_index in range(requests_per_client):
                index = client_index * requests_per_client + round_index
                started = time.perf_counter()
                try:
                    status, payload = await _post(reader, writer, path, requests[index])
                except (ConnectionError, asyncio.IncompleteReadError, OSError) as error:
                    errors.append(f"request {index}: transport error: {error}")
                    reader, writer = await _connect_with_retry(host, port, connect_timeout_s)
                    continue
                latencies[index] = time.perf_counter() - started
                if status != 200:
                    errors.append(f"request {index}: HTTP {status}: {payload.get('error')}")
                    continue
                completed += 1
                if verify:
                    want = expected[index]
                    got = {name: int(payload.get(name) or "0", 16) for name in want}
                    if got == want:
                        verified += 1
                    else:
                        errors.append(
                            f"request {index}: response mismatch: got {got}, want {want}"
                        )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    started = time.perf_counter()
    await asyncio.gather(*(_client(index) for index in range(clients)))
    elapsed = time.perf_counter() - started
    return LoadResult(
        op=op, curve=curve, clients=clients, requests_per_client=requests_per_client,
        completed=completed, verified=verified,
        spot_checked=min(spot_checks, total) if verify else 0,
        elapsed_s=elapsed,
        latencies_s=[value for value in latencies if value > 0.0],
        errors=errors,
    )


def generate_load(host: str, port: int, **kwargs: "Any") -> LoadResult:
    """Synchronous wrapper around :func:`run_load` (the CLI entry point)."""
    return asyncio.run(run_load(host, port, **kwargs))
