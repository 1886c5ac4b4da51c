"""Tests for the serving layer: batcher, worker pool, HTTP service, loadgen.

The load-bearing assertions: compatible requests (same curve x op)
coalesce into one batch, incompatible ones split into separate batches,
and every response is byte-identical to the scalar reference path
(``ecdh_shared`` / ``curve.multiply`` / ``ecdsa_sign``) — the service
layer must never change a result, only its throughput.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.backends import native_available
from repro.curves import BinaryCurve, LaneError, curve_by_name, ecdsa_sign, ecdsa_verify, keygen_batch
from repro.curves import protocols
from repro.curves.protocols import ecdh_shared
from repro.serve.batcher import DynamicBatcher
from repro.serve.loadgen import http_get, run_load
from repro.serve import workers
from repro.serve.server import CryptoService
from repro.serve.workers import WorkerPool, ecdh_sharded, execute_group, pool_context
from repro.telemetry import metrics


@pytest.fixture
def fresh_registry():
    """A clean process registry for counter assertions; restored after."""
    registry = metrics.MetricsRegistry()
    previous = metrics.set_registry(registry)
    yield registry
    metrics.set_registry(previous)


@pytest.fixture
def toy():
    return curve_by_name("T-13")


def _keypairs(curve, count, seed):
    import random

    rng = random.Random(seed)
    bound = curve.order if curve.order is not None else curve.field.order
    privates = [rng.randrange(1, bound) for _ in range(count)]
    return privates, [curve.multiply(curve.generator, d) for d in privates]


KEY = ("ecdh", "T-13")
OTHER = ("keygen", "T-13")


class _Leases:
    """A ``dispatch`` that records each batch and returns a lease the test completes."""

    def __init__(self):
        self.batches = []
        self.leases = []

    def __call__(self, batch):
        self.batches.append(batch)
        self.leases.append(Future())
        return self.leases[-1]

    def payloads(self, index):
        return [request.payload["i"] for request in self.batches[index].requests]


class TestDynamicBatcher:
    def test_idle_request_is_dispatched_inside_submit(self):
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=8)
        future = batcher.submit(KEY, {"i": 0})
        assert len(leases.batches) == 1  # no waiting for company
        batch = leases.batches[0]
        assert (batch.key, batch.reason, len(batch)) == (KEY, "idle", 1)
        assert batcher.queue_depth() == 0
        leases.leases[0].set_result([{"x": 7}])
        assert future.result(timeout=5) == {"x": 7}

    def test_busy_slot_accumulates_groups_and_frees_the_oldest_first(self):
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=8)
        batcher.submit(KEY, {"i": 0})  # takes the only slot
        batcher.submit(OTHER, {"i": 1})
        batcher.submit(KEY, {"i": 2})
        batcher.submit(OTHER, {"i": 3})
        assert len(leases.batches) == 1
        assert batcher.queue_depth() == 3
        leases.leases[0].set_result([{}])
        # OTHER holds the oldest waiting request (1), so it goes first, whole.
        assert len(leases.batches) == 2
        assert (leases.batches[1].key, leases.batches[1].reason) == (OTHER, "idle")
        assert leases.payloads(1) == [1, 3]
        assert batcher.queue_depth() == 1
        leases.leases[1].set_result([{}, {}])
        assert (leases.batches[2].key, leases.payloads(2)) == (KEY, [2])
        assert batcher.queue_depth() == 0

    def test_slots_bound_the_leases_in_flight(self):
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=8, slots=2)
        for index in range(3):
            batcher.submit(KEY, {"i": index})
        assert [leases.payloads(0), leases.payloads(1)] == [[0], [1]]
        assert batcher.queue_depth() == 1
        leases.leases[1].set_result([{}])
        assert leases.payloads(2) == [2]

    def test_size_flush_is_immediate_and_splits_by_key(self):
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=3)
        batcher.submit(OTHER, {"i": 99})  # takes the only slot
        for index in range(3):
            batcher.submit(KEY, {"i": index})
        batcher.submit(OTHER, {"i": 100})
        assert len(leases.batches) == 2  # a full group does not wait for the slot
        batch = leases.batches[1]
        assert (batch.key, batch.reason) == (KEY, "size")
        assert leases.payloads(1) == [0, 1, 2]
        assert batcher.queue_depth() == 1
        # The size lease holds no slot: its completion frees nothing, and
        # the slot's own lease lets the waiting group go.
        leases.leases[1].set_result([{}, {}, {}])
        assert len(leases.batches) == 2
        leases.leases[0].set_result([{}])
        assert (leases.batches[2].reason, leases.payloads(2)) == ("idle", [100])

    def test_size_flushes_never_keep_the_slot_from_the_oldest_request(self):
        """A hot group refilling to ``max_lanes`` faster than leases finish
        must not starve a waiting group: the slot's lease hands its slot to
        the oldest waiting request however many size leases are in flight."""
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=2)
        batcher.submit(KEY, {"i": 0})  # takes the only slot
        waiting = batcher.submit(OTHER, {"i": 1})
        for index in range(2, 6):
            batcher.submit(KEY, {"i": index})  # size leases [2, 3] and [4, 5]
        batcher.submit(KEY, {"i": 6})  # the hot group's partial remainder
        assert [batch.reason for batch in leases.batches] == ["idle", "size", "size"]
        assert batcher.queue_depth() == 2
        leases.leases[0].set_result([{}])  # both size leases still in flight
        assert (leases.batches[3].key, leases.batches[3].reason) == (OTHER, "idle")
        leases.leases[3].set_result([{"x": 1}])
        assert waiting.result(timeout=5) == {"x": 1}
        assert (leases.batches[4].reason, leases.payloads(4)) == ("idle", [6])
        for lease in leases.leases[1:3]:
            lease.set_result([{}, {}])
        assert len(leases.batches) == 5 and batcher._busy == 1
        leases.leases[4].set_result([{}])
        assert batcher._busy == 0 and batcher.queue_depth() == 0

    def test_dispatch_errors_land_on_request_futures(self):
        calls = []

        def dispatch(batch):
            calls.append(batch)
            raise RuntimeError("backend on fire")

        batcher = DynamicBatcher(dispatch, max_lanes=8)
        first = batcher.submit(KEY, {"i": 0})
        second = batcher.submit(KEY, {"i": 1})
        for future in (first, second):
            with pytest.raises(RuntimeError, match="on fire"):
                future.result(timeout=5)
        assert len(calls) == 2  # the failed dispatch freed its slot

    def test_dispatch_error_frees_the_slot_for_waiting_groups(self):
        leases = _Leases()
        failing = []

        def dispatch(batch):
            if batch.key == OTHER:
                failing.append(batch)
                raise RuntimeError("backend on fire")
            return leases(batch)

        batcher = DynamicBatcher(dispatch, max_lanes=8)
        batcher.submit(KEY, {"i": 0})
        doomed = [batcher.submit(OTHER, {"i": index}) for index in (1, 2)]
        waiting = batcher.submit(KEY, {"i": 3})
        leases.leases[0].set_result([{}])
        for future in doomed:
            with pytest.raises(RuntimeError, match="on fire"):
                future.result(timeout=5)
        assert leases.payloads(1) == [3]
        leases.leases[1].set_result([{"x": 3}])
        assert waiting.result(timeout=5) == {"x": 3}

    def test_lease_rows_reach_their_requests_and_failures_reach_all(self):
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=8)
        batcher.submit(OTHER, {"i": 99})
        rows = [batcher.submit(KEY, {"i": index}) for index in range(3)]
        failed = [batcher.submit(OTHER, {"i": index}) for index in range(2)]
        leases.leases[0].set_result([{}])
        leases.leases[1].set_result([{"x": 10}, {"x": 11}, {"x": 12}])
        assert [future.result(timeout=5) for future in rows] == [{"x": 10}, {"x": 11}, {"x": 12}]
        leases.leases[2].set_exception(ArithmeticError("lease lost"))
        for future in failed:
            with pytest.raises(ArithmeticError, match="lease lost"):
                future.result(timeout=5)
        assert batcher.queue_depth() == 0

    def test_submit_after_close_is_refused(self):
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=8)
        batcher.submit(KEY, {"i": 0})
        batcher.submit(OTHER, {"i": 1})
        batcher.submit(KEY, {"i": 2})
        batcher.close()  # flushes what waits behind the held slot
        assert [batch.reason for batch in leases.batches] == ["idle", "close", "close"]
        assert [leases.payloads(1), leases.payloads(2)] == [[1], [2]]
        with pytest.raises(RuntimeError):
            batcher.submit(KEY, {})

    def test_rejects_empty_lanes_and_slots(self):
        with pytest.raises(ValueError, match="max_lanes"):
            DynamicBatcher(_Leases(), max_lanes=0)
        with pytest.raises(ValueError, match="slots"):
            DynamicBatcher(_Leases(), slots=0)

    def test_concurrent_submitters_and_completers_lose_no_request(self):
        """Stress: 8 submitting threads, leases completed on 4 other threads,
        2 slots, a tiny switch interval.  A lost update to the groups or the
        slot count would drop, swap or strand a request, or leak a slot."""
        completer = ThreadPoolExecutor(max_workers=4)

        def dispatch(batch):
            rows = [{"i": request.payload["i"]} for request in batch.requests]
            return completer.submit(lambda: rows)

        batcher = DynamicBatcher(dispatch, max_lanes=8, slots=2)
        keys = (KEY, OTHER, ("sign", "T-13"))

        def client(base):
            futures = [
                batcher.submit(keys[(base + k) % 3], {"i": 1000 * base + k}) for k in range(200)
            ]
            return [future.result(timeout=60)["i"] for future in futures]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as clients:
                results = list(clients.map(client, range(8)))
        finally:
            sys.setswitchinterval(previous)
            completer.shutdown(wait=True)
        for base, got in enumerate(results):
            assert got == [1000 * base + k for k in range(200)]
        assert batcher.queue_depth() == 0
        assert batcher._busy == 0  # every slot came back

    def test_telemetry_counts_requests_batches_and_fill(self, fresh_registry):
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=2)
        batcher.submit(KEY, {})
        batcher.submit(KEY, {})
        batcher.submit(KEY, {})
        batcher.submit(OTHER, {})
        batcher.close()
        snap = fresh_registry.snapshot()
        counters = snap["counters"]
        assert counters["service.requests"] == 4
        assert counters["service.batches"] == 3
        assert counters["service.flush.idle"] == 1
        assert counters["service.flush.size"] == 1
        assert counters["service.flush.close"] == 1
        assert "service.flush.deadline" not in counters
        fill = snap["observations"]["service.batch_fill"]
        assert (fill["count"], fill["min_s"], fill["max_s"]) == (3, 1, 2)
        assert snap["observations"]["service.queue_wait"]["count"] == 4
        assert snap["gauges"]["service.queue.depth"] == 0


class TestWorkerPool:
    def test_inline_pool_matches_scalar_reference(self, toy):
        privates, peers = _keypairs(toy, 6, seed=1)
        other, _ = _keypairs(toy, 6, seed=2)
        pool = WorkerPool(workers=0, curves=("T-13",))
        try:
            rows = pool.submit(
                ("ecdh", "T-13"),
                {
                    "private": other,
                    "peer_x": [point.x for point in peers],
                    "peer_y": [point.y for point in peers],
                },
            ).result(timeout=30)
        finally:
            pool.close()
        for private, peer, row in zip(other, peers, rows):
            reference = ecdh_shared(toy, private, peer)
            assert (row["x"], row["y"]) == (reference.x, reference.y)

    def test_bad_request_does_not_poison_its_batch(self, toy):
        privates, peers = _keypairs(toy, 3, seed=3)
        xs = [point.x for point in peers]
        ys = [point.y for point in peers]
        ys[1] ^= 1  # knock the middle peer off the curve
        rows = execute_group(
            toy, None, "ecdh", {"private": privates, "peer_x": xs, "peer_y": ys}
        )
        assert "error" in rows[1]
        for index in (0, 2):
            reference = ecdh_shared(toy, privates[index], peers[index])
            assert (rows[index]["x"], rows[index]["y"]) == (reference.x, reference.y)

    @pytest.mark.parametrize("name", ["T-13", "B-163"])
    def test_an_off_curve_peer_refuses_only_its_lane(self, name, monkeypatch, fresh_registry):
        if name == "B-163" and not native_available():
            pytest.skip("native extension not buildable here")
        curve = curve_by_name(name)
        backend = "native" if name == "B-163" else None
        privates = [pair.private for pair in keygen_batch(curve, 6, seed=12)]
        peers = [pair.public for pair in keygen_batch(curve, 6, seed=13)]
        expected = [ecdh_shared(curve, d, q) for d, q in zip(privates, peers)]
        ys = [peer.y for peer in peers]
        ys[3] ^= 1
        # No scalar path may answer a lane: the other five ride one batch.
        monkeypatch.setattr(protocols, "ecdh_shared", _no_scalar_path)
        if name == "B-163":
            monkeypatch.setattr(BinaryCurve, "multiply", _no_scalar_path)
        rows = execute_group(
            curve, backend, "ecdh",
            {"private": privates, "peer_x": [peer.x for peer in peers], "peer_y": ys},
        )
        assert list(rows[3]) == ["error"] and "not a point of" in rows[3]["error"]
        for lane in (0, 1, 2, 4, 5):
            assert rows[lane] == {"x": expected[lane].x, "y": expected[lane].y}
        counters = fresh_registry.snapshot()["counters"]
        assert counters["service.batch_fallback"] == 1
        assert counters["service.rejected_lanes"] == 1

    def test_an_annihilating_scalar_refuses_only_its_lane(self, toy, monkeypatch):
        privates, _ = _keypairs(toy, 4, seed=14)
        _, peers = _keypairs(toy, 4, seed=15)
        privates[1] = toy.order  # 2003 annihilates every peer: d·Q = O
        expected = [ecdh_shared(toy, d, q) for d, q in zip(privates, peers) if d != toy.order]
        monkeypatch.setattr(protocols, "ecdh_shared", _no_scalar_path)
        calls = []
        batch = workers.ecdh_batch

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return batch(*args, **kwargs)

        monkeypatch.setattr(workers, "ecdh_batch", counted)
        rows = execute_group(
            toy, None, "ecdh",
            {"private": privates, "peer_x": [q.x for q in peers], "peer_y": [q.y for q in peers]},
        )
        assert rows[1] == {"error": "the shared point is the point at infinity"}
        assert rows[:1] + rows[2:] == [{"x": point.x, "y": point.y} for point in expected]
        # The refused lane's batch already computed the other lanes: no rerun.
        assert calls == [4]

    def test_sign_group_produces_valid_scalar_identical_signatures(self, toy):
        privates, publics = _keypairs(toy, 4, seed=4)
        digests = [97, 0xDEADBEEF, 1, 2 ** 40 + 5]
        rows = execute_group(
            toy, None, "sign", {"private": privates, "digest": digests}
        )
        for private, public, digest, row in zip(privates, publics, digests, rows):
            reference = ecdsa_sign(toy, private, digest)
            assert (row["r"], row["s"]) == (reference.r, reference.s)
            assert ecdsa_verify(toy, public, digest, reference)

    def test_process_pool_is_byte_identical_and_folds_metrics(self, toy, fresh_registry):
        privates, peers = _keypairs(toy, 5, seed=5)
        other, _ = _keypairs(toy, 5, seed=6)
        columns = {
            "private": other,
            "peer_x": [point.x for point in peers],
            "peer_y": [point.y for point in peers],
        }
        pool = WorkerPool(workers=1, curves=("T-13",))
        try:
            rows = pool.submit(("ecdh", "T-13"), columns).result(timeout=60)
        finally:
            pool.close()
        for private, peer, row in zip(other, peers, rows):
            reference = ecdh_shared(toy, private, peer)
            assert (row["x"], row["y"]) == (reference.x, reference.y)
        counters = fresh_registry.snapshot()["counters"]
        assert any(name.startswith("backend.") for name in counters), (
            "worker-process telemetry snapshot was not folded into the parent"
        )

    def test_sharded_ecdh_is_byte_identical_and_folds_metrics_once(self, toy, fresh_registry):
        from repro.curves.protocols import ecdh_batch

        privates, _ = _keypairs(toy, 6, seed=7)
        _, peers = _keypairs(toy, 6, seed=8)
        expected, serial = metrics.run_isolated(ecdh_batch, toy, privates, peers)
        sharded = ecdh_sharded(toy, privates, peers, 2)
        assert sharded == expected
        counters = fresh_registry.snapshot()["counters"]
        assert counters["ladder.tau.digits"] == serial["counters"]["ladder.tau.digits"]

    def test_sharded_ecdh_names_refused_lanes_in_the_whole_batch(self, toy):
        privates, _ = _keypairs(toy, 6, seed=16)
        _, peers = _keypairs(toy, 6, seed=17)
        peers[4] = toy.point(peers[4].x, peers[4].y ^ 1, check=False)  # second shard
        with pytest.raises(LaneError) as refused:
            ecdh_sharded(toy, privates, peers, 2)
        assert list(refused.value.lanes) == [4]

    @pytest.mark.parametrize("workers", [0, 1])
    def test_an_unlisted_curve_fails_its_future_and_the_pool_keeps_serving(self, toy, workers):
        privates, peers = _keypairs(toy, 3, seed=18)
        columns = {
            "private": privates,
            "peer_x": [point.x for point in peers],
            "peer_y": [point.y for point in peers],
        }
        pool = WorkerPool(workers=workers, curves=("T-13",))
        try:
            with pytest.raises(KeyError):
                pool.submit(("ecdh", "K-163"), columns).result(timeout=60)
            rows = pool.submit(("ecdh", "T-13"), columns).result(timeout=60)
        finally:
            pool.close()
        for private, peer, row in zip(privates, peers, rows):
            reference = ecdh_shared(toy, private, peer)
            assert (row["x"], row["y"]) == (reference.x, reference.y)

    def test_sharded_ecdh_with_telemetry_off_is_byte_identical(self, toy):
        from repro.curves.protocols import ecdh_batch

        privates, _ = _keypairs(toy, 6, seed=9)
        _, peers = _keypairs(toy, 6, seed=10)
        previous = metrics.set_registry(metrics.NullRegistry())
        try:
            sharded = ecdh_sharded(toy, privates, peers, 2)
        finally:
            metrics.set_registry(previous)
        assert sharded == ecdh_batch(toy, privates, peers)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    )
    def test_a_cold_cache_builds_the_kernel_once_in_the_parent(self, tmp_path):
        """Two forked workers on an empty cache: one build, before they start."""
        from repro.backends import native_available

        if not native_available():
            pytest.skip("native extension not buildable here")
        script = (
            "import os, sys\n"
            "from repro.backends.native import _build\n"
            "from repro.serve.workers import WorkerPool\n"
            "build = _build._compile_into_cache\n"
            "def recorded(target):\n"
            "    with open(sys.argv[1], 'a') as log:\n"
            "        log.write(f'{os.getpid()}\\n')\n"
            "    build(target)\n"
            "_build._compile_into_cache = recorded\n"
            "pool = WorkerPool(workers=2, curves=('T-13',))\n"
            "pool.close()\n"
            "print(os.getpid())\n"
        )
        log = tmp_path / "builds.log"
        src = Path(__file__).resolve().parents[1] / "src"
        env = {
            **os.environ,
            "GF2M_REPRO_CACHE_DIR": str(tmp_path / "cache"),
            "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        }
        result = subprocess.run(
            [sys.executable, "-c", script, str(log)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        builders = log.read_text().split() if log.exists() else []
        assert builders == [result.stdout.strip()], builders

    def test_backend_must_be_a_name(self):
        with pytest.raises(TypeError):
            WorkerPool(workers=0, backend=object(), curves=())

    def test_pool_context_prefers_fork(self, monkeypatch):
        assert pool_context().get_start_method() == (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert pool_context().get_start_method() == "spawn"


def _no_scalar_path(*args, **kwargs):
    raise AssertionError("a scalar path answered a lane of a batch")


def _with_service(async_fn, **service_kwargs):
    """Run ``async_fn(service, port)`` against a live service, then stop it."""
    service_kwargs.setdefault("curves", ("T-13",))
    service_kwargs.setdefault("workers", 0)
    service_kwargs.setdefault("seed", 99)

    async def runner():
        service = CryptoService(**service_kwargs)
        port = await service.start()
        try:
            return await async_fn(service, port)
        finally:
            await service.stop()

    return asyncio.run(runner())


async def _post_json(port, path, payload):
    from repro.serve.loadgen import _post

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await _post(reader, writer, path, payload)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


async def _raw_exchange(port, raw):
    """Send ``raw`` on a fresh connection; return everything answered until close."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(raw)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout=30)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


def _hold_the_slot(service, queued, hold_s=0.0):
    """Occupy a one-slot service's worker slot with a blocker lease.

    The lease completes ``hold_s`` after ``queued`` requests wait in the
    batcher, so they accumulate into whole groups, and those are then
    dispatched one at a time.  The blocker itself is one keygen request.
    """
    lease = Future()

    def release():
        give_up = time.monotonic() + 60
        while service.batcher.queue_depth() < queued and time.monotonic() < give_up:
            time.sleep(0.001)
        time.sleep(hold_s)
        lease.set_result([{}])

    service.pool.submit = lambda key, columns: lease
    try:
        service.batcher.submit(("keygen", "T-13"), {"private": 1})
    finally:
        del service.pool.submit
    thread = threading.Thread(target=release, name="test-slot-release", daemon=True)
    thread.start()
    return thread


def _ecdh_body(curve, private, peer, **extra):
    return {
        "curve": curve.name,
        "private": format(private, "x"),
        "peer_x": format(peer.x, "x"),
        "peer_y": format(peer.y, "x"),
        **extra,
    }


class TestCryptoService:
    @pytest.mark.parametrize(
        "raw",
        [
            b"POST /ecdh HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"POST /ecdh HTTP/1.1\r\nContent-Length: lots\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Filler: " + b"a" * 70_000 + b"\r\n\r\n",
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
            b"HELLO\r\n\r\n",
        ],
        ids=[
            "negative-content-length",
            "non-numeric-content-length",
            "header-line-over-64k",
            "request-line-over-64k",
            "malformed-request-line",
        ],
    )
    def test_malformed_head_gets_400_and_close(self, raw):
        async def scenario(service, port):
            recorded = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: recorded.append(context)
            )
            response = await _raw_exchange(port, raw)
            await asyncio.sleep(0.05)  # let the handler task finish and report
            return response, recorded

        response, recorded = _with_service(scenario)
        head = response.split(b"\r\n\r\n", 1)[0]
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert recorded == []

    def test_mixed_ops_and_reps_split_into_compatible_batches(self, toy, fresh_registry):
        """Requests queued behind a busy worker coalesce per (op, curve): a
        body's ``scalar_rep`` is ignored like any unknown field, so ECDH
        bodies with and without one share a group, and every response is
        byte-identical to the scalar reference."""
        privates, peers = _keypairs(toy, 4, seed=7)
        other, _ = _keypairs(toy, 4, seed=8)
        digests = [11, 22, 33, 44]

        async def scenario(service, port):
            requests = []
            for index in range(4):
                body = _ecdh_body(toy, other[index], peers[index])
                requests.append(("/ecdh", dict(body, scalar_rep="binary")))
                requests.append(("/ecdh", body))
                requests.append(("/keygen", {"curve": "T-13", "private": format(privates[index], "x")}))
                requests.append(("/sign", {
                    "curve": "T-13",
                    "private": format(privates[index], "x"),
                    "digest": format(digests[index], "x"),
                }))
            _hold_the_slot(service, queued=len(requests))
            responses = await asyncio.gather(
                *(_post_json(port, path, payload) for path, payload in requests)
            )
            return responses, (await http_get("127.0.0.1", port, "/stats"))[1]

        responses, stats = _with_service(scenario, max_lanes=64)
        assert all(status == 200 for status, _ in responses)
        for index in range(4):
            ecdh_binary, ecdh_plain, keygen, sign = responses[4 * index: 4 * index + 4]
            reference = ecdh_shared(toy, other[index], peers[index])
            for _, payload in (ecdh_binary, ecdh_plain):
                assert payload == {
                    "curve": "T-13", "x": format(reference.x, "x"), "y": format(reference.y, "x"),
                }
            public = toy.multiply(toy.generator, privates[index])
            assert int(keygen[1]["x"], 16) == public.x
            assert int(keygen[1]["y"], 16) == public.y
            signature = ecdsa_sign(toy, privates[index], digests[index])
            assert int(sign[1]["r"], 16) == signature.r
            assert int(sign[1]["s"], 16) == signature.s
        counters = fresh_registry.snapshot()["counters"]
        assert counters["service.requests"] == 16 + 1  # + the blocker
        # 3 groups: ecdh (bodies with and without scalar_rep merged),
        # keygen and sign; each was dispatched whole, from the completion
        # of the lease before it.
        assert counters["service.batches"] == 3 + 1
        assert counters["service.flush.idle"] == 3 + 1
        # batch_fill is counted in lanes per flushed batch.
        assert stats["batch_fill"]["count"] == 3 + 1
        assert stats["batch_fill"]["max"] == 8
        assert stats["batch_fill"]["min"] == 1

    def test_mixed_curves_split_into_separate_batches(self, fresh_registry):
        """One service, two warmed curves; responses stay byte-identical."""
        k163 = curve_by_name("K-163")
        toy = curve_by_name("T-13")
        k_privates, k_peers = _keypairs(k163, 1, seed=9)
        t_privates, t_peers = _keypairs(toy, 1, seed=10)

        async def scenario(service, port):
            return await asyncio.gather(
                _post_json(port, "/ecdh", {
                    "curve": "K-163",
                    "private": format(k_privates[0], "x"),
                    "peer_x": format(k_peers[0].x, "x"),
                    "peer_y": format(k_peers[0].y, "x"),
                }),
                _post_json(port, "/ecdh", {
                    "curve": "T-13",
                    "private": format(t_privates[0], "x"),
                    "peer_x": format(t_peers[0].x, "x"),
                    "peer_y": format(t_peers[0].y, "x"),
                }),
            )

        k_response, t_response = _with_service(scenario, curves=("T-13", "K-163"), max_lanes=16)
        assert k_response[0] == 200 and t_response[0] == 200
        k_reference = ecdh_shared(k163, k_privates[0], k_peers[0])
        assert int(k_response[1]["x"], 16) == k_reference.x
        assert int(k_response[1]["y"], 16) == k_reference.y
        t_reference = ecdh_shared(toy, t_privates[0], t_peers[0])
        assert int(t_response[1]["x"], 16) == t_reference.x
        assert int(t_response[1]["y"], 16) == t_reference.y
        assert fresh_registry.snapshot()["counters"]["service.batches"] == 2

    def test_server_side_keygen_draw_is_consistent(self, toy):
        async def scenario(service, port):
            return await _post_json(port, "/keygen", {"curve": "T-13"})

        status, payload = _with_service(scenario)
        assert status == 200
        private = int(payload["private"], 16)
        public = toy.multiply(toy.generator, private)
        assert int(payload["x"], 16) == public.x
        assert int(payload["y"], 16) == public.y

    def test_bad_peer_gets_400_without_poisoning_the_batch(self, toy, fresh_registry):
        privates, peers = _keypairs(toy, 2, seed=11)

        async def scenario(service, port):
            _hold_the_slot(service, queued=2)
            good = _post_json(port, "/ecdh", _ecdh_body(toy, privates[0], peers[0]))
            bad = _post_json(port, "/ecdh", {
                **_ecdh_body(toy, privates[1], peers[1]),
                "peer_y": format(peers[1].y ^ 1, "x"),
            })
            responses = await asyncio.gather(good, bad)
            return (*responses, await http_get("127.0.0.1", port, "/stats"))

        good_response, bad_response, (_, stats) = _with_service(scenario, max_lanes=8)
        assert bad_response[0] == 400
        assert "error" in bad_response[1]
        assert good_response[0] == 200
        reference = ecdh_shared(toy, privates[0], peers[0])
        assert int(good_response[1]["x"], 16) == reference.x
        # Both rode one batch, which refused the bad lane and reran the good one.
        counters = fresh_registry.snapshot()["counters"]
        assert counters["service.batches"] == 1 + 1  # + the blocker
        assert counters["service.batch_fallback"] == 1
        assert (stats["batch_fallbacks"], stats["rejected_lanes"]) == (1, 1)

    def test_ingress_validation_and_routing(self):
        async def scenario(service, port):
            cases = {}
            cases["health"] = await http_get("127.0.0.1", port, "/healthz")
            cases["missing"] = await http_get("127.0.0.1", port, "/nope")
            cases["wrong_method"] = await _post_json(port, "/healthz", {})
            cases["unknown_curve"] = await _post_json(port, "/ecdh", {"curve": "B-571"})
            cases["bad_hex"] = await _post_json(
                port, "/keygen", {"curve": "T-13", "private": "xyz"}
            )
            cases["zero_private"] = await _post_json(
                port, "/keygen", {"curve": "T-13", "private": 0}
            )
            cases["missing_field"] = await _post_json(
                port, "/sign", {"curve": "T-13", "private": "5"}
            )
            cases["stats"] = await http_get("127.0.0.1", port, "/stats")
            return cases

        cases = _with_service(scenario)
        assert cases["health"][0] == 200 and cases["health"][1]["status"] == "ok"
        assert cases["missing"][0] == 404
        assert cases["wrong_method"][0] == 405
        assert cases["unknown_curve"][0] == 400
        assert "serving" in cases["unknown_curve"][1]["error"]
        assert cases["bad_hex"][0] == 400
        assert cases["zero_private"][0] == 400
        assert cases["missing_field"][0] == 400
        stats = cases["stats"][1]
        assert stats["queue_depth"] == 0
        assert set(stats["flush_reasons"]) == {"idle", "size", "deadline", "close"}
        assert "latency_s" in stats and "batch_fill" in stats

    def test_loadgen_closed_loop_verifies_every_response(self):
        async def scenario(service, port):
            return await run_load(
                "127.0.0.1", port, op="ecdh", curve="T-13",
                clients=8, requests_per_client=2, seed=21, spot_checks=2,
            )

        result = _with_service(scenario, max_lanes=16)
        assert result.errors == []
        assert result.completed == result.total == 16
        assert result.verified == 16
        assert result.spot_checked == 2
        assert result.throughput > 0
        assert set(result.latency_quantiles()) == {"p50", "p95", "p99"}

    def test_queue_wait_is_reported_per_request(self, toy, fresh_registry):
        """/stats times each request from enqueue to flush: near zero on an
        idle service, at least the hold time behind a busy worker."""
        privates, peers = _keypairs(toy, 3, seed=14)
        hold_s = 0.05

        async def scenario(service, port):
            lone = await _post_json(port, "/ecdh", _ecdh_body(toy, privates[0], peers[0]))
            idle = (await http_get("127.0.0.1", port, "/stats"))[1]
            _hold_the_slot(service, queued=2, hold_s=hold_s)
            held = await asyncio.gather(*(
                _post_json(port, "/ecdh", _ecdh_body(toy, privates[i], peers[i])) for i in (1, 2)
            ))
            return [lone, *held], idle, (await http_get("127.0.0.1", port, "/stats"))[1]

        responses, idle, busy = _with_service(scenario)
        assert [status for status, _ in responses] == [200, 200, 200]
        assert idle["queue_wait_s"]["count"] == 1
        assert idle["queue_wait_s"]["max"] < 0.001
        waits = busy["queue_wait_s"]
        assert waits["count"] == 4  # + the blocker, which found the slot idle
        assert waits["max"] >= hold_s
        assert waits["count"] == busy["requests"]
        assert busy["config"]["slots"] == 1
        assert busy["flush_reasons"]["deadline"] == 0

    def test_process_pool_dispatches_queued_groups_on_completion(self, toy, fresh_registry):
        """workers=1: a group queued behind the busy worker is dispatched from
        the completion callback of the lease before it, off the event loop."""
        privates, publics = _keypairs(toy, 6, seed=15)
        other, _ = _keypairs(toy, 6, seed=16)
        digests = [3, 1, 4, 1, 5, 9]
        dispatched_on, completed_on = [], []

        async def scenario(service, port):
            submit = service.pool.submit

            def recording_submit(key, columns):
                if not dispatched_on:
                    # Busy the worker first, so this lease cannot finish before
                    # the batcher attaches to it: it completes on the pool's
                    # own result thread.
                    service.pool._executor.submit(time.sleep, 0.1)
                dispatched_on.append(threading.current_thread())
                lease = submit(key, columns)
                lease.add_done_callback(
                    lambda _: completed_on.append(threading.current_thread())
                )
                return lease

            requests = [("/ecdh", _ecdh_body(toy, d, q)) for d, q in zip(other, publics)]
            requests += [
                ("/sign", {"curve": "T-13", "private": format(d, "x"), "digest": format(h, "x")})
                for d, h in zip(privates, digests)
            ]
            releaser = _hold_the_slot(service, queued=len(requests))
            service.pool.submit = recording_submit
            try:
                responses = await asyncio.gather(
                    *(_post_json(port, path, payload) for path, payload in requests)
                )
            finally:
                del service.pool.submit
            return responses, threading.current_thread(), releaser

        responses, loop_thread, releaser = _with_service(scenario, workers=1)
        assert all(status == 200 for status, _ in responses)
        for index, (_, payload) in enumerate(responses[:6]):
            reference = ecdh_shared(toy, other[index], publics[index])
            assert (int(payload["x"], 16), int(payload["y"], 16)) == (reference.x, reference.y)
        for index, (_, payload) in enumerate(responses[6:]):
            signature = ecdsa_sign(toy, privates[index], digests[index])
            assert (int(payload["r"], 16), int(payload["s"], 16)) == (signature.r, signature.s)
        # The blocker's release dispatched the ecdh group; the sign group
        # waited for the one worker and went from the ecdh lease's
        # completion callback — the process pool's thread.
        assert dispatched_on[0] is releaser
        assert dispatched_on[1] is completed_on[0]
        assert completed_on[0] not in (loop_thread, releaser)
        counters = fresh_registry.snapshot()["counters"]
        assert counters["service.batches"] == 2 + 1  # + the blocker
        assert counters["service.flush.idle"] == 2 + 1

    def test_no_flusher_thread_runs(self):
        async def scenario(service, port):
            await _post_json(port, "/keygen", {"curve": "T-13"})
            return [thread.name for thread in threading.enumerate()]

        names = _with_service(scenario)
        assert "repro-serve-flusher" not in names

    def test_low_order_peer_gets_400_before_enqueue(self, fresh_registry):
        """Peers of order dividing 4 would leak the private scalar mod 2 or 4."""
        private = 0x1234

        async def scenario(service, port):
            responses = [
                await _post_json(port, "/ecdh", {
                    "curve": curve, "private": format(private, "x"),
                    "peer_x": format(x, "x"), "peer_y": format(y, "x"),
                })
                for curve, x, y in (("K-163", 0, 1), ("T-13", 0, 1), ("T-13", 1, 0), ("T-13", 1, 1))
            ]
            return responses, (await http_get("127.0.0.1", port, "/stats"))[1]

        responses, stats = _with_service(scenario, curves=("T-13", "K-163"))
        for status, payload in responses:
            assert status == 400
            assert "low-order" in payload["error"]
        assert stats["requests"] == 0
        assert "service.requests" not in fresh_registry.snapshot()["counters"]


def _proc_state(pid):
    """``(state, parent pid)`` of ``pid`` from ``/proc``, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _running(pid):
    state = _proc_state(pid)
    return state is not None and state[0] != "Z"


def _children(pid):
    children = []
    for entry in os.listdir("/proc"):
        state = _proc_state(entry) if entry.isdigit() else None
        if state is not None and state[1] == pid:
            children.append(int(entry))
    return children


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="finding worker processes reads /proc")
class TestServeCommand:
    def test_sigterm_leaves_no_worker_process(self):
        """SIGTERM shuts ``repro serve`` down as Ctrl-C does, workers included."""
        src = Path(__file__).resolve().parents[1] / "src"
        with subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--curves", "T-13", "--workers", "1", "--port", "0"],
            stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        ) as server:
            workers = []
            try:
                announced = next((line for line in server.stderr if line.startswith("serving ")), None)
                assert announced, "the server exited before it announced its port"
                workers = _children(server.pid)
                assert workers, "the server runs no worker process"
                server.send_signal(signal.SIGTERM)
                server.wait(timeout=60)
                deadline = time.monotonic() + 5
                while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert [pid for pid in workers if _running(pid)] == []
                assert server.returncode == 0
            finally:
                server.kill()
                for pid in workers:
                    if _running(pid):
                        os.kill(pid, signal.SIGKILL)
