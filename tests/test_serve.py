"""Tests for the serving layer: batcher, worker pool, HTTP service, loadgen.

The load-bearing assertions: compatible requests (same curve x op x
resolved scalar recoding) coalesce into one batch, incompatible ones
split into separate batches, and every response is byte-identical to the
scalar reference path (``ecdh_shared`` / ``curve.multiply`` /
``ecdsa_sign``) — the service layer must never change a result, only
its throughput.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time

import pytest

from repro.curves import curve_by_name, ecdsa_sign, ecdsa_verify
from repro.curves.protocols import ecdh_shared
from repro.serve.batcher import Batch, DynamicBatcher
from repro.serve.loadgen import http_get, run_load
from repro.serve.server import CryptoService
from repro.serve.workers import (
    OP_FIELDS,
    WorkerPool,
    ecdh_sharded,
    execute_group_isolated,
    preferred_start_method,
)
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


class TestDynamicBatcher:
    def test_size_flush_is_immediate_and_splits_by_key(self):
        batches = []
        batcher = DynamicBatcher(batches.append, max_lanes=3, max_delay_s=60.0)
        try:
            for index in range(3):
                batcher.submit(("ecdh", "T-13", "tau"), {"i": index})
            batcher.submit(("keygen", "T-13", "tau"), {"i": 99})
            assert len(batches) == 1  # size flush happened inline; other group waits
            batch = batches[0]
            assert batch.reason == "size"
            assert batch.key == ("ecdh", "T-13", "tau")
            assert [request.payload["i"] for request in batch.requests] == [0, 1, 2]
            assert batcher.queue_depth() == 1
        finally:
            batcher.close()
        assert len(batches) == 2 and batches[1].reason == "close"

    def test_deadline_flush_releases_partial_batches(self):
        flushed = threading.Event()
        batches = []

        def dispatch(batch):
            batches.append(batch)
            flushed.set()

        batcher = DynamicBatcher(dispatch, max_lanes=100, max_delay_s=0.02)
        try:
            batcher.submit(("ecdh", "T-13", "tau"), {"i": 0})
            batcher.submit(("ecdh", "T-13", "tau"), {"i": 1})
            assert flushed.wait(5.0), "deadline flush never happened"
            assert batches[0].reason == "deadline"
            assert len(batches[0]) == 2
            assert batcher.queue_depth() == 0
        finally:
            batcher.close()

    def test_dispatch_errors_land_on_request_futures(self):
        def dispatch(batch):
            raise RuntimeError("backend on fire")

        batcher = DynamicBatcher(dispatch, max_lanes=2, max_delay_s=60.0)
        try:
            first = batcher.submit(("ecdh", "T-13", "tau"), {})
            second = batcher.submit(("ecdh", "T-13", "tau"), {})
            with pytest.raises(RuntimeError, match="on fire"):
                first.result(timeout=5)
            with pytest.raises(RuntimeError, match="on fire"):
                second.result(timeout=5)
        finally:
            batcher.close()

    def test_submit_after_close_is_refused(self):
        batcher = DynamicBatcher(lambda batch: None, max_lanes=2, max_delay_s=0.01)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(("ecdh", "T-13", "tau"), {})

    def test_telemetry_counts_requests_batches_and_fill(self, fresh_registry):
        batcher = DynamicBatcher(lambda batch: None, max_lanes=2, max_delay_s=60.0)
        try:
            batcher.submit(("ecdh", "T-13", "tau"), {})
            batcher.submit(("ecdh", "T-13", "tau"), {})
        finally:
            batcher.close()
        snap = fresh_registry.snapshot()
        assert snap["counters"]["service.requests"] == 2
        assert snap["counters"]["service.batches"] == 1
        assert snap["counters"]["service.flush.size"] == 1
        fill = snap["observations"]["service.batch_fill"]
        assert fill["count"] == 1 and fill["min_s"] == 2


class TestWorkerPool:
    def test_inline_pool_matches_scalar_reference(self, toy):
        privates, peers = _keypairs(toy, 6, seed=1)
        other, _ = _keypairs(toy, 6, seed=2)
        pool = WorkerPool(workers=0, curves=("T-13",))
        try:
            rows = pool.submit(
                ("ecdh", "T-13", "tau"),
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
        rows = execute_group_isolated(
            toy, None, "ecdh", "tau",
            {"private": privates, "peer_x": xs, "peer_y": ys},
        )
        assert "error" in rows[1]
        for index in (0, 2):
            reference = ecdh_shared(toy, privates[index], peers[index])
            assert (rows[index]["x"], rows[index]["y"]) == (reference.x, reference.y)

    def test_sign_group_produces_valid_scalar_identical_signatures(self, toy):
        privates, publics = _keypairs(toy, 4, seed=4)
        digests = [97, 0xDEADBEEF, 1, 2 ** 40 + 5]
        rows = execute_group_isolated(
            toy, None, "sign", "tau", {"private": privates, "digest": digests}
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
            rows = pool.submit(("ecdh", "T-13", "tau"), columns).result(timeout=60)
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

    def test_backend_must_be_a_name(self):
        with pytest.raises(TypeError):
            WorkerPool(workers=0, backend=object(), curves=())

    def test_preferred_start_method_validates(self):
        assert preferred_start_method() in ("fork", "spawn")
        with pytest.raises(ValueError):
            preferred_start_method("not-a-start-method")


def _with_service(async_fn, **service_kwargs):
    """Run ``async_fn(service, port)`` against a live service, then stop it."""
    service_kwargs.setdefault("curves", ("T-13",))
    service_kwargs.setdefault("workers", 0)
    service_kwargs.setdefault("max_delay_ms", 5.0)
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
        """Concurrent requests across op x scalar_rep coalesce per group and
        every response is byte-identical to the scalar reference."""
        privates, peers = _keypairs(toy, 4, seed=7)
        other, _ = _keypairs(toy, 4, seed=8)
        digests = [11, 22, 33, 44]

        async def scenario(service, port):
            requests = []
            for index in range(4):
                requests.append(("/ecdh", {
                    "curve": "T-13", "scalar_rep": "binary",
                    "private": format(other[index], "x"),
                    "peer_x": format(peers[index].x, "x"),
                    "peer_y": format(peers[index].y, "x"),
                }))
                # "tau" and "auto" resolve identically on a Koblitz curve, so
                # these two land in the SAME group.
                rep = "tau" if index % 2 else "auto"
                requests.append(("/ecdh", {
                    "curve": "T-13", "scalar_rep": rep,
                    "private": format(other[index], "x"),
                    "peer_x": format(peers[index].x, "x"),
                    "peer_y": format(peers[index].y, "x"),
                }))
                requests.append(("/keygen", {"curve": "T-13", "private": format(privates[index], "x")}))
                requests.append(("/sign", {
                    "curve": "T-13",
                    "private": format(privates[index], "x"),
                    "digest": format(digests[index], "x"),
                }))
            responses = await asyncio.gather(
                *(_post_json(port, path, payload) for path, payload in requests)
            )
            return responses, (await http_get("127.0.0.1", port, "/stats"))[1]

        responses, stats = _with_service(scenario, max_lanes=64, max_delay_ms=25.0)
        assert all(status == 200 for status, _ in responses)
        for index in range(4):
            ecdh_bin, ecdh_tau, keygen, sign = responses[4 * index: 4 * index + 4]
            reference = ecdh_shared(toy, other[index], peers[index])
            for _, payload in (ecdh_bin, ecdh_tau):
                assert int(payload["x"], 16) == reference.x
                assert int(payload["y"], 16) == reference.y
            public = toy.multiply(toy.generator, privates[index])
            assert int(keygen[1]["x"], 16) == public.x
            assert int(keygen[1]["y"], 16) == public.y
            signature = ecdsa_sign(toy, privates[index], digests[index])
            assert int(sign[1]["r"], 16) == signature.r
            assert int(sign[1]["s"], 16) == signature.s
        counters = fresh_registry.snapshot()["counters"]
        assert counters["service.requests"] == 16
        # 4 distinct groups: ecdh-binary, ecdh-tau (tau + auto merged),
        # keygen-tau, sign-tau.  Nothing reached max_lanes, so exactly one
        # deadline batch per group.
        assert counters["service.batches"] == 4
        assert counters["service.flush.deadline"] == 4
        # batch_fill is counted in lanes per flushed batch.
        assert stats["batch_fill"]["mean"] == stats["batch_fill"]["max"] == 4

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

        k_response, t_response = _with_service(
            scenario, curves=("T-13", "K-163"), max_lanes=16, max_delay_ms=25.0
        )
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

    def test_bad_peer_gets_400_without_poisoning_the_batch(self, toy):
        privates, peers = _keypairs(toy, 2, seed=11)

        async def scenario(service, port):
            good = _post_json(port, "/ecdh", {
                "curve": "T-13",
                "private": format(privates[0], "x"),
                "peer_x": format(peers[0].x, "x"),
                "peer_y": format(peers[0].y, "x"),
            })
            bad = _post_json(port, "/ecdh", {
                "curve": "T-13",
                "private": format(privates[1], "x"),
                "peer_x": format(peers[1].x, "x"),
                "peer_y": format(peers[1].y ^ 1, "x"),
            })
            return await asyncio.gather(good, bad)

        good_response, bad_response = _with_service(scenario, max_lanes=8, max_delay_ms=20.0)
        assert bad_response[0] == 400
        assert "error" in bad_response[1]
        assert good_response[0] == 200
        reference = ecdh_shared(toy, privates[0], peers[0])
        assert int(good_response[1]["x"], 16) == reference.x

    def test_ingress_validation_and_routing(self):
        async def scenario(service, port):
            cases = {}
            cases["health"] = await http_get("127.0.0.1", port, "/healthz")
            cases["missing"] = await http_get("127.0.0.1", port, "/nope")
            cases["wrong_method"] = await _post_json(port, "/healthz", {})
            cases["unknown_curve"] = await _post_json(port, "/ecdh", {"curve": "B-571"})
            cases["bad_rep"] = await _post_json(
                port, "/keygen", {"curve": "T-13", "scalar_rep": "ternary"}
            )
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
        assert cases["bad_rep"][0] == 400
        assert cases["bad_hex"][0] == 400
        assert cases["zero_private"][0] == 400
        assert cases["missing_field"][0] == 400
        stats = cases["stats"][1]
        assert stats["queue_depth"] == 0
        assert set(stats["flush_reasons"]) == {"size", "deadline", "close"}
        assert "latency_s" in stats and "batch_fill" in stats

    def test_loadgen_closed_loop_verifies_every_response(self):
        async def scenario(service, port):
            return await run_load(
                "127.0.0.1", port, op="ecdh", curve="T-13",
                clients=8, requests_per_client=2, seed=21, spot_checks=2,
            )

        result = _with_service(scenario, max_lanes=16, max_delay_ms=5.0)
        assert result.errors == []
        assert result.completed == result.total == 16
        assert result.verified == 16
        assert result.spot_checked == 2
        assert result.throughput > 0
        assert set(result.latency_quantiles()) == {"p50", "p95", "p99"}
