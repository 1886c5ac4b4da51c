"""The open-loop serving workload.

``serve-trickle``   a fixed 50 req/s over two keep-alive HTTP connections
                    to an out-of-process ``repro serve`` with its defaults,
                    alternating B-163 ``/ecdh`` and K-163 ``/sign``.

There is no overload workload: the service's default pool runs one worker
per core beside its front end, and on a shared host whose second core comes
and goes from one second to the next its goodput under overload spread by
more than a quarter of its median between runs of the same code.

Each request is timed from when it was due, and the generator records how
late it actually sent it.  Every response is checked against the locally
batched expectation ``repro.serve.loadgen.build_workload`` computes; a
non-200, an error row, an exception or a timeout is a failure.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

from repro.curves import curve_by_name
from repro.serve.loadgen import build_workload

from system import calibration_s, child_pids, cpu_seconds, quantile

REQUEST_TIMEOUT_S = 30.0


def _calibrations(count=10):
    return [calibration_s() for _ in range(count)]


def _matches(expected, row):
    return all(row.get(name) == value for name, value in expected.items())


def _cpu(pids):
    return {pid: cpu_seconds(pid) for pid in pids}


# -- a minimal HTTP/1.1 client (independent of the program's own) -------


async def _http(reader, writer, method, path, payload=None):
    body = json.dumps(payload).encode() if payload is not None else b""
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length) if length else b"{}")


async def _get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return (await _http(reader, writer, "GET", path))[1]
    finally:
        writer.close()
        await writer.wait_closed()


class ServeTrickle:
    name = "serve-trickle"
    rate = 50.0

    def __init__(self, seed, toy=False, corrupt=False):
        self.seed = seed
        self.toy = toy
        self.corrupt = corrupt
        # (path, curve) per request slot; requests alternate between them.
        self.routes = [("ecdh", "T-13" if toy else "B-163"), ("sign", "T-13" if toy else "K-163")]
        self.connections = max(1, min(len(self.routes), os.cpu_count() or 1))
        self.server = None
        self.port = None
        self.stderr_tail = collections.deque(maxlen=50)

    def fields(self):
        return [curve_by_name(curve).field for _, curve in self.routes]

    def backends(self):
        return {curve: curve_by_name(curve).field.resolve_backend(None).name for _, curve in self.routes}

    def pids(self):
        return [self.server.pid] + child_pids(self.server.pid) if self.server else []

    def setup(self, seconds):
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if self.toy:
            command += ["--curves", "T-13"]
        self.server = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        for line in self.server.stderr:
            self.stderr_tail.append(line)
            found = re.search(r"on http://[^:]+:(\d+)", line)
            if found:
                self.port = int(found.group(1))
                break
        if self.port is None:
            raise RuntimeError("repro serve exited before announcing its port: " + "".join(self.stderr_tail))
        threading.Thread(target=self._drain_stderr, daemon=True).start()
        per_route = int(self.rate * seconds / len(self.routes)) + 2
        self.work = []
        for offset, (op, curve) in enumerate(self.routes):
            requests, expected = build_workload(curve_by_name(curve), op, per_route, seed=self.seed + offset)
            self.work.append((f"/{op}", requests, expected))
        # The first verified response of every route ends the set-up.
        self.sent = [0] * len(self.routes)
        first = asyncio.run(self._drive(len(self.routes), 1000.0, corrupt=False))
        failed = [row for row in first if not row[4]]
        if failed:
            raise RuntimeError(f"set-up requests failed: {failed}")

    def _drain_stderr(self):
        for line in self.server.stderr:
            self.stderr_tail.append(line)

    async def _drive(self, count, rate, corrupt):
        """Send ``count`` requests open-loop at ``rate``; one row per request.

        Row: ``(due, sent, done, route, ok)``.  Request ``i`` goes over
        connection ``i % connections``.
        """
        connections = [await asyncio.open_connection("127.0.0.1", self.port) for _ in range(self.connections)]
        rows = [None] * count
        start = time.perf_counter() + 0.01

        async def sender(lane):
            reader, writer = connections[lane]
            for index in range(lane, count, self.connections):
                route = index % len(self.routes)
                path, requests, expected = self.work[route]
                slot = self.sent[route] % len(requests)
                self.sent[route] += 1
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent = time.perf_counter()
                try:
                    status, payload = await asyncio.wait_for(
                        _http(reader, writer, "POST", path, requests[slot]), REQUEST_TIMEOUT_S
                    )
                    got = {name: int(value, 16) for name, value in payload.items()
                           if name in expected[slot] and value is not None}
                    if corrupt and index == 0:
                        got = {name: value ^ 1 for name, value in got.items()}
                    ok = status == 200 and _matches(expected[slot], got)
                except (OSError, ValueError, IndexError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                    ok = False
                    writer.close()
                    try:
                        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
                    except OSError:
                        pass  # the next request fails on the closed connection and retries
                rows[index] = (due, sent, time.perf_counter(), route, ok)
            writer.close()

        await asyncio.gather(*(sender(lane) for lane in range(self.connections)))
        return rows

    def measure(self, seconds):
        calibration = _calibrations()
        stats_before = asyncio.run(_get(self.port, "/stats"))
        pids = self.pids() + [os.getpid()]
        cpu_before = _cpu(pids)
        count = int(self.rate * seconds)
        rows = asyncio.run(self._drive(count, self.rate, self.corrupt))
        cpu_after = _cpu(pids)
        stats_after = asyncio.run(_get(self.port, "/stats"))
        calibration += _calibrations()
        first_due = rows[0][0]
        last_done = max(row[2] for row in rows)
        latencies = [(row[2] - row[0]) * 1e3 if row[4] else REQUEST_TIMEOUT_S * 1e3 for row in rows]
        failed = sum(1 for row in rows if not row[4])
        ecdh_ok = sum(1 for row in rows if row[4] and self.routes[row[3]][0] == "ecdh")
        sign_ok = sum(1 for row in rows if row[4] and self.routes[row[3]][0] == "sign")
        span = last_done - first_due
        client_p50 = quantile(latencies, 0.5)
        server = self._server_layers(stats_before, stats_after, span)
        server_pid, me = self.server.pid, os.getpid()
        workers = [pid for pid in pids if pid not in (server_pid, me)]
        return {
            "window": (first_due, last_done),
            "calibration": calibration,
            "cpu_bound": (),
            "attempted": count,
            "failed": failed,
            "results": count - failed,
            "end_to_end": {
                "ecdh_per_s": ecdh_ok / span,
                "goodput_rps": (count - failed) / span,
                "latency_p50_ms": client_p50,
            },
            "per_layer": dict(
                server,
                **{
                    "loadgen.latency_tail_ms": quantile(latencies, 0.95),
                    "curves.protocols.sign_per_s": sign_ok / span,
                    "serve.server.http_overhead_p50_ms": client_p50 - server["serve.server.latency_p50_ms"],
                    "serve.server.cpu_ms_per_request":
                        (cpu_after[server_pid] - cpu_before[server_pid]) * 1e3 / count,
                    "serve.workers.cpu_ms_per_request":
                        sum(cpu_after[pid] - cpu_before[pid] for pid in workers) * 1e3 / count,
                    "loadgen.lag_p99_ms": quantile([(row[1] - row[0]) * 1e3 for row in rows], 0.99),
                    "loadgen.cpu_share": (cpu_after[me] - cpu_before[me]) / span,
                },
            ),
            "report": {"requests": count, "tail_percentile": 95, "connections": self.connections,
                       "server_stats": stats_after},
        }

    def _server_layers(self, before, after, span):
        """Batcher and worker figures from the service's own ``/stats``."""
        def delta(getter):
            return getter(after) - getter(before)

        def total(summary):
            return summary.get("mean", 0.0) * summary.get("count", 0)

        batches = delta(lambda s: s["batches"])
        fills = delta(lambda s: s["batch_fill"].get("count", 0))
        executes = after["execute_s"]
        latency = [after["latency_s"][op] for op, _ in self.routes if after["latency_s"][op].get("count")]
        server_p50 = (
            sum(s["p50"] * s["count"] for s in latency) / sum(s["count"] for s in latency) * 1e3
            if latency else 0.0
        )
        execute_p50 = (executes.get("p50") or 0.0) * 1e3
        workers = after["config"]["workers"] or 1
        return {
            "serve.batcher.batch_fill_mean":
                delta(lambda s: total(s["batch_fill"])) / fills if fills else 0.0,
            "serve.batcher.deadline_flush_share":
                delta(lambda s: s["flush_reasons"]["deadline"]) / batches if batches else 0.0,
            # /stats keeps no queue-wait series: the server-side latency
            # median minus the execute median approximates it.
            "serve.batcher.queue_wait_p50_ms": max(server_p50 - execute_p50, 0.0),
            "serve.workers.execute_p50_ms": execute_p50,
            "serve.workers.busy_share": delta(lambda s: total(s["execute_s"])) / (workers * span),
            "serve.workers.fallbacks": float(delta(lambda s: s["batch_fallbacks"])),
            "serve.server.latency_p50_ms": server_p50,
        }

    def close(self):
        if self.server is None:
            return
        pids = self.pids()
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.server.pid, signal.SIGKILL)
                self.server.wait()
        _wait_gone(pids)
        self.server = None


def _wait_gone(pids, timeout=20.0):
    """Wait until every process in ``pids`` has ended, killing stragglers."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while os.path.exists(f"/proc/{pid}") and _state(pid) != "Z":
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
                deadline = time.monotonic() + timeout
            time.sleep(0.02)


def _state(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return "Z"
