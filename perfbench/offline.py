"""Closed-loop offline workloads: one caller, back-to-back batched protocol calls.

``ecdh-b163``   256-lane ``ecdh_batch`` calls on B-163 (binary López-Dahab
                ladder) over fresh seeded pairings of a seeded key pool.
``koblitz-mix`` round-robin 256-lane ``keygen_batch`` (comb),
                ``sign_batch`` (comb nonces) and ``ecdh_batch`` (τ ladder)
                on K-163 and K-283.

Every ECDH batch pairs its lanes: lane ``2j`` computes ``dA·QB`` and lane
``2j+1`` computes ``dB·QA`` from the same two key pairs, so each output is
checked against its mirror and, once per equal pair, for curve membership.
A wrong public key from ``keygen_batch`` breaks the mirror of the ECDH
lane that uses it, so keygen results are checked there.  Checks run after
the timed window; a seeded sample of every op is also recomputed on the
scalar reference path (``batched=False``).  Rates price every (op, curve)
call at its median duration, and latency is the mean of those medians, so
one call stalled by another process moves them little; a calibration loop
after every call tracks the host's speed.
"""

from __future__ import annotations

import os
import random
import time

from repro.curves import Point, curve_by_name, ecdsa_verify, protocols

from system import calibration_s, median, quantile

KEPT_MESSAGES = 20


class _Call:
    __slots__ = ("op", "curve", "start", "end", "lanes", "inputs", "outputs", "error")

    def __init__(self, op, curve, start, end, lanes, inputs, outputs, error):
        self.op, self.curve, self.start, self.end, self.lanes = op, curve, start, end, lanes
        self.inputs, self.outputs, self.error = inputs, outputs, error


def _durations(calls):
    """Call durations grouped by (op, curve)."""
    groups = {}
    for call in calls:
        groups.setdefault((call.op, call.curve.name), []).append(call.end - call.start)
    return groups.values()


def _rate(calls):
    """Results per second with every (op, curve) call at its median duration."""
    busy = sum(len(durations) * median(durations) for durations in _durations(calls))
    return sum(call.lanes for call in calls) / busy if busy else 0.0


def _typical_ms(calls):
    """Mean over the (op, curve) call kinds of each kind's median duration.

    The plain median of a mix of call kinds falls in the gap between two
    kinds' durations and jumps with their proportions from run to run.
    """
    groups = list(_durations(calls))
    return sum(median(durations) for durations in groups) / len(groups) * 1e3


class OfflineWorkload:
    """Shared timing, verification and metric code of the offline workloads."""

    ops = ()

    def __init__(self, seed, toy, corrupt):
        self.rng = random.Random(seed)
        self.corrupt = corrupt
        self.lanes = 16 if toy else 256
        self.calls = []
        self.calibration = []
        self.failed = 0
        self.failures = []

    def fields(self):
        return [curve.field for curve in self.curves]

    def backends(self):
        return {curve.name: curve.field.resolve_backend(None).name for curve in self.curves}

    def pids(self):
        return [os.getpid()]

    def close(self):
        pass

    def _timed(self, op, curve, function, *args, **kwargs):
        start = time.perf_counter()
        try:
            outputs, error = function(curve, *args, **kwargs), None
        except Exception as exc:  # a failed call counts all its lanes as failures
            outputs, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        self.calls.append(_Call(op, curve, start, end, self.lanes, args, outputs, error))
        self.calibration.append(calibration_s())
        return outputs

    def _fail(self, message, count=1):
        self.failed += count
        if len(self.failures) < KEPT_MESSAGES:
            self.failures.append(message)

    def setup(self, seconds):
        """Warm every route once and verify it: the run's first verified results."""
        self.cycle()
        self.verify(self.calls)
        self.calls.clear()
        if self.failed:
            raise RuntimeError(f"set-up results failed verification: {self.failures}")

    def measure(self, seconds):
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            self.cycle()
        end = time.perf_counter()
        calibration = self.calibration[-len(self.calls):]
        calls = self.calls
        if self.corrupt:  # the smoke test's deliberately wrong result
            outputs = next(call.outputs for call in calls if call.op == "ecdh" and call.outputs)
            outputs[0] = Point(outputs[0].curve, outputs[0].x ^ 1, outputs[0].y)
        results = sum(call.lanes for call in calls)
        self.verify(calls)
        verified = results - self.failed
        attempted = results + self.reference_sample(calls)
        durations_ms = [(call.end - call.start) * 1e3 for call in calls]
        gaps_ms = [(later.start - earlier.end) * 1e3 for earlier, later in zip(calls, calls[1:])]
        busy = sum(call.end - call.start for call in calls)

        def rate_of(op):
            return _rate([call for call in calls if call.op == op])

        return {
            "window": (start, end),
            "attempted": attempted,
            "failed": self.failed,
            "results": results,
            "calibration": calibration,
            "cpu_bound": ("ecdh_per_s", "goodput_rps", "latency_p50_ms"),
            "end_to_end": {
                "ecdh_per_s": rate_of("ecdh"),
                "goodput_rps": _rate(calls) * verified / results,
                "latency_p50_ms": _typical_ms(calls),
            },
            "per_layer": {
                "loadgen.latency_tail_ms": quantile(durations_ms, 0.9),
                "curves.protocols.keygen_per_s": rate_of("keygen"),
                "curves.protocols.sign_per_s": rate_of("sign"),
                "loadgen.lag_p99_ms": quantile(gaps_ms, 0.99) if gaps_ms else 0.0,
                "loadgen.cpu_share": max(end - start - busy, 0.0) / (end - start),
            },
            "report": {
                "calls": len(calls),
                "tail_percentile": 90,
                "calls_per_op": {op: sum(1 for call in calls if call.op == op) for op in self.ops},
            },
        }

    # -- checks --------------------------------------------------------

    def verify(self, calls):
        for call in calls:
            if call.error is not None:
                self._fail(f"{call.op} {call.curve.name}: {call.error}", call.lanes)
            else:
                getattr(self, f"_verify_{call.op}")(call)

    def _verify_ecdh(self, call):
        curve, outputs = call.curve, call.outputs
        for lane in range(0, len(outputs), 2):
            mine, mirror = outputs[lane], outputs[lane + 1]
            if (mine.x, mine.y) != (mirror.x, mirror.y):
                self._fail(f"ecdh {curve.name} lanes {lane}/{lane + 1}: dA·QB != dB·QA", 2)
            elif mine.is_infinity or not curve.is_on_curve(mine.x, mine.y):
                self._fail(f"ecdh {curve.name} lanes {lane}/{lane + 1}: not a finite curve point", 2)

    def _verify_keygen(self, call):
        """Checked through the mirrored ECDH lanes its public keys feed."""

    def _verify_sign(self, call):
        order = call.curve.order
        for lane, signature in enumerate(call.outputs):
            if not (1 <= signature.r < order and 1 <= signature.s < order):
                self._fail(f"sign {call.curve.name} lane {lane}: r or s out of range")

    def reference_sample(self, calls):
        """Recompute one seeded lane per (op, curve) on the scalar reference path.

        Returns how many lanes it checked; mismatches count as failures.
        """
        checked = 0
        for op in self.ops:
            for curve in self.curves:
                chosen = [call for call in calls if call.op == op and call.curve is curve and call.outputs]
                if not chosen:
                    continue
                call = self.rng.choice(chosen)
                lane = self.rng.randrange(call.lanes)
                checked += 1
                if not self._reference_matches(call, lane):
                    self._fail(f"{op} {curve.name} lane {lane}: differs from the scalar reference")
        return checked

    def _reference_matches(self, call, lane):
        curve, got = call.curve, call.outputs[lane]
        if call.op == "ecdh":
            privates, peers = call.inputs
            want = protocols.ecdh_batch(curve, [privates[lane]], [peers[lane]], batched=False)[0]
            return (want.x, want.y) == (got.x, got.y)
        if call.op == "keygen":
            want = curve.multiply(curve.generator, got.private)
            return (want.x, want.y) == (got.public.x, got.public.y)
        privates, digests = call.inputs
        want = protocols.sign_batch(curve, [privates[lane]], [digests[lane]], batched=False)[0]
        public = curve.multiply(curve.generator, privates[lane])
        return (want.r, want.s) == (got.r, got.s) and ecdsa_verify(curve, public, digests[lane], got)


def _mirrored_pairs(rng, keys):
    """Lane inputs where lanes ``2j`` and ``2j+1`` are each other's mirror."""
    order = list(range(len(keys)))
    rng.shuffle(order)
    privates, peers = [], []
    for first, second in zip(order[0::2], order[1::2]):
        (d_a, q_a), (d_b, q_b) = keys[first], keys[second]
        privates += [d_a, d_b]
        peers += [q_b, q_a]
    return privates, peers


class EcdhB163(OfflineWorkload):
    name = "ecdh-b163"
    ops = ("ecdh",)

    def __init__(self, seed, toy=False, corrupt=False):
        super().__init__(seed, toy, corrupt)
        self.curves = [curve_by_name("T-13" if toy else "B-163")]
        self.pool = None

    def cycle(self):
        curve = self.curves[0]
        if self.pool is None:
            # The key pool is made once, on the same binary ladder, and
            # re-paired freshly for every batch.
            pairs = protocols.keygen_batch(curve, 2 * self.lanes, rng=self.rng, fixed_base=False)
            self.pool = [(pair.private, pair.public) for pair in pairs]
        keys = self.rng.sample(self.pool, self.lanes)
        self._timed("ecdh", curve, protocols.ecdh_batch, *_mirrored_pairs(self.rng, keys))


class KoblitzMix(OfflineWorkload):
    name = "koblitz-mix"
    ops = ("keygen", "sign", "ecdh")

    def __init__(self, seed, toy=False, corrupt=False):
        super().__init__(seed, toy, corrupt)
        self.curves = [curve_by_name(name) for name in (("T-13",) if toy else ("K-163", "K-283"))]

    def cycle(self):
        for curve in self.curves:
            pairs = self._timed("keygen", curve, protocols.keygen_batch, self.lanes, rng=self.rng)
            if pairs is None:
                continue
            privates = [pair.private for pair in pairs]
            digests = [self.rng.getrandbits(256) for _ in privates]
            self._timed("sign", curve, protocols.sign_batch, privates, digests)
            keys = [(pair.private, pair.public) for pair in pairs]
            self._timed("ecdh", curve, protocols.ecdh_batch, *_mirrored_pairs(self.rng, keys))
