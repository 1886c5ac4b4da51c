"""Tests for :mod:`repro.curves.scalarmul`: τ-adic recoding round trips,
batched τ/comb evaluators, comb-table persistence, and the dispatch knobs
on ``multiply``/``multiply_batch``/the protocol layer."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import native_available, numpy_available
from repro.curves import (
    comb_table,
    curve_by_name,
    ecdh_batch,
    keygen_batch,
    multiply_comb_batch,
    multiply_tau_batch,
    reduce_scalar,
    tau_mu,
    tau_naf,
    tau_window_digits,
)
from repro.curves import scalarmul
from repro.curves.point import Point
from repro.curves.scalarmul import tau_digits_value
from repro.telemetry import metrics


T13 = curve_by_name("T-13")
K163 = curve_by_name("K-163")
K233 = curve_by_name("K-233")
B163 = curve_by_name("B-163")


def backends_under_test(field):
    """Every distinct installed backend, the interpreter baseline included."""
    names = ["engine"]
    if numpy_available():
        names.append("bitslice")
    if native_available():
        names.append("native")
    return [field.resolve_backend(name) for name in names]


def zt_congruent(curve, left, right):
    """True when ``left ≡ right (mod τ^m − 1)`` in ℤ[τ].

    Divisibility by ``d`` is checked exactly: ``Δ · conj(d)`` must be
    componentwise divisible by ``N(d)``.
    """
    mu = tau_mu(curve)
    ctx = scalarmul._tau_context(curve)
    delta = (left[0] - right[0], left[1] - right[1])
    p0, p1 = scalarmul._zt_mul(mu, delta, ctx.conj)
    return p0 % ctx.norm == 0 and p1 % ctx.norm == 0


# ------------------------------------------------------------ ℤ[τ] recoding
class TestTauRecoding:
    @pytest.mark.parametrize("curve", [T13, K163, K233], ids=lambda c: c.name)
    def test_reduce_scalar_is_congruent(self, curve):
        rng = random.Random(9)
        bound = curve.order * curve.cofactor
        edges = [0, 1, 2, curve.order, bound - 1]
        for scalar in edges + [rng.randrange(bound) for _ in range(20)]:
            residue = reduce_scalar(curve, scalar)
            assert zt_congruent(curve, residue, (scalar, 0))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 40) - 1), st.integers(min_value=2, max_value=8))
    def test_tau_naf_round_trip_t13(self, scalar, width):
        digits = tau_naf(T13, scalar, width)
        assert zt_congruent(T13, tau_digits_value(T13, digits), (scalar, 0))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 192) - 1))
    def test_tau_naf_round_trip_k163(self, scalar):
        digits = tau_naf(K163, scalar)
        assert zt_congruent(K163, tau_digits_value(K163, digits), (scalar, 0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 240) - 1))
    def test_window_digits_round_trip_k233(self, scalar):
        digits = tau_window_digits(K233, scalar)
        assert zt_congruent(K233, tau_digits_value(K233, digits), (scalar, 0))

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 180) - 1),
        st.integers(min_value=2, max_value=6),
    )
    def test_tau_naf_digit_shape(self, scalar, width):
        digits = tau_naf(K163, scalar, width)
        # The recoder drops to the plain width-2 τ-NAF once the residue
        # norm falls under the width's tail threshold (wider windows stop
        # contracting there); that tail is a bounded constant-size suffix.
        tail_start = max(len(digits) - 32, 0)
        for position, digit in enumerate(digits):
            if digit:
                assert digit % 2 == 1 or digit % 2 == -1
                assert abs(digit) < 1 << (width - 1)
                # τ-NAF: at most one nonzero per 2 consecutive digits
                # everywhere, per `width` outside the tail.
                assert all(d == 0 for d in digits[position + 1 : position + 2])
                if position + width <= tail_start:
                    assert all(d == 0 for d in digits[position + 1 : position + width])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 180) - 1))
    def test_window_digits_are_aligned(self, scalar):
        width = scalarmul.DEFAULT_TAU_WIDTH
        events, span = scalarmul._tau_sparse_digits(K163, scalar, width)
        aligned = [(p, d) for p, d in events if p % width == 0 and abs(d) <= 1 << (width - 1)]
        unaligned = [(p, d) for p, d in events if p % width != 0]
        # Everything except the constant-size τ-NAF tail is window-aligned,
        # and tail digits are the plain τ-NAF's ±1.
        assert len(events) - len(aligned) <= 30
        assert all(abs(d) == 1 for _, d in unaligned)
        assert span <= K163.field.m + width + 32

    def test_tau_naf_density(self):
        """Average nonzero density of the width-w τ-NAF is ~1/(w+1)."""
        rng = random.Random(163)
        width = scalarmul.DEFAULT_TAU_WIDTH
        nonzeros = total = 0
        for _ in range(60):
            digits = tau_naf(K163, rng.randrange(1, K163.order), width)
            nonzeros += sum(1 for d in digits if d)
            total += len(digits)
        density = nonzeros / total
        expected = 1 / (width + 1)
        assert expected * 0.8 < density < expected * 1.25

    def test_width_validation(self):
        with pytest.raises(ValueError):
            tau_naf(K163, 5, width=1)
        with pytest.raises(ValueError):
            tau_window_digits(K163, 5, width=17)

    def test_non_koblitz_has_no_tau(self):
        with pytest.raises(ValueError, match="not a Koblitz curve"):
            tau_mu(B163)


# --------------------------------------------------------- τ point evaluation
class TestTauMultiply:
    def test_t13_exhaustive_small_scalars(self):
        """Every scalar in [0, 128) on a non-generator point, vs the reference."""
        point = T13.multiply_reference(T13.generator, 5)
        for scalar in range(128):
            expected = T13.multiply_reference(point, scalar)
            assert T13.multiply(point, scalar, scalar_rep="tau") == expected

    def test_t13_order_edges(self):
        n, h = T13.order, T13.cofactor
        point = T13.generator
        for scalar in [n - 1, n, n + 1, h * n - 1, h * n, h * n + 1, -7]:
            expected = T13.multiply_reference(point, scalar)
            assert T13.multiply(point, scalar, scalar_rep="tau") == expected

    @pytest.mark.parametrize("curve", [K163, K233], ids=lambda c: c.name)
    def test_random_scalars_match_reference(self, curve):
        rng = random.Random(41)
        point = curve.generator
        for _ in range(3):
            scalar = rng.randrange(1, curve.order * curve.cofactor)
            expected = curve.multiply_reference(point, scalar)
            assert curve.multiply(point, scalar, scalar_rep="tau") == expected
            assert curve.multiply(point, scalar, scalar_rep="auto") == expected

    def test_batched_tau_matches_reference_all_backends(self):
        rng = random.Random(23)
        n, h = T13.order, T13.cofactor
        points, scalars = [], []
        point = T13.generator
        for scalar in [1, 2, n - 1, n, h * n, n + 3] + [rng.randrange(1, n) for _ in range(10)]:
            point = T13.add(point, T13.generator)
            points.append(point)
            scalars.append(scalar)
        expected = [T13.multiply_reference(p, s) for p, s in zip(points, scalars)]
        base_x = [p.x for p in points]
        base_y = [p.y for p in points]
        for backend in backends_under_test(T13.field):
            bases = scalarmul.PackedBases(backend.ir_executor(), base_x, base_y)
            got = multiply_tau_batch(T13, bases, scalars)
            assert got == expected, f"τ batch diverged on backend {backend.name!r}"

    def test_batched_tau_k163_matches_binary(self):
        rng = random.Random(29)
        scalars = [rng.randrange(1, K163.order) for _ in range(8)] + [1, K163.order - 1]
        points = [K163.multiply(K163.generator, 2 + i) for i in range(len(scalars))]
        binary = K163.multiply_batch(points, scalars, scalar_rep="binary")
        tau = K163.multiply_batch(points, scalars, scalar_rep="tau")
        assert tau == binary


# --------------------------------------------------------------- comb tables
class TestCombTable:
    def test_comb_matches_ladder_keygen(self):
        rng = random.Random(31)
        scalars = [rng.randrange(1, K163.order) for _ in range(12)] + [1, 2, K163.order - 1]
        bases = [K163.generator] * len(scalars)
        comb = K163.multiply_batch(bases, scalars, fixed_base=True)
        ladder = K163.multiply_batch(bases, scalars, fixed_base=False, scalar_rep="binary")
        reference = [K163.multiply_reference(K163.generator, s) for s in scalars[:4]]
        assert comb == ladder
        assert comb[:4] == reference

    def test_second_load_is_a_store_hit(self):
        """A fresh process (cleared in-process memo) serves the table from
        the artifact store — counted as ``comb.table.hit``, not a build."""
        previous = metrics.REGISTRY
        # A fresh registry (not ``enable()``, which keeps a live one): the
        # counters must reflect this test's two loads alone.
        registry = metrics.MetricsRegistry()
        metrics.set_registry(registry)
        try:
            scalarmul._COMB_CACHE.clear()
            comb_table(T13)
            first = registry.snapshot()["counters"]
            assert first.get("comb.table.build") == 1
            assert first.get("comb.table.hit") is None
            scalarmul._COMB_CACHE.clear()  # simulate a cold process, warm store
            comb_table(T13)
            second = registry.snapshot()["counters"]
            assert second.get("comb.table.build") == 1
            assert second.get("comb.table.hit") == 1
        finally:
            metrics.set_registry(previous)

    def test_keygen_batch_rides_the_comb(self):
        previous = metrics.REGISTRY
        registry = metrics.MetricsRegistry()
        metrics.set_registry(registry)
        try:
            scalarmul._COMB_CACHE.clear()
            pairs = keygen_batch(T13, 12, seed=5)
            reference = keygen_batch(T13, 12, seed=5, batched=False)
            assert pairs == reference
            counters = registry.snapshot()["counters"]
            assert counters.get("comb.columns", 0) > 0, "keygen did not use the comb"
        finally:
            metrics.set_registry(previous)

    def test_fixed_base_demands_the_generator(self):
        point = K163.multiply(K163.generator, 3)
        with pytest.raises(ValueError, match="generator"):
            K163.multiply_batch([point], [5], fixed_base=True)

    def test_fixed_base_demands_capacity(self):
        table = comb_table(K163)
        over = 1 << table.capacity_bits
        with pytest.raises(ValueError, match="capacity"):
            K163.multiply_batch([K163.generator], [over], fixed_base=True)

    def test_auto_comb_skips_oversized_scalars(self):
        table = comb_table(K163)
        over = (1 << table.capacity_bits) + 5
        got = K163.multiply_batch([K163.generator], [over])
        assert got == [K163.multiply_reference(K163.generator, over)]

    def test_comb_batch_direct_all_backends(self):
        rng = random.Random(37)
        scalars = [rng.randrange(1, T13.order) for _ in range(9)] + [1, T13.order - 1]
        expected = [T13.multiply_reference(T13.generator, s) for s in scalars]
        for backend in backends_under_test(T13.field):
            got = multiply_comb_batch(T13, scalars, backend=backend)
            assert got == expected, f"comb diverged on backend {backend.name!r}"

    def test_table_shape(self):
        table = comb_table(K163)
        assert table.teeth == scalarmul.DEFAULT_COMB_TEETH
        assert len(table.points) == (1 << table.teeth) - 1
        assert table.capacity_bits >= K163.order.bit_length()
        # Spot-check a stored pattern: entry u-1 is (Σ bⱼ 2^(j·columns))·G.
        pattern = 0b101
        multiple = (1 << (2 * table.columns)) + 1
        expected = K163.multiply_reference(K163.generator, multiple)
        assert table.points[pattern - 1] == (expected.x, expected.y)


# ------------------------------------------------------------------ dispatch
class TestDispatch:
    def test_tau_rejected_off_koblitz(self):
        with pytest.raises(ValueError, match="Koblitz"):
            B163.multiply(B163.generator, 5, scalar_rep="tau")
        with pytest.raises(ValueError, match="Koblitz"):
            B163.multiply_batch([B163.generator], [5], scalar_rep="tau")

    def test_unknown_rep_rejected(self):
        with pytest.raises(ValueError, match="scalar_rep"):
            K163.multiply(K163.generator, 5, scalar_rep="naf")

    def test_auto_is_binary_off_koblitz(self):
        rng = random.Random(53)
        scalar = rng.randrange(1, 1 << 160)
        point = B163.multiply(B163.generator, 9)
        assert B163.multiply(point, scalar, scalar_rep="auto") == B163.multiply(point, scalar)

    def test_protocols_agree_across_paths(self):
        alice = keygen_batch(T13, 6, seed=1)
        bob = keygen_batch(T13, 6, seed=2)
        privates = [kp.private for kp in alice]
        peers = [kp.public for kp in bob]
        reference = ecdh_batch(T13, privates, peers, batched=False)
        for rep in ("auto", "binary", "tau"):
            assert ecdh_batch(T13, privates, peers, scalar_rep=rep) == reference

    def test_keygen_ladder_pin_matches_comb(self):
        comb = keygen_batch(T13, 8, seed=3)
        pinned = keygen_batch(T13, 8, seed=3, fixed_base=False, scalar_rep="binary")
        assert comb == pinned

    def test_infinity_and_zero_lanes(self):
        points = [T13.infinity(), T13.generator, T13.generator]
        scalars = [5, 0, T13.order]
        got = T13.multiply_batch(points, scalars, scalar_rep="tau")
        assert got[0].is_infinity and got[1].is_infinity
        assert got[2] == T13.multiply_reference(T13.generator, T13.order)

    def test_negative_scalars(self):
        point = Point(T13, T13.generator.x, T13.generator.y)
        expected = T13.multiply_reference(point, -11)
        assert T13.multiply(point, -11, scalar_rep="tau") == expected
        assert T13.multiply_batch([point], [-11], scalar_rep="tau") == [expected]

    def test_binary_dead_lanes_resolve_in_the_batch(self, monkeypatch):
        """k ≡ 0 and k ≡ −1 modulo each base's order, mixed with ordinary lanes.

        The binary ladder ends with ``z1 = 0`` (``kP = O``) or ``z2 = 0``
        (``kP = −P``) on those lanes; the packed finalize names them and the
        batch resolves them itself, byte-identical to :meth:`multiply`, with
        the scalar ladder never called.
        """
        group = T13.order * T13.cofactor
        rng = random.Random(31)
        bases, scalars = [], []
        for _ in range(12):
            base = T13.random_point(rng)
            order = min(d for d in range(1, group + 1) if group % d == 0 and T13.multiply(base, d).is_infinity)
            for scalar in (order, order - 1, 3 * order, 3 * order - 1, rng.randrange(1, group)):
                if scalar > 0:
                    bases.append(base)
                    scalars.append(scalar)
        expected = [T13.multiply(base, scalar) for base, scalar in zip(bases, scalars)]
        assert any(point.is_infinity for point in expected)
        assert any(point == T13.negate(base) for point, base in zip(expected, bases))
        monkeypatch.setattr(type(T13), "multiply", lambda *args, **kwargs: pytest.fail("scalar ladder ran"))
        for backend in backends_under_test(T13.field):
            got = T13.multiply_batch(bases, scalars, backend=backend, scalar_rep="binary", fixed_base=False)
            assert got == expected, backend.name
