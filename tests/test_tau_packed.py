"""The packed τ route: the C recoder, the packed batch inverse, lazy map tables.

The τ-adic batch recodes its scalars in C whenever the native extension
loads, keeps every value in the executor's packed form from the bases to
the affine results, and inverts through :meth:`IRExecutor.inverse_packed`.
These tests pin each piece against its Python reference: the recoder's
digit rows against :func:`repro.curves.scalarmul._tau_sparse_digits`, the
batch against :meth:`BinaryCurve.multiply_reference` on every T-13 point,
the packed inverse against :meth:`GF2mField.inverse` on every backend.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend, native, native_available
from repro.backends.ir import _PROGRAM_CACHE
from repro.backends.steps import TauSteps
from repro.curves import curve_by_name, multiply_tau_batch, reduce_scalar
from repro.curves import scalarmul
from repro.curves.point import Point
from repro.telemetry import metrics
from repro.telemetry import trace

requires_native = pytest.mark.skipif(
    not native_available(), reason="native extension not buildable here"
)

T13 = curve_by_name("T-13")
K163 = curve_by_name("K-163")
RECODER_CURVES = ["T-13", "K-163", "K-233", "K-283", "K-409", "K-571"]


def _recode(curve, scalars, width):
    """The C reduction and recoder's rows for ``scalars`` (as the batch route calls them)."""
    ctx = scalarmul._tau_context(curve)
    return native.recode_tau(
        ctx.recoding(width), ctx.reduction, scalars, curve.field.m + width + 32
    )


def _residues(curve, scalars, limbs=None):
    """The C reduction's residues of ``scalars`` as ``(r0, r1)`` pairs, or ``None``."""
    reduction = scalarmul._tau_context(curve).reduction
    limbs = limbs or reduction["residue_limbs"]
    packed = native.reduce_tau(reduction, scalars, limbs)
    if packed is None:
        return None
    size = 4 * limbs
    values = [
        int.from_bytes(packed[start:start + size], "little", signed=True)
        for start in range(0, len(packed), size)
    ]
    return list(zip(values[0::2], values[1::2]))


def _tau_batch(curve, points_x, points_y, scalars, backend):
    """The τ route over int coordinates, packed for ``backend``'s executor."""
    bases = scalarmul.PackedBases(backend.ir_executor(), points_x, points_y)
    return multiply_tau_batch(curve, bases, scalars)


def _assert_rows_match_reference(curve, scalars, width):
    rows = _recode(curve, scalars, width)
    assert rows is not None, "the C recoder reported an overflow"
    digits, occupied, span = rows
    lanes = len(scalars)
    signed = memoryview(digits).cast("b")
    total = 0
    for lane, scalar in enumerate(scalars):
        events, lane_span = scalarmul._tau_sparse_digits(curve, scalar, width)
        got = [
            (position, signed[position * lanes + lane])
            for position in range(len(occupied))
            if signed[position * lanes + lane]
        ]
        assert got == events, (curve.name, width, scalar)
        total += lane_span
    assert span == total
    assert [bool(flag) for flag in occupied] == [
        any(signed[position * lanes:(position + 1) * lanes])
        for position in range(len(occupied))
    ]


def _threshold_scalars(curve, width):
    """Scalars whose ℤ[τ] residues sit on the width's tail threshold.

    ``τ ↦ T = −d0/d1 (mod h·n)`` maps ℤ[τ]/(τ^m − 1) onto ℤ/(h·n), so the
    scalar ``r0 + r1·T`` reduces to the small residue ``(r0, r1)``.
    """
    ctx = scalarmul._tau_context(curve)
    d0, d1 = ctx.d
    image = (-d0 * pow(d1, -1, ctx.norm)) % ctx.norm
    threshold = scalarmul._tail_threshold(width)
    gate = math.isqrt(2 * threshold) + 2
    scalars = []
    for r0 in range(-gate, gate + 1):
        for r1 in range(-gate, gate + 1):
            if abs(scalarmul._zt_norm(ctx.mu, r0, r1) - threshold) <= 2:
                scalar = (r0 + r1 * image) % ctx.norm
                assert reduce_scalar(curve, scalar) == (r0, r1)
                scalars.append(scalar)
    return scalars


@requires_native
class TestRecoderParity:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(RECODER_CURVES), st.integers(min_value=2, max_value=7), st.data())
    def test_rows_match_the_reference(self, name, width, data):
        curve = curve_by_name(name)
        m, n = curve.field.m, curve.order
        scalars = data.draw(st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=(1 << (2 * m)) - 1),
            ),
            min_size=1, max_size=12,
        ))
        _assert_rows_match_reference(curve, scalars, width)

    @pytest.mark.parametrize("name", RECODER_CURVES)
    def test_edges_and_tail_threshold(self, name):
        curve = curve_by_name(name)
        n, h, m = curve.order, curve.cofactor, curve.field.m
        edges = [0, 1, 2, n - 1, n, n + 1, 1 << m, 2 * n, 3 * n + 1, h * n, h * n - 1]
        for width in range(2, 8):
            _assert_rows_match_reference(curve, edges + _threshold_scalars(curve, width), width)

    def test_reports_instead_of_overflowing(self):
        """Too few rows, or a width whose digits leave int8, come back as ``None``."""
        ctx = scalarmul._tau_context(K163)
        scalars = [2**160 + 12345]
        assert native.recode_tau(ctx.recoding(4), ctx.reduction, scalars, 40) is None
        assert native.recode_tau(ctx.recoding(8), ctx.reduction, scalars, 300) is None
        assert native.recode_tau(ctx.recoding(4), ctx.reduction, scalars, 300) is not None


@requires_native
class TestReductionParity:
    """The C reduction (``gf2m_tau_reduce``) against :func:`reduce_scalar`, residue by residue."""

    @pytest.mark.parametrize("name", RECODER_CURVES)
    def test_edges_and_random_widths(self, name):
        curve = curve_by_name(name)
        n, h, m = curve.order, curve.cofactor, curve.field.m
        norm = scalarmul._tau_context(curve).norm
        rng = random.Random(m)
        scalars = [0, 1, 2, n - 1, n, n + 1, h * n - 1, h * n, norm + 1, 1 << m] + [
            rng.getrandbits(width) for width in range(1, 2 * m + 9)
        ]
        assert _residues(curve, scalars) == [reduce_scalar(curve, scalar) for scalar in scalars]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(RECODER_CURVES), st.data())
    def test_any_scalar(self, name, data):
        curve = curve_by_name(name)
        scalars = data.draw(st.lists(
            st.integers(min_value=0, max_value=(1 << (2 * curve.field.m + 8)) - 1),
            min_size=1, max_size=8,
        ))
        assert _residues(curve, scalars) == [reduce_scalar(curve, scalar) for scalar in scalars]

    def test_reports_a_residue_outgrowing_its_limbs(self):
        assert _residues(K163, [K163.order - 1], limbs=1) is None
        assert _residues(K163, [1], limbs=1) == [(1, 0)]


def _backend_names():
    names = ["python", "engine"]
    if native_available():
        names.append("native")
    return names


class TestTauBatch:
    def test_without_the_extension_the_reference_recoder_runs(self, monkeypatch):
        rng = random.Random(61)
        bases = [K163.multiply(K163.generator, rng.randrange(2, 1000)) for _ in range(6)]
        scalars = [rng.randrange(1, K163.order) for _ in range(5)] + [K163.order + 7]
        base_x, base_y = [p.x for p in bases], [p.y for p in bases]
        backends = [K163.field.resolve_backend("engine")]
        if native_available():
            backends.append(K163.field.resolve_backend("native"))
        expected = _tau_batch(K163, base_x, base_y, scalars, backends[0])
        assert expected[:2] == [K163.multiply_reference(p, k) for p, k in zip(bases[:2], scalars[:2])]

        recoded = []
        reference = scalarmul._tau_sparse_digits

        def spy(curve, scalar, width):
            recoded.append(scalar)
            return reference(curve, scalar, width)

        def unavailable():
            raise ImportError("no C kernel here")

        monkeypatch.setattr(scalarmul, "_tau_sparse_digits", spy)
        monkeypatch.setattr(native, "_load_extension", unavailable)
        for backend in backends:
            recoded.clear()
            got = _tau_batch(K163, base_x, base_y, scalars, backend)
            assert got == expected, backend.name
            assert recoded == scalars

    def test_every_t13_point_matches_the_reference(self):
        """All 8,010 finite points with x ≠ 0 (both signs), in batches of ≤2,048 lanes.

        On native at the default chunk and at ``chunk_size=4``, and on the
        interpreting executor for the first batch (the whole set without
        the extension).
        """
        field = T13.field
        bases = []
        for x in range(1, field.order):
            y = T13.solve_y(x)
            if y is not None:
                bases += [Point(T13, x, y), Point(T13, x, y ^ x)]
        assert len(bases) == 8010
        rng = random.Random(13)
        scalars = [rng.randrange(1, T13.order * T13.cofactor) for _ in bases]
        expected = [T13.multiply_reference(p, k) for p, k in zip(bases, scalars)]
        passes = [(field.resolve_backend("engine"), 2048 if native_available() else len(bases))]
        if native_available():
            passes += [
                (field.resolve_backend("native"), len(bases)),
                (native.NativeBackend(field, chunk_size=4), len(bases)),
            ]
        registry = metrics.MetricsRegistry()
        previous = metrics.set_registry(registry)
        try:
            for backend, lanes in passes:
                for start in range(0, lanes, 2048):
                    part = slice(start, min(start + 2048, lanes))
                    got = _tau_batch(
                        T13, [p.x for p in bases[part]], [p.y for p in bases[part]],
                        scalars[part], backend,
                    )
                    assert got == expected[part], (backend.describe(), start)
        finally:
            metrics.set_registry(previous)
        # Points of order 4 and degenerate adds reach the scalar fallback.
        assert registry.snapshot()["counters"]["ladder.tau.fallbacks"] > 0

    @pytest.mark.parametrize("name", _backend_names())
    def test_a_chunk_without_digits(self, name):
        """Scalars that reduce to zero leave no step to run: every lane falls back."""
        annihilating = T13.order * T13.cofactor
        bases = [T13.generator, T13.multiply(T13.generator, 5)]
        backend = T13.field.resolve_backend(name)
        got = _tau_batch(
            T13, [p.x for p in bases], [p.y for p in bases], [annihilating] * 2, backend
        )
        assert all(point.is_infinity for point in got)
        assert T13.multiply_batch(bases, [annihilating] * 2, scalar_rep="tau", backend=backend) == got

    @pytest.mark.parametrize("name", ["engine", "native"])
    def test_traced_and_untraced_runs_are_byte_identical(self, name):
        if name == "native" and not native_available():
            pytest.skip("native extension not buildable here")
        rng = random.Random(67)
        bases = [K163.multiply(K163.generator, rng.randrange(2, 1000)) for _ in range(8)]
        scalars = [rng.randrange(1, K163.order) for _ in bases]
        backend = K163.field.resolve_backend(name)
        options = {"backend": backend, "scalar_rep": "tau", "fixed_base": False}
        untraced = K163.multiply_batch(bases, scalars, **options)
        previous = trace.set_tracer(trace.Tracer())
        try:
            traced = K163.multiply_batch(bases, scalars, **options)
            names = {event["name"] for event in trace.TRACER.events()}
        finally:
            trace.set_tracer(previous)
        assert traced == untraced
        # Native runs its C step loop traced too: one span per chunk.
        steps = "ladder.tau.steps" if name == "native" else "ladder.tau.step"
        assert {
            "ladder.tau.pack", steps, "ladder.tau.unpack",
            "scalarmul.table_inverse", "ladder.tau.inverse_batch",
        } <= names
        assert any(span.startswith("ir.pass.") for span in names)


class TestInversePacked:
    @pytest.mark.parametrize("name", _backend_names())
    @pytest.mark.parametrize("lanes", [1, 63, 64, 65])
    @pytest.mark.parametrize("where", ["first", "middle", "last", "every"])
    def test_zero_lanes_stay_zero_and_are_reported(self, name, lanes, where):
        field = K163.field
        rng = random.Random(lanes)
        values = [rng.randrange(1, field.order) for _ in range(lanes)]
        zeros = {
            "first": [0], "middle": [lanes // 2], "last": [lanes - 1],
            "every": list(range(lanes)),
        }[where]
        for lane in zeros:
            values[lane] = 0
        executor = get_backend(name, field).ir_executor()
        registry = metrics.MetricsRegistry()
        previous = metrics.set_registry(registry)
        try:
            inverses, reported = executor.inverse_packed(executor.pack(values), lanes)
        finally:
            metrics.set_registry(previous)
        assert reported == sorted(set(zeros))
        assert executor.unpack(inverses, lanes) == [
            field.inverse(value) if value else 0 for value in values
        ]
        counters = registry.snapshot()["counters"]
        nonzero = sum(1 for value in values if value)
        assert counters.get(f"backend.{name}.inverse_batch.elements", 0) == nonzero
        if nonzero:
            assert counters[f"backend.{name}.inverse_batch.calls"] >= 1


@requires_native
def test_native_rejects_buffers_that_miss_lanes():
    executor = native.NativeBackend(T13.field).ir_executor()
    with pytest.raises(ValueError, match="fewer than 3 lanes"):
        executor.inverse_packed(executor.pack([1, 2]), 3)
    programs, events = scalarmul._tau_schedule(T13, bytearray([1]))
    one_lane = executor.pack([T13.generator.x])
    schedule = TauSteps(events, bytearray(2), [(one_lane, one_lane)], 2)
    state = [executor.pack(values) for values in ([1, 1], [1, 1], [0, 0])]
    with pytest.raises(ValueError, match="do not cover"):
        executor.run_steps(programs, state, (), schedule)


@requires_native
def test_lowered_tau_maps_hold_no_python_tables():
    """Composed Frobenius maps run on native keep only their masks."""
    field = K163.field
    _PROGRAM_CACHE.clear()  # schedule the τ programs afresh, untouched by other executors
    backend = native.NativeBackend(field)
    rng = random.Random(71)
    bases = [K163.multiply(K163.generator, rng.randrange(2, 1000)) for _ in range(16)]
    scalars = [rng.randrange(1, K163.order) for _ in bases]
    got = _tau_batch(K163, [p.x for p in bases], [p.y for p in bases], scalars, backend)
    assert got[:2] == [K163.multiply_reference(p, k) for p, k in zip(bases[:2], scalars[:2])]
    maps = [
        op[2]
        for program, _ in backend.ir_executor()._compiled.values()
        if program.ir.name.startswith("tau_frobenius")
        for item in program.passes
        if item.kind == "linear"
        for op in item.ops
        if op[1] == "linear" and op[2] is not field.square_map
    ]
    assert any(linear_map.power and linear_map.power > 1 for linear_map in maps)
    assert all(linear_map._tables is None for linear_map in maps)
    for linear_map in maps:
        value = rng.randrange(field.order)
        expected = 0
        for bit, image in enumerate(linear_map.masks):
            if value >> bit & 1:
                expected ^= image
        assert linear_map(value) == expected
