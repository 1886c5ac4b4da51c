"""The formula compiler: FieldIR tracing, level-scheduled fusion, executors.

Acceptance contract of the PR 6 tentpole: the entire López-Dahab ladder
step is traced **once** (:mod:`repro.curves.formulas`), scheduled once per
curve into fused passes, and runs byte-identically on every substrate —
the compiled ``native`` executor (when built), the paper's netlist on
``engine`` through the interpreting executor, the per-step batch
interpreter on ``python`` and the affine double-and-add reference must
agree lane for lane on the parity grid, including edge scalars (0, 1,
n−1, mixed widths) and batch sizes straddling an executor's chunk
boundary.  Every executor meets one :class:`IRExecutor` contract, checked
here on every buildable backend.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    IRBuilder,
    IRExecutor,
    available_backends,
    cached_program,
    execute_program,
    get_backend,
    native_available,
    schedule_program,
)
from repro.curves import curve_by_name, ecdh_batch, keygen_batch
from repro.curves.formulas import ladder_step_ir, ladder_step_program
from repro.galois.field import GF2mField
from repro.galois.pentanomials import smallest_type_ii_pentanomial

#: Every registered backend this machine can build: native needs a working
#: C toolchain.
BUILDABLE_BACKENDS = [
    name for name in available_backends() if name != "native" or native_available()
]

GF2_13 = GF2mField(smallest_type_ii_pentanomial(13), check_irreducible=False)
GF2_163 = GF2mField(smallest_type_ii_pentanomial(163), check_irreducible=False)

#: The parity grid of ISSUE 5/6: toy curve plus two NIST-degree Koblitz curves.
PARITY_CURVES = ["T-13", "K-163", "K-233"]


def _edge_scalars(curve, count, rng):
    """Scalars covering the masked-select corners: 0, 1, n-1, mixed widths."""
    n = curve.order if curve.order is not None else curve.field.order
    scalars = [0, 1, n - 1, 2, 3]
    for width in range(1, curve.field.m, max(1, curve.field.m // 8)):
        scalars.append((rng.getrandbits(width) | (1 << (width - 1))) % n or 1)
    while len(scalars) < count:
        scalars.append(rng.randrange(0, n))
    return scalars[:count]


def _probe_program(field):
    """A small mixed formula exercising every op kind on ``field``."""
    builder = IRBuilder("probe")
    a, b = builder.input("a"), builder.input("b")
    bit = builder.mask_input("bit")
    mixed = builder.xor(builder.mul(a, b), builder.square(builder.square(a)), builder.const(3))
    builder.output("r", builder.select(bit, mixed, a))
    return schedule_program(builder.build(), field.m, {"square": field.square_map})


def _probe_reference(field, a, b, bit):
    if not bit:
        return a
    return field.multiply(a, b) ^ field.square(field.square(a)) ^ 3


class TestIRBuilder:
    def test_trace_and_describe(self):
        ir = ladder_step_ir()
        assert [name for name, _ in ir.inputs] == ["x1", "z1", "x2", "z2", "x"]
        assert [name for name, _ in ir.mask_inputs] == ["bit"]
        assert ir.op_counts()["mul"] == 5
        assert "ld_step" in ir.describe()

    def test_vars_are_builder_scoped(self):
        first, second = IRBuilder("one"), IRBuilder("two")
        x = first.input("x")
        with pytest.raises(ValueError, match="different IRBuilder"):
            second.mul(second.input("y"), x)

    def test_masks_and_values_are_distinct_kinds(self):
        builder = IRBuilder("kinds")
        x, bit = builder.input("x"), builder.mask_input("bit")
        with pytest.raises(TypeError, match="mask input"):
            builder.select(x, x, x)
        with pytest.raises(TypeError, match="field value"):
            builder.mul(x, bit)

    def test_rejects_duplicates_and_empty_formulas(self):
        builder = IRBuilder("dups")
        builder.input("x")
        with pytest.raises(ValueError, match="duplicate input"):
            builder.input("x")
        with pytest.raises(ValueError, match="no outputs"):
            IRBuilder("empty").build()


class TestScheduleFusion:
    def test_ladder_step_schedules_to_six_passes(self):
        program = ladder_step_program(curve_by_name("K-163"))
        assert program.pass_counts() == {"mul": 2, "linear": 2, "select": 2}
        assert program.mul_pass_widths() == [3, 2]
        assert "6 fused passes" in program.describe()

    def test_chained_squarings_collapse_into_one_composed_map(self):
        builder = IRBuilder("quartic")
        builder.output("r", builder.square(builder.square(builder.input("x"))))
        program = schedule_program(builder.build(), GF2_13.m, {"square": GF2_13.square_map})
        # One fused linear pass, not two chained ones.
        assert program.pass_counts() == {"linear": 1}
        result = execute_program(program, get_backend("python", GF2_13), {"x": [5, 1000]})
        assert result["r"] == [GF2_13.square(GF2_13.square(v)) for v in (5, 1000)]

    def test_constants_are_hoisted_into_the_prologue(self):
        builder = IRBuilder("affine")
        builder.output("r", builder.xor(builder.input("x"), builder.const(6)))
        program = schedule_program(builder.build(), GF2_13.m, {})
        assert [value for _, value in program.consts] == [6]
        result = execute_program(program, get_backend("python", GF2_13), {"x": [0, 6, 9]})
        assert result["r"] == [6, 0, 15]

    def test_unbound_linear_names_fail_at_schedule_time(self):
        builder = IRBuilder("unbound")
        builder.output("r", builder.apply_linear("frobenius", builder.input("x")))
        with pytest.raises(KeyError, match="frobenius"):
            schedule_program(builder.build(), GF2_13.m, {})


class TestExecuteProgramParity:
    """The interpreter arm: one schedule, every registered backend."""

    @pytest.mark.parametrize("name", ["python", "engine"])
    def test_probe_matches_reference(self, name):
        field = GF2_13
        backend = get_backend(name, field)
        rng = random.Random(2018)
        a = [0, 1, field.order - 1] + [rng.getrandbits(13) for _ in range(40)]
        b = [rng.getrandbits(13) for _ in a]
        bits = [rng.getrandbits(1) for _ in a]
        result = execute_program(_probe_program(field), backend, {"a": a, "b": b}, {"bit": bits})
        assert result["r"] == [
            _probe_reference(field, x, y, bit) for x, y, bit in zip(a, b, bits)
        ]

    @pytest.mark.parametrize("name", BUILDABLE_BACKENDS)
    def test_executor_run_matches_interpreter(self, name):
        field = GF2_163
        backend = get_backend(name, field)
        program = _probe_program(field)
        rng = random.Random(7)
        a = [rng.getrandbits(163) for _ in range(70)]
        b = [rng.getrandbits(163) for _ in range(70)]
        bits = [rng.getrandbits(1) for _ in range(70)]
        interpreted = execute_program(program, backend, {"a": a, "b": b}, {"bit": bits})["r"]
        assert backend.ir_executor().run(program, {"a": a, "b": b}, {"bit": bits})["r"] == interpreted


class TestExecutorContract:
    """The :class:`IRExecutor` contract, on every buildable backend."""

    @pytest.mark.parametrize("lanes", [1, 63, 64, 65])
    @pytest.mark.parametrize("name", BUILDABLE_BACKENDS)
    def test_pack_unpack_is_identity(self, name, lanes):
        executor = get_backend(name, GF2_163).ir_executor()
        rng = random.Random(lanes)
        values = ([0, 1, (1 << 163) - 1] + [rng.getrandbits(163) for _ in range(lanes)])[:lanes]
        assert executor.unpack(executor.pack(values), lanes) == values

    @pytest.mark.parametrize("name", BUILDABLE_BACKENDS)
    def test_xor_and_select(self, name):
        executor = get_backend(name, GF2_163).ir_executor()
        builder = IRBuilder("probe_xor_select")
        a, b = builder.input("a"), builder.input("b")
        builder.output("sum", builder.xor(a, b))
        builder.output("chosen", builder.select(builder.mask_input("bit"), a, b))
        program = schedule_program(builder.build(), 163, {})
        rng = random.Random(6)
        xs = [rng.getrandbits(163) for _ in range(67)]
        ys = [rng.getrandbits(163) for _ in range(67)]
        bits = [rng.getrandbits(1) for _ in range(67)]
        outputs = executor.run(program, {"a": xs, "b": ys}, {"bit": bits})
        assert outputs["sum"] == [x ^ y for x, y in zip(xs, ys)]
        assert outputs["chosen"] == [x if bit else y for x, y, bit in zip(xs, ys, bits)]

    @pytest.mark.parametrize("name", BUILDABLE_BACKENDS)
    def test_single_and_stacked_products(self, name):
        field = GF2_163
        executor = get_backend(name, field).ir_executor()
        single = IRBuilder("probe_mul")
        single.output("ab", single.mul(single.input("a"), single.input("b")))
        stacked = IRBuilder("probe_mul_stacked")
        a, b, c, d = (stacked.input(key) for key in "abcd")
        stacked.output("ab", stacked.mul(a, b))
        stacked.output("cd", stacked.mul(c, d))
        stacked_program = schedule_program(stacked.build(), 163, {})
        assert stacked_program.mul_pass_widths() == [2]  # one fused pass, two products
        rng = random.Random(7)
        values = {key: [rng.getrandbits(163) for _ in range(33)] for key in "abcd"}
        single_program = schedule_program(single.build(), 163, {})
        product = executor.run(single_program, {"a": values["a"], "b": values["b"]})["ab"]
        assert product == [field.multiply(x, y) for x, y in zip(values["a"], values["b"])]
        outputs = executor.run(stacked_program, values)
        assert outputs["ab"] == product
        assert outputs["cd"] == [field.multiply(x, y) for x, y in zip(values["c"], values["d"])]

    @pytest.mark.parametrize("name", BUILDABLE_BACKENDS)
    def test_mismatched_batches_are_rejected(self, name):
        executor = get_backend(name, GF2_163).ir_executor()
        builder = IRBuilder("probe_select")
        a, b = builder.input("a"), builder.input("b")
        builder.output("y", builder.select(builder.mask_input("bit"), a, builder.xor(a, b)))
        program = schedule_program(builder.build(), 163, {})
        rng = random.Random(12)
        narrow = [rng.getrandbits(163) for _ in range(10)]
        wide = [rng.getrandbits(163) for _ in range(70)]
        with pytest.raises(ValueError, match="input 'b' has 70 lanes, expected 10"):
            executor.run(program, {"a": narrow, "b": wide}, {"bit": [1] * 10})
        with pytest.raises(ValueError, match="mask 'bit' has 10 lanes, expected 70"):
            executor.run(program, {"a": wide, "b": wide}, {"bit": [1] * 10})
        with pytest.raises(KeyError, match="needs input 'b'"):
            executor.run(program, {"a": wide}, {"bit": [1] * 70})
        with pytest.raises(KeyError, match="needs mask 'bit'"):
            executor.run(program, {"a": wide, "b": wide})

    @pytest.mark.parametrize("name", ["python", "engine"])
    def test_interpreting_backends_run_the_same_program(self, name):
        backend = get_backend(name, GF2_163)
        executor = backend.ir_executor()
        assert isinstance(executor, IRExecutor) and executor.kind == "interpreted"
        assert backend.ir_executor() is executor
        program = ladder_step_program(curve_by_name("B-163"))
        compiled = executor.compile(program)
        rng = random.Random(13)
        inputs = [[rng.getrandbits(163) for _ in range(9)] for _ in compiled.input_names]
        bits = [rng.getrandbits(1) for _ in range(9)]
        expected = execute_program(
            program, backend, dict(zip(compiled.input_names, inputs)), {"bit": bits}
        )
        outputs = compiled.run_arrays([executor.pack(values) for values in inputs], [bits])
        assert [executor.unpack(out, 9) for out in outputs] == [
            expected[name] for name in compiled.output_names
        ]

    def test_engine_runs_on_the_interpreted_executor(self):
        backend = get_backend("engine", GF2_163)
        executor = backend.ir_executor()
        assert executor.kind == "interpreted"
        assert executor.m == 163
        assert backend.ir_executor() is executor  # cached per backend instance

    def test_describe_mentions_the_substrate(self):
        backend = get_backend("engine", GF2_163)
        description = backend.ir_executor().describe()
        assert "interpreted executor" in description
        assert backend.describe() in description

    def test_the_plane_executor_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.backends.planes  # noqa: F401


class TestFusedLadderParity:
    """Fused IR ladder (engine, native) == per-step interpreter == affine reference."""

    @pytest.mark.parametrize("name", PARITY_CURVES)
    def test_fused_ladder_matches_both_paths_on_edge_scalars(
        self, name, compiled_backends, reference_multiply
    ):
        curve = curve_by_name(name)
        rng = random.Random(2018)
        scalars = _edge_scalars(curve, 16, rng)
        points = [curve.generator] * len(scalars)
        steps = curve.multiply_batch(points, scalars, backend="python")
        reference = [reference_multiply(curve.generator, scalar) for scalar in scalars]
        assert steps == reference
        for backend in compiled_backends(curve.field):
            assert curve.multiply_batch(points, scalars, backend=backend) == reference

    @pytest.mark.parametrize("name", PARITY_CURVES)
    def test_engine_ladder_matches_scalar_reference(self, name, reference_multiply):
        # The same 16 edge scalars through the paper's netlist.
        curve = curve_by_name(name)
        rng = random.Random(2018)
        scalars = _edge_scalars(curve, 16, rng)
        points = [curve.generator] * len(scalars)
        reference = [reference_multiply(curve.generator, scalar) for scalar in scalars]
        assert curve.multiply_batch(points, scalars, backend="engine") == reference

    @pytest.mark.parametrize("batch", [7, 8, 9, 17])
    def test_chunk_boundary_batches(self, batch, ladder_backends, compiled_backends):
        # chunk_size=8 puts 7/8/9/17 below, at, and across the chunk edges
        # of a packed executor (and of the engine's netlist passes).
        curve = curve_by_name("T-13")
        rng = random.Random(batch)
        scalars = _edge_scalars(curve, batch, rng)
        points = [curve.random_point(rng) for _ in scalars]
        reference = [curve.multiply_reference(p, k) for p, k in zip(points, scalars)]
        assert curve.multiply_batch(points, scalars, backend="python") == reference
        for backend in compiled_backends(curve.field, chunk_size=8):
            assert backend.ir_executor().chunk_size == 8
        for backend in ladder_backends(curve.field, chunk_size=8):
            assert curve.multiply_batch(points, scalars, backend=backend) == reference

    def test_ladder_chunks_large_batches(self, ladder_backends):
        curve = curve_by_name("T-13")
        rng = random.Random(3)
        scalars = _edge_scalars(curve, 37, rng)  # five 8-lane chunks, the last one partial
        points = [curve.generator] * len(scalars)
        reference = [curve.multiply_reference(curve.generator, scalar) for scalar in scalars]
        assert curve.multiply_batch(points, scalars, backend="python") == reference
        for backend in ladder_backends(curve.field, chunk_size=8):
            assert curve.multiply_batch(points, scalars, backend=backend) == reference

    def test_distinct_base_points_per_lane(self, ladder_backends):
        curve = curve_by_name("T-13")
        rng = random.Random(11)
        points = [curve.random_point(rng) for _ in range(9)]
        scalars = _edge_scalars(curve, 9, rng)
        reference = [curve.multiply(p, k) for p, k in zip(points, scalars)]
        for backend in ladder_backends(curve.field):
            assert curve.multiply_batch(points, scalars, backend=backend) == reference

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 14) - 1), min_size=1, max_size=24))
    @settings(max_examples=20, deadline=None)
    def test_fused_ladder_property_t13(self, ladder_backends, scalars):
        curve = curve_by_name("T-13")
        points = [curve.generator] * len(scalars)
        steps = curve.multiply_batch(points, scalars, backend="python")
        reference = [curve.multiply_reference(curve.generator, scalar) for scalar in scalars]
        assert steps == reference
        for backend in ladder_backends(curve.field):
            assert curve.multiply_batch(points, scalars, backend=backend) == reference

    def test_protocols_are_byte_identical_on_engine(self):
        curve = curve_by_name("K-163")
        pairs = keygen_batch(curve, 6, seed=4, backend="engine")
        reference = keygen_batch(curve, 6, seed=4, batched=False)
        assert [p.public for p in pairs] == [p.public for p in reference]
        shared = ecdh_batch(
            curve,
            [p.private for p in pairs],
            [p.public for p in reversed(pairs)],
            backend="engine",
        )
        assert shared == [
            curve.multiply(q.public, p.private) for p, q in zip(pairs, reversed(pairs))
        ]


class TestProgramMemoization:
    """ISSUE 6 satellite: compiled programs cached per curve × backend × chunk."""

    def test_ladder_step_program_is_memoized_per_curve(self):
        curve = curve_by_name("K-163")
        assert ladder_step_program(curve) is ladder_step_program(curve)
        other = curve_by_name("B-163")  # same field, different b
        assert ladder_step_program(other) is not ladder_step_program(curve)

    def test_cached_program_is_keyed(self):
        calls = []

        def factory():
            calls.append(1)
            return _probe_program(GF2_13)

        key = ("test-ir-memo", GF2_13.modulus, id(self))
        first = cached_program(key, factory)
        assert cached_program(key, factory) is first
        assert len(calls) == 1

    def test_compiled_lowering_is_memoized_per_executor(self):
        curve = curve_by_name("K-163")
        program = ladder_step_program(curve)
        executor = get_backend("engine", curve.field).ir_executor()
        assert executor.compile(program) is executor.compile(program)
        # A different chunk size is a different backend instance and executor.
        narrow = get_backend("engine", curve.field, chunk_size=64).ir_executor()
        assert narrow is not executor
        assert narrow.compile(program) is not executor.compile(program)


class TestDescribeSurface:
    def test_cli_bench_describe_prints_the_schedule(self, capsys):
        from repro.cli import main

        assert main(["bench", "--backend", "engine", "-m", "163", "-n", "66", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "ld_step" in out and "6 fused passes" in out and "compiled:" in out
