"""The plane-resident compute layer and the plane-resident batched ladder.

Acceptance contract: the entire batched Montgomery ladder runs in the
executor's packed domain — one pack, all steps as fused passes, one unpack
— and stays **byte-identical** to the per-step interpreter and the affine
reference on every tested curve, including batches mixing scalars of very
different bit lengths (the masked plane-select path).  The
:class:`PlaneProgram` lowering of GF(2)-linear maps must agree with the
table-driven scalar maps lane-by-lane, pinned down by a hypothesis
property for squaring.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    IRBuilder,
    IRExecutor,
    PlaneProgram,
    available_backends,
    bitsliced_netlist,
    execute_program,
    get_backend,
    native_available,
    numpy_available,
    plane_program,
    schedule_program,
)
from repro.curves import curve_by_name, ecdh_batch, keygen_batch
from repro.galois.field import GF2mField
from repro.galois.pentanomials import smallest_type_ii_pentanomial

requires_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

#: Every registered backend this machine can build: bitslice needs numpy,
#: native a working C toolchain.
BUILDABLE_BACKENDS = [
    name for name in available_backends()
    if (name != "bitslice" or numpy_available()) and (name != "native" or native_available())
]

GF2_163 = GF2mField(smallest_type_ii_pentanomial(163), check_irreducible=False)

#: The parity grid of ISSUE 5: toy curve plus two NIST-degree Koblitz curves.
PARITY_CURVES = ["T-13", "K-163", "K-233"]


def _mixed_scalars(curve, count, rng):
    """Scalars covering the masked-select corners: 0, 1, n-1, and mixed widths."""
    n = curve.order if curve.order is not None else curve.field.order
    scalars = [0, 1, n - 1, 2, 3]
    # Deliberately different bit lengths inside one batch.
    for width in range(1, curve.field.m, max(1, curve.field.m // 8)):
        scalars.append((rng.getrandbits(width) | (1 << (width - 1))) % n or 1)
    while len(scalars) < count:
        scalars.append(rng.randrange(0, n))
    return scalars[:count]


def _apply_map(linear_map, values):
    """``linear_map`` over ``values`` through the executor's planes and ``plane_program``."""
    executor = get_backend("bitslice", GF2_163).ir_executor()
    planes = plane_program(linear_map).apply(executor.pack(values))
    return executor.unpack(planes, len(values))


@requires_numpy
class TestPlaneCapability:
    def test_bitslice_has_an_ir_executor(self):
        backend = get_backend("bitslice", GF2_163)
        executor = backend.ir_executor()
        assert executor is not None
        assert executor.m == 163
        assert backend.ir_executor() is executor  # cached per backend instance

    @pytest.mark.parametrize("name", ["python", "engine"])
    def test_other_backends_interpret_the_same_program(self, name):
        from repro.curves.formulas import ladder_step_program

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

    def test_describe_mentions_the_substrate(self):
        executor = get_backend("bitslice", GF2_163).ir_executor()
        assert "plane executor" in executor.describe()


class TestPlaneVectorRoundtrip:
    @pytest.mark.parametrize("lanes", [1, 63, 64, 65])
    @pytest.mark.parametrize("name", BUILDABLE_BACKENDS)
    def test_pack_unpack_is_identity(self, name, lanes):
        executor = get_backend(name, GF2_163).ir_executor()
        rng = random.Random(lanes)
        values = ([0, 1, (1 << 163) - 1] + [rng.getrandbits(163) for _ in range(lanes)])[:lanes]
        assert executor.unpack(executor.pack(values), lanes) == values

    @requires_numpy
    def test_xor_and_select(self):
        executor = get_backend("bitslice", GF2_163).ir_executor()
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

    @requires_numpy
    def test_multiply_planes_single_and_stacked(self):
        field = GF2_163
        executor = get_backend("bitslice", field).ir_executor()
        single = IRBuilder("probe_mul")
        single.output("ab", single.mul(single.input("a"), single.input("b")))
        stacked = IRBuilder("probe_mul_stacked")
        a, b, c, d = (stacked.input(name) for name in "abcd")
        stacked.output("ab", stacked.mul(a, b))
        stacked.output("cd", stacked.mul(c, d))
        stacked_program = schedule_program(stacked.build(), 163, {})
        assert stacked_program.mul_pass_widths() == [2]  # one fused pass, two products
        rng = random.Random(7)
        values = {name: [rng.getrandbits(163) for _ in range(33)] for name in "abcd"}
        single_program = schedule_program(single.build(), 163, {})
        product = executor.run(single_program, {"a": values["a"], "b": values["b"]})["ab"]
        assert product == [field.multiply(x, y) for x, y in zip(values["a"], values["b"])]
        outputs = executor.run(stacked_program, values)
        assert outputs["ab"] == product
        assert outputs["cd"] == [field.multiply(x, y) for x, y in zip(values["c"], values["d"])]

    @requires_numpy
    def test_mismatched_batches_are_rejected(self):
        executor = get_backend("bitslice", GF2_163).ir_executor()
        builder = IRBuilder("probe_select")
        a, b = builder.input("a"), builder.input("b")
        builder.output("y", builder.select(builder.mask_input("bit"), a, builder.xor(a, b)))
        program = schedule_program(builder.build(), 163, {})
        rng = random.Random(12)
        narrow = [rng.getrandbits(163) for _ in range(10)]   # 1 lane word
        wide = [rng.getrandbits(163) for _ in range(70)]     # 2 lane words
        with pytest.raises(ValueError, match="input 'b' has 70 lanes, expected 10"):
            executor.run(program, {"a": narrow, "b": wide}, {"bit": [1] * 10})
        with pytest.raises(ValueError, match="mask 'bit' has 10 lanes, expected 70"):
            executor.run(program, {"a": wide, "b": wide}, {"bit": [1] * 10})
        with pytest.raises(KeyError, match="needs input 'b'"):
            executor.run(program, {"a": wide}, {"bit": [1] * 70})
        with pytest.raises(KeyError, match="needs mask 'bit'"):
            executor.run(program, {"a": wide, "b": wide})


@requires_numpy
class TestPlaneProgram:
    def test_square_program_matches_scalar_map(self):
        field = GF2_163
        rng = random.Random(8)
        values = [0, 1, (1 << 163) - 1] + [rng.getrandbits(163) for _ in range(100)]
        assert _apply_map(field.square_map, values) == [field.square(value) for value in values]

    def test_constant_multiplier_program(self):
        field = GF2_163
        rng = random.Random(9)
        constant = rng.getrandbits(163)
        mul_c = field.constant_multiplier(constant)
        values = [rng.getrandbits(163) for _ in range(65)]
        assert _apply_map(mul_c, values) == [field.multiply(constant, value) for value in values]

    def test_zero_and_identity_maps(self):
        import numpy as np

        identity = PlaneProgram([1 << i for i in range(8)])
        zero = PlaneProgram([0] * 8)
        data = np.arange(8, dtype=np.uint64).reshape(8, 1)
        assert identity.apply(data).tolist() == data.tolist()
        assert zero.apply(data).tolist() == [[0]] * 8
        assert identity.xor_count == 0  # pure copies need no gates

    def test_rejects_wrong_shapes(self):
        import numpy as np

        program = PlaneProgram([1, 2, 3])
        with pytest.raises(ValueError, match="input planes"):
            program.apply(np.zeros((4, 1), dtype=np.uint64))
        with pytest.raises(ValueError, match="output space"):
            PlaneProgram([1, 2, 9], out_bits=3)

    def test_programs_are_memoized(self):
        program = plane_program(GF2_163.square_map)
        assert plane_program(GF2_163.square_map) is program
        assert "XOR" in program.describe()

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 163) - 1), min_size=1, max_size=96))
    @settings(max_examples=25, deadline=None)
    def test_plane_squaring_equals_field_square_lane_by_lane(self, values):
        squared = _apply_map(GF2_163.square_map, values)
        assert squared == [GF2_163.square(value) for value in values]


@requires_numpy
class TestNetlistMemoization:
    def test_lowering_is_shared_across_equal_fields(self):
        from repro.multipliers.cache import cached_multiplier

        modulus = GF2_163.modulus
        multiplier = cached_multiplier("thiswork", modulus, verify=False)
        first = bitsliced_netlist(multiplier.netlist, multiplier.m, modulus=modulus)
        second = bitsliced_netlist(multiplier.netlist, multiplier.m, modulus=modulus)
        assert first is second
        # Backend instances for equal fields reuse the same lowering.
        backend = get_backend("bitslice", GF2mField(modulus, check_irreducible=False))
        assert backend.sliced is first

    def test_no_modulus_means_no_cache_entry(self):
        from repro.multipliers.cache import cached_multiplier

        multiplier = cached_multiplier("thiswork", GF2_163.modulus, verify=False)
        first = bitsliced_netlist(multiplier.netlist, multiplier.m)
        second = bitsliced_netlist(multiplier.netlist, multiplier.m)
        assert first is not second

    def test_chunk_size_is_part_of_the_key(self):
        from repro.multipliers.cache import cached_multiplier

        modulus = GF2_163.modulus
        multiplier = cached_multiplier("thiswork", modulus, verify=False)
        default = bitsliced_netlist(multiplier.netlist, multiplier.m, modulus=modulus)
        narrow = bitsliced_netlist(multiplier.netlist, multiplier.m, chunk_size=64, modulus=modulus)
        assert default is not narrow and narrow.chunk_size == 64


@requires_numpy
class TestPlaneLadderParity:
    """Compiled ladder == per-step interpreter == affine reference on the parity grid."""

    @pytest.mark.parametrize("name", PARITY_CURVES)
    def test_plane_ladder_matches_scalar_reference(
        self, name, compiled_backends, reference_multiply
    ):
        curve = curve_by_name(name)
        rng = random.Random(2018)
        scalars = _mixed_scalars(curve, 16, rng)
        generator = curve.generator
        points = [generator] * len(scalars)
        reference = [reference_multiply(generator, scalar) for scalar in scalars]
        assert curve.multiply_batch(points, scalars, backend="python") == reference
        for backend in compiled_backends(curve.field):
            assert curve.multiply_batch(points, scalars, backend=backend) == reference

    @pytest.mark.parametrize("name", ["T-13", "K-163"])
    def test_plane_and_step_paths_are_byte_identical(self, name):
        # The compiled plane path against the other per-step substrate.
        curve = curve_by_name(name)
        rng = random.Random(99)
        scalars = _mixed_scalars(curve, 12, rng)
        points = [curve.generator] * len(scalars)
        plane = curve.multiply_batch(points, scalars, backend="bitslice")
        steps = curve.multiply_batch(points, scalars, backend="engine")
        assert plane == steps

    def test_plane_ladder_chunks_large_batches(self, compiled_backends):
        curve = curve_by_name("T-13")
        rng = random.Random(3)
        scalars = _mixed_scalars(curve, 37, rng)  # forces 5 plane chunks
        points = [curve.generator] * len(scalars)
        reference = [curve.multiply_reference(curve.generator, scalar) for scalar in scalars]
        assert curve.multiply_batch(points, scalars, backend="python") == reference
        for backend in compiled_backends(curve.field, chunk_size=8):
            assert curve.multiply_batch(points, scalars, backend=backend) == reference

    def test_distinct_base_points_per_lane(self):
        curve = curve_by_name("T-13")
        rng = random.Random(11)
        backend = get_backend("bitslice", curve.field)
        points = [curve.random_point(rng) for _ in range(9)]
        scalars = _mixed_scalars(curve, 9, rng)
        plane = curve.multiply_batch(points, scalars, backend=backend)
        assert plane == [curve.multiply(p, k) for p, k in zip(points, scalars)]

    def test_protocols_route_through_the_plane_ladder(self):
        curve = curve_by_name("K-163")
        pairs = keygen_batch(curve, 6, seed=4, backend="bitslice")
        reference = keygen_batch(curve, 6, seed=4, batched=False)
        assert [p.public for p in pairs] == [p.public for p in reference]
        shared = ecdh_batch(
            curve,
            [p.private for p in pairs],
            [p.public for p in reversed(pairs)],
            backend="bitslice",
        )
        assert shared == [
            curve.multiply(q.public, p.private) for p, q in zip(pairs, reversed(pairs))
        ]
