"""The native C word-level backend: parity, ladders, chunking, degradation.

Acceptance contract of the PR 7 tentpole: the C kernel (carry-less
multiply + sparse pentanomial reduction over uint64 words) must be
**byte-identical** to the scalar big-integer reference everywhere it is
reachable — the :class:`FieldBackend` batch surface, the compiled-FieldIR
ladder, chunked batches of every awkward size — and must degrade to a
clear :class:`ImportError` (with the registry default falling back to the
engine) on machines without a C toolchain.  Every test here skips rather
than fails when the extension cannot be built.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.backends.registry as registry_module
from repro.backends import (
    assert_backend_parity,
    default_backend_name,
    get_backend,
    native_available,
)
from repro.backends.native import NativeBackend
from repro.curves import curve_by_name
from repro.galois.field import GF2mField
from repro.galois.pentanomials import smallest_type_ii_pentanomial, type_ii_pentanomial

requires_native = pytest.mark.skipif(
    not native_available(), reason="native extension not buildable here"
)

GF2_163 = GF2mField(smallest_type_ii_pentanomial(163), check_irreducible=False)
GF2_233 = GF2mField(smallest_type_ii_pentanomial(233), check_irreducible=False)


@requires_native
class TestNativeParity:
    @pytest.mark.parametrize("field", [GF2_163, GF2_233], ids=["gf163", "gf233"])
    def test_full_backend_parity(self, field):
        """The uniform harness: multiply/square/inverse + compiled-IR probe."""
        assert assert_backend_parity(field, "native") > 0

    def test_word_aligned_edge_fields(self):
        """m = 64 exercises the hb == 0 path of the reduction (no partial word)."""
        for m in (8, 16, 64):
            modulus = smallest_type_ii_pentanomial(m)
            field = GF2mField(modulus, check_irreducible=False)
            assert assert_backend_parity(field, "native") > 0

    def test_describe_names_the_substrate(self):
        backend = get_backend("native", GF2_163)
        description = backend.describe()
        assert description.startswith("native[C] GF(2^163)")
        assert "reduction" in description

    def test_rejects_circuit_method(self):
        with pytest.raises(ValueError, match="evaluates no circuit"):
            NativeBackend(GF2_163, method="thiswork")


@requires_native
class TestNativeLadder:
    @pytest.mark.parametrize("curve_name", ["K-163", "K-233"])
    def test_batched_ladder_matches_scalar_reference(self, curve_name):
        """Batch-32 scalar multiplication, byte-identical to the scalar ladder."""
        curve = curve_by_name(curve_name)
        backend = get_backend("native", curve.field)
        rng = random.Random(2018)
        n = curve.order if curve.order is not None else curve.field.order
        scalars = [0, 1, 2, n - 1]
        while len(scalars) < 32:
            scalars.append(rng.randrange(0, n))
        points = [curve.generator] * len(scalars)
        batched = curve.multiply_batch(points, scalars, backend=backend)
        for index, (point, scalar) in enumerate(zip(points, scalars)):
            assert batched[index] == curve.multiply(point, scalar), (
                f"{curve_name} lane {index}: native ladder != scalar reference"
            )


@requires_native
class TestNativeChunking:
    def test_ladder_chunk_boundaries(self):
        """Batches straddling the executor chunk size split without drift."""
        curve = curve_by_name("K-163")
        backend = NativeBackend(curve.field, chunk_size=4)
        rng = random.Random(7)
        n = curve.order
        for batch in (3, 4, 5, 9):
            scalars = [rng.randrange(1, n) for _ in range(batch)]
            points = [curve.generator] * batch
            batched = curve.multiply_batch(points, scalars, backend=backend)
            assert batched == [curve.multiply(p, k) for p, k in zip(points, scalars)]

    def test_multiply_batch_larger_than_chunk(self):
        """multiply_batch ignores chunking but must stay exact far past it."""
        backend = NativeBackend(GF2_163, chunk_size=16)
        rng = random.Random(11)
        a_values = [rng.getrandbits(163) for _ in range(67)]
        b_values = [rng.getrandbits(163) for _ in range(67)]
        assert backend.multiply_batch(a_values, b_values) == [
            GF2_163.multiply(a, b) for a, b in zip(a_values, b_values)
        ]


@requires_native
class TestNativeProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=(1 << 163) - 1),
        b=st.integers(min_value=0, max_value=(1 << 163) - 1),
    )
    def test_multiply_matches_python_reference(self, a, b):
        backend = get_backend("native", GF2_163)
        assert backend.multiply(a, b) == GF2_163.multiply(a, b)


class TestNativeDegradation:
    def test_clear_import_error_without_a_compiler(self, monkeypatch):
        """No toolchain: NativeBackend raises a clear ImportError and the
        registry default falls back to the engine — never a silent downgrade."""
        import repro.backends.native as native_module

        monkeypatch.setattr(native_module, "_EXT", None)
        monkeypatch.setattr(
            native_module,
            "_EXT_ERROR",
            ImportError("the native backend is unavailable: no C compiler"),
        )
        monkeypatch.setattr(registry_module, "native_available", lambda: False)
        with pytest.raises(ImportError, match="native backend is unavailable"):
            NativeBackend(GF2_163)
        # Fresh options dodge the registry's (name, modulus, options) instance
        # cache, which other tests may already have populated.
        with pytest.raises(ImportError, match="native backend is unavailable"):
            get_backend("native", GF2_163, chunk_size=123)
        assert default_backend_name(GF2_163) == "engine"


class TestNativeBuild:
    """The import-time build: one compiler call, cached under its command."""

    @pytest.fixture()
    def build(self):
        pytest.importorskip("cffi")
        from repro.backends.native import _build

        return _build

    def test_the_cache_key_covers_the_compile_command(self, build, monkeypatch):
        """A flag-only or compiler-only change builds a new artifact."""
        monkeypatch.delenv("CC", raising=False)
        plain = build._artifact_path()
        monkeypatch.setattr(build, "_OPT_FLAGS", [*build._OPT_FLAGS, "-funroll-loops"])
        unrolled = build._artifact_path()
        monkeypatch.setenv("CC", "another-cc")
        assert len({plain, unrolled, build._artifact_path()}) == 3

    def test_the_cache_key_covers_every_source(self, build, monkeypatch, tmp_path):
        """An edit to the header or either translation unit builds a new artifact."""
        for name in build.SOURCES:
            (tmp_path / name).write_text((build.SOURCE_DIR / name).read_text())
        monkeypatch.setattr(build, "SOURCE_DIR", tmp_path)
        keys = {build._source_key()}
        for name in build.SOURCES:
            with open(tmp_path / name, "a") as source:
                source.write("\n/* edited */\n")
            keys.add(build._source_key())
        assert len(keys) == 1 + len(build.SOURCES)

    def test_a_missing_compiler_raises_the_install_hint(self, build, monkeypatch, tmp_path):
        # A loaded build registers itself in sys.modules, where the lookup for
        # an installed extension would find it: start as a fresh process does.
        monkeypatch.delitem(sys.modules, build._MODULE_NAME, raising=False)
        monkeypatch.setenv("GF2M_REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        with pytest.raises(ImportError, match=r"install a C compiler and cffi \(pip install"):
            build.extension_module()
        assert not list((tmp_path / "native").glob("build-*"))

    @requires_native
    def test_first_use_builds_silently_without_setuptools(self, tmp_path):
        script = (
            "import sys\n"
            "from repro.backends import native_available\n"
            "assert native_available()\n"
            "loaded = sorted(name for name in sys.modules\n"
            "                if name.split('.')[0] in ('setuptools', 'distutils', 'pkg_resources'))\n"
            "sys.exit(f'imported {loaded}' if loaded else 0)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(
            os.environ,
            GF2M_REPRO_CACHE_DIR=str(tmp_path),
            PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout == ""
        built = sorted(path.name for path in (tmp_path / "native").iterdir())
        assert len(built) == 1 and built[0].startswith("_gf2m_native."), built


# ------------------------------------------------------------------ kernel paths
# Every catalogue modulus (T-13 and the five NIST degrees) plus the small
# type II fields; m = 64 is the one the two-fold reduction does not cover.
# m = 137 (n = 26) and m = 170 (n = 5) are 3-word fields whose fold word
# offset n >> 6 is 0, where B-163's (n = 66) is 1.
CATALOGUE_FIELDS = {
    name: curve_by_name(curve).field
    for name, curve in (
        ("T-13", "T-13"), ("163", "B-163"), ("233", "K-233"),
        ("283", "K-283"), ("409", "K-409"), ("571", "K-571"),
    )
}
CATALOGUE_FIELDS.update(
    {str(m): GF2mField(smallest_type_ii_pentanomial(m)) for m in (8, 16, 64)}
)
CATALOGUE_FIELDS.update(
    {str(m): GF2mField(type_ii_pentanomial(m, n)) for m, n in ((137, 26), (170, 5))}
)


@requires_native
class TestNativeKernelPaths:
    @pytest.mark.parametrize("name", ["T-13", "283", "409", "571"])
    def test_backend_parity_on_the_other_catalogue_moduli(self, name):
        """TestNativeParity covers m = 8, 16, 64, 163 and 233."""
        field = CATALOGUE_FIELDS[name]
        assert assert_backend_parity(field, NativeBackend(field)) > 0

    @pytest.mark.parametrize("name", sorted(CATALOGUE_FIELDS))
    def test_only_m64_keeps_the_generic_reduction(self, name):
        field = CATALOGUE_FIELDS[name]
        description = NativeBackend(field).describe()
        assert ("type II fold" in description) == (field.m != 64), description
        if "portable clmul rows" in description:
            return  # no PCLMULQDQ: every shape runs the portable rows
        # On PCLMULQDQ, the 3-word folds (B-163, m = 137, 170) and the NIST
        # degrees' wider shapes (K-233 to K-571) get the register-resident
        # rows; the 1-word folds (T-13, m = 8, 16) the generic fold rows, and
        # m = 64 the generic reduction on those rows.
        resident = field.m in (137, 163, 170, 233, 283, 409, 571)
        assert ("PCLMULQDQ register-resident fold rows" in description) == resident, description
        assert ("PCLMULQDQ generic fold rows" in description) == (not resident), description

    @pytest.mark.parametrize("name", sorted(CATALOGUE_FIELDS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_products_and_squares_match_the_reference(self, name, data):
        field = CATALOGUE_FIELDS[name]
        backend = get_backend("native", field)
        values = st.integers(min_value=0, max_value=field.order - 1)
        a = data.draw(st.lists(values, min_size=1, max_size=9))
        b = data.draw(st.lists(values, min_size=len(a), max_size=len(a)))
        # Every pair of 0, 1, y^(m-1) and all-ones: the top bits reach both folds.
        edges = [0, 1, 1 << (field.m - 1), field.order - 1]
        a = [x for x in edges for _ in edges] + a
        b = edges * len(edges) + b
        assert backend.multiply_batch(a, b) == [field.multiply(x, y) for x, y in zip(a, b)]
        assert backend.square_batch(a) == [field.square(x) for x in a]

    def test_register_resident_rows_match_the_generic_rows_on_every_3_word_shape(self):
        """Every type II shape the fold takes at 129 <= m <= 191 (n >> 6 is 0
        or 1, and n = 64 has no bit shift), irreducible or not: the rows the
        kernel picks equal the generic reduction rows, which a field record
        without a fold (fold_n = -1) runs; a sample equals the reference."""
        rng = random.Random(191)
        shapes = 0
        for m in range(129, 192):
            for n in range(2, m // 2):
                if 2 * n + 2 >= m:
                    continue
                _assert_rows_match_the_generic_rows(m, n, rng, reference=n % 16 == 0)
                shapes += 1
        assert shapes > 4800

    @pytest.mark.parametrize("nw, nwn", [(4, 0), (5, 0), (7, 2), (9, 1)])
    def test_wide_register_resident_rows_match_the_generic_rows(self, nw, nwn):
        """The wider shapes (K-233, K-283, K-409 and K-571's fold word
        offsets): every m of the width, n at the offset's first and last
        value plus a seeded sample, against the generic reduction rows and,
        on a sample, the reference field."""
        rng = random.Random(64 * nw + nwn)
        shapes = 0
        for m in range(64 * (nw - 1) + 1, 64 * nw):
            first, last = max(2, 64 * nwn), min(64 * nwn + 63, (m - 3) // 2)
            assert first < last, (m, nwn)
            for n in sorted({first, last, *rng.sample(range(first + 1, last), 2)}):
                rows = _assert_rows_match_the_generic_rows(m, n, rng, reference=n == last)
                assert rows in ("PCLMULQDQ register-resident fold", "portable clmul"), (m, n, rows)
                shapes += 1
        assert shapes == 63 * 4

    @pytest.mark.parametrize("lanes", [1, 2, 15, 16, 257])
    @pytest.mark.parametrize("name", ["T-13", "163", "283", "64"])
    def test_inverse_batch_is_value_by_value_exact(self, name, lanes):
        field = CATALOGUE_FIELDS[name]
        rng = random.Random(lanes)
        values = [rng.randrange(1, field.order) for _ in range(lanes)]
        inverses = NativeBackend(field).inverse_batch(values)
        assert inverses == [field.inverse(value) for value in values]

    def test_inverse_batch_rejects_zero_before_any_c_call(self, monkeypatch):
        backend = NativeBackend(GF2_163)

        class _NoKernel:
            @property
            def lib(self):
                raise AssertionError("the kernel was called")

        monkeypatch.setattr(backend, "_ext", _NoKernel())
        with pytest.raises(ZeroDivisionError, match="batch index 2"):
            backend.inverse_batch([5, 7, 0, 9, 0])

    @pytest.mark.parametrize("curve_name", ["B-163", "K-163"])
    def test_ladder_step_lowers_to_squares_without_tables(self, curve_name):
        from repro.curves.formulas import ladder_step_program

        curve = curve_by_name(curve_name)
        program = ladder_step_program(curve)
        compiled = NativeBackend(curve.field).ir_executor().compile(program)
        counts = compiled.instruction_counts()
        assert counts.get("square", 0) >= 4 and "linear" not in counts, counts
        self._assert_matches_interpreter(curve, program, compiled)

    def test_long_frobenius_chain_keeps_its_table(self):
        from repro.backends.native import square_chain_limit
        from repro.curves.formulas import frobenius_add_program, frobenius_program

        curve = curve_by_name("K-163")
        backend = NativeBackend(curve.field)
        limit = square_chain_limit(backend._nw)
        executor = backend.ir_executor()
        short = executor.compile(frobenius_program(curve, limit))
        assert short.instruction_counts() == {"square": 3 * limit}
        for program in (
            frobenius_program(curve, limit + 1),
            frobenius_add_program(curve, limit + 5),
        ):
            compiled = executor.compile(program)
            assert compiled.instruction_counts()["linear"] == 3
            self._assert_matches_interpreter(curve, program, compiled)

    def test_registers_are_reused_once_their_value_is_dead(self):
        """K-283's table of small multiples computes 161 values in few registers."""
        from repro.curves.formulas import small_multiples_program

        curve = curve_by_name("K-283")
        program = small_multiples_program(curve, 8)
        compiled = NativeBackend(curve.field).ir_executor().compile(program)
        assert program.op_count == 161
        assert compiled._nreg <= 40, compiled._nreg
        code = compiled._code_list
        for index in range(0, len(code), 5):
            op, dst, x = code[index:index + 3]
            if op == 3:  # LINEAR reads its source after writing: never in place
                assert dst != x, code[index:index + 5]
        self._assert_matches_interpreter(curve, program, compiled)

    def test_no_step_program_output_shares_a_state_input_register(self):
        from repro.backends.native import square_chain_limit
        from repro.curves.formulas import (
            double_add_program,
            frobenius_add_program,
            frobenius_program,
            ladder_step_program,
        )

        curve = curve_by_name("K-283")
        executor = NativeBackend(curve.field).ir_executor()
        limit = square_chain_limit(executor.nw)
        programs = [ladder_step_program(curve), double_add_program(curve)] + [
            build(curve, squarings)
            for build in (frobenius_program, frobenius_add_program)
            for squarings in (1, limit, limit + 1)
        ]
        for program in programs:
            compiled = executor.compile(program)
            nstate = len(compiled.output_names)
            inputs = compiled._input_regs
            assert len(set(inputs)) == len(inputs), program.ir.name
            assert not set(compiled._output_regs) & set(inputs[:nstate]), program.ir.name

    def test_one_compiled_program_runs_on_several_threads_at_once(self):
        """Register files are per run: concurrent runs match serial ones."""
        from repro.curves.formulas import small_multiples_program

        curve = curve_by_name("K-283")
        field = curve.field
        executor = NativeBackend(curve.field).ir_executor()
        compiled = executor.compile(small_multiples_program(curve, 8))
        rng = random.Random(283)
        jobs = [
            [executor.pack([rng.randrange(field.order) for _ in range(64)])
             for _ in compiled.input_names]
            for _ in range(8)
        ]
        serial = [compiled.run_arrays(job, ()) for job in jobs]
        threads = 4  # more than the cores CI hosts have
        barrier = threading.Barrier(threads)
        results = [[] for _ in range(threads)]

        def worker(slot):
            barrier.wait(timeout=60)
            for _ in range(5):
                results[slot].append([compiled.run_arrays(job, ()) for job in jobs])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            running = [threading.Thread(target=worker, args=(slot,)) for slot in range(threads)]
            for thread in running:
                thread.start()
            for thread in running:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in running)
        for runs in results:
            assert len(runs) == 5 and all(run == serial for run in runs)

    @staticmethod
    def _assert_matches_interpreter(curve, program, compiled):
        from repro.backends.ir import execute_program

        field = curve.field
        rng = random.Random(99)
        lanes = 13
        inputs = {
            name: [rng.randrange(field.order) for _ in range(lanes)]
            for name in compiled.input_names
        }
        masks = {name: [rng.getrandbits(1) for _ in range(lanes)] for name in compiled.mask_names}
        outputs = compiled.executor.run(program, inputs, masks)
        expected = execute_program(program, get_backend("python", field), inputs, masks)
        for name in compiled.output_names:
            assert outputs[name] == expected[name], name


def _assert_rows_match_the_generic_rows(m, n, rng, reference):
    """The rows the kernel picks for (m, n) against the generic reduction,
    which a field record without a fold (fold_n = -1) runs, on edge and
    random operands; with ``reference`` also against the field.  Returns
    the name of the rows it picked."""
    field = GF2mField(type_ii_pentanomial(m, n), check_irreducible=False)
    backend = NativeBackend(field)
    assert backend._fold_n == n, (m, n)
    ffi, lib = backend._ffi, backend._ext.lib
    nw = backend._nw
    generic = ffi.new("gf2m_field *", {
        "m": m, "nw": nw, "fold_n": -1,
        "nterms": backend._nterms, "terms": backend._terms,
    })
    edges = [0, 1, 1 << (m - 1), field.order - 1]
    a = [x for x in edges for _ in edges] + [rng.getrandbits(m) for _ in range(8)]
    b = edges * len(edges) + [rng.getrandbits(m) for _ in range(8)]
    x = ffi.from_buffer("uint64_t[]", backend._pack(a))
    y = ffi.from_buffer("uint64_t[]", backend._pack(b))
    products, squares = [], []
    for record in (backend._field_c, generic):
        product = ffi.new("uint64_t[]", nw * len(a))
        square = ffi.new("uint64_t[]", nw * len(a))
        lib.gf2m_mul_batch(record, x, y, product, len(a))
        lib.gf2m_square_batch(record, x, square, len(a))
        products.append(ffi.buffer(product)[:])
        squares.append(ffi.buffer(square)[:])
    assert products[0] == products[1] and squares[0] == squares[1], (m, n)
    if reference:
        assert backend._unpack(products[0], len(a)) == [
            field.multiply(p, q) for p, q in zip(a, b)
        ], (m, n)
        assert backend._unpack(squares[0], len(a)) == [field.square(p) for p in a], (m, n)
    return ffi.string(lib.gf2m_rows(backend._field_c)).decode()


def _mixed_scalars(lanes, seed):
    rng = random.Random(seed)
    widths = [1, 63, 64, 65, 128, 129]
    return [
        rng.getrandbits(widths[lane % len(widths)]) | (1 << (widths[lane % len(widths)] - 1))
        for lane in range(lanes)
    ]


@requires_native
class TestNativeStepLoop:
    """One C call per chunk: every route against the scalar ladder."""

    ROUTES = {
        "binary": {"scalar_rep": "binary", "fixed_base": False},
        "tau": {"scalar_rep": "tau", "fixed_base": False},
        "comb": {"fixed_base": True},
    }

    @pytest.mark.parametrize("lanes", [1, 63, 64, 65])
    def test_every_route_on_mixed_bit_lengths(self, lanes):
        """Scalars of 1..129 bits in one batch, whole and in 4-lane chunks."""
        from repro.curves.scalarmul import tau_window_digits

        curve = curve_by_name("K-163")
        generator = curve.generator
        scalars = _mixed_scalars(lanes, lanes)
        assert lanes == 1 or any(
            digit < 0 for scalar in scalars for digit in tau_window_digits(curve, scalar)
        )
        expected = [curve.multiply(generator, k) for k in scalars]
        for backend in (NativeBackend(curve.field), NativeBackend(curve.field, chunk_size=4)):
            for route, options in self.ROUTES.items():
                batched = curve.multiply_batch(
                    [generator] * lanes, scalars, backend=backend, **options
                )
                assert batched == expected, (route, backend.chunk_size)

    def test_binary_ladder_on_a_non_koblitz_curve(self):
        curve = curve_by_name("B-163")
        base = curve.random_point(random.Random(163))
        scalars = _mixed_scalars(13, 7)
        backend = NativeBackend(curve.field, chunk_size=4)
        batched = curve.multiply_batch([base] * len(scalars), scalars, backend=backend)
        assert batched == [curve.multiply(base, k) for k in scalars]

    STEP_SPANS = {"binary": "ladder.steps", "tau": "ladder.tau.steps", "comb": "comb.steps"}

    def _route_batch(self, route):
        """A call running a 9-lane K-163 batch of ``route`` in 4-lane chunks."""
        curve = curve_by_name("K-163")
        backend = NativeBackend(curve.field, chunk_size=4)
        scalars = [k % curve.order or 1 for k in _mixed_scalars(9, 5)]
        if route == "comb":
            bases, options = [curve.generator] * 9, {"fixed_base": True}
        else:
            rng = random.Random(3)
            bases = [curve.random_point(rng) for _ in scalars]
            options = {"scalar_rep": route, "fixed_base": False}
        return lambda: curve.multiply_batch(bases, scalars, backend=backend, **options)

    @staticmethod
    def _traced(call):
        from repro.telemetry import trace

        previous = trace.TRACER
        tracer = trace.enable()
        try:
            return call(), tracer.events()
        finally:
            trace.set_tracer(previous)

    @pytest.mark.parametrize("route", ["binary", "tau", "comb"])
    def test_traced_and_untraced_runs_are_byte_identical(self, route):
        call = self._route_batch(route)
        untraced = call()
        traced, events = self._traced(call)
        names = {event["name"] for event in events}
        assert self.STEP_SPANS[route] in names, names
        assert not any(name.endswith(".step") for name in names), names
        assert any(name.startswith("ir.pass.") for name in names), names
        assert traced == untraced
        spans = [event for event in events if event["name"] == self.STEP_SPANS[route]]
        assert sorted(event["args"]["lanes"] for event in spans) == [1, 4, 4]
        assert all(event["args"]["steps"] > 0 for event in spans)

    @pytest.mark.parametrize("route", ["binary", "tau", "comb"])
    def test_a_traced_batch_runs_the_c_step_loop_once_per_chunk(self, route, monkeypatch):
        from repro.backends.native import _StepLoop

        runs = []
        original = _StepLoop.run

        def counting(loop, input_arrays, count):
            runs.append(count)
            return original(loop, input_arrays, count)

        monkeypatch.setattr(_StepLoop, "run", counting)
        self._traced(self._route_batch(route))
        assert sorted(runs) == [1, 4, 4]


@requires_native
class TestConversionBudget:
    """A clean batch converts only its bases in and its results out.

    Every field value that crosses between Python ints and the kernel's
    word buffers goes through ``NativeBackend._pack`` or ``_unpack``; a
    256-lane call may move at most x and y in and x and y out per lane.
    Scalars, digit rows and comb tables are not field values and pack
    elsewhere.
    """

    LANES = 256

    def _values_per_lane(self, monkeypatch, call):
        moved = []
        for name in ("_pack", "_unpack"):
            original = getattr(NativeBackend, name)

            def counting(self, values, *rest, original=original, name=name):
                result = original(self, values, *rest)
                moved.append(len(result) if name == "_unpack" else len(values))
                return result

            monkeypatch.setattr(NativeBackend, name, counting)
        call()
        return sum(moved) / self.LANES

    @pytest.mark.parametrize("name, scalar_rep", [("B-163", "binary"), ("K-163", "binary"), ("K-163", "tau")])
    def test_ecdh_batch(self, monkeypatch, name, scalar_rep):
        from repro.curves import ecdh_batch, keygen_batch

        curve = curve_by_name(name)
        privates = [pair.private for pair in keygen_batch(curve, self.LANES, seed=1)]
        peers = [pair.public for pair in keygen_batch(curve, self.LANES, seed=2)]
        ecdh_batch(curve, privates[:2], peers[:2], backend="native", scalar_rep=scalar_rep)  # compile

        def call():
            ecdh_batch(curve, privates, peers, backend="native", scalar_rep=scalar_rep)

        assert self._values_per_lane(monkeypatch, call) <= 4

    @pytest.mark.parametrize("op", ["keygen", "sign"])
    def test_generator_multiplies(self, monkeypatch, op):
        from repro.curves import keygen_batch, sign_batch

        curve = curve_by_name("K-163")
        privates = [pair.private for pair in keygen_batch(curve, self.LANES, seed=3, backend="native")]

        def call():
            if op == "keygen":
                keygen_batch(curve, self.LANES, seed=4, backend="native")
            else:
                sign_batch(curve, privates, list(range(self.LANES)), backend="native")

        assert self._values_per_lane(monkeypatch, call) <= 4
