"""The C kernel under AddressSanitizer and UndefinedBehaviorSanitizer.

The kernel source and its cffi declarations are built a second time with
``-O1 -g -fsanitize=address,undefined`` into a temporary directory, then
a checking subprocess (libasan preloaded, since the Python binary itself
is not instrumented) swaps that build in for the native backend and runs
every entry point against the pure-Python reference: the mul, square and
inverse batches (plus the zero-tolerant packed inverse) on m = 8, 64, 137
and every catalogue degree, the program runner on every opcode, the step
loop on each route (binary ladder, comb, τ) on T-13, B-163, K-233 and
K-283, and the τ recoder against the Python recurrence, bounds reports
included.  On x86-64 that build runs the register-resident and the
generic fold rows; a third build with ``-DGF2M_NO_PCLMUL`` runs the
portable rows through the batches and a binary and a τ ladder on T-13,
B-163 and K-283.  Any sanitizer report fails the test.  Skipped where
gcc, cffi or libasan is missing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SANITIZE_FLAGS = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-omit-frame-pointer"]

CHECKS = textwrap.dedent(
    """
    import importlib.machinery, importlib.util, random, sys

    import repro.backends.native as native
    from repro.backends import get_backend
    from repro.backends.ir import execute_program
    from repro.curves import curve_by_name
    from repro.curves.formulas import frobenius_add_program, ladder_step_program
    from repro.curves import scalarmul
    from repro.curves.scalarmul import multiply_comb_batch
    from repro.galois import GF2mField
    from repro.galois.pentanomials import smallest_type_ii_pentanomial, type_ii_pentanomial

    path, name, portable = sys.argv[1], sys.argv[2], sys.argv[3] == "portable"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    native._EXT = module

    rng = random.Random(2018)
    opcodes = set()
    rows = set()

    def check_batches(field):
        backend = native.NativeBackend(field)
        rows.add(backend._ffi.string(module.lib.gf2m_rows(backend._field_c)).decode())
        a = [0, 1, field.order - 1] + [rng.randrange(field.order) for _ in range(17)]
        b = [field.order - 1, 0, field.order - 1] + [rng.randrange(field.order) for _ in range(17)]
        assert backend.multiply_batch(a, b) == [field.multiply(x, y) for x, y in zip(a, b)]
        assert backend.square_batch(a) == [field.square(x) for x in a]
        nonzero = [value or 1 for value in a]
        assert backend.inverse_batch(nonzero) == [field.inverse(value) for value in nonzero]
        # The packed inverse: zero lanes stay zero and are named.
        executor = backend.ir_executor()
        for lanes in (1, 63, 64, 65):
            values = [rng.randrange(1, field.order) for _ in range(lanes)]
            zeros = sorted({0, lanes // 2, lanes - 1})
            for lane in zeros:
                values[lane] = 0
            inverses, reported = executor.inverse_packed(executor.pack(values), lanes)
            assert reported == zeros
            assert executor.unpack(inverses, lanes) == [
                field.inverse(value) if value else 0 for value in values
            ]

    def check_recoder(curve):
        # The C recoder against the Python recurrence directly: the batch
        # comparison below runs the same C recoder on both backends.
        ctx = scalarmul._tau_context(curve)
        m, n = curve.field.m, curve.order
        scalars = [0, 1, 2, n - 1, n, n + 1, 1 << m, 3 * n] + [
            rng.randrange(1 << (2 * m)) for _ in range(6)
        ]
        residues = [scalarmul.reduce_scalar(curve, scalar) for scalar in scalars]
        lanes = len(scalars)
        for width in range(2, 8):
            digits, occupied, span = native.recode_tau(ctx.recoding(width), residues, m + width + 32)
            signed = memoryview(digits).cast("b")
            total = 0
            for lane, scalar in enumerate(scalars):
                events, lane_span = scalarmul._tau_sparse_digits(curve, scalar, width)
                total += lane_span
                assert events == [
                    (position, signed[position * lanes + lane])
                    for position in range(len(occupied))
                    if signed[position * lanes + lane]
                ], (curve.name, width, scalar)
            assert span == total
        # Bounds: too few rows and a width past int8 digits are reported.
        assert native.recode_tau(ctx.recoding(4), residues, 8) is None
        assert native.recode_tau(ctx.recoding(8), residues, m + 64) is None
        # A residue wider than its limbs is reported, not written past.
        ext = native._load_extension()
        ffi = ext.ffi
        digits, occupied = bytearray(m + 40), bytearray(m + 40)
        wide = (1 << 30).to_bytes(4, "little") + bytes(4)  # r0 = 2^30 in one limb
        assert ext.lib.gf2m_tau_recode(
            ffi.new("gf2m_tau_recoding *", ctx.recoding(4)),
            ffi.from_buffer("uint32_t[]", wide), 1, 1,
            ffi.from_buffer("int8_t[]", digits), ffi.from_buffer("uint8_t[]", occupied),
            m + 40,
        ) == -2

    def check_program(program, field):
        # The program runner against the interpreter on the Python backend.
        executor = native.NativeBackend(field).ir_executor()
        compiled = executor.compile(program)
        opcodes.update(compiled.instruction_counts())
        lanes = 13
        inputs = {n: [rng.randrange(field.order) for _ in range(lanes)] for n in compiled.input_names}
        masks = {n: [rng.getrandbits(1) for _ in range(lanes)] for n in compiled.mask_names}
        got = executor.run(program, inputs, masks)
        want = execute_program(program, get_backend("python", field), inputs, masks)
        for key in compiled.output_names:
            assert got[key] == want[key], (program.ir.name, key)

    def check_ladders(curve, backend, python):
        # Binary scalars stay short (the step code is the same at every
        # bit); τ scalars span the group.
        binary = [rng.getrandbits(80) | 1 for _ in range(5)]
        if curve.order is None:
            bases = [curve.random_point(rng) for _ in range(5)]
            got = curve.multiply_batch(bases, binary, backend=backend)
            assert got == curve.multiply_batch(bases, binary, backend=python), curve.name
            return
        bases = [curve.generator] * 5
        for options in ({"scalar_rep": "binary"}, {"scalar_rep": "tau"}):
            scalars = binary if options["scalar_rep"] == "binary" else [
                rng.randrange(1, curve.order) for _ in range(5)
            ]
            got = curve.multiply_batch(bases, scalars, backend=backend, fixed_base=False, **options)
            want = curve.multiply_batch(bases, scalars, backend=python, fixed_base=False, **options)
            assert got == want, (curve.name, options)

    if portable:
        # The rows no x86-64 CPU would otherwise reach, on 1, 3 and 5 words.
        for curve_name in ("T-13", "B-163", "K-283"):
            curve = curve_by_name(curve_name)
            check_batches(curve.field)
            backend = native.NativeBackend(curve.field, chunk_size=4)
            check_ladders(curve, backend, get_backend("python", curve.field))
        assert rows == {"portable clmul"}, rows
        print("sanitized kernel ok")
        sys.exit(0)

    for m in (8, 64):
        check_batches(GF2mField(smallest_type_ii_pentanomial(m)))
    check_batches(GF2mField(type_ii_pentanomial(137, 26)))  # 3 words, n < 64
    for curve_name in ("K-409", "K-571"):
        check_batches(curve_by_name(curve_name).field)

    # The step loop on every route, at one, three, four and five words per
    # element.  Five lanes in chunks of four: every route crosses a chunk
    # boundary.  The comb uses a 4-tooth table so that building it stays
    # cheap in a cold cache.
    for curve_name in ("T-13", "B-163", "K-233", "K-283"):
        curve = curve_by_name(curve_name)
        field = curve.field
        check_batches(field)
        # B-163's ladder step multiplies by the constant b; a τ step past
        # the square-chain limit keeps a per-byte table.
        check_program(ladder_step_program(curve), field)
        if curve.order is not None:
            limit = native.square_chain_limit(native.NativeBackend(field)._nw)
            check_program(frobenius_add_program(curve, limit + 1), field)
        backend = native.NativeBackend(field, chunk_size=4)
        python = get_backend("python", field)
        if curve.order is not None:
            check_recoder(curve)
        check_ladders(curve, backend, python)
        if curve.order is None:
            continue
        scalars = [rng.randrange(1, curve.order) for _ in range(5)]
        got = multiply_comb_batch(curve, scalars, backend=backend, teeth=4)
        assert got == multiply_comb_batch(curve, scalars, backend=python, teeth=4), curve_name
    assert opcodes == {"mul", "xor", "square", "linear", "select"}, opcodes
    # On x86-64 both PCLMULQDQ kinds of rows ran; elsewhere the portable ones.
    assert rows in (
        {"PCLMULQDQ register-resident fold", "PCLMULQDQ generic fold"},
        {"portable clmul"},
    ), rows
    print("sanitized kernel ok")
    """
)


def _libasan():
    gcc = shutil.which("gcc")
    if gcc is None:
        return None
    found = subprocess.run(
        [gcc, "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    return found if found and os.path.isabs(found) and os.path.exists(found) else None


def _sanitized_run(tmp_path, name, defines, rows):
    """Build the kernel sanitized as ``name`` and run CHECKS against it."""
    cffi = pytest.importorskip("cffi")
    libasan = _libasan()
    if libasan is None:
        pytest.skip("gcc with libasan is needed for the sanitizer build")
    from repro.backends.native import _build

    ffi = cffi.FFI()
    ffi.cdef(_build._CDEF)
    ffi.set_source(
        name,
        _build._kernel_source(),
        extra_compile_args=SANITIZE_FLAGS + defines,
        extra_link_args=["-fsanitize=address,undefined"],
    )
    try:
        built = ffi.compile(tmpdir=str(tmp_path), verbose=False)
    except Exception as error:  # pragma: no cover - toolchain specific
        pytest.skip(f"sanitizer build failed here: {error}")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(
        os.environ,
        LD_PRELOAD=libasan,
        ASAN_OPTIONS="detect_leaks=0",
        UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1",
        PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
    )
    result = subprocess.run(
        [sys.executable, "-c", CHECKS, built, name, rows],
        capture_output=True, text=True, env=env, timeout=600,
    )
    report = result.stdout + result.stderr
    assert result.returncode == 0, report[-4000:]
    assert "sanitized kernel ok" in result.stdout
    for marker in ("AddressSanitizer", "runtime error:", "LeakSanitizer"):
        assert marker not in report, report[-4000:]


def test_kernel_is_sanitizer_clean(tmp_path):
    _sanitized_run(tmp_path, "_gf2m_native_sanitized", [], "native")


def test_portable_rows_are_sanitizer_clean(tmp_path):
    """GF2M_NO_PCLMUL leaves only the portable rows in the build."""
    _sanitized_run(tmp_path, "_gf2m_native_portable", ["-DGF2M_NO_PCLMUL"], "portable")
