"""The C kernel under AddressSanitizer and UndefinedBehaviorSanitizer.

The kernel source and its cffi declarations are built a second time with
``-O1 -g -fsanitize=address,undefined`` into a temporary directory, then
a checking subprocess (libasan preloaded, since the Python binary itself
is not instrumented) swaps that build in for the native backend and runs
every entry point against the pure-Python reference: the mul, square and
inverse batches on m = 8, 64 and every catalogue degree, the program
runner on every opcode, and the step loop on each route (binary ladder,
comb, τ) on T-13, B-163, K-233 and K-283.  Any sanitizer report fails
the test.  Skipped where gcc, cffi or libasan is missing.
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
    from repro.curves.scalarmul import multiply_comb_batch
    from repro.galois import GF2mField
    from repro.galois.pentanomials import smallest_type_ii_pentanomial

    path, name = sys.argv[1], sys.argv[2]
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    native._EXT = module

    rng = random.Random(2018)
    opcodes = set()

    def check_batches(field):
        backend = native.NativeBackend(field)
        a = [0, 1, field.order - 1] + [rng.randrange(field.order) for _ in range(17)]
        b = [field.order - 1, 0, field.order - 1] + [rng.randrange(field.order) for _ in range(17)]
        assert backend.multiply_batch(a, b) == [field.multiply(x, y) for x, y in zip(a, b)]
        assert backend.square_batch(a) == [field.square(x) for x in a]
        nonzero = [value or 1 for value in a]
        assert backend.inverse_batch(nonzero) == [field.inverse(value) for value in nonzero]

    def check_program(program, field):
        # The program runner against the interpreter on the Python backend.
        executor = native.NativeBackend(field).ir_executor()
        compiled = executor.compile(program)
        opcodes.update(compiled.instruction_counts())
        lanes = 13
        inputs = {n: [rng.randrange(field.order) for _ in range(lanes)] for n in compiled.input_names}
        masks = {n: [rng.getrandbits(1) for _ in range(lanes)] for n in compiled.mask_names}
        got = compiled.run({n: executor.pack(v) for n, v in inputs.items()}, masks)
        want = execute_program(program, get_backend("python", field), inputs, masks)
        for key in compiled.output_names:
            assert executor.unpack(got[key]) == want[key], (program.ir.name, key)

    for m in (8, 64):
        check_batches(GF2mField(smallest_type_ii_pentanomial(m)))
    for curve_name in ("K-409", "K-571"):
        check_batches(curve_by_name(curve_name).field)

    # The step loop on every route, at one, three, four and five words per
    # element.  Five lanes in chunks of four: every route crosses a chunk
    # boundary.  Binary scalars stay short (the step code is the same at
    # every bit); τ scalars span the group; the comb uses a 4-tooth table
    # so that building it stays cheap in a cold cache.
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
        binary = [rng.getrandbits(80) | 1 for _ in range(5)]
        if curve.order is None:
            bases = [curve.random_point(rng) for _ in range(5)]
            got = curve.multiply_batch(bases, binary, backend=backend)
            assert got == curve.multiply_batch(bases, binary, backend=python), curve_name
            continue
        bases = [curve.generator] * 5
        for options in ({"scalar_rep": "binary"}, {"scalar_rep": "tau"}):
            scalars = binary if options["scalar_rep"] == "binary" else [
                rng.randrange(1, curve.order) for _ in range(5)
            ]
            got = curve.multiply_batch(bases, scalars, backend=backend, fixed_base=False, **options)
            want = curve.multiply_batch(bases, scalars, backend=python, fixed_base=False, **options)
            assert got == want, (curve_name, options)
        scalars = [rng.randrange(1, curve.order) for _ in range(5)]
        got = multiply_comb_batch(curve, scalars, backend=backend, teeth=4)
        assert got == multiply_comb_batch(curve, scalars, backend=python, teeth=4), curve_name
    assert opcodes == {"mul", "xor", "square", "linear", "select"}, opcodes
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


def test_kernel_is_sanitizer_clean(tmp_path):
    cffi = pytest.importorskip("cffi")
    libasan = _libasan()
    if libasan is None:
        pytest.skip("gcc with libasan is needed for the sanitizer build")
    from repro.backends.native import _build

    name = "_gf2m_native_sanitized"
    ffi = cffi.FFI()
    ffi.cdef(_build._CDEF)
    ffi.set_source(
        name,
        _build._kernel_source(),
        extra_compile_args=SANITIZE_FLAGS,
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
        [sys.executable, "-c", CHECKS, built, name],
        capture_output=True, text=True, env=env, timeout=600,
    )
    report = result.stdout + result.stderr
    assert result.returncode == 0, report[-4000:]
    assert "sanitized kernel ok" in result.stdout
    for marker in ("AddressSanitizer", "runtime error:", "LeakSanitizer"):
        assert marker not in report, report[-4000:]
