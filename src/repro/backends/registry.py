"""Backend registry: one table of the three factories, per-field defaults.

The default backend of a field, when a caller names none:

1. fields of degree < 2 carry no bit-parallel multiplier circuit, so they
   default to the scalar ``python`` backend;
2. the ``native`` C backend when its cffi extension is importable (or
   buildable — the first probe compiles it into the artifact cache);
3. the compiled ``engine`` backend otherwise (no C compiler, no cffi).

Backend instances are cached per ``(name, modulus, options)`` in a
process-wide LRU, so resolving a backend on a hot path costs a dictionary
hit; the expensive state behind it (generated circuits, compiled
evaluators) is additionally shared through the engine/multiplier caches.
Options such as the engine's circuit construction (``method=``) are given
to :func:`get_backend`; :func:`resolve_backend`, behind every
``backend=`` argument of the batch APIs, takes a name or an instance.

:func:`assert_backend_parity` is the uniform cross-check harness: every
backend must reproduce the scalar reference (``GF2mField.multiply`` /
``square`` / ``inverse``) byte for byte on randomized vectors plus corner
cases.  The CLI (``repro bench --backend X --check``), the benchmark suite
and CI all assert parity through this one function.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from ..pipeline.store import LRUCache
from .base import FieldBackend
from .native import NativeBackend, native_available
from .python_int import PythonIntBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..galois.field import GF2mField

__all__ = [
    "available_backends",
    "default_backend_name",
    "get_backend",
    "resolve_backend",
    "assert_backend_parity",
]

_ENGINE = "engine"


def _engine_backend(field: "GF2mField", **options) -> FieldBackend:
    # Imported on first use: a process that only runs native batches never
    # loads the circuit generators behind the engine.
    from .engine_backend import EngineBackend

    return EngineBackend(field, **options)


#: Backend factories (``factory(field, **options)``), keyed by name.
_FACTORIES: Dict[str, Callable[..., FieldBackend]] = {
    PythonIntBackend.name: PythonIntBackend,
    _ENGINE: _engine_backend,
    NativeBackend.name: NativeBackend,
}

#: Resolved backend instances keyed by (name, modulus, sorted options).
_INSTANCES = LRUCache(maxsize=32, name="backends.instances")


def available_backends() -> List[str]:
    """The backend names: ``python``, ``engine``, ``native``."""
    return list(_FACTORIES)


def default_backend_name(field: Optional["GF2mField"] = None) -> str:
    """The backend used when a caller does not choose one explicitly."""
    if field is not None and field.m < 2:
        # Bit-parallel multipliers need degree >= 2; only the scalar path works.
        return PythonIntBackend.name
    if native_available():
        # The C word-level tier wins on every batch size once it exists;
        # environments without a compiler fall through to the engine.
        return NativeBackend.name
    return _ENGINE


def get_backend(name: Optional[str], field: "GF2mField", **options) -> FieldBackend:
    """The cached backend instance for ``(name, field, options)``.

    ``name=None`` resolves through :func:`default_backend_name`.  Instances
    are shared between fields with equal moduli (fields compare equal by
    modulus, so this is observationally safe).
    """
    if name is None:
        name = default_backend_name(field)
    factory = _FACTORIES.get(name)
    if factory is None:
        raise KeyError(f"unknown backend {name!r}; available: {', '.join(_FACTORIES)}")
    key = (name, field.modulus, tuple(sorted(options.items())))
    return _INSTANCES.get_or_create(key, lambda: factory(field, **options))


def resolve_backend(
    field: "GF2mField", backend: Union[FieldBackend, str, None] = None
) -> FieldBackend:
    """Resolve a caller-supplied backend spec into an instance for ``field``.

    ``backend`` may be an instance (must belong to an equal field), a
    backend name, or ``None`` for the default.  A circuit backend's
    construction is chosen where it is built:
    ``get_backend("engine", field, method=...)``.
    """
    if isinstance(backend, FieldBackend):
        if backend.field != field:
            raise ValueError(
                f"backend {backend.name!r} is bound to {backend.field!r}, not {field!r}"
            )
        return backend
    return get_backend(backend, field)


def assert_backend_parity(
    field: "GF2mField",
    backend: Union[FieldBackend, str],
    pairs: int = 256,
    seed: int = 2018,
) -> int:
    """Cross-check a backend against the scalar reference; returns #vectors.

    Randomized operand pairs plus structured corners go through the
    backend's ``multiply_batch``, ``square_batch`` and (on irreducible
    moduli) ``inverse_batch``; every result must equal the reference
    scalar arithmetic byte for byte.  Raises ``AssertionError`` naming the
    first mismatching vector.
    """
    resolved = resolve_backend(field, backend)
    m = field.m
    rng = random.Random(seed)
    top = (1 << m) - 1
    a_values = [0, 1, top, 1 << (m - 1)]
    b_values = [0, top, top, 1 << (m - 1)]
    for _ in range(pairs):
        a_values.append(rng.getrandbits(m))
        b_values.append(rng.getrandbits(m))
    products = resolved.multiply_batch(a_values, b_values)
    for index, (a, b, product) in enumerate(zip(a_values, b_values, products)):
        expected = field.multiply(a, b)
        if product != expected:
            raise AssertionError(
                f"{resolved.name} backend mismatch on GF(2^{m}) vector {index}: "
                f"0x{a:x} * 0x{b:x} -> 0x{product:x}, reference 0x{expected:x}"
            )
    squares = resolved.square_batch(a_values)
    for index, (a, square) in enumerate(zip(a_values, squares)):
        expected = field.square(a)
        if square != expected:
            raise AssertionError(
                f"{resolved.name} backend square mismatch on GF(2^{m}) vector {index}: "
                f"0x{a:x}^2 -> 0x{square:x}, reference 0x{expected:x}"
            )
    checked = 2 * len(a_values)
    if field.is_field:
        nonzero = [value or 1 for value in a_values]
        inverses = resolved.inverse_batch(nonzero)
        for index, (value, inverse) in enumerate(zip(nonzero, inverses)):
            expected = field.inverse(value)
            if inverse != expected:
                raise AssertionError(
                    f"{resolved.name} backend inverse mismatch on GF(2^{m}) vector {index}: "
                    f"0x{value:x}^-1 -> 0x{inverse:x}, reference 0x{expected:x}"
                )
        checked += len(nonzero)
    checked += _assert_ir_parity(field, resolved, a_values, b_values, rng)
    return checked


def _assert_ir_parity(field, resolved, a_values, b_values, rng) -> int:
    """Cross-check FieldIR execution on this backend against the reference.

    A small mixed formula (mul, chained squarings, xor, select) runs through
    :func:`repro.backends.ir.execute_program` and through the backend's
    :meth:`~repro.backends.base.FieldBackend.ir_executor` — both must match
    the scalar reference byte for byte.  This is the harness arm that keeps
    the formula compiler and every executor honest.
    """
    from .ir import IRBuilder, execute_program, schedule_program

    m = field.m
    builder = IRBuilder("parity_probe")
    a_var, b_var = builder.input("a"), builder.input("b")
    bit = builder.mask_input("bit")
    product = builder.mul(a_var, b_var)
    quartic = builder.square(builder.square(a_var))
    mixed = builder.xor(product, quartic)
    builder.output("r", builder.select(bit, mixed, product))
    program = schedule_program(
        builder.build(), m, {"square": field.square_map},
        key=("parity-probe", field.modulus),
    )
    bits = [rng.getrandbits(1) for _ in a_values]

    def reference(a, b, control):
        product = field.multiply(a, b)
        if not control:
            return product
        return product ^ field.square(field.square(a))

    expected = [reference(a, b, c) for a, b, c in zip(a_values, b_values, bits)]
    inputs, masks = {"a": a_values, "b": b_values}, {"bit": bits}
    executor = resolved.ir_executor()
    for label, got in (
        ("FieldIR interpreter", execute_program(program, resolved, inputs, masks)["r"]),
        (f"FieldIR {executor.kind} executor", executor.run(program, inputs, masks)["r"]),
    ):
        if got != expected:
            index = next(i for i, (out, want) in enumerate(zip(got, expected)) if out != want)
            raise AssertionError(
                f"{resolved.name} backend {label} mismatch on GF(2^{m}) "
                f"vector {index}: got 0x{got[index]:x}, reference 0x{expected[index]:x}"
            )
    return 2 * len(a_values)
