"""Pluggable execution backends for GF(2^m) batch arithmetic.

One abstraction (:class:`FieldBackend`) behind which every way of
physically evaluating field arithmetic lives, so the layers above — the
field, the curve ladders, the protocol batch APIs, the service and the
CLI — select a substrate by name instead of hard-coding a call path:

* ``python`` (:class:`PythonIntBackend`) — the scalar big-integer
  reference: carry-less multiply + reduce per pair.  No one-time costs;
  wins for tiny batches and is the arbiter every other backend must match
  byte for byte.
* ``engine`` (:class:`EngineBackend`) — the compiled netlist engine of
  :mod:`repro.engine`: one straight-line Python function evaluating the
  paper's multiplier circuit on big-integer bit planes.  The default only
  where the ``native`` extension cannot be built (no C toolchain), and the
  test reference that runs the paper's circuit under every batched
  formula, each fused product pass one
  :meth:`~repro.engine.engine.Engine.multiply_batch` call.
* ``native`` (:class:`NativeBackend`) — the compiled word-level tier
  (:mod:`repro.backends.native`): a C kernel doing 64-bit carry-less
  multiplication (PCLMULQDQ when the CPU has it) plus sparse tail
  reduction over contiguous ``uint64`` word arrays, built through cffi at
  install or first-import time.  Its :class:`NativeIRExecutor` lowers
  scheduled :class:`FieldIR` programs to a flat C instruction stream and
  runs a chunk's whole ladder, comb or τ loop in one C call.  The
  per-field default whenever the extension is importable; degrades to a
  clear :class:`ImportError` (and the registry falls back to ``engine``)
  when no C compiler is available.

Every backend's :meth:`FieldBackend.ir_executor` returns an
:class:`IRExecutor` — ``python`` and ``engine`` the
:class:`InterpretedExecutor`, which runs the same programs through
:func:`execute_program` — so every batched formula takes one path on
every substrate.

Selection: explicit ``backend=`` arguments (a name or an instance)
anywhere batch APIs are exposed, or the ``--backend`` CLI flag;
otherwise :func:`default_backend_name` resolves per field.  Parity of all
backends against the scalar reference is asserted uniformly by
:func:`assert_backend_parity`.

>>> from repro.backends import get_backend
>>> from repro.galois import GF2mField, type_ii_pentanomial
>>> field = GF2mField(type_ii_pentanomial(8, 2))
>>> get_backend("python", field).multiply(0x57, 0x83) == field.multiply(0x57, 0x83)
True
"""

from .._lazy import lazy_attributes
from .base import FieldBackend, default_method_for
from .native import (
    CompiledNativeIR,
    NativeBackend,
    NativeIRExecutor,
    native_available,
)
from .ir import (
    FieldIR,
    FieldProgram,
    InterpretedExecutor,
    IRBuilder,
    IRExecutor,
    cached_program,
    execute_program,
    schedule_program,
)
from .python_int import PythonIntBackend
from .registry import (
    assert_backend_parity,
    available_backends,
    default_backend_name,
    get_backend,
    resolve_backend,
)

__all__ = [
    "FieldBackend",
    "default_method_for",
    "EngineBackend",
    "CompiledNativeIR",
    "NativeBackend",
    "NativeIRExecutor",
    "native_available",
    "FieldIR",
    "FieldProgram",
    "InterpretedExecutor",
    "IRBuilder",
    "IRExecutor",
    "cached_program",
    "execute_program",
    "schedule_program",
    "PythonIntBackend",
    "assert_backend_parity",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "resolve_backend",
]

# The engine backend loads on first access (the registry's factory imports
# it the same way), so importing the package does not import the circuit
# generators and netlist tools behind it.
_LAZY = {"EngineBackend": "engine_backend"}

__getattr__, __dir__ = lazy_attributes(globals(), _LAZY, __all__)
