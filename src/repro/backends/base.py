"""The :class:`FieldBackend` contract every execution substrate implements.

A *backend* is one way of physically evaluating GF(2^m) arithmetic on
operand streams.  The repository grew three of them organically — scalar
big-int reference code in :mod:`repro.galois.field`, the compiled netlist
engine of :mod:`repro.engine`, and ad-hoc batched paths inside the curve
ladders — each wired up differently.  This module gives them one interface
so that every layer above (the field, the curve ladders, the protocol
batch APIs, the CLI) routes through a backend object and new substrates
(SIMD bitslicing, GPU kernels, C extensions) drop in without touching the
callers.

Contract
--------
* A backend is bound to one :class:`~repro.galois.field.GF2mField` and
  implements :meth:`multiply`, :meth:`multiply_batch`, :meth:`square_batch`
  and :meth:`inverse_batch`.
* Inputs are assumed to be *validated* field elements — the field layer
  performs the (hoisted, O(1)-per-batch) range checks before delegating,
  and the curve ladders feed backends internally-produced values only.
* Every backend must be **byte-identical** to the scalar reference
  (``GF2mField.multiply`` / ``square`` / ``inverse``) on all inputs; the
  parity harness (:func:`repro.backends.registry.assert_backend_parity`
  and the backend-parameterized
  :func:`repro.netlist.verify.verify_by_simulation`) asserts this
  uniformly for every registered implementation.
* :meth:`FieldBackend.ir_executor` returns the backend's
  :class:`~repro.backends.ir.IRExecutor`: the C lowering on ``native``,
  the interpreting executor everywhere else.  Every batched formula —
  curve ladders, combs, their affine finish — runs through it, so callers never
  branch on the backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from typing import TYPE_CHECKING, List, Sequence

from ..galois.pentanomials import type_ii_parameters
from ..telemetry import metrics as _metrics
from .ir import InterpretedExecutor, IRExecutor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..galois.field import GF2mField

__all__ = ["FieldBackend", "default_method_for"]


def default_method_for(modulus: int) -> str:
    """The default multiplier construction for a circuit-backed backend.

    The paper's ``thiswork`` multiplier exists exactly for type II
    pentanomials; every other modulus falls back to the generic
    ``schoolbook`` construction.  This is the single home of the selection
    logic that used to be duplicated in ``GF2mField.multiply_batch``.
    """
    return "thiswork" if type_ii_parameters(modulus) is not None else "schoolbook"


class FieldBackend(ABC):
    """One execution substrate for the batch arithmetic of a single field.

    Subclasses set :attr:`name` and implement the abstract methods.  Instances are cheap handles — expensive state
    (generated circuits, compiled evaluators, lane buffers) is built
    lazily and shared through the module-level caches, and the registry
    (:mod:`repro.backends.registry`) caches backend instances per
    ``(name, modulus, options)`` so repeated resolution costs nothing.
    """

    #: Short registry identifier (``"python"``, ``"engine"``, ``"bitslice"``,
    #: ``"native"``).
    name: str = "abstract"

    def __init__(self, field: "GF2mField") -> None:
        self.field = field

    # ------------------------------------------------------------- interface
    def _count_batch(self, op: str, elements: int) -> None:
        """Telemetry hook: one counter bump per batched call, none when off.

        Cost discipline: the disabled path is a single class-attribute
        check — no dict lookups ride along with a field operation.
        """
        registry = _metrics.REGISTRY
        if registry.enabled:
            registry.record_batch(self.name, op, elements)

    @abstractmethod
    def multiply(self, a: int, b: int) -> int:
        """The product of one validated operand pair."""

    @abstractmethod
    def multiply_batch(self, a_values: Sequence[int], b_values: Sequence[int]) -> List[int]:
        """Elementwise products of two equal-length validated operand streams."""

    def square_batch(self, values: Sequence[int]) -> List[int]:
        """Elementwise squares of a validated operand stream.

        Squaring is GF(2)-linear, so the field's precomputed per-byte
        table map (:meth:`~repro.galois.field.GF2mField.square`) beats any
        general product circuit; backends only override this when their
        substrate evaluates the linear map faster still.
        """
        square = self.field.square
        return [square(value) for value in values]

    def inverse_batch(self, values: Sequence[int]) -> List[int]:
        """Inverses of a whole validated operand stream.

        Montgomery's simultaneous-inversion trick: the prefix products are
        inherently sequential, so the scalar reference multiply is the
        right substrate regardless of how the backend batches independent
        products.  Zeros are rejected *before* any product is formed, so a
        failing batch never computes with corrupted prefixes.
        """
        values = list(values)
        if 0 in values:
            index = values.index(0)
            raise ZeroDivisionError(f"0 has no multiplicative inverse (batch index {index})")
        if not values:
            return []
        self._count_batch("inverse_batch", len(values))
        field = self.field
        multiply = field.multiply
        prefix = [values[0]]
        for value in values[1:]:
            prefix.append(multiply(prefix[-1], value))
        running = field.inverse(prefix[-1])
        inverses = [0] * len(values)
        for index in range(len(values) - 1, 0, -1):
            inverses[index] = multiply(running, prefix[index - 1])
            running = multiply(running, values[index])
        inverses[0] = running
        return inverses

    def ir_executor(self) -> IRExecutor:
        """The backend's FieldIR executor, built once per backend instance.

        Consumers trace their formula as a
        :class:`~repro.backends.ir.FieldIR`, compile it once on this
        executor, and run it over int lists or a step loop — one contract
        on every backend.  ``native`` keeps whole formulas resident in C
        word buffers (:class:`~repro.backends.native.NativeIRExecutor`);
        the scalar, big-integer engine and bitslice backends interpret the
        same program through :func:`repro.backends.ir.execute_program`
        (:class:`~repro.backends.ir.InterpretedExecutor`), one
        ``multiply_batch`` call per fused product pass.
        """
        return self._executor

    @cached_property
    def _executor(self) -> IRExecutor:
        """The executor :meth:`ir_executor` returns; ``native`` overrides it."""
        return InterpretedExecutor(self)

    # ----------------------------------------------------------- introspection
    def describe(self) -> str:
        """One-line summary used by the CLI and benchmarks."""
        return f"{self.name} backend for GF(2^{self.field.m})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(GF(2^{self.field.m}))"
