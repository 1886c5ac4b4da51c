"""The scalar big-integer reference backend.

This is the arithmetic every other backend is checked against, extracted
from the original ``GF2mField`` scalar code path: a carry-less product
(:func:`repro.galois.gf2poly.clmul`) followed by reduction modulo the
defining polynomial (:func:`repro.galois.gf2poly.poly_mod`), one pair at a
time.  No batching, no compilation, no one-time costs — which also makes
it the fastest choice for tiny batches and the only choice for fields too
small to carry a bit-parallel multiplier circuit (m < 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from ..galois.gf2poly import clmul, poly_mod
from .base import FieldBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..galois.field import GF2mField

__all__ = ["PythonIntBackend"]


class PythonIntBackend(FieldBackend):
    """Scalar carry-less multiply + reduce, the byte-exact reference.

    ``method`` is accepted for interface uniformity with the circuit-backed
    backends (the registry passes resolved options to every factory) but is
    meaningless here — the scalar path has no multiplier construction to
    select — so anything but ``None`` is rejected loudly rather than
    silently ignored.
    """

    name = "python"

    def __init__(self, field: "GF2mField", method: Optional[str] = None) -> None:
        super().__init__(field)
        if method is not None:
            raise ValueError(
                f"the python backend evaluates no circuit, so method={method!r} selects nothing; "
                "pick the 'engine' or 'bitslice' backend to choose a multiplier construction"
            )

    def multiply(self, a: int, b: int) -> int:
        return poly_mod(clmul(a, b), self.field.modulus)

    def multiply_batch(self, a_values: Sequence[int], b_values: Sequence[int]) -> List[int]:
        self._count_batch("multiply_batch", len(a_values))
        modulus = self.field.modulus
        return [poly_mod(clmul(a, b), modulus) for a, b in zip(a_values, b_values)]

    def describe(self) -> str:
        return f"python[scalar] GF(2^{self.field.m}): carry-less multiply + reduce per pair"
