"""Binary extension field GF(2^m) arithmetic in polynomial (canonical) basis.

This is the functional reference model against which every generated
multiplier circuit is verified.  Elements of GF(2^m) are represented in the
canonical basis ``{1, x, ..., x^(m-1)}`` and stored as integers whose bit
``i`` is the coordinate ``a_i``.

General multiplication stays deliberately straightforward (carry-less
multiply then reduce); its job is correctness — batch operand streams are
delegated to a pluggable execution *backend* (:mod:`repro.backends`: the
scalar reference, the compiled circuit engine or the native C kernel;
see :meth:`GF2mField.multiply_batch` and its per-call ``backend``
argument).  The GF(2)-**linear** operations that dominate elliptic-curve
point arithmetic do get native fast paths, because no batching can hide
their latency inside a scalar-multiplication ladder:

* :meth:`GF2mField.square` applies a precomputed sparse linear map (squaring
  permutes basis coordinates and reduces, it never needs a full product);
* :meth:`GF2mField.inverse` walks the Itoh-Tsujii addition chain — ``m - 1``
  fast squarings plus ``O(log m)`` multiplications — with Fermat's
  ``a^(2^m - 2)`` power kept as the independent cross-check reference;
* :meth:`GF2mField.constant_multiplier` compiles multiplication by a fixed
  element into the same kind of table-driven linear map;
* :meth:`GF2mField.inverse_batch` amortizes one inversion over a whole
  operand stream with Montgomery's simultaneous-inversion trick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from .gf2poly import (
    clmul,
    degree,
    is_irreducible,
    poly_mod,
    poly_powmod,
    poly_to_string,
)
from .pentanomials import type_ii_parameters

__all__ = ["GF2mField", "FieldElement", "GF2LinearMap"]


class GF2LinearMap:
    """A GF(2)-linear map on field elements, compiled to per-byte tables.

    The map is defined by the images ``masks[i]`` of the basis vectors
    ``y^i``; applying it to an element XORs the images of its set bits.
    Bits are consumed eight at a time through 256-entry lookup tables, so an
    application costs ``ceil(m / 8)`` table lookups and XORs — for the
    NIST-size fields that is 20-70 word operations instead of a full
    carry-less product and reduction.  The tables are built on the first
    call: the compiled executors re-lower a map from its :attr:`masks`
    (:meth:`byte_tables` streams the same tables without keeping them),
    so a map only they run never holds ``ceil(m / 8) × 256`` Python ints.

    The defining images stay available as :attr:`masks` so other execution
    substrates can re-lower the same map.

    :attr:`power` records the maps the field builds in closed form: when it
    is not ``None`` the map is ``v ↦ c · v^(2^power)`` with ``c =
    masks[0]`` — a constant times a power of Frobenius.  Squaring is power
    1, a constant multiplier power 0, and :meth:`compose` keeps the form,
    so the native backend can run such a map as ``power`` word squarings
    and one product instead of a table walk.
    """

    __slots__ = ("_tables", "input_bits", "masks", "power")

    def __init__(self, masks: Sequence[int], *, power: Optional[int] = None) -> None:
        self.masks = tuple(masks)
        self.input_bits = len(masks)
        self.power = power
        self._tables: Optional[List[List[int]]] = None

    def byte_tables(self) -> Iterator[List[int]]:
        """The ``ceil(m / 8)`` per-byte lookup tables, built afresh, lowest byte first."""
        masks = self.masks
        for start in range(0, len(masks), 8):
            table = [0] * 256
            for bit, mask in enumerate(masks[start:start + 8]):
                step = 1 << bit
                for base in range(0, 256, step << 1):
                    for offset in range(step):
                        table[base + step + offset] = table[base + offset] ^ mask
            yield table

    def __call__(self, value: int) -> int:
        if value < 0 or value >> self.input_bits:
            raise ValueError(
                f"0x{value:x} is outside the map's {self.input_bits}-bit input space"
            )
        tables = self._tables
        if tables is None:
            tables = self._tables = list(self.byte_tables())
        result = 0
        index = 0
        while value:
            result ^= tables[index][value & 0xFF]
            value >>= 8
            index += 1
        return result

    def compose(self, inner: "GF2LinearMap") -> "GF2LinearMap":
        """The map ``self ∘ inner`` as a single table-compiled map.

        Linear maps over GF(2) compose exactly: the image of basis vector
        ``i`` under the composition is ``self(inner.masks[i])``.  The IR
        fusion pass (:mod:`repro.backends.ir`) uses this to collapse
        ``square ∘ square`` or ``mul_b ∘ square ∘ square`` chains into one
        map, halving the table applications.
        """
        if inner.masks and max(inner.masks).bit_length() > self.input_bits:
            raise ValueError(
                f"cannot compose: inner map produces {max(inner.masks).bit_length()}-bit "
                f"values but the outer map reads {self.input_bits} bits"
            )
        power = None
        if self.power is not None and inner.power is not None:
            # c1·(c2·v^(2^k2))^(2^k1) = self(c2) · v^(2^(k1+k2)), and v^(2^m) = v.
            power = (self.power + inner.power) % max(self.input_bits, 1)
        return GF2LinearMap([self(mask) for mask in inner.masks], power=power)


class GF2mField:
    """The binary extension field GF(2^m) defined by an irreducible polynomial.

    Parameters
    ----------
    modulus:
        The defining polynomial ``f(y)`` encoded as an integer (bit ``i`` is
        the coefficient of ``y^i``).  Its degree determines ``m``.
    check_irreducible:
        When true (default) the constructor verifies irreducibility with
        Ben-Or's test and raises ``ValueError`` otherwise.  Reduction-based
        multiplication is well defined for any modulus, so callers that only
        need the ring structure (e.g. experimental pentanomials) may disable
        the check.

    Examples
    --------
    >>> field = GF2mField(0b100011101)      # y^8+y^4+y^3+y^2+1, the paper's GF(2^8)
    >>> field.m
    8
    >>> (field(0x57) * field(0x83)).value == field.multiply(0x57, 0x83)
    True
    """

    def __init__(self, modulus: int, check_irreducible: bool = True) -> None:
        m = degree(modulus)
        if m < 1:
            raise ValueError("the field modulus must have degree >= 1")
        if check_irreducible and not is_irreducible(modulus):
            raise ValueError(
                f"{poly_to_string(modulus)} is not irreducible over GF(2); "
                "pass check_irreducible=False to build the quotient ring anyway"
            )
        self._modulus = modulus
        self._m = m
        self._irreducible = is_irreducible(modulus) if not check_irreducible else True
        self._square_map: Optional[GF2LinearMap] = None
        self._backend = None  # resolved lazily (avoids import cost / circuit builds)

    # ------------------------------------------------------------------ meta
    @property
    def modulus(self) -> int:
        """The defining polynomial ``f(y)`` as an integer."""
        return self._modulus

    @property
    def m(self) -> int:
        """The extension degree ``m``."""
        return self._m

    @property
    def order(self) -> int:
        """The number of field elements, ``2^m``."""
        return 1 << self._m

    @property
    def is_field(self) -> bool:
        """True when the modulus is irreducible (so inverses exist)."""
        return self._irreducible

    def modulus_string(self) -> str:
        """The defining polynomial rendered as text."""
        return poly_to_string(self._modulus)

    def type_ii_parameters(self) -> Optional[tuple]:
        """``(m, n)`` when the modulus is a type II pentanomial, else ``None``."""
        return type_ii_parameters(self._modulus)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GF2mField(m={self._m}, f={self.modulus_string()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF2mField) and other._modulus == self._modulus

    def __getstate__(self) -> dict:
        # The resolved backend is a process-local cache (the native one
        # holds its loaded C module); a copy resolves its own on first use.
        state = self.__dict__.copy()
        state["_backend"] = None
        return state

    def __hash__(self) -> int:
        return hash(("GF2mField", self._modulus))

    # -------------------------------------------------------------- backends
    @property
    def backend(self):
        """The field's default :class:`~repro.backends.base.FieldBackend`.

        Resolved lazily, on first use, to the registry's per-field default
        (:func:`~repro.backends.registry.default_backend_name`); every batch
        operation without an explicit ``backend=`` argument runs here.
        """
        if self._backend is None:
            from ..backends.registry import get_backend

            self._backend = get_backend(None, self)
        return self._backend

    def resolve_backend(self, backend=None):
        """Resolve a per-call backend spec (name, instance or ``None``).

        ``None`` returns the field's default :attr:`backend`.
        """
        if backend is None:
            return self.backend
        from ..backends.registry import resolve_backend

        return resolve_backend(self, backend)

    # ------------------------------------------------------------- arithmetic
    def _check(self, value: int) -> int:
        if not 0 <= value < self.order:
            raise ValueError(f"0x{value:x} is not a valid GF(2^{self._m}) element")
        return value

    def _check_batch(self, values: Sequence[int]) -> None:
        """Range-check a whole operand stream in O(1) Python-level work.

        One ``min``/``max`` pass (C speed) replaces the per-element
        ``_check`` loop that used to dominate small-field batch calls; the
        slow per-element walk runs only to name the offender once a batch
        is known to be bad.
        """
        if not values:
            return
        if min(values) < 0 or max(values).bit_length() > self._m:
            for value in values:
                self._check(value)
            raise AssertionError("unreachable: a bad batch must contain a bad element")

    def add(self, a: int, b: int) -> int:
        """Field addition (bitwise XOR of coordinates)."""
        return self._check(a) ^ self._check(b)

    def multiply(self, a: int, b: int) -> int:
        """Field multiplication: carry-less product reduced modulo ``f``."""
        return poly_mod(clmul(self._check(a), self._check(b)), self._modulus)

    def multiply_batch(
        self,
        a_values: List[int],
        b_values: List[int],
        backend=None,
    ) -> List[int]:
        """Elementwise products of two operand streams, at batch speed.

        Heavy traffic should not pay the per-call reduce of :meth:`multiply`:
        the whole batch is delegated to an execution backend
        (:mod:`repro.backends`) — by default the ``native`` C word-level
        kernel (the compiled circuit ``engine`` where no C toolchain
        exists), which multiplies all pairs in one call; the circuit
        backends instead bit-pack the streams and evaluate a generated
        multiplier netlist on all pairs at once.

        ``backend`` names the substrate (or passes an instance; a circuit
        backend built with ``get_backend("engine", field, method=...)``
        picks its construction, by default the paper's ``thiswork``
        multiplier for type II pentanomial moduli, generic ``schoolbook``
        otherwise).  Backends and their compiled circuits are cached, so
        only the first call pays one-time costs.  The scalar
        :meth:`multiply` remains the independent reference implementation
        every backend is verified against.
        """
        if len(a_values) != len(b_values):
            raise ValueError(
                f"operand streams differ in length: {len(a_values)} vs {len(b_values)}"
            )
        self._check_batch(a_values)
        self._check_batch(b_values)
        return self.resolve_backend(backend).multiply_batch(a_values, b_values)

    def square_batch(self, values: Sequence[int], backend=None) -> List[int]:
        """Elementwise squares of an operand stream (backend-delegated)."""
        self._check_batch(values)
        return self.resolve_backend(backend).square_batch(values)

    # --------------------------------------------------- linear-map fast paths
    def _reduce_partial(self, value: int) -> int:
        """Reduce a value a few bits wider than ``m`` (used by mask builders)."""
        m = self._m
        modulus = self._modulus
        while True:
            excess = value.bit_length() - 1 - m
            if excess < 0:
                return value
            value ^= modulus << excess

    def _basis_images(self, seed: int, shift: int) -> List[int]:
        """Images ``seed * y^(shift*i) mod f`` of the basis vectors ``y^i``."""
        masks = []
        current = seed
        for _ in range(self._m):
            masks.append(current)
            current = self._reduce_partial(current << shift)
        return masks

    def linear_map(self, masks: Sequence[int]) -> GF2LinearMap:
        """Compile the GF(2)-linear map sending ``y^i`` to ``masks[i]``."""
        if len(masks) != self._m:
            raise ValueError(f"expected {self._m} basis images, got {len(masks)}")
        return GF2LinearMap([self._check(mask) for mask in masks])

    def constant_multiplier(self, c: int) -> Callable[[int], int]:
        """A fast callable computing ``c * v`` for the fixed element ``c``.

        Multiplication by a constant is GF(2)-linear, so it compiles to the
        same per-byte tables as :meth:`square`.  Worth it whenever the same
        constant multiplies many operands (the base-point ``x`` and the
        curve ``b`` inside a Montgomery ladder, for instance); for one-off
        products plain :meth:`multiply` is cheaper than building the map.
        """
        return GF2LinearMap(self._basis_images(self._check(c), 1), power=0)

    @property
    def square_map(self) -> GF2LinearMap:
        """The squaring map ``y^i -> y^(2i) mod f`` as a :class:`GF2LinearMap`.

        Built lazily and cached per field; :meth:`square` applies it one
        element at a time, while the native backend re-lowers the map as
        a word squaring (:attr:`~GF2LinearMap.power`).
        """
        square_map = self._square_map
        if square_map is None:
            square_map = GF2LinearMap(self._basis_images(1, 2), power=1)
            self._square_map = square_map
        return square_map

    def square(self, a: int) -> int:
        """Field squaring via a precomputed sparse linear map.

        Squaring is linear over GF(2): ``(sum a_i y^i)^2 = sum a_i y^(2i)``,
        so the map ``y^i -> y^(2i) mod f`` is fixed per field and is
        compiled to byte tables on first use.  Costs ``ceil(m/8)`` lookups
        instead of the carry-less product + reduction a generic
        :meth:`multiply` pays; the agreement with ``multiply(a, a)`` is
        pinned down by the property tests.
        """
        return self.square_map(self._check(a))

    def sqrt(self, a: int) -> int:
        """The unique square root ``a^(2^(m-1))`` (Frobenius is bijective)."""
        self._check(a)
        for _ in range(self._m - 1):
            a = self.square(a)
        return a

    def half_trace(self, a: int) -> int:
        """Half-trace ``H(a) = sum a^(4^i)``, defined for odd ``m``.

        For odd extension degrees ``z = H(c)`` solves ``z^2 + z = c``
        whenever ``Tr(c) = 0`` — the workhorse for finding points on binary
        elliptic curves (:mod:`repro.curves`).
        """
        if self._m % 2 == 0:
            raise ValueError(f"the half-trace needs an odd extension degree, got m={self._m}")
        self._check(a)
        result = a
        for _ in range((self._m - 1) // 2):
            result = self.square(self.square(result)) ^ a
        return result

    def power(self, a: int, exponent: int) -> int:
        """Raise ``a`` to any integer power (negative powers invert first)."""
        self._check(a)
        if exponent < 0:
            # Inversion raises ZeroDivisionError for 0 and ValueError when the
            # modulus is reducible, exactly as a direct inverse() call would.
            a = self.inverse(a)
            exponent = -exponent
        if a == 0:
            return 1 if exponent == 0 else 0
        return poly_powmod(a, exponent, self._modulus)

    def inverse(self, a: int, method: str = "itoh-tsujii") -> int:
        """Multiplicative inverse ``a^(2^m - 2)``.

        ``method="itoh-tsujii"`` (default) walks the Itoh-Tsujii addition
        chain: ``m - 1`` fast squarings and ``O(log m)`` multiplications.
        ``method="fermat"`` is the seed implementation — a full
        square-and-multiply power with ``~2m`` generic products — kept as
        the independent cross-check reference.
        """
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if not self._irreducible:
            raise ValueError("inverses are only defined when the modulus is irreducible")
        if method == "fermat":
            return poly_powmod(a, self.order - 2, self._modulus)
        if method != "itoh-tsujii":
            raise ValueError(f"unknown inversion method {method!r}: use 'itoh-tsujii' or 'fermat'")
        return self._itoh_tsujii(a)

    def _itoh_tsujii(self, a: int) -> int:
        """Itoh-Tsujii inversion: ``(a^(2^(m-1) - 1))^2`` by addition chain.

        Maintains ``beta = a^(2^k - 1)`` while building ``k`` up to ``m - 1``
        along the binary expansion of ``m - 1``: doubling ``k`` costs ``k``
        squarings and one multiplication, absorbing a set bit costs one more
        squaring and multiplication.
        """
        beta = a
        k = 1
        square = self.square
        multiply = self.multiply
        for bit in bin(self._m - 1)[3:]:
            shifted = beta
            for _ in range(k):
                shifted = square(shifted)
            beta = multiply(shifted, beta)
            k <<= 1
            if bit == "1":
                beta = multiply(square(beta), a)
                k += 1
        return square(beta)

    def inverse_batch(self, values: Sequence[int], backend=None) -> List[int]:
        """Inverses of a whole operand stream for the cost of one inversion.

        Montgomery's simultaneous-inversion trick (delegated to the
        backend): form the prefix products, invert only the total, then
        walk back unwinding one factor at a time — ``3(len - 1)``
        multiplications plus a single :meth:`inverse`.  Raises
        ``ZeroDivisionError`` *before any product is formed* if any input
        is zero, identifying the first offending index.
        """
        self._check_batch(values)
        if not self._irreducible and values:
            raise ValueError("inverses are only defined when the modulus is irreducible")
        return self.resolve_backend(backend).inverse_batch(values)

    def trace(self, a: int) -> int:
        """Absolute trace Tr(a) = a + a^2 + a^4 + ... + a^(2^(m-1)) in GF(2)."""
        self._check(a)
        total = 0
        current = a
        for _ in range(self._m):
            total ^= current
            current = self.square(current)
        # The trace of any element lies in GF(2) = {0, 1}.
        return total & 1

    # ------------------------------------------------------------- conversion
    def coordinates(self, a: int) -> List[int]:
        """Return the canonical-basis coordinates ``[a_0, ..., a_(m-1)]``."""
        self._check(a)
        return [(a >> i) & 1 for i in range(self._m)]

    def from_coordinates(self, coordinates: List[int]) -> int:
        """Build an element from canonical-basis coordinates (low bit first)."""
        if len(coordinates) > self._m:
            raise ValueError(f"expected at most {self._m} coordinates, got {len(coordinates)}")
        value = 0
        for i, coordinate in enumerate(coordinates):
            if coordinate & 1:
                value |= 1 << i
        return value

    def elements(self) -> Iterator["FieldElement"]:
        """Iterate over every field element (use only for small ``m``)."""
        for value in range(self.order):
            yield FieldElement(self, value)

    def random_element(self, rng) -> "FieldElement":
        """Draw a uniformly random element using ``rng`` (a ``random.Random``)."""
        return FieldElement(self, rng.getrandbits(self._m) % self.order)

    def __call__(self, value: int) -> "FieldElement":
        """Wrap an integer as a :class:`FieldElement` of this field."""
        return FieldElement(self, self._check(value))


@dataclass(frozen=True)
class FieldElement:
    """An element of a :class:`GF2mField` supporting operator syntax.

    The element is immutable; arithmetic returns new elements.  Mixing
    elements of different fields raises ``ValueError``.
    """

    field: GF2mField
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.field.order:
            raise ValueError(f"0x{self.value:x} is not a valid element of {self.field!r}")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("cannot mix elements of different fields")
            return other
        if isinstance(other, int):
            return FieldElement(self.field, other)
        raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")

    def __add__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return FieldElement(self.field, self.field.add(self.value, other.value))

    __radd__ = __add__
    __sub__ = __add__  # Characteristic 2: subtraction equals addition.
    __rsub__ = __add__

    def __mul__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return FieldElement(self.field, self.field.multiply(self.value, other.value))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "FieldElement":
        return FieldElement(self.field, self.field.power(self.value, exponent))

    def __truediv__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return self * other.inverse()

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse of this element."""
        return FieldElement(self.field, self.field.inverse(self.value))

    def square(self) -> "FieldElement":
        """The square of this element."""
        return FieldElement(self.field, self.field.square(self.value))

    def trace(self) -> int:
        """Absolute trace (an element of GF(2), returned as 0 or 1)."""
        return self.field.trace(self.value)

    def coordinates(self) -> List[int]:
        """Canonical-basis coordinates ``[a_0, ..., a_(m-1)]``."""
        return self.field.coordinates(self.value)

    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FieldElement(GF(2^{self.field.m}), 0x{self.value:x})"
