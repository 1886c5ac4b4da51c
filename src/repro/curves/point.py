"""Group law on binary elliptic curves ``y^2 + xy = x^3 + a x^2 + b``.

A :class:`BinaryCurve` ties a curve equation to a
:class:`~repro.galois.field.GF2mField` (in this project: a field generated
by one of the paper's type II pentanomials) and provides three scalar
multiplication paths:

* :meth:`BinaryCurve.multiply_reference` — affine double-and-add, the
  plain reference implementation everything else is checked against;
* :meth:`BinaryCurve.multiply` — a Montgomery ladder in López-Dahab
  ``(X : Z)`` projective coordinates: six multiplications and a handful of
  fast squarings per step, with a single inversion for the final
  ``y``-recovery (binary scalars only: the τ-adic recoding is a batch
  route);
* :meth:`BinaryCurve.multiply_batch` — the same ladder (or the τ-adic or
  comb route) over many independent ``(point, scalar)`` pairs at once,
  driven by the **formula compiler**: the whole López-Dahab step, the
  conversion of the final registers to projective ``(X : Y : Z)`` and the
  on-curve residual are each traced once as a
  :class:`~repro.backends.ir.FieldIR` (:mod:`repro.curves.formulas`) and
  scheduled once per curve into fused passes.  The batch resolves one
  execution backend (:mod:`repro.backends`) up front and runs every
  formula on its executor
  (:meth:`~repro.backends.base.FieldBackend.ir_executor`): base-point
  coordinates are packed **once** and screened where they lie, every step
  executes as the fused passes (lane-stacked products, one merged linear
  stage, masked selects), one packed batch inversion and one conversion
  (with the result's curve residual) finish every route, and the affine
  results are unpacked **once**.  Packed means C word buffers on
  ``native``; ``python`` and ``engine`` keep int lists and interpret the
  *same* programs
  (:func:`~repro.backends.ir.execute_program`), which derive the gathered
  ``multiply_batch`` calls from the schedule.

All paths return canonical affine points, so their results are comparable
byte for byte; the batch path is asserted identical to the scalar ladder in
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterable, List, Mapping, Optional, Sequence, TYPE_CHECKING

from ..backends.steps import LadderSteps
from ..telemetry import trace as _trace
from .formulas import ladder_projective_program, ladder_step_program, on_curve_residual_program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..galois.field import GF2mField

__all__ = ["BinaryCurve", "LaneError", "Point"]


class LaneError(ValueError):
    """A batch refused some of its lanes.

    ``lanes`` maps each refused lane's index to its reason, in index
    order.  The message names the first lane, so a caller that only
    catches ``ValueError`` reads the reason a one-lane batch would give.
    ``results`` holds every lane's result when the batch refused lanes
    after computing them (the other lanes' entries are final), and is
    ``None`` when it refused them before any work; a caller that wants the
    other lanes then reruns them without the refused ones.
    """

    def __init__(self, lanes: Mapping[int, str], results: Optional[Sequence[object]] = None) -> None:
        self.lanes = dict(sorted(lanes.items()))
        self.results = results
        first, reason = next(iter(self.lanes.items()))
        count = len(self.lanes)
        super().__init__(f"lane {first}: {reason}" + (f"; {count} lanes refused" if count > 1 else ""))

    def __reduce__(self):
        return type(self), (self.lanes, self.results)

    @classmethod
    def check(cls, reasons: Iterable[Optional[str]], results: Optional[Sequence[object]] = None) -> None:
        """Raise for every lane whose reason is not ``None``, carrying ``results``."""
        lanes = {lane: reason for lane, reason in enumerate(reasons) if reason is not None}
        if lanes:
            raise cls(lanes, results)


@dataclass(frozen=True, slots=True)
class Point:
    """An affine point on a :class:`BinaryCurve`, or the point at infinity.

    The identity is represented by ``x is None and y is None`` (build it
    with :meth:`BinaryCurve.infinity`).  Points support operator syntax:
    ``P + Q``, ``-P``, ``P - Q``, and ``k * P`` (via the curve's Montgomery
    ladder).
    """

    curve: "BinaryCurve"
    x: Optional[int]
    y: Optional[int]

    @property
    def is_infinity(self) -> bool:
        """True for the group identity."""
        return self.x is None

    def __add__(self, other: "Point") -> "Point":
        return self.curve.add(self, other)

    def __sub__(self, other: "Point") -> "Point":
        return self.curve.add(self, self.curve.negate(other))

    def __neg__(self) -> "Point":
        return self.curve.negate(self)

    def __rmul__(self, scalar: int) -> "Point":
        return self.curve.multiply(self, scalar)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_infinity:
            return f"Point({self.curve.name or 'curve'}, infinity)"
        return f"Point({self.curve.name or 'curve'}, x=0x{self.x:x}, y=0x{self.y:x})"


class BinaryCurve:
    """A non-supersingular binary elliptic curve ``y^2 + xy = x^3 + ax^2 + b``.

    Parameters
    ----------
    field:
        The underlying :class:`~repro.galois.field.GF2mField` (must be an
        actual field, i.e. an irreducible modulus).
    a, b:
        Curve coefficients as field elements; ``b`` must be non-zero (the
        curve is singular otherwise).
    name:
        Optional catalog name (``"B-163"``), used in messages.
    order, cofactor:
        Order ``n`` of the subgroup generated by :attr:`generator` and the
        cofactor ``h`` (``#E = h * n``) when known.  The catalog fills
        these for the Koblitz curves, whose group orders are independent of
        the field's basis representation.
    """

    def __init__(
        self,
        field: GF2mField,
        a: int,
        b: int,
        *,
        name: Optional[str] = None,
        order: Optional[int] = None,
        cofactor: Optional[int] = None,
    ) -> None:
        if not field.is_field:
            raise ValueError("elliptic curves need a true field (irreducible modulus)")
        self.field = field
        self.a = field._check(a)
        self.b = field._check(b)
        if self.b == 0:
            raise ValueError("b = 0 makes y^2 + xy = x^3 + ax^2 + b singular")
        self.name = name
        self.order = order
        self.cofactor = cofactor
        self._generator: Optional[Point] = None
        # Multiplication by the curve constant b is a fixed linear map; the
        # ladder applies it once per step.
        self._mul_b = field.constant_multiplier(self.b)

    # ----------------------------------------------------------------- basics
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BinaryCurve)
            and other.field == self.field
            and other.a == self.a
            and other.b == self.b
        )

    def __hash__(self) -> int:
        return hash(("BinaryCurve", self.field, self.a, self.b))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f"{self.name!r}, " if self.name else ""
        return f"BinaryCurve({label}GF(2^{self.field.m}), a=0x{self.a:x}, b=0x{self.b:x})"

    def infinity(self) -> Point:
        """The group identity."""
        return Point(self, None, None)

    def point(self, x: int, y: int, check: bool = True) -> Point:
        """Wrap affine coordinates as a :class:`Point`, validating by default."""
        if check and not self.is_on_curve(x, y):
            raise ValueError(
                f"(0x{x:x}, 0x{y:x}) does not satisfy the equation of {self.name or self!r}"
            )
        return Point(self, x, y)

    def is_on_curve(self, x: int, y: int) -> bool:
        """True when ``(x, y)`` satisfies ``y^2 + xy = x^3 + ax^2 + b``."""
        field = self.field
        left = field.square(y) ^ field.multiply(x, y)
        x2 = field.square(x)
        right = field.multiply(x2, x) ^ field.multiply(self.a, x2) ^ self.b
        return left == right

    def contains(self, point: Point) -> bool:
        """True when ``point`` is the identity or satisfies the equation."""
        if point.curve is not self and point.curve != self:
            return False
        if point.is_infinity:
            return True
        return self.is_on_curve(point.x, point.y)

    def _require_on_curve(self, point: Point, who: str) -> None:
        if not self.contains(point):
            raise ValueError(f"{who} is not a point of {self.name or self!r}")

    @cached_property
    def low_order_xs(self) -> FrozenSet[int]:
        """The x-coordinates of the finite points ``P`` with ``4P = O``.

        ``x(2P) = x^2 + b/x^2``, so ``2P`` is the order-2 point
        ``(0, sqrt(b))`` exactly when ``x^4 = b``: the set is
        ``{0, b^(1/4)}``, whether or not ``b^(1/4)`` lies on the curve (it
        does exactly when ``Tr(a) = 0``, as on K-233 and T-13).  An ECDH
        peer with such an x would leak the private scalar modulo 2 or 4;
        SEC 1 §3.2.2 and NIST SP 800-56A §5.6.2.3 reject it.
        """
        return frozenset((0, self.field.power(self.b, 1 << (self.field.m - 2))))

    # ------------------------------------------------------- affine group law
    def negate(self, point: Point) -> Point:
        """The additive inverse ``-(x, y) = (x, x + y)``."""
        if point.is_infinity:
            return point
        return Point(self, point.x, point.x ^ point.y)

    def add(self, p: Point, q: Point) -> Point:
        """Affine point addition (handles every special case)."""
        if p.is_infinity:
            return q
        if q.is_infinity:
            return p
        field = self.field
        if p.x == q.x:
            if p.y == q.y:
                return self.double(p)
            # q = -p (the only two points sharing an x-coordinate).
            return self.infinity()
        lam = field.multiply(p.y ^ q.y, field.inverse(p.x ^ q.x))
        x3 = field.square(lam) ^ lam ^ p.x ^ q.x ^ self.a
        y3 = field.multiply(lam, p.x ^ x3) ^ x3 ^ p.y
        return Point(self, x3, y3)

    def double(self, p: Point) -> Point:
        """Affine point doubling."""
        if p.is_infinity:
            return p
        if p.x == 0:
            # (0, sqrt(b)) is the unique point of order two.
            return self.infinity()
        field = self.field
        lam = p.x ^ field.multiply(p.y, field.inverse(p.x))
        x3 = field.square(lam) ^ lam ^ self.a
        y3 = field.square(p.x) ^ field.multiply(lam ^ 1, x3)
        return Point(self, x3, y3)

    # --------------------------------------------------- scalar multiplication
    def multiply_reference(self, point: Point, scalar: int) -> Point:
        """Left-to-right affine double-and-add; the correctness reference."""
        self._require_on_curve(point, "the base point")
        if scalar < 0:
            point, scalar = self.negate(point), -scalar
        result = self.infinity()
        for bit_index in range(scalar.bit_length() - 1, -1, -1):
            result = self.double(result)
            if (scalar >> bit_index) & 1:
                result = self.add(result, point)
        return result

    def _resolve_scalar_rep(self, scalar_rep: str) -> str:
        """Validate/resolve a ``scalar_rep`` selector to ``"binary"``/``"tau"``.

        ``"auto"`` picks the τ-adic path exactly when the curve carries the
        Frobenius endomorphism (a, b ∈ GF(2)); asking for ``"tau"`` on any
        other curve raises, because there is no endomorphism to ride.
        """
        if scalar_rep not in ("binary", "tau", "auto"):
            raise ValueError(
                f"unknown scalar_rep {scalar_rep!r}: use 'binary', 'tau' or 'auto'"
            )
        from . import scalarmul

        if scalar_rep == "auto":
            return "tau" if scalarmul.is_koblitz(self) else "binary"
        if scalar_rep == "tau":
            scalarmul.tau_mu(self)  # raises with the helpful message
        return scalar_rep

    def multiply(self, point: Point, scalar: int) -> Point:
        """Scalar multiplication with on-curve validation.

        The x-only López-Dahab projective Montgomery ladder with
        ``y``-recovery — one field inversion total.  It is the reference
        every batched route (binary, τ-adic, comb) is byte-identical to.
        """
        self._require_on_curve(point, "the base point")
        if scalar < 0:
            point, scalar = self.negate(point), -scalar
        if scalar == 0 or point.is_infinity:
            return self.infinity()
        if point.x == 0:
            # Order-two point: the ladder's difference invariant needs x != 0.
            return point if scalar & 1 else self.infinity()
        result = self._ladder_ld(point, scalar)
        if not self.contains(result):  # pragma: no cover - internal consistency
            raise ArithmeticError("scalar multiplication left the curve")
        return result

    def _ladder_ld(self, point: Point, scalar: int) -> Point:
        """López-Dahab x-only ladder (López & Dahab 1999; HMV Alg. 3.40)."""
        field = self.field
        multiply = field.multiply
        square = field.square
        mul_x = field.constant_multiplier(point.x)
        mul_b = self._mul_b
        # R0 = infinity (1 : 0), R1 = P (x : 1); invariant R1 - R0 = P.
        x1, z1 = 1, 0
        x2, z2 = point.x, 1
        for bit_index in range(scalar.bit_length() - 1, -1, -1):
            # R0 + R1 (symmetric in its arguments, difference fixed at P):
            t1 = multiply(x1, z2)
            t2 = multiply(x2, z1)
            z_sum = square(t1 ^ t2)
            x_sum = mul_x(z_sum) ^ multiply(t1, t2)
            if (scalar >> bit_index) & 1:
                xd2, zd2 = square(x2), square(z2)
                x1, z1 = x_sum, z_sum
                x2, z2 = square(xd2) ^ mul_b(square(zd2)), multiply(xd2, zd2)
            else:
                xd2, zd2 = square(x1), square(z1)
                x2, z2 = x_sum, z_sum
                x1, z1 = square(xd2) ^ mul_b(square(zd2)), multiply(xd2, zd2)
        return self._ladder_recover(point, x1, z1, x2, z2)

    def _ladder_recover(self, point: Point, x1: int, z1: int, x2: int, z2: int) -> Point:
        """Recover ``k*P`` in affine coordinates from the two ladder registers."""
        if z1 == 0:
            return self.infinity()
        if z2 == 0:
            # R1 = infinity means R0 = -P.
            return Point(self, point.x, point.x ^ point.y)
        field = self.field
        multiply = field.multiply
        x, y = point.x, point.y
        z1z2 = multiply(z1, z2)
        denominator = multiply(x, z1z2)
        inv = field.inverse(denominator)
        x3 = multiply(multiply(x1, z2), multiply(x, inv))
        numerator = multiply(x1 ^ multiply(x, z1), x2 ^ multiply(x, z2))
        numerator ^= multiply(field.square(x) ^ y, z1z2)
        y3 = multiply(multiply(x ^ x3, numerator), inv) ^ y
        return Point(self, x3, y3)

    # ------------------------------------------------------------ batched path
    def multiply_batch(
        self,
        points: Sequence[Point],
        scalars: Sequence[int],
        *,
        backend=None,
        scalar_rep: str = "binary",
        fixed_base: Optional[bool] = None,
    ) -> List[Point]:
        """Multiply many independent ``(point, scalar)`` pairs at once.

        The batch resolves one execution backend up front
        (:meth:`GF2mField.resolve_backend`) and runs every route on its
        executor in the executor's packed form: the base coordinates pack
        once, the route's steps, its conversion to López-Dahab projective
        coordinates and the shared affine conversion
        (:func:`repro.curves.scalarmul._finalize_projective`, which also
        checks every result against the curve equation) all run on packed
        values, and the results unpack once.  On ``python`` and ``engine``
        the executor interprets the same programs, gathering each product
        level into one ``multiply_batch`` call.  The binary route runs the
        compiled ladder step (:func:`repro.curves.formulas
        .ladder_step_program`) once per scalar bit, from the widest
        scalar's top bit: the ladder state ``R0 = infinity, R1 = P`` is a
        fixed point of the leading-zero steps (the scalar-bit swaps are
        masked lane selects, so mixed-length scalars share one batch).

        ``backend`` names the substrate (``"engine"``, ``"native"``,
        ``"python"`` or an instance; an instance also fixes the multiplier
        construction).

        ``scalar_rep`` selects the recoding: ``"binary"`` is the ladder,
        ``"tau"`` the τ-adic Frobenius ladder (:func:`repro.curves.scalarmul
        .multiply_tau_batch`; Koblitz curves only — doublings become
        squarings), and ``"auto"`` picks τ exactly when the curve supports
        it.  ``fixed_base`` routes generator multiplies
        through the precomputed comb table (:func:`repro.curves.scalarmul
        .multiply_comb_batch`): ``None`` (default) uses the comb exactly
        when **every** ladder-bound base is the curve generator and every
        scalar fits the table (the whole of ``keygen_batch``), ``True``
        demands it (raising when a base or scalar does not qualify), and
        ``False`` pins the ladders.  Results are byte-identical to the
        scalar :meth:`multiply` path for every backend and every route.

        A base point on another curve, or off this one, refuses its lanes
        before any ladder runs: :class:`LaneError` names every such lane,
        and the batch returns nothing.  The ladder-bound bases are screened
        with one compiled residual on their packed coordinates (comb bases
        are the generator, on the curve by construction; the rare lanes a
        ladder never sees, scalar 0 or ``x = 0``, are checked one by one).
        """
        if len(points) != len(scalars):
            raise ValueError(f"batch size mismatch: {len(points)} points vs {len(scalars)} scalars")
        from . import scalarmul

        rep = self._resolve_scalar_rep(scalar_rep)
        resolved = self.field.resolve_backend(backend)
        refusal = f"the base point is not a point of {self.name or 'the curve'}"
        refused = {}
        results: List[Optional[Point]] = [None] * len(points)
        active: List[int] = []          # indices that go through a route
        base_x: List[int] = []
        base_y: List[int] = []
        route_scalars: List[int] = []
        for index, (point, scalar) in enumerate(zip(points, scalars)):
            if point.curve is not self and point.curve != self:
                refused[index] = refusal
                continue
            if scalar < 0:
                point, scalar = self.negate(point), -scalar
            if point.is_infinity:
                results[index] = point
            elif scalar == 0 or point.x == 0:
                if not self.is_on_curve(point.x, point.y):
                    refused[index] = refusal
                results[index] = point if point.x == 0 and scalar & 1 else self.infinity()
            else:
                active.append(index)
                base_x.append(point.x)
                base_y.append(point.y)
                route_scalars.append(scalar)
        route, reason = (
            self._batch_route(base_x, base_y, route_scalars, rep, fixed_base) if active else (rep, "")
        )
        if route != "comb" and active:
            # One pack of the bases, screened where they lie.
            executor = resolved.ir_executor()
            prefix = "ladder.tau" if route == "tau" else "ladder"
            with _trace.span(f"{prefix}.pack", lanes=len(active)):
                bases = scalarmul.PackedBases(executor, base_x, base_y)
            screen = executor.compile(on_curve_residual_program(self))
            for start, stop, xs, ys in bases.chunks:
                (residual,) = screen.run_arrays((xs, ys), ())
                for lane in executor.nonzero_lanes(residual, stop - start):
                    refused[active[start + lane]] = refusal
        if refused:
            raise LaneError(refused)
        if not active:
            return results  # type: ignore[return-value]
        if fixed_base and route != "comb":
            raise ValueError(f"fixed_base=True, but {reason}")
        if route == "comb":
            multiplied = scalarmul.multiply_comb_batch(self, route_scalars, backend=resolved)
        elif route == "tau":
            multiplied = scalarmul.multiply_tau_batch(self, bases, route_scalars)
        else:
            multiplied = self._ladder_ld_batch(bases, route_scalars)
        for slot, point in zip(active, multiplied):
            results[slot] = point
        return results  # type: ignore[return-value]

    def _batch_route(self, base_x, base_y, scalars, rep: str, fixed_base: Optional[bool]):
        """``(route, reason)``: ``"comb"``, or ``rep`` and why the comb does not apply."""
        from . import scalarmul

        # Auto mode only engages once the generator has been derived (the
        # protocol paths always have) — it must not force a derivation, or
        # fail one, just to discover the bases were arbitrary points anyway.
        if not (fixed_base or (fixed_base is None and self._generator is not None)):
            return rep, ""
        generator = self.generator
        if any(x != generator.x or y != generator.y for x, y in zip(base_x, base_y)):
            return rep, "not every base point is the curve generator"
        try:
            table = scalarmul.comb_table(self)
        except ArithmeticError as error:
            # Tiny toy curves can collapse a tooth pattern to infinity;
            # auto mode quietly keeps the ladder there.
            return rep, str(error)
        bound = 1 << table.capacity_bits
        if all(scalar < bound for scalar in scalars):
            return "comb", ""
        return rep, "a scalar exceeds the comb table capacity"

    def _ladder_ld_batch(self, bases, scalars: List[int]) -> List[Point]:
        """The binary route over packed bases (:class:`~repro.curves.scalarmul.PackedBases`).

        Each chunk is one ``run_steps`` loop: the state ``R0 = (1 : 0)``,
        ``R1 = (x : 1)`` is built by repetition from the packed bases, every
        scalar bit runs the compiled step (:func:`repro.curves.formulas
        .ladder_step_program`) with its select mask — one C call on native,
        with the masks built in C from the scalars — and one compiled
        program (:func:`~repro.curves.formulas.ladder_projective_program`)
        turns the final registers into LD ``(X : Y : Z)`` for the shared
        packed finalize.  Its dead lanes (``Z = 0``) resolve here, never on
        the scalar path: ``z1 = 0`` means ``kP = O``, ``z2 = 0`` that
        ``kP = R0 = −P``.
        """
        from .scalarmul import _finalize_projective

        executor = bases.executor
        step = ladder_step_program(self)
        to_projective = executor.compile(ladder_projective_program(self))
        points: List[Optional[Point]] = []
        for start, stop, xs, ys in bases.chunks:
            lanes = stop - start
            one = executor.repeat(1, lanes)
            x1, z1, x2, z2 = executor.run_steps(
                [step], [one, executor.repeat(0, lanes), xs, one], (xs,),
                LadderSteps(scalars[start:stop]),
            )
            projective = to_projective.run_arrays((xs, ys, x1, z1, x2, z2), ())
            chunk = _finalize_projective(self, executor, projective, lanes, "ladder")
            dead = [lane for lane, point in enumerate(chunk) if point is None]
            if dead:
                _, at_infinity = executor.inverse_packed(z1, lanes)
                for lane in dead:
                    x, y = bases.x[start + lane], bases.y[start + lane]
                    chunk[lane] = self.infinity() if lane in at_infinity else Point(self, x, x ^ y)
            points += chunk
        return points  # type: ignore[return-value]

    # ------------------------------------------------------------- point tools
    def solve_y(self, x: int) -> Optional[int]:
        """A ``y`` with ``(x, y)`` on the curve, or ``None`` if none exists.

        Substituting ``y = x z`` turns the equation into ``z^2 + z = c``
        with ``c = x + a + b / x^2``, solvable iff ``Tr(c) = 0`` — and then
        the half-trace produces a solution directly (odd ``m``).  The other
        root is ``y + x`` (i.e. the negated point).
        """
        field = self.field
        field._check(x)
        if x == 0:
            return field.sqrt(self.b)
        c = x ^ self.a ^ field.multiply(self.b, field.inverse(field.square(x)))
        if field.trace(c) != 0:
            return None
        return field.multiply(x, field.half_trace(c))

    def random_point(self, rng) -> Point:
        """A uniformly random affine point (rejection-samples x; not O)."""
        while True:
            x = rng.getrandbits(self.field.m)
            y = self.solve_y(x)
            if y is None:
                continue
            # Both square roots with probability 1/2 each keeps the draw uniform.
            if rng.getrandbits(1) and x != 0:
                y ^= x
            return Point(self, x, y)

    @property
    def generator(self) -> Point:
        """A deterministically derived base point.

        The smallest ``x = 1, 2, ...`` with a point on the curve is lifted
        and multiplied by the cofactor (when known) to land in the order-n
        subgroup; for curves with a known order the result is checked to
        actually have it.  Derived lazily and cached per curve.
        """
        if self._generator is None:
            self._generator = self._derive_generator()
        return self._generator

    def _derive_generator(self) -> Point:
        for x in range(1, min(self.field.order, 4096)):
            y = self.solve_y(x)
            if y is None:
                continue
            candidate = Point(self, x, y)
            if self.cofactor:
                candidate = self.multiply(candidate, self.cofactor)
            if candidate.is_infinity:
                continue
            if self.order is not None and not self.multiply(candidate, self.order).is_infinity:
                raise ArithmeticError(
                    f"catalog order of {self.name or self!r} does not annihilate the "
                    "derived base point; the order entry is wrong"
                )
            return candidate
        raise ArithmeticError(f"found no base point on {self.name or self!r}")  # pragma: no cover

    def describe(self) -> str:
        """One-line summary used by the CLI catalog listing."""
        order = f"n=0x{self.order:x} h={self.cofactor}" if self.order else "order unknown"
        return (
            f"{self.name or 'curve'}: GF(2^{self.field.m}), a={self.a}, "
            f"b=0x{self.b:x}, {order}"
        )
