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
  ``y``-recovery;
* :meth:`BinaryCurve.multiply_batch` — the same ladder over many
  independent ``(point, scalar)`` pairs at once, driven by the **formula
  compiler**: the whole López-Dahab step (and the y-recovery and on-curve
  check) is traced once as a :class:`~repro.backends.ir.FieldIR`
  (:mod:`repro.curves.formulas`) and scheduled once per curve into fused
  passes.  The batch resolves one execution backend (:mod:`repro.backends`)
  up front and runs every formula on its executor
  (:meth:`~repro.backends.base.FieldBackend.ir_executor`): base-point
  coordinates are packed **once**, every step executes as the fused passes
  (lane-stacked products, one merged linear stage, masked selects), and
  coordinates are unpacked **once** before the shared Montgomery-trick
  inversions.  Packed means C word buffers on ``native``; ``python``,
  ``engine`` and ``bitslice`` keep int lists and interpret the *same*
  program (:func:`~repro.backends.ir.execute_program`), which derives the
  gathered ``multiply_batch`` calls from the schedule.

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
from .formulas import (
    ladder_step_program,
    on_curve_residual_program,
    recover_affine_program,
    recover_denominator_program,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..galois.field import GF2mField

__all__ = ["BinaryCurve", "LaneError", "Point"]


class LaneError(ValueError):
    """A batch refused some of its lanes and returned no result.

    ``lanes`` maps each refused lane's index to its reason, in index
    order.  The message names the first lane, so a caller that only
    catches ``ValueError`` reads the reason a one-lane batch would give; a
    caller that wants the other lanes reruns them without the refused ones.
    """

    def __init__(self, lanes: Mapping[int, str]) -> None:
        self.lanes = dict(sorted(lanes.items()))
        first, reason = next(iter(self.lanes.items()))
        count = len(self.lanes)
        super().__init__(f"lane {first}: {reason}" + (f"; {count} lanes refused" if count > 1 else ""))

    def __reduce__(self):
        return type(self), (self.lanes,)

    @classmethod
    def check(cls, reasons: Iterable[Optional[str]]) -> None:
        """Raise for every lane whose reason is not ``None``."""
        lanes = {lane: reason for lane, reason in enumerate(reasons) if reason is not None}
        if lanes:
            raise cls(lanes)


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

    def multiply(self, point: Point, scalar: int, *, scalar_rep: str = "binary") -> Point:
        """Scalar multiplication with on-curve validation.

        The x-only López-Dahab projective Montgomery ladder with
        ``y``-recovery — one field inversion total.  ``scalar_rep``
        selects the scalar recoding: ``"binary"`` is the ladder, ``"tau"``
        the τ-adic NAF expansion (Koblitz curves only — doublings become
        Frobenius squarings), and ``"auto"`` picks τ exactly when the
        curve supports it.  Every recoding returns byte-identical points.
        """
        self._require_on_curve(point, "the base point")
        rep = self._resolve_scalar_rep(scalar_rep)
        if scalar < 0:
            point, scalar = self.negate(point), -scalar
        if scalar == 0 or point.is_infinity:
            return self.infinity()
        if point.x == 0:
            # Order-two point: the ladder's difference invariant needs x != 0.
            return point if scalar & 1 else self.infinity()
        if rep == "tau":
            from . import scalarmul

            result = scalarmul.multiply_tau(self, point, scalar)
        else:
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
        (:meth:`GF2mField.resolve_backend`) and executes the compiled
        ladder-step formula (:func:`repro.curves.formulas
        .ladder_step_program`) on its executor — one pack, ``~m`` fused
        six-pass steps, one unpack.  On ``python`` and ``engine`` the
        executor interprets the same program, gathering each product level
        into one ``multiply_batch`` call, with table-map linear work
        between.
        Scalars of different bit lengths are handled by starting every item
        at the widest scalar's bit: the ladder state ``R0 = infinity,
        R1 = P`` is a fixed point of the leading-zero steps (the scalar-bit
        swaps are masked lane selects, so mixed-length scalars share one
        batch).

        ``backend`` names the substrate (``"engine"``, ``"bitslice"``,
        ``"native"``, ``"python"`` or an instance; an instance also fixes
        the multiplier construction).

        ``scalar_rep`` selects the recoding (see :meth:`multiply`):
        ``"tau"``/``"auto"`` route Koblitz batches through the τ-adic
        Frobenius ladder (:func:`repro.curves.scalarmul
        .multiply_tau_batch`).  ``fixed_base`` routes generator multiplies
        through the precomputed comb table (:func:`repro.curves.scalarmul
        .multiply_comb_batch`): ``None`` (default) uses the comb exactly
        when **every** ladder-bound base is the curve generator and every
        scalar fits the table (the whole of ``keygen_batch``), ``True``
        demands it (raising when a base or scalar does not qualify), and
        ``False`` pins the ladders.  Results are byte-identical to the
        scalar :meth:`multiply` path for every backend and every route.

        A base point on another curve, or off this one, refuses its lanes
        before any ladder runs: :class:`LaneError` names every such lane,
        and the batch returns nothing.
        """
        if len(points) != len(scalars):
            raise ValueError(f"batch size mismatch: {len(points)} points vs {len(scalars)} scalars")
        field = self.field
        rep = self._resolve_scalar_rep(scalar_rep)
        resolved = field.resolve_backend(backend)
        # Fixed-base batches repeat one point across every lane: the residual
        # prices each distinct point once, and its verdict covers every repeat.
        foreign, distinct = set(), set()
        for index, point in enumerate(points):
            if point.curve is not self and point.curve != self:
                foreign.add(index)
            elif not point.is_infinity:
                distinct.add((point.x, point.y))
        coordinates = list(distinct)
        xs, ys = [x for x, _ in coordinates], [y for _, y in coordinates]
        off = {coordinates[position] for position in self._off_curve(xs, ys, backend=resolved)}
        if foreign or off:
            refusal = f"the base point is not a point of {self.name or 'the curve'}"
            LaneError.check(
                refusal if index in foreign or (point.x, point.y) in off else None
                for index, point in enumerate(points)
            )
        results: List[Optional[Point]] = [None] * len(points)
        active: List[int] = []          # indices that go through the ladder
        base_x: List[int] = []
        base_y: List[int] = []
        ladder_scalars: List[int] = []
        for index, (point, scalar) in enumerate(zip(points, scalars)):
            if scalar < 0:
                point, scalar = self.negate(point), -scalar
            if scalar == 0 or point.is_infinity:
                results[index] = self.infinity()
            elif point.x == 0:
                results[index] = point if scalar & 1 else self.infinity()
            else:
                active.append(index)
                base_x.append(point.x)
                base_y.append(point.y)
                ladder_scalars.append(scalar)
        if active:
            multiplied = self._dispatch_batch(
                base_x,
                base_y,
                ladder_scalars,
                backend=resolved,
                rep=rep,
                fixed_base=fixed_base,
            )
            for slot, point in zip(active, multiplied):
                results[slot] = point
        finite = [point for point in results if not point.is_infinity]
        if self._off_curve([p.x for p in finite], [p.y for p in finite], backend=resolved):  # pragma: no cover
            raise ArithmeticError("batched scalar multiplication left the curve")
        return results  # type: ignore[return-value]

    def _dispatch_batch(
        self,
        base_x: List[int],
        base_y: List[int],
        scalars: List[int],
        *,
        backend,
        rep: str,
        fixed_base: Optional[bool],
    ) -> List[Point]:
        """Route screened batch lanes to comb / τ-adic / binary evaluators."""
        from . import scalarmul

        # Auto mode only engages once the generator has been derived (the
        # protocol paths always have) — it must not force a derivation, or
        # fail one, just to discover the bases were arbitrary points anyway.
        if fixed_base or (fixed_base is None and self._generator is not None):
            eligible, reason = False, ""
            generator = self.generator
            if any(
                x != generator.x or y != generator.y for x, y in zip(base_x, base_y)
            ):
                reason = "not every base point is the curve generator"
            else:
                try:
                    table = scalarmul.comb_table(self)
                except ArithmeticError as error:
                    # Tiny toy curves can collapse a tooth pattern to
                    # infinity; auto mode quietly keeps the ladder there.
                    reason = str(error)
                else:
                    bound = 1 << table.capacity_bits
                    if all(scalar < bound for scalar in scalars):
                        eligible = True
                    else:
                        reason = "a scalar exceeds the comb table capacity"
            if eligible:
                return scalarmul.multiply_comb_batch(self, scalars, backend=backend)
            if fixed_base:
                raise ValueError(f"fixed_base=True, but {reason}")
        if rep == "tau":
            return scalarmul.multiply_tau_batch(self, base_x, base_y, scalars, backend=backend)
        return self._ladder_ld_batch(base_x, base_y, scalars, backend=backend)

    def _off_curve(self, xs: List[int], ys: List[int], *, backend) -> List[int]:
        """Positions whose ``(x, y)`` misses the curve equation.

        One compiled residual (:func:`~repro.curves.formulas.on_curve_residual_program`)
        prices every point, where :meth:`is_on_curve` costs three scalar products each.
        """
        if not xs:
            return []
        residuals = backend.ir_executor().run(
            on_curve_residual_program(self), {"x": xs, "y": ys}
        )["residual"]
        return [position for position, residual in enumerate(residuals) if residual]

    def _ladder_ld_batch(
        self, base_x: List[int], base_y: List[int], scalars: List[int], *, backend
    ) -> List[Point]:
        # The backend is resolved by multiply_batch; ladder intermediates are
        # always valid field elements, so they run on its executor directly
        # (no per-step revalidation).  Each chunk is one run_steps loop: the
        # state packs once, every scalar bit runs the compiled step
        # (repro.curves.formulas.ladder_step_program) with its select mask,
        # and the state unpacks once — one C call on native, with the masks
        # built in C from the packed scalars.
        executor = backend.ir_executor()
        program = ladder_step_program(self)
        state: List[List[int]] = [[], [], [], []]
        for start in range(0, len(base_x), executor.chunk_size):
            stop = min(start + executor.chunk_size, len(base_x))
            lanes = stop - start
            part_x = base_x[start:stop]
            with _trace.span("ladder.pack", lanes=lanes):
                initial = [
                    executor.pack(values)
                    for values in ([1] * lanes, [0] * lanes, part_x, [1] * lanes)
                ]
                fixed = (executor.pack(part_x),)
            final = executor.run_steps(
                [program], initial, fixed, LadderSteps(scalars[start:stop])
            )
            with _trace.span("ladder.unpack", lanes=lanes):
                for values, array in zip(state, final):
                    values += executor.unpack(array, lanes)
        x1, z1, x2, z2 = state
        return self._ladder_recover_batch(base_x, base_y, x1, z1, x2, z2, backend=backend)

    def _ladder_recover_batch(
        self,
        base_x: List[int],
        base_y: List[int],
        x1: List[int],
        z1: List[int],
        x2: List[int],
        z2: List[int],
        *,
        backend,
    ) -> List[Point]:
        """Batched y-recovery: the inversions share one Montgomery pass.

        Runs as two compiled formulas (:func:`~repro.curves.formulas
        .recover_denominator_program` / ``recover_affine_program``) on the
        backend's executor, around the backend's Montgomery batch inverse —
        inversion is not a straight-line field op, so it stays between the
        two IR programs.
        """
        count = len(base_x)
        special = {
            i: (
                self.infinity()
                if z1[i] == 0
                else Point(self, base_x[i], base_x[i] ^ base_y[i])
            )
            for i in range(count)
            if z1[i] == 0 or z2[i] == 0
        }
        live = [i for i in range(count) if i not in special]
        points: List[Optional[Point]] = [special.get(i) for i in range(count)]
        if live:
            executor = backend.ir_executor()
            xs = [base_x[i] for i in live]
            z1s = [z1[i] for i in live]
            z2s = [z2[i] for i in live]
            staged = executor.run(
                recover_denominator_program(self),
                {"x": xs, "z1": z1s, "z2": z2s},
            )
            with _trace.span("ladder.inverse_batch", count=len(live)):
                inv = backend.inverse_batch(staged["denom"])
            affine = executor.run(
                recover_affine_program(self),
                {
                    "x": xs,
                    "y": [base_y[i] for i in live],
                    "x1": [x1[i] for i in live],
                    "x2": [x2[i] for i in live],
                    "z1": z1s,
                    "z2": z2s,
                    "z1z2": staged["z1z2"],
                    "inv": inv,
                },
            )
            for k, i in enumerate(live):
                points[i] = Point(self, affine["x3"][k], affine["y3"][k])
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
