"""The curve formulas, each traced exactly once as a :class:`FieldIR`.

Before the formula compiler, every consumer of the López-Dahab step carried
its own copy of the formula: the scalar ladder in
:meth:`~repro.curves.point.BinaryCurve._ladder_ld`, a hand-written
gather/batch version in ``_ladder_ld_batch``, and a hand-scheduled plane
version in ``_ladder_ld_planes`` — three schedules to keep in sync.  This
module replaces the latter two: the **step**, the **ladder-to-projective
conversion** and the **curve-equation residual** are traced once as straight-line
:class:`~repro.backends.ir.FieldIR` and scheduled once per curve through
the level-scheduling fusion pass (:func:`~repro.backends.ir
.schedule_program`).  Every backend's executor
(:meth:`~repro.backends.base.FieldBackend.ir_executor`) compiles the
scheduled program: into C instruction streams on ``native``, and on
``python`` and ``engine`` into :func:`~repro.backends.ir.execute_program`
runs, which derive the per-step ``multiply_batch`` gathers from the
schedule instead of hand-written loops.
The scalar ladder stays as the untouched independent reference the tests
compare every executor against.

Scheduled programs are memoized process-wide
(:func:`~repro.backends.ir.cached_program`) keyed by the curve fingerprint
(modulus plus the participating curve constants), and each executor
additionally memoizes its lowering by the same key — so the full chain is
cached per curve × backend × chunk and repeated ECDH calls never re-trace,
re-schedule or re-lower.

Formula conventions
-------------------
All programs use the one-bit-per-lane masked-select convention of the
batched ladder: ``select(bit, a, b)`` yields ``a`` on lanes whose scalar
bit is set.  The ladder-step registers follow López & Dahab 1999 (HMV
Alg. 3.40): ``R0 = (x1 : z1)``, ``R1 = (x2 : z2)``, invariant
``R1 - R0 = P`` with ``P = (x, y)`` the affine base point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..backends.ir import FieldIR, FieldProgram, IRBuilder, cached_program, schedule_program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .point import BinaryCurve

__all__ = [
    "ladder_step_ir",
    "ladder_step_program",
    "ladder_projective_program",
    "on_curve_residual_program",
    "frobenius_ir",
    "frobenius_program",
    "frobenius_add_ir",
    "frobenius_add_program",
    "small_multiples_ir",
    "small_multiples_program",
    "small_multiples_affine_ir",
    "small_multiples_affine_program",
    "double_add_ir",
    "double_add_program",
    "projective_to_affine_program",
]


def ladder_step_ir() -> FieldIR:
    """One full López-Dahab Montgomery step as a traced formula.

    Inputs ``x1 z1 x2 z2`` are the ladder registers, ``x`` the affine base
    x-coordinate; mask ``bit`` is the scalar bit of the step.  Outputs
    ``x1n z1n x2n z2n`` are the post-step registers.  The five products,
    six squarings (collapsing to three composed maps), the multiply-by-b
    and the masked swaps fuse into six passes when scheduled:
    ``select×2 → mul×3 → linear → mul×2 → linear → select×4``.
    """
    builder = IRBuilder("ld_step")
    x1, z1 = builder.input("x1"), builder.input("z1")
    x2, z2 = builder.input("x2"), builder.input("z2")
    base = builder.input("x")
    bit = builder.mask_input("bit")
    # The register being doubled this step (R1 when the bit is set).
    xd = builder.select(bit, x2, x1)
    zd = builder.select(bit, z2, z1)
    # Madd cross terms and the Mdouble X*Z product — one lane-stacked pass.
    t1 = builder.mul(x1, z2)
    t2 = builder.mul(x2, z1)
    xz = builder.mul(xd, zd)
    # Everything linear between the product levels fuses into one stage;
    # square∘square and mul_b∘square∘square collapse into composed maps.
    z_sum = builder.square(builder.xor(t1, t2))
    z_dbl = builder.square(xz)
    x_dbl = builder.xor(
        builder.square(builder.square(xd)),
        builder.apply_linear("mul_b", builder.square(builder.square(zd))),
    )
    # Madd's T1*T2 and x*Z_sum — the second lane-stacked pass.
    x_sum = builder.xor(builder.mul(t1, t2), builder.mul(base, z_sum))
    builder.output("x1n", builder.select(bit, x_sum, x_dbl))
    builder.output("z1n", builder.select(bit, z_sum, z_dbl))
    builder.output("x2n", builder.select(bit, x_dbl, x_sum))
    builder.output("z2n", builder.select(bit, z_dbl, z_sum))
    return builder.build()


def ladder_step_program(curve: "BinaryCurve") -> FieldProgram:
    """The scheduled ladder step for ``curve`` (memoized per modulus and b)."""
    field = curve.field
    key = ("ld-step", field.modulus, curve.b)
    return cached_program(
        key,
        lambda: schedule_program(
            ladder_step_ir(),
            field.m,
            {"square": field.square_map, "mul_b": curve._mul_b},
            key=key,
        ),
    )


def ladder_projective_program(curve: "BinaryCurve") -> FieldProgram:
    """The ladder's final registers as an LD projective point ``(X : Y : Z)``.

    The scalar :meth:`~repro.curves.point.BinaryCurve._ladder_recover`
    without its inversion: with ``R0 = (x1 : z1)``, ``R1 = (x2 : z2)`` and
    base ``(x, y)``, the result ``(x3, y3) = (X/Z, Y/Z²)`` has
    ``Z = x·z1·z2``, ``X = x·x1·z2`` and ``Y = (x·Z + X)·N + y·Z²`` with
    ``N = (x1 + x·z1)(x2 + x·z2) + (x² + y)·z1·z2`` — ten products in four
    levels, so the binary ladder ends in the same packed conversion
    (:func:`projective_to_affine_program`) as the τ and comb routes.
    ``Z = 0`` exactly when ``z1 = 0`` (the result is infinity) or
    ``z2 = 0`` (it is ``−P``); the caller resolves those lanes.
    """
    field = curve.field
    key = ("ld-ladder-projective", field.modulus)

    def build() -> FieldProgram:
        builder = IRBuilder("ld_ladder_projective")
        base, base_y = builder.input("x"), builder.input("y")
        x1, z1 = builder.input("x1"), builder.input("z1")
        x2, z2 = builder.input("x2"), builder.input("z2")
        z1z2 = builder.mul(z1, z2)
        xz1 = builder.mul(base, z1)
        xz2 = builder.mul(base, z2)
        z = builder.mul(base, z1z2)
        x = builder.mul(x1, xz2)
        n = builder.xor(
            builder.mul(builder.xor(x1, xz1), builder.xor(x2, xz2)),
            builder.mul(builder.xor(builder.square(base), base_y), z1z2),
        )
        y = builder.xor(
            builder.mul(builder.xor(builder.mul(base, z), x), n),
            builder.mul(base_y, builder.square(z)),
        )
        builder.output("X", x)
        builder.output("Y", y)
        builder.output("Z", z)
        return schedule_program(builder.build(), field.m, {"square": field.square_map}, key=key)

    return cached_program(key, build)


def _ld_mixed_add(builder: IRBuilder, x_p, y_p, z_p, x2, y2):
    """López-Dahab mixed addition ``(X:Y:Z) + (x2, y2)`` (HMV Alg. 3.26).

    Coordinates follow the LD convention ``x = X/Z``, ``y = Y/Z²``.  Eight
    products, five squarings; the curve's ``a·Z²`` terms go through the
    ``mul_a`` constant-multiplier map so one trace serves both Koblitz
    ``a`` values.  When the two summands share an x-coordinate (doubling
    or annihilation) the formula yields ``Z3 = 0`` — and a zero ``Z`` is
    *sticky* through every subsequent step, which is exactly the
    degenerate-lane flag the batched evaluators key their per-lane scalar
    fallback on.
    """
    z_sq = builder.square(z_p)
    a_term = builder.xor(builder.mul(y2, z_sq), y_p)
    b_term = builder.xor(builder.mul(x2, z_p), x_p)
    c_term = builder.mul(z_p, b_term)
    d_term = builder.mul(
        builder.square(b_term),
        builder.xor(c_term, builder.apply_linear("mul_a", z_sq)),
    )
    z3 = builder.square(c_term)
    e_term = builder.mul(a_term, c_term)
    x3 = builder.xor(builder.square(a_term), d_term, e_term)
    f_term = builder.xor(x3, builder.mul(x2, z3))
    g_term = builder.mul(builder.xor(x2, y2), builder.square(z3))
    y3 = builder.xor(builder.mul(builder.xor(e_term, z3), f_term), g_term)
    return x3, y3, z3


def _ld_double(builder: IRBuilder, x_p, y_p, z_p):
    """López-Dahab projective doubling ``2·(X:Y:Z)`` (HMV Alg. 3.25).

    Three products; the ``b·Z⁴`` terms run through the ``mul_b``
    constant-multiplier map and ``a·Z`` through ``mul_a``.  ``Z = 0``
    (infinity or the degenerate flag) stays at ``Z = 0``.
    """
    x_sq, z_sq = builder.square(x_p), builder.square(z_p)
    z_d = builder.mul(x_sq, z_sq)
    b_z4 = builder.apply_linear("mul_b", builder.square(z_sq))
    x_d = builder.xor(builder.square(x_sq), b_z4)
    y_d = builder.xor(
        builder.mul(b_z4, z_d),
        builder.mul(
            x_d,
            builder.xor(builder.apply_linear("mul_a", z_d), builder.square(y_p), b_z4),
        ),
    )
    return x_d, y_d, z_d


def _masked_point_update(builder: IRBuilder, fallthrough, added, fresh, init, add):
    """The shared select cascade of the digit-step formulas.

    Per lane: ``init`` lanes load the gathered table point directly (their
    accumulator is still the not-yet-started sentinel), ``add`` lanes take
    the mixed-add result, everyone else keeps the doubled/Frobenius
    registers.  Emits the three outputs ``Xn Yn Zn``.
    """
    one = builder.const(1)
    (x_f, y_f, z_f), (x_a, y_a, z_a), (x_t, y_t) = fallthrough, added, fresh
    builder.output("Xn", builder.select(init, x_t, builder.select(add, x_a, x_f)))
    builder.output("Yn", builder.select(init, y_t, builder.select(add, y_a, y_f)))
    builder.output("Zn", builder.select(init, one, builder.select(add, z_a, z_f)))


def frobenius_ir(power: int = 1) -> FieldIR:
    """The Frobenius power ``τ^k(X:Y:Z) = (X^2ᵏ, Y^2ᵏ, Z^2ᵏ)`` on LD coords.

    On a Koblitz curve (coefficients in GF(2)) squaring the coordinates is
    the curve endomorphism the τ-adic ladder rides.  The scheduler's chain
    collapsing composes the ``power`` squarings into **one** linear map
    per coordinate, so a whole run of zero τ-NAF digits executes as a
    single fused linear pass — no products at all — regardless of the run
    length.
    """
    builder = IRBuilder(f"tau_frobenius_{power}")
    for name in ("X", "Y", "Z"):
        var = builder.input(name)
        for _ in range(power):
            var = builder.square(var)
        builder.output(name + "n", var)
    return builder.build()


def frobenius_program(curve: "BinaryCurve", power: int = 1) -> FieldProgram:
    """The scheduled ``power``-fold zero-digit τ step (squarings only)."""
    field = curve.field
    key = ("tau-frobenius", field.modulus, power)
    return cached_program(
        key,
        lambda: schedule_program(
            frobenius_ir(power), field.m, {"square": field.square_map}, key=key
        ),
    )


def frobenius_add_ir(squarings: int = 1) -> FieldIR:
    """One nonzero τ-NAF digit step: ``τ^squarings``, masked add, selects.

    Inputs ``X Y Z`` are the LD accumulator, ``x2 y2`` the per-lane
    gathered precomputed multiple (sign already applied); masks ``add``
    and ``init`` drive the per-lane select cascade.  ``squarings`` folds
    the zero digits *preceding* this one into the same program — chain
    collapsing turns them into one composed linear map, so a window
    recoding's ``(w−1)``-zero runs cost nothing extra.  Lanes whose digit
    is zero at this position fall through with just the squarings.
    """
    builder = IRBuilder(f"tau_frobenius_add_{squarings}")
    x_p, y_p, z_p = (builder.input(name) for name in ("X", "Y", "Z"))
    x2, y2 = builder.input("x2"), builder.input("y2")
    add = builder.mask_input("add")
    init = builder.mask_input("init")
    x_f, y_f, z_f = x_p, y_p, z_p
    for _ in range(squarings):
        x_f, y_f, z_f = (builder.square(var) for var in (x_f, y_f, z_f))
    added = _ld_mixed_add(builder, x_f, y_f, z_f, x2, y2)
    _masked_point_update(builder, (x_f, y_f, z_f), added, (x2, y2), init, add)
    return builder.build()


def frobenius_add_program(curve: "BinaryCurve", squarings: int = 1) -> FieldProgram:
    """The scheduled nonzero-digit τ step (memoized per modulus, a, run)."""
    field = curve.field
    key = ("tau-frobenius-add", field.modulus, curve.a, squarings)
    return cached_program(
        key,
        lambda: schedule_program(
            frobenius_add_ir(squarings),
            field.m,
            {"square": field.square_map, "mul_a": field.constant_multiplier(curve.a)},
            key=key,
        ),
    )


def small_multiples_ir(top: int) -> FieldIR:
    """The whole chain ``2P … top·P`` from affine ``P`` as one program.

    One trace for the τ evaluator's per-lane table: a doubling from
    ``(x2, y2, 1)`` followed by ``top − 2`` mixed adds of the base, each
    intermediate state emitted as ``X<u> Y<u> Z<u>``, plus ``Zall``, the
    product of every ``Z<u>`` — one inversion of it normalizes the whole
    table (:func:`small_multiples_affine_ir`), and it is zero exactly on
    the lanes whose chain degenerated.  Fusing the chain into a single
    program lets the scheduler stack the linear work across steps and
    costs one executor round trip instead of ``top − 1``.
    """
    builder = IRBuilder(f"ld_small_multiples_{top}")
    x2, y2 = builder.input("x2"), builder.input("y2")
    state = _ld_double(builder, x2, y2, builder.const(1))
    z_all = state[2]
    for u in range(2, top + 1):
        for name, var in zip((f"X{u}", f"Y{u}", f"Z{u}"), state):
            builder.output(name, var)
        if u < top:
            state = _ld_mixed_add(builder, *state, x2, y2)
            z_all = builder.mul(z_all, state[2])
    builder.output("Zall", z_all)
    return builder.build()


def small_multiples_program(curve: "BinaryCurve", top: int) -> FieldProgram:
    """The scheduled small-multiple chain (memoized per modulus, a, b, top)."""
    field = curve.field
    key = ("ld-small-multiples", field.modulus, curve.a, curve.b, top)
    return cached_program(
        key,
        lambda: schedule_program(
            small_multiples_ir(top),
            field.m,
            {
                "square": field.square_map,
                "mul_a": field.constant_multiplier(curve.a),
                "mul_b": curve._mul_b,
            },
            key=key,
        ),
    )


def small_multiples_affine_ir(top: int) -> FieldIR:
    """Affine ``x<u> y<u>`` of the whole chain from ``zi = (Z2 ⋯ Z<top>)⁻¹``.

    Montgomery's trick inside one lane: the prefix products of the
    ``Z<u>``, then one walk back peeling each ``Z<u>⁻¹`` off the single
    inverse ``zi``, then the LD conversion ``x = X/Z``, ``y = Y/Z²`` per
    entry.  A lane with ``zi = 0`` (a degenerate chain) gets zeros.
    """
    builder = IRBuilder(f"ld_small_multiples_affine_{top}")
    coords = [
        tuple(builder.input(f"{name}{u}") for name in "XYZ") for u in range(2, top + 1)
    ]
    inverse = builder.input("zi")
    prefix = [coords[0][2]]  # prefix[k] = Z2 ⋯ Z<k+2>
    for _, _, z in coords[1:-1]:
        prefix.append(builder.mul(prefix[-1], z))
    for k in range(len(coords) - 1, -1, -1):
        x, y, z = coords[k]
        zi = inverse
        if k:
            zi = builder.mul(inverse, prefix[k - 1])
            inverse = builder.mul(inverse, z)
        builder.output(f"x{k + 2}", builder.mul(x, zi))
        builder.output(f"y{k + 2}", builder.mul(y, builder.square(zi)))
    return builder.build()


def small_multiples_affine_program(curve: "BinaryCurve", top: int) -> FieldProgram:
    """The scheduled table normalization (memoized per modulus and top)."""
    field = curve.field
    key = ("ld-small-multiples-affine", field.modulus, top)
    return cached_program(
        key,
        lambda: schedule_program(
            small_multiples_affine_ir(top), field.m, {"square": field.square_map}, key=key
        ),
    )


def double_add_ir() -> FieldIR:
    """One fixed-base comb column: LD double, masked mixed add, selects.

    The doubling is HMV Alg. 3.25 (three products; the ``b·Z⁴`` terms run
    through the ``mul_b`` map), the add and select cascade are shared with
    :func:`frobenius_add_ir`.  Lanes whose comb tooth pattern is zero at
    this column fall through with just the doubling.
    """
    builder = IRBuilder("comb_double_add")
    x_p, y_p, z_p = (builder.input(name) for name in ("X", "Y", "Z"))
    x2, y2 = builder.input("x2"), builder.input("y2")
    add = builder.mask_input("add")
    init = builder.mask_input("init")
    x_d, y_d, z_d = _ld_double(builder, x_p, y_p, z_p)
    added = _ld_mixed_add(builder, x_d, y_d, z_d, x2, y2)
    _masked_point_update(builder, (x_d, y_d, z_d), added, (x2, y2), init, add)
    return builder.build()


def double_add_program(curve: "BinaryCurve") -> FieldProgram:
    """The scheduled comb column step (memoized per modulus, a and b)."""
    field = curve.field
    key = ("comb-double-add", field.modulus, curve.a, curve.b)
    return cached_program(
        key,
        lambda: schedule_program(
            double_add_ir(),
            field.m,
            {
                "square": field.square_map,
                "mul_a": field.constant_multiplier(curve.a),
                "mul_b": curve._mul_b,
            },
            key=key,
        ),
    )


def _curve_residual(builder: IRBuilder, x, y, b: int):
    """``y² + xy + x³ + a·x² + b``: zero exactly when ``(x, y)`` is on the curve.

    One lane-stacked product pass (``x·y`` and ``x²·x``) and one fused
    linear stage (``y²``, ``a·x²`` through the ``mul_a`` map, the XOR tree
    and the hoisted constant ``b``).
    """
    x_squared = builder.square(x)
    return builder.xor(
        builder.square(y),
        builder.mul(x, y),
        builder.mul(x_squared, x),
        builder.apply_linear("mul_a", x_squared),
        builder.const(b),
    )


def projective_to_affine_program(curve: "BinaryCurve") -> FieldProgram:
    """Affine ``(x3, y3)`` and their curve residual from LD ``(X : Y : Z)`` given ``zi = Z⁻¹``.

    The inversion itself stays outside the IR (the callers invert every
    lane's ``Z`` in one packed batch inverse first, zero lanes staying
    zero); this program is the two products and one squaring that remain,
    plus the result check: ``residual`` is zero on every lane whose point
    lies on the curve (a lane with ``zi = 0`` reads ``(0, 0)``, residual
    ``b``).
    """
    field = curve.field
    key = ("ld-proj-affine", field.modulus, curve.a, curve.b)

    def build() -> FieldProgram:
        builder = IRBuilder("ld_projective_to_affine")
        x_p, y_p, zi = builder.input("X"), builder.input("Y"), builder.input("zi")
        x3 = builder.mul(x_p, zi)
        y3 = builder.mul(y_p, builder.square(zi))
        builder.output("x3", x3)
        builder.output("y3", y3)
        builder.output("residual", _curve_residual(builder, x3, y3, curve.b))
        return schedule_program(
            builder.build(),
            field.m,
            {"square": field.square_map, "mul_a": field.constant_multiplier(curve.a)},
            key=key,
        )

    return cached_program(key, build)


def on_curve_residual_program(curve: "BinaryCurve") -> FieldProgram:
    """The curve-equation residual ``y² + xy + x³ + a·x² + b`` per lane.

    Zero exactly when ``(x, y)`` satisfies the equation: the batch screens
    its packed base points with it before any ladder runs.
    """
    field = curve.field
    key = ("on-curve", field.modulus, curve.a, curve.b)

    def build() -> FieldProgram:
        builder = IRBuilder("on_curve_residual")
        x, y = builder.input("x"), builder.input("y")
        builder.output("residual", _curve_residual(builder, x, y, curve.b))
        return schedule_program(
            builder.build(),
            field.m,
            {"square": field.square_map, "mul_a": field.constant_multiplier(curve.a)},
            key=key,
        )

    return cached_program(key, build)
