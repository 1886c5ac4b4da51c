"""Algorithmic scalar multiplication: τ-adic Frobenius ladders and
fixed-base combs, compiled through FieldIR.

Every speedup before this module came from the execution substrate — the
compiled circuit engine, the native C tier — while the scalar
multiplication *algorithm* stayed a generic Montgomery ladder.  This module
closes the algorithmic gap with two compiled paths, both traced once in
:mod:`repro.curves.formulas` and lowered through the same
:class:`~repro.backends.ir.FieldIR` machinery, so they run unchanged on
every backend (python/engine/native):

* **τ-adic ladders** — on a Koblitz curve (``y² + xy = x³ + ax² + 1`` with
  ``a`` in GF(2)) the Frobenius map ``τ(x, y) = (x², y²)`` is a curve
  endomorphism satisfying ``τ² = μτ − 2`` with ``μ = (−1)^(1−a)``.  The
  scalar is partially reduced in ℤ[τ] and recoded into sparse τ-adic
  digits, replacing the ladder's ~m point doublings with squarings — the
  op the paper's pentanomial fields execute almost for free (fused
  linear passes, word squarings on native).  The per-digit step is
  :func:`~repro.curves.formulas.frobenius_add_program` (squarings + one
  lane-masked mixed add).
* **fixed-base combs** — generator multiplies (the whole of
  ``keygen_batch``) use a Lim-Lee comb table of the generator, built
  lazily, persisted in the content-addressed
  :class:`~repro.pipeline.store.ArtifactStore` (the table is
  deterministic per curve), and evaluated with
  :func:`~repro.curves.formulas.double_add_program` — one LD doubling
  plus a lane-masked add per comb column instead of a full ladder.

Scalar reduction and recoding
-----------------------------
Rational points satisfy ``τ^m = 1`` (the Frobenius of GF(2^m) fixes every
GF(2^m) point), so scalars act through ℤ[τ]/(τ^m − 1).  The classic
Solinas reduction divides by ``δ = (τ^m − 1)/(τ − 1)``, which annihilates
the order-n subgroup only; this module reduces by the full ``τ^m − 1``
instead, which annihilates **every** rational point — that is what makes
the τ path byte-identical to :meth:`~repro.curves.point.BinaryCurve
.multiply_reference` on arbitrary inputs, cofactor components included, at
the cost of ~2 extra digits (``N(τ^m − 1) = h·n`` vs ``N(δ) = n``).

The recoding, :func:`tau_window_digits`, extracts digits ``w``
τ-positions at a time, so every lane of a batch has its nonzero digits at
positions ``≡ 0 (mod w)`` (plus a short unaligned tail of plain τ-NAF ±1
digits).  Alignment is what makes batching pay: at aligned positions the
whole batch shares one masked-add step, everywhere else the step is a pure
squaring pass.

The batched route reduces and recodes a whole chunk of lanes at once
into position-major digit rows: in C (``gf2m_tau_reduce`` then
``gf2m_tau_recode``) whenever the native extension loads, whatever the
batch's backend, and through the Python reduction and recurrence
(:func:`reduce_scalar`, :func:`_tau_sparse_digits`, the reference)
otherwise.  From the packed bases to the affine results every value stays
in the executor's packed form — chain, table inversion, step loop and
final conversion hand packed values to each other — so int lists appear
only at entry and exit.

Degenerate lanes
----------------
The mixed-add formula yields ``Z = 0`` when an add degenerates (the
accumulator meets ``±table point``), and a zero ``Z`` is sticky through
both step formulas — so a single post-ladder check finds every lane that
needs the scalar-ladder fallback.  Random scalars hit this with
probability ~2^(−m); the exhaustive toy-curve tests hit it on purpose.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..backends import native
from ..backends.steps import CombSteps, TauSteps
from ..pipeline.store import ArtifactStore, LRUCache, canonical_fingerprint
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace
from .formulas import (
    double_add_program,
    frobenius_add_program,
    frobenius_program,
    projective_to_affine_program,
    small_multiples_affine_program,
    small_multiples_program,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Dict, List, Optional, Sequence, Tuple

    from .point import BinaryCurve, Point

__all__ = [
    "is_koblitz",
    "tau_mu",
    "reduce_scalar",
    "tau_window_digits",
    "tau_digits_value",
    "DEFAULT_TAU_WIDTH",
    "DEFAULT_COMB_TEETH",
    "CombTable",
    "PackedBases",
    "comb_table",
    "multiply_tau_batch",
    "multiply_comb_batch",
]

#: Default τ-adic window width: 2^(w−1) precomputed multiples per base,
#: one masked add per w ladder positions.
DEFAULT_TAU_WIDTH = 4

#: Default comb teeth: 2^t − 1 stored generator combinations, ceil(bits/t)
#: double+add columns per scalar multiplication.  10 teeth ≈ 17 columns on
#: K-163 — the 1023-point table is still < 45 KiB serialized, evaluation
#: drops a fifth of its columns vs 8 teeth, and the build stays a one-off
#: behind the artifact store.
DEFAULT_COMB_TEETH = 10

#: Schema stamp of persisted comb tables; bump when the layout changes.
COMB_TABLE_VERSION = 1

#: Longest zero-digit run folded into one composed squaring map.  Bounds
#: the per-curve program-cache population; runs beyond it (possible only
#: for very sparse lanes) split into multiple fallthrough events.
MAX_FUSED_SQUARINGS = 64

#: In-process memo of deserialized comb tables (the artifact store still
#: backs cold processes); surfaced by ``repro stats`` like every named cache.
_COMB_CACHE = LRUCache(maxsize=16, name="curves.comb_tables")


# --------------------------------------------------------------- ℤ[τ] algebra
def is_koblitz(curve: "BinaryCurve") -> bool:
    """True when ``curve`` carries the Frobenius endomorphism (a, b ∈ GF(2))."""
    return curve.b == 1 and curve.a in (0, 1)


def tau_mu(curve: "BinaryCurve") -> int:
    """The sign μ in ``τ² = μτ − 2``: +1 for a = 1, −1 for a = 0."""
    if not is_koblitz(curve):
        raise ValueError(
            f"{curve.name or curve!r} is not a Koblitz curve (needs a ∈ GF(2), b = 1); "
            "the τ-adic ladder has no Frobenius endomorphism to ride"
        )
    return 2 * curve.a - 1


def _zt_mul(mu: int, x: "Tuple[int, int]", y: "Tuple[int, int]") -> "Tuple[int, int]":
    """Multiplication in ℤ[τ]: ``(x0 + x1 τ)(y0 + y1 τ)`` with ``τ² = μτ − 2``."""
    x0, x1 = x
    y0, y1 = y
    return (x0 * y0 - 2 * x1 * y1, x0 * y1 + x1 * y0 + mu * x1 * y1)


def _zt_norm(mu: int, a: int, b: int) -> int:
    """The norm ``N(a + bτ) = a² + μab + 2b²`` (always non-negative)."""
    return a * a + mu * a * b + 2 * b * b


def _tau_power_minus_one(mu: int, m: int) -> "Tuple[int, int]":
    """``τ^m − 1`` as ``(a, b)`` via the recurrence ``τ^(k+1) = −2b + (a+μb)τ``."""
    a, b = 1, 0
    for _ in range(m):
        a, b = -2 * b, a + mu * b
    return a - 1, b


def _round_div(numerator: int, denominator: int) -> int:
    """Nearest integer to ``numerator / denominator`` (``denominator > 0``)."""
    return (2 * numerator + denominator) // (2 * denominator)


def _div_tau(mu: int, r0: int, r1: int) -> "Tuple[int, int]":
    """Exact division by τ (``r0`` must be even)."""
    half = r0 >> 1
    return r1 + mu * half, -half


def _mods(value: int, power: int) -> int:
    """The balanced residue of ``value`` modulo ``power`` in ``(−power/2, power/2]``."""
    residue = value % power
    if residue > power >> 1:
        residue -= power
    return residue


def _tail_threshold(width: int) -> int:
    """The residue norm below which width-``width`` extraction may stall.

    One digit round maps ``N ↦ ≤ (√N + 2^(width−1))² / 2^width``, a strict
    decrease exactly when ``√N (2^(width/2) − 1) > 2^(width−1)``.  Below
    the squared bound the balanced-digit subtraction can cycle (width 6
    loops forever on the residue of ``2``, for instance), so extraction
    must hand over to the plain τ-NAF tail — which terminates from every
    state (verified exhaustively over ``|r0|, |r1| ≤ 2000``, max 26
    steps) — no later than this norm.
    """
    half = 1 << (width - 1)
    shrink = 2.0 ** (width / 2.0) - 1.0
    return max(7, math.ceil((half / shrink) ** 2))


def _t_width(mu: int, width: int) -> int:
    """The even root of ``t² − μt + 2 ≡ 0 (mod 2^width)``, lifted bit by bit.

    ``τ ↦ t`` realises the ring isomorphism ℤ[τ]/τ^w ≅ ℤ/2^w that digit
    extraction leans on: ``τ^w`` divides ``ρ − u`` exactly when ``2^w``
    divides ``r0 + r1·t − u``.
    """
    t = 0
    for bit in range(1, width + 1):
        if (t * t - mu * t + 2) % (1 << bit):
            t += 1 << (bit - 1)
    return t


class _TauContext:
    """Per-curve τ-adic constants: μ, ``τ^m − 1``, its norm, and t_w memos."""

    __slots__ = ("mu", "m", "d", "conj", "norm", "reduction", "_t_widths", "_div_consts")

    def __init__(self, curve: "BinaryCurve") -> None:
        self.mu = tau_mu(curve)
        self.m = curve.field.m
        self.d = _tau_power_minus_one(self.mu, self.m)
        d0, d1 = self.d
        c0, c1 = self.conj = (d0 + self.mu * d1, -d1)
        norm = self.norm = _zt_norm(self.mu, d0, d1)
        # The C reduction (native.reduce_tau) estimates each rounded
        # quotient round(k·c/N) as (k·g + 2^(shift−1)) >> shift with
        # g = floor(c·2^shift / N), which is exact or one short for every
        # 0 <= k < N, and settles it on the low words of 2kc + N − q·2N.
        shift = norm.bit_length() + 2
        self.reduction = {
            "norm": norm,
            "shift": shift,
            "constants": [
                (c0 << shift) // norm, (c1 << shift) // norm, 2 * c0, 2 * c1,
                norm, 2 * norm, d0, 2 * d1, d1, c0,
            ],
            # N(r) <= N bounds both residue components by 2^(bits(N)/2 + 2):
            # 32-bit limbs for that, a sign, 8 bits of headroom, room to grow.
            "residue_limbs": (norm.bit_length() // 2 + 2 + 24) // 32 + 1,
        }
        self._t_widths: "Dict[int, int]" = {}
        self._div_consts: "Dict[int, Tuple[int, int, int]]" = {}

    def t_width(self, width: int) -> int:
        value = self._t_widths.get(width)
        if value is None:
            value = self._t_widths[width] = _t_width(self.mu, width)
        return value

    def div_constants(self, width: int) -> "Tuple[int, int, int]":
        """Constants ``(e0, e1, f)`` folding division by ``τ^width``.

        With ``e0 + e1 τ = conj(τ^width)`` and ``N(τ^width) = 2^width``,
        an exact quotient ``ρ / τ^width`` is ``ρ · conj(τ^width) >> width``
        componentwise — one shift instead of ``width`` τ-division rounds.
        ``f = e0 + μ e1`` pre-folds the τ²-reduction cross term.
        """
        value = self._div_consts.get(width)
        if value is None:
            a, b = 1, 0
            for _ in range(width):
                a, b = -2 * b, a + self.mu * b
            e0, e1 = a + self.mu * b, -b
            value = self._div_consts[width] = (e0, e1, e0 + self.mu * e1)
        return value

    def reduce(self, scalar: int) -> "Tuple[int, int]":
        """:func:`reduce_scalar` on this context: ``scalar − round(scalar / d)·d``."""
        # q = round(scalar · conj(d) / N(d)) componentwise, then scalar − q·d.
        c0, c1 = self.conj
        q = (_round_div(scalar * c0, self.norm), _round_div(scalar * c1, self.norm))
        p0, p1 = _zt_mul(self.mu, q, self.d)
        return scalar - p0, -p1

    def recoding(self, width: int) -> "Dict[str, int]":
        """The constants of :func:`_tau_sparse_digits` at ``width``, as the C recoder takes them."""
        e0, e1, f = self.div_constants(width)
        threshold = _tail_threshold(width)
        return {
            "width": width, "mu": self.mu, "t_w": self.t_width(width), "t_2": self.t_width(2),
            "e0": e0, "e1": e1, "f": f,
            "threshold": threshold, "gate": math.isqrt(2 * threshold) + 1,
        }


_TAU_CONTEXTS = LRUCache(maxsize=16, name="curves.tau_contexts")


def _tau_context(curve: "BinaryCurve") -> _TauContext:
    key = (curve.field.modulus, curve.a, curve.b)
    return _TAU_CONTEXTS.get_or_create(key, lambda: _TauContext(curve))  # type: ignore[return-value]


def reduce_scalar(curve: "BinaryCurve", scalar: int) -> "Tuple[int, int]":
    """``scalar`` partially reduced modulo ``τ^m − 1`` in ℤ[τ].

    Returns ``(r0, r1)`` with ``r0 + r1 τ ≡ scalar (mod τ^m − 1)`` and
    ``N(r0 + r1 τ) ≤ N(τ^m − 1) ≈ h·n`` — so the recoded expansion has
    ~m + 2 digits regardless of the scalar's width.  Because ``τ^m`` acts
    as the identity on every GF(2^m)-rational point, the reduced element
    computes exactly ``scalar · P`` for **every** curve point (no
    subgroup-membership assumption, unlike reduction by
    ``δ = (τ^m − 1)/(τ − 1)``).
    """
    return _tau_context(curve).reduce(scalar)


def tau_window_digits(
    curve: "BinaryCurve", scalar: int, width: int = DEFAULT_TAU_WIDTH
) -> "List[int]":
    """Batch-aligned τ-adic digits of ``scalar``, lowest first.

    Digits (``|u| ≤ 2^(width−1)``, even values allowed) are extracted a
    whole window at a time, so nonzeros land only at positions
    ``≡ 0 (mod width)`` — every lane of a batch shares one masked-add
    schedule.  Window extraction is a strict norm contraction only while
    the residue norm exceeds :func:`_tail_threshold`; the constant-size
    remainder drains through the plain τ-NAF (±1 digits at unaligned
    trailing positions, guaranteed to terminate).
    """
    if width < 2 or width > 16:
        raise ValueError(f"window width must be in [2, 16], got {width}")
    events, span = _tau_sparse_digits(curve, scalar, width)
    digits = [0] * span
    for position, digit in events:
        digits[position] = digit
    return digits


def _tau_sparse_digits(
    curve: "BinaryCurve", scalar: int, width: int = DEFAULT_TAU_WIDTH
) -> "Tuple[List[Tuple[int, int]], int]":
    """:func:`tau_window_digits` as sparse ``(position, digit)`` events.

    Returns ``(events, span)`` with events ordered lowest position first
    and ``span`` the dense digit count (highest position + 1).  This is
    the reference recurrence: the C recoder behind
    :func:`_tau_digit_rows` runs it on fixed-width limbs, and the batch
    falls back to it where that recoder is missing.
    """
    ctx = _tau_context(curve)
    mu = ctx.mu
    t_w = ctx.t_width(width)
    e0, e1, f = ctx.div_constants(width)
    power = 1 << width
    half = power >> 1
    mask = power - 1
    threshold = _tail_threshold(width)
    gate = math.isqrt(2 * threshold) + 1
    r0, r1 = reduce_scalar(curve, scalar)
    events: "List[Tuple[int, int]]" = []
    position = 0
    while True:
        # Magnitude gate before the exact norm: the tail region forces
        # ``|a|, |b| ≤ √(2·threshold)``, so large residues skip the three
        # norm multiplications entirely.
        if (
            -gate <= r0 <= gate
            and -gate <= r1 <= gate
            and r0 * r0 + mu * r0 * r1 + 2 * r1 * r1 <= threshold
        ):
            break
        # Only the window's low bits matter: u ≡ r0 + r1·t_w (mod 2^w)
        # computed on masked small ints, not full-width bigints.
        u = ((r0 & mask) + (r1 & mask) * t_w) & mask
        if u > half:
            u -= power
        if u:
            events.append((position, u))
            r0 -= u
        # ρ − u is divisible by τ^width: divide in one folded step via
        # conj(τ^width) and an exact arithmetic shift (N(τ^width) = 2^width).
        r0, r1 = (r0 * e0 - 2 * r1 * e1) >> width, (r0 * e1 + r1 * f) >> width
        position += width
    # Below the threshold the window recurrence no longer shrinks the
    # norm (see _tail_threshold), so the constant-size remainder drains
    # through the plain τ-NAF: ±1 digits at unaligned trailing positions,
    # terminating from every state.
    t_2 = ctx.t_width(2)
    while r0 or r1:
        if r0 & 1:
            u = _mods(r0 + r1 * t_2, 4)
            events.append((position, u))
            r0 -= u
        r0, r1 = _div_tau(mu, r0, r1)
        position += 1
    return events, (events[-1][0] + 1) if events else 0


def tau_digits_value(curve: "BinaryCurve", digits: "Sequence[int]") -> "Tuple[int, int]":
    """``Σ digits[i] · τ^i`` back in ℤ[τ] — the recoding tests' round trip."""
    mu = tau_mu(curve)
    r0, r1 = 0, 0
    for digit in reversed(digits):
        # Horner: (r0 + r1 τ) · τ + digit.
        r0, r1 = -2 * r1 + digit, r0 + mu * r1
    return r0, r1


# ----------------------------------------------------------- shared plumbing
class PackedBases:
    """A batch's affine base points, as int columns and packed per executor chunk.

    ``chunks`` holds ``(start, stop, xs, ys)`` for every chunk of the
    executor's lanes: ``xs``/``ys`` are the packed coordinates of lanes
    ``start:stop``.  :meth:`~repro.curves.point.BinaryCurve.multiply_batch`
    packs its bases once, screens them on these buffers and hands them to
    the τ or binary route, which run on them without another conversion;
    ``x``/``y`` serve the scalar fallback of degenerate lanes.
    """

    __slots__ = ("executor", "x", "y", "chunks")

    def __init__(self, executor, x: "List[int]", y: "List[int]") -> None:
        self.executor = executor
        self.x = x
        self.y = y
        size = executor.chunk_size
        self.chunks = [
            (start, min(start + size, len(x)),
             executor.pack(x[start:start + size]), executor.pack(y[start:start + size]))
            for start in range(0, len(x), size)
        ]


def _finalize_projective(curve, executor, state, lanes, prefix):
    """Affine points from packed LD ``(X, Y, Z)``; ``None`` marks the dead lanes.

    A zero ``Z`` is the sticky degenerate/never-started flag.  Every lane
    shares one packed batch inversion, which leaves those lanes zero and
    names them, and one compiled conversion that also checks every live
    result against the curve equation on the packed coordinates (one
    comparison when all of them hold).  The results unpack here, the
    batch's only int-list exit; the named lanes come back as ``None`` for
    the caller to resolve.
    """
    from .point import Point

    x_acc, y_acc, z_acc = state
    with _trace.span(f"{prefix}.inverse_batch", count=lanes):
        inverses, dead = executor.inverse_packed(z_acc, lanes)
    affine = executor.compile(projective_to_affine_program(curve))
    x3, y3, residual = affine.run_arrays((x_acc, y_acc, inverses), ())
    if set(executor.nonzero_lanes(residual, lanes)).difference(dead):  # pragma: no cover
        raise ArithmeticError("batched scalar multiplication left the curve")
    with _trace.span(f"{prefix}.unpack", lanes=lanes):
        points = [
            Point(curve, x, y)
            for x, y in zip(executor.unpack(x3, lanes), executor.unpack(y3, lanes))
        ]
    for lane in dead:
        points[lane] = None
    return points


def _run_masked_steps(curve, executor, lanes, programs, schedule):
    """One chunk of a digit/column schedule, from the sentinel to affine points.

    ``programs`` are the step programs a
    :class:`~repro.backends.steps.CombSteps` /
    :class:`~repro.backends.steps.TauSteps` schedule's events index.  Every
    lane starts from the not-yet-started LD sentinel ``(1, 1, 0)``, built
    by repetition; the accumulators stay packed through
    :meth:`~repro.backends.ir.IRExecutor.run_steps` and
    :func:`_finalize_projective`.
    """
    one = executor.repeat(1, lanes)
    state = executor.run_steps(programs, [one, one, executor.repeat(0, lanes)], (), schedule)
    return _finalize_projective(curve, executor, state, lanes, schedule.span_prefix)


def _tau_digit_rows(curve, scalars, width):
    """The digit rows of a chunk of scalars: ``(digits, occupied, span)``.

    ``digits`` holds one int8 row per τ-position with one signed digit
    per lane (the :class:`~repro.backends.steps.TauSteps` layout),
    ``occupied[position]`` is 1 where some lane's digit is nonzero, and
    ``span`` sums the lanes' :func:`_tau_sparse_digits` spans.  The C
    kernel reduces and recodes the scalars whenever the native extension
    loads, whatever backend runs the batch (both are integer arithmetic);
    without it, or if it reports an overflow, the reference recurrence
    fills the same rows.
    """
    ctx = _tau_context(curve)
    try:
        rows = native.recode_tau(
            ctx.recoding(width), ctx.reduction, scalars, curve.field.m + width + 32
        )
    except ImportError:
        rows = None
    if rows is not None:
        return rows
    lanes = len(scalars)
    lane_events = [_tau_sparse_digits(curve, scalar, width) for scalar in scalars]
    positions = max((span for _, span in lane_events), default=0)
    digits = bytearray(positions * lanes)
    occupied = bytearray(positions)
    for lane, (events, _) in enumerate(lane_events):
        for position, digit in events:
            digits[position * lanes + lane] = digit & 0xFF
            occupied[position] = 1
    return digits, occupied, sum(span for _, span in lane_events)


def _tau_schedule(curve, occupied):
    """The step programs and events of a chunk with digits at ``occupied`` positions.

    Runs of zero digits fold into the following add event (or a trailing
    pure-Frobenius event): τ^k is one squaring chain, so the step count is
    the number of positions where *some* lane has a nonzero digit.  An add
    event's row is its position.
    """
    programs: "List[object]" = []
    indices: "Dict[Tuple[int, bool], int]" = {}

    def program_index(squarings, has_add):
        index = indices.get((squarings, has_add))
        if index is None:
            index = indices[(squarings, has_add)] = len(programs)
            programs.append(
                frobenius_add_program(curve, squarings)
                if has_add
                else frobenius_program(curve, squarings)
            )
        return index

    events: "List[Tuple[int, int]]" = []
    previous: "Optional[int]" = None
    for position in range(len(occupied) - 1, -1, -1):
        if not occupied[position]:
            continue
        squarings = 1 if previous is None else previous - position
        previous = position
        while squarings > MAX_FUSED_SQUARINGS:
            events.append((program_index(MAX_FUSED_SQUARINGS, False), -1))
            squarings -= MAX_FUSED_SQUARINGS
        events.append((program_index(squarings, True), position))
    pending = previous if previous else 0
    while pending > 0:
        squarings = min(pending, MAX_FUSED_SQUARINGS)
        events.append((program_index(squarings, False), -1))
        pending -= squarings
    return programs, events


def _small_multiples_batch(curve, executor, xs, ys, lanes, top):
    """Per-lane multiples ``u·P`` for ``u = 1..top`` from packed bases.

    The add chain ``2P, 3P, …`` runs through the compiled LD doubling /
    mixed-add formulas — no inversions anywhere in the chain — and the
    whole table is normalized to affine through **one** packed batch
    inversion of each lane's ``Z`` product
    (:func:`~repro.curves.formulas.small_multiples_affine_program`).
    Returns ``(tables, degenerate)``: ``tables[u - 1]`` the packed affine
    coordinates of ``u · P_lane`` (zeros on dead lanes) and ``degenerate``
    the lanes whose chain hit the sticky ``Z = 0`` flag (tiny point
    orders), which must take the scalar fallback.
    """
    chain_program = executor.compile(small_multiples_program(curve, top))
    chain = dict(zip(chain_program.output_names, chain_program.run_arrays((xs, ys), ())))
    with _trace.span("scalarmul.table_inverse", count=lanes):
        chain["zi"], degenerate = executor.inverse_packed(chain.pop("Zall"), lanes)
    affine_program = executor.compile(small_multiples_affine_program(curve, top))
    affine = dict(zip(
        affine_program.output_names,
        affine_program.run_arrays([chain[name] for name in affine_program.input_names], ()),
    ))
    tables = [(xs, ys)] + [(affine[f"x{u}"], affine[f"y{u}"]) for u in range(2, top + 1)]
    return tables, degenerate


# ------------------------------------------------------------- τ-adic ladder
def multiply_tau_batch(
    curve: "BinaryCurve",
    bases: PackedBases,
    scalars: "List[int]",
) -> "List[Point]":
    """Batched τ-adic ladder over independent ``(point, scalar)`` lanes.

    ``bases`` are the lanes' affine base points, packed for the executor
    that runs the batch (:class:`PackedBases`).  Per chunk: the scalars are
    recoded into window-aligned digit rows (:func:`_tau_digit_rows`; their
    nonzeros share one masked-add schedule), the per-lane small-multiple
    tables come from one fused
    :func:`~repro.curves.formulas.small_multiples_program` chain plus one
    packed batch inversion, and every scheduled event runs the compiled
    :func:`~repro.curves.formulas.frobenius_program` (squarings only) or
    :func:`~repro.curves.formulas.frobenius_add_program` (squarings plus
    the lane-masked add).  Values stay packed from the bases to the affine
    results.  Lanes that finish with the sticky ``Z = 0`` flag —
    degenerate adds or annihilated scalars — take the scalar ladder per
    lane; the result is byte-identical to the binary paths.
    """
    from .point import Point

    width = DEFAULT_TAU_WIDTH
    top = 1 << (width - 1)
    executor = bases.executor
    registry = _metrics.REGISTRY
    points: "List[Optional[Point]]" = []
    for start, stop, xs, ys in bases.chunks:
        lanes = stop - start
        digits, occupied, span = _tau_digit_rows(curve, scalars[start:stop], width)
        if registry.enabled:
            registry.inc("ladder.tau.digits", span)
        tables, degenerate = _small_multiples_batch(curve, executor, xs, ys, lanes, top)
        for lane in degenerate:
            # A degenerate lane never adds, so its Z stays the sentinel's 0.
            digits[lane::lanes] = bytes(len(occupied))
        programs, events = _tau_schedule(curve, occupied)
        points += _run_masked_steps(
            curve, executor, lanes, programs, TauSteps(events, digits, tables, lanes)
        )
    for index, point in enumerate(points):
        if point is None:
            points[index] = curve.multiply(
                Point(curve, bases.x[index], bases.y[index]), scalars[index]
            )
            if registry.enabled:
                registry.inc("ladder.tau.fallbacks")
    return points  # type: ignore[return-value]


# ------------------------------------------------------------ fixed-base comb
class CombTable:
    """A Lim-Lee comb table for one curve's generator.

    ``points[pattern]`` (1-indexed; pattern ``Σ bⱼ 2^j``) holds the affine
    coordinates of ``Σ bⱼ · 2^(j·columns) · G``.  ``columns`` is the comb
    evaluation depth: scalars up to ``2^(teeth·columns)`` are covered,
    which includes every private key the protocols draw.
    """

    __slots__ = ("teeth", "columns", "points")

    def __init__(self, teeth: int, columns: int, points: "List[Tuple[int, int]]") -> None:
        self.teeth = teeth
        self.columns = columns
        self.points = points

    @property
    def capacity_bits(self) -> int:
        """Scalars below ``2^capacity_bits`` evaluate in one comb pass."""
        return self.teeth * self.columns


def _comb_fingerprint(curve: "BinaryCurve", teeth: int, columns: int) -> str:
    """The content address of one curve's comb table in the artifact store."""
    return canonical_fingerprint(
        {
            "kind": "comb-table",
            "version": COMB_TABLE_VERSION,
            "modulus": curve.field.modulus,
            "a": curve.a,
            "b": curve.b,
            "generator": [curve.generator.x, curve.generator.y],
            "teeth": teeth,
            "columns": columns,
        }
    )


def _build_comb_points(
    curve: "BinaryCurve", teeth: int, columns: int
) -> "List[Tuple[int, int]]":
    """All ``2^teeth − 1`` tooth combinations of the generator, affine.

    Exact affine group law on the field's default backend: ``teeth − 1``
    runs of ``columns`` strided doublings, then one batched level per
    tooth — every pattern with top tooth ``t`` is its lower pattern plus
    stride ``t``, so a level's adds share one Montgomery batch inversion.
    Associativity makes the sums identical to adding each pattern's
    strides one by one.
    """
    backend = curve.field.backend
    strides = [curve.generator]
    for _ in range(1, teeth):
        point = strides[-1]
        for _ in range(columns):
            point = _double_affine(curve, backend, point)
        strides.append(point)
    totals = [curve.infinity()]
    for stride in strides:
        totals += _add_affine_batch(curve, backend, totals, stride)
    for pattern, total in enumerate(totals[1:], start=1):
        if total.is_infinity:  # pragma: no cover - needs a tiny-order generator
            raise ArithmeticError(
                f"comb tooth pattern {pattern} of {curve.name or curve!r} collapsed "
                "to infinity; lower the teeth count for this curve"
            )
    return [(total.x, total.y) for total in totals[1:]]


def _double_affine(curve: "BinaryCurve", backend, point: "Point") -> "Point":
    """:meth:`BinaryCurve.double` with the inversion and products on ``backend``."""
    from .point import Point

    if point.is_infinity or point.x == 0:
        return curve.double(point)
    x, y = point.x, point.y
    lam = x ^ backend.multiply_batch([y], backend.inverse_batch([x]))[0]
    lam_sq, x_sq = backend.square_batch([lam, x])
    x3 = lam_sq ^ lam ^ curve.a
    return Point(curve, x3, x_sq ^ backend.multiply_batch([lam ^ 1], [x3])[0])


def _add_affine_batch(curve: "BinaryCurve", backend, points, other: "Point") -> "List[Point]":
    """``p + other`` for every ``p`` in ``points``, one shared batch inversion.

    Same formulas as :meth:`BinaryCurve.add`; the special cases (an
    identity summand, equal x-coordinates) go through it directly.
    """
    from .point import Point

    sums: "List[Optional[Point]]" = [None] * len(points)
    regular = []
    for index, point in enumerate(points):
        if point.is_infinity or other.is_infinity or point.x == other.x:
            sums[index] = curve.add(point, other)
        else:
            regular.append(index)
    if regular:
        xs = [points[i].x for i in regular]
        ys = [points[i].y for i in regular]
        inverses = backend.inverse_batch([x ^ other.x for x in xs])
        lams = backend.multiply_batch([y ^ other.y for y in ys], inverses)
        x3s = [
            lam_sq ^ lam ^ x ^ other.x ^ curve.a
            for lam_sq, lam, x in zip(backend.square_batch(lams), lams, xs)
        ]
        products = backend.multiply_batch(lams, [x ^ x3 for x, x3 in zip(xs, x3s)])
        for index, x3, product, y in zip(regular, x3s, products, ys):
            sums[index] = Point(curve, x3, product ^ x3 ^ y)
    return sums  # type: ignore[return-value]


def comb_table(
    curve: "BinaryCurve",
    *,
    teeth: int = DEFAULT_COMB_TEETH,
) -> CombTable:
    """The (lazily built, artifact-store-persisted) comb table of ``curve``.

    Tables are deterministic per curve, so they live in the
    content-addressed store keyed by the curve constants and comb shape:
    warm processes hit the in-memory LRU, warm machines hit the store
    (``comb.table.hit``), and only cold caches pay the build
    (``comb.table.build``).
    """
    if teeth < 2 or teeth > 10:
        raise ValueError(f"comb teeth must be in [2, 10], got {teeth}")
    bound = curve.order if curve.order is not None else curve.field.order
    bits = max(bound.bit_length(), 1)
    columns = -(-bits // teeth)
    key = _comb_fingerprint(curve, teeth, columns)

    def load() -> CombTable:
        store = ArtifactStore()
        registry = _metrics.REGISTRY
        payload = store.get_json(key)
        if payload is not None:
            if registry.enabled:
                registry.inc("comb.table.hit")
            points = [(int(x), int(y)) for x, y in payload["points"]]
            return CombTable(teeth, columns, points)
        if registry.enabled:
            registry.inc("comb.table.build")
        with _metrics.timed("comb.table.build_s"), _trace.span(
            "comb.table.build", curve=curve.name or "?", teeth=teeth
        ):
            points = _build_comb_points(curve, teeth, columns)
        store.put_json(
            key,
            {
                "version": COMB_TABLE_VERSION,
                "curve": curve.name,
                "teeth": teeth,
                "columns": columns,
                "points": [[x, y] for x, y in points],
            },
        )
        return CombTable(teeth, columns, points)

    return _COMB_CACHE.get_or_create(key, load)  # type: ignore[return-value]


def multiply_comb_batch(
    curve: "BinaryCurve",
    scalars: "List[int]",
    *,
    backend,
    teeth: int = DEFAULT_COMB_TEETH,
) -> "List[Point]":
    """Batched fixed-base multiplication ``scalar · G`` via the comb table.

    One :func:`~repro.curves.formulas.double_add_program` step per comb
    column — an LD doubling plus a lane-masked table add — instead of a
    full ladder; the table rows are gathered per lane and per column from
    :func:`comb_table`.  Scalars must lie in ``[1, 2^capacity_bits)``
    (the protocol layer's draws always do; ``BinaryCurve.multiply_batch``
    routes anything else through the generic paths).
    """
    table = comb_table(curve, teeth=teeth)
    count = len(scalars)
    columns, width = table.columns, table.teeth
    registry = _metrics.REGISTRY
    if registry.enabled:
        registry.inc("comb.columns", columns * count)

    program = double_add_program(curve)
    executor = backend.ir_executor()
    points: "List[Optional[Point]]" = []
    for start in range(0, count, executor.chunk_size):
        stop = min(start + executor.chunk_size, count)
        points += _run_masked_steps(
            curve, executor, stop - start, [program],
            CombSteps(scalars[start:stop], width, columns, table.points),
        )
    generator = curve.generator
    for index in range(count):
        if points[index] is None:
            points[index] = curve.multiply(generator, scalars[index])
            if registry.enabled:
                registry.inc("comb.fallbacks")
    return points  # type: ignore[return-value]
