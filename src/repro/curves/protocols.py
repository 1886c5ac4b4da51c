"""Protocol workloads on binary curves: ECDH key agreement and ECDSA-style
signatures, with batched variants shaped like real bulk traffic.

The batched entry points (:func:`keygen_batch`, :func:`ecdh_batch`) are the
subsystem's reason to exist from the ROADMAP's point of view: a batch of
``N`` key agreements performs ``~6 N`` independent field multiplications
per ladder step, and :meth:`repro.curves.point.BinaryCurve.multiply_batch`
runs all of them as one compiled ladder-step program per step on the
resolved backend's executor (:meth:`~repro.backends.base.FieldBackend
.ir_executor`).  The batched results are byte-identical to the scalar
reference path — asserted in the tests.

ECDSA here is "ECDSA-style": the digest is taken as an integer reduced
modulo ``n`` and the default nonce is derived deterministically from the
key and digest with SHA-256 (reproducible runs; not RFC 6979).  Signing
needs a curve with a known subgroup order — the Koblitz catalog entries —
while ECDH works on every catalog curve.  :func:`sign_batch` batches the
nonce multiplies like :func:`keygen_batch` and inverts each signing
round's nonces together mod ``n`` (one ``pow(·, -1, n)`` per round,
Montgomery's trick), byte-identical to :func:`ecdsa_sign` per pair.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, TYPE_CHECKING

from .point import LaneError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .point import BinaryCurve, Point

__all__ = [
    "KeyPair",
    "Signature",
    "generate_keypair",
    "keygen_batch",
    "ecdh_shared",
    "ecdh_batch",
    "ecdsa_sign",
    "sign_batch",
    "ecdsa_verify",
]


@dataclass(frozen=True, slots=True)
class KeyPair:
    """A private scalar and its public point ``Q = d * G``."""

    private: int
    public: Point


@dataclass(frozen=True, slots=True)
class Signature:
    """An ECDSA-style signature pair."""

    r: int
    s: int


def _scalar_bound(curve: BinaryCurve) -> int:
    """Exclusive upper bound for private scalars on ``curve``.

    The subgroup order when known; otherwise the field order, which keeps
    key generation meaningful on the unknown-order B-family (any scalar is
    a valid ECDH secret — throughput workloads never need ``n``).
    """
    return curve.order if curve.order is not None else curve.field.order


def _require_order(curve: BinaryCurve, what: str) -> int:
    if curve.order is None:
        raise ValueError(
            f"{what} needs a curve with a known subgroup order; "
            f"{curve.name or 'this curve'} does not record one (use a K-curve)"
        )
    return curve.order


def _inverses_mod(values: Sequence[int], modulus: int) -> List[int]:
    """Every ``value⁻¹ mod modulus`` from one ``pow(·, -1, modulus)``.

    Montgomery's simultaneous-inversion trick: prefix products, one
    inversion of their total, one backward walk; about three products
    per value.  Every value must be a unit mod ``modulus``.
    """
    prefixes = []
    running = 1
    for value in values:
        prefixes.append(running)
        running = running * value % modulus
    inverse = pow(running, -1, modulus)
    inverses = [0] * len(values)
    for index in range(len(values) - 1, -1, -1):
        inverses[index] = inverse * prefixes[index] % modulus
        inverse = inverse * values[index] % modulus
    return inverses


def generate_keypair(curve: BinaryCurve, rng: random.Random) -> KeyPair:
    """Draw a private scalar and compute its public point."""
    private = rng.randrange(1, _scalar_bound(curve))
    return KeyPair(private, curve.multiply(curve.generator, private))


def keygen_batch(
    curve: BinaryCurve,
    count: int,
    *,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
    batched: bool = True,
    backend=None,
    scalar_rep: str = "auto",
    fixed_base: Optional[bool] = None,
) -> List[KeyPair]:
    """Generate ``count`` key pairs, deriving the public points in one batch.

    ``seed`` (or an explicit ``rng``) makes the draw reproducible.
    ``backend`` selects the execution substrate of the batched ladder
    (:mod:`repro.backends`; results are byte-identical across backends;
    see :meth:`~repro.curves.point.BinaryCurve.multiply_batch`).  Every
    public point is a generator multiply, so by default (``fixed_base=
    None``) the batch evaluates through the precomputed comb table —
    ``fixed_base=False`` pins the ladders, and ``scalar_rep`` then picks
    the recoding (``"auto"``: τ-adic on Koblitz curves).  With
    ``batched=False`` each public point is computed by the scalar ladder
    instead — the reference path the batch is checked against.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if rng is None:
        rng = random.Random(seed)
    bound = _scalar_bound(curve)
    privates = [rng.randrange(1, bound) for _ in range(count)]
    generator = curve.generator
    if batched:
        publics = curve.multiply_batch(
            [generator] * count,
            privates,
            backend=backend,
            scalar_rep=scalar_rep,
            fixed_base=fixed_base,
        )
    else:
        publics = [curve.multiply(generator, private) for private in privates]
    return [KeyPair(private, public) for private, public in zip(privates, publics)]


def _peer_fault(curve: BinaryCurve, peer: Point) -> Optional[str]:
    """Why ``peer`` cannot be an ECDH peer (infinity, low order), or ``None``."""
    if peer.is_infinity:
        return "the peer public key is the point at infinity"
    if peer.x in curve.low_order_xs:
        return f"the peer public key is a low-order point of {curve.name or 'the curve'} (4P = O)"
    return None


def ecdh_shared(curve: BinaryCurve, private: int, peer_public: Point) -> Point:
    """The Diffie-Hellman shared point ``d * Q_peer``.

    Validates the peer: it must be a point of the curve, neither infinity
    nor of order dividing 4 (:attr:`~repro.curves.point.BinaryCurve
    .low_order_xs`), and the shared point must not be infinity; each
    failure raises ``ValueError``.  This is the one-lane scalar reference
    of :func:`ecdh_batch`.
    """
    if not curve.contains(peer_public):
        raise ValueError("the peer public key is not a point of the curve")
    return ecdh_batch(curve, [private], [peer_public], batched=False)[0]


def ecdh_batch(
    curve: BinaryCurve,
    privates: Sequence[int],
    peer_publics: Sequence[Point],
    *,
    batched: bool = True,
    backend=None,
    scalar_rep: str = "auto",
) -> List[Point]:
    """Shared points for many independent ``(private, peer)`` pairs.

    The batched path routes every ladder step through one execution
    backend (:mod:`repro.backends`; the per-field default, selectable via
    ``backend``), whose executor keeps all ladder steps in its packed
    representation (see
    :meth:`~repro.curves.point.BinaryCurve.multiply_batch`).
    ``scalar_rep`` picks the scalar recoding: the default ``"auto"``
    rides the τ-adic Frobenius ladder on Koblitz curves and the binary
    ladder elsewhere; ``"tau"`` demands τ (raising on non-Koblitz
    curves), ``"binary"`` pins the ladder.  ``batched=False`` is the
    scalar reference.  All paths return byte-identical points.  A peer at
    infinity or of order dividing 4, a peer off the curve, or a shared
    point at infinity refuses its lane: :class:`~repro.curves.point
    .LaneError` (a ``ValueError``) names every lane the first refusing
    check refused.  The peer checks refuse before any lane runs; the
    shared-point check runs last, so its error carries every lane's
    shared point in ``results``.  (The scalar reference refuses an
    off-curve peer with its ladder's plain ``ValueError``.)
    """
    if len(privates) != len(peer_publics):
        raise ValueError(
            f"batch size mismatch: {len(privates)} privates vs {len(peer_publics)} peers"
        )
    # On-curve validation happens once inside the ladder entry points; only
    # the protocol-level screens (infinity, low order) are needed here.
    LaneError.check(_peer_fault(curve, peer) for peer in peer_publics)
    if batched:
        shared = curve.multiply_batch(
            list(peer_publics),
            list(privates),
            backend=backend,
            scalar_rep=scalar_rep,
        )
    else:
        shared = [curve.multiply(peer, private) for private, peer in zip(privates, peer_publics)]
    # A shared point at infinity: the private scalar annihilates the peer.
    # Every lane has run, so the error carries the others' shared points.
    LaneError.check(
        ("the shared point is the point at infinity" if point.is_infinity else None for point in shared),
        shared,
    )
    return shared


def _deterministic_nonce(curve: BinaryCurve, private: int, digest: int, counter: int) -> int:
    order = curve.order or curve.field.order
    width = (order.bit_length() + 7) // 8
    material = hashlib.sha256(
        b"gf2m-repro nonce"
        + private.to_bytes(width, "big")
        + digest.to_bytes(max((digest.bit_length() + 7) // 8, 1), "big")
        + counter.to_bytes(4, "big")
    ).digest()
    while len(material) < width:
        material += hashlib.sha256(material).digest()
    return int.from_bytes(material[:width], "big") % order


def ecdsa_sign(
    curve: BinaryCurve,
    private: int,
    digest: int,
    *,
    nonce: Optional[int] = None,
) -> Signature:
    """ECDSA-style signature of an integer digest.

    Without an explicit ``nonce`` a deterministic one is derived from the
    key and digest, so signing is reproducible.  Raises ``ValueError`` on
    curves without a recorded subgroup order.
    """
    order = _require_order(curve, "ECDSA signing")
    if not 1 <= private < order:
        raise ValueError("the private key must satisfy 1 <= d < n")
    e = digest % order
    counter = 0
    while True:
        k = nonce if nonce is not None else _deterministic_nonce(curve, private, digest, counter)
        counter += 1
        if not 1 <= k < order:
            if nonce is not None:
                raise ValueError("the nonce must satisfy 1 <= k < n")
            continue
        point = curve.multiply(curve.generator, k)
        r = point.x % order
        if r == 0:
            if nonce is not None:
                raise ValueError("unlucky nonce: r = 0, pick another")
            continue
        s = (pow(k, -1, order) * (e + private * r)) % order
        if s == 0:
            if nonce is not None:
                raise ValueError("unlucky nonce: s = 0, pick another")
            continue
        return Signature(r, s)


def sign_batch(
    curve: BinaryCurve,
    privates: Sequence[int],
    digests: Sequence[int],
    *,
    batched: bool = True,
    backend=None,
    scalar_rep: str = "auto",
    fixed_base: Optional[bool] = None,
) -> List[Signature]:
    """Sign many independent ``(private, digest)`` pairs in one batch.

    The expensive step of every signature is the nonce multiply
    ``k * G`` — a generator multiply, exactly the shape :func:`keygen_batch`
    batches — so each retry round gathers the pending nonce multiplies
    into one :meth:`~repro.curves.point.BinaryCurve.multiply_batch` call
    (comb table by default, ``fixed_base``/``scalar_rep``/``backend`` as
    in :func:`keygen_batch`), and inverts the round's nonces together:
    one ``pow(·, -1, n)`` and about three products mod ``n`` per lane
    (Montgomery's trick), where :func:`ecdsa_sign` makes one inversion
    per signature.  The deterministic nonce schedule, its retry-counter
    semantics and the resulting ``(r, s)`` pairs are byte-identical to
    calling :func:`ecdsa_sign` per pair, on every backend;
    ``batched=False`` is that scalar reference.  Retries beyond the first
    round are astronomically rare (``k`` invalid, ``r = 0`` or ``s = 0``),
    but the loop replicates them faithfully, one inversion per round.  A
    private key outside ``1 <= d < n`` refuses its lane
    (:class:`~repro.curves.point.LaneError`).
    """
    order = _require_order(curve, "ECDSA signing")
    if len(privates) != len(digests):
        raise ValueError(
            f"batch size mismatch: {len(privates)} privates vs {len(digests)} digests"
        )
    LaneError.check(
        None if 1 <= private < order else "the private key must satisfy 1 <= d < n"
        for private in privates
    )
    if not batched:
        return [
            ecdsa_sign(curve, private, digest)
            for private, digest in zip(privates, digests)
        ]
    count = len(privates)
    results: "List[Optional[Signature]]" = [None] * count
    counters = [0] * count
    pending = list(range(count))
    generator = curve.generator
    while pending:
        retry: List[int] = []
        lanes: List[int] = []
        nonces: List[int] = []
        for index in pending:
            k = _deterministic_nonce(curve, privates[index], digests[index], counters[index])
            counters[index] += 1
            if 1 <= k < order:
                lanes.append(index)
                nonces.append(k)
            else:
                retry.append(index)
        if lanes:
            points = curve.multiply_batch(
                [generator] * len(nonces),
                nonces,
                backend=backend,
                scalar_rep=scalar_rep,
                fixed_base=fixed_base,
            )
            # Every catalog order is prime, so every valid nonce is a unit.
            for index, point, k_inverse in zip(lanes, points, _inverses_mod(nonces, order)):
                r = point.x % order
                if r == 0:
                    retry.append(index)
                    continue
                s = k_inverse * (digests[index] % order + privates[index] * r) % order
                if s == 0:
                    retry.append(index)
                    continue
                results[index] = Signature(r, s)
        pending = retry
    return results  # type: ignore[return-value]


def ecdsa_verify(curve: BinaryCurve, public: Point, digest: int, signature: Signature) -> bool:
    """Check an ECDSA-style signature against a public point."""
    order = _require_order(curve, "ECDSA verification")
    if not curve.contains(public) or public.is_infinity:
        return False
    r, s = signature.r, signature.s
    if not (1 <= r < order and 1 <= s < order):
        return False
    e = digest % order
    w = pow(s, -1, order)
    u1 = (e * w) % order
    u2 = (r * w) % order
    point = curve.add(curve.multiply(curve.generator, u1), curve.multiply(public, u2))
    if point.is_infinity:
        return False
    return point.x % order == r
