"""Tests for ECDH / ECDSA-style protocol workloads (`repro.curves.protocols`)."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.curves import (
    LaneError,
    curve_by_name,
    ecdh_batch,
    ecdh_shared,
    ecdsa_sign,
    ecdsa_verify,
    generate_keypair,
    keygen_batch,
    sign_batch,
)
from repro.curves import protocols
from repro.curves.point import BinaryCurve
from repro.curves.protocols import Signature


@pytest.fixture(scope="module")
def toy():
    return curve_by_name("T-13")


@pytest.fixture(scope="module")
def k163():
    return curve_by_name("K-163")


@pytest.fixture
def inversions(monkeypatch):
    """The modulus of every ``pow(·, -1, n)`` the protocols module makes."""
    log = []

    def counting_pow(base, exponent, modulus=None):
        if exponent == -1:
            log.append(modulus)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(protocols, "pow", counting_pow, raising=False)
    return log


def _sign_lanes(curve, count, seed):
    rng = random.Random(seed)
    return [rng.randrange(1, curve.order) for _ in range(count)], [rng.getrandbits(256) for _ in range(count)]


class TestKeygen:
    def test_keypair_public_matches_private(self, toy):
        pair = generate_keypair(toy, random.Random(1))
        assert 1 <= pair.private < toy.order
        assert pair.public == toy.multiply_reference(toy.generator, pair.private)

    def test_keygen_batch_deterministic_by_seed(self, toy):
        assert keygen_batch(toy, 5, seed=42) == keygen_batch(toy, 5, seed=42)
        assert keygen_batch(toy, 5, seed=42) != keygen_batch(toy, 5, seed=43)

    def test_keygen_batch_matches_scalar_path(self, toy):
        batched = keygen_batch(toy, 12, seed=7)
        scalar = keygen_batch(toy, 12, seed=7, batched=False)
        assert batched == scalar

    def test_keygen_rejects_negative_count(self, toy):
        with pytest.raises(ValueError):
            keygen_batch(toy, -1)


class TestEcdh:
    def test_known_answer_t13(self, toy):
        """Pinned regression vector: seeds 101/202 on the toy curve."""
        alice = keygen_batch(toy, 2, seed=101)
        bob = keygen_batch(toy, 2, seed=202)
        assert [pair.private for pair in alice] == [1191, 1735]
        assert [pair.private for pair in bob] == [1565, 790]
        shared = [
            ecdh_shared(toy, a.private, b.public) for a, b in zip(alice, bob)
        ]
        assert [(point.x, point.y) for point in shared] == [(0x1836, 0x18A6), (0x1D36, 0x130F)]

    def test_known_answer_k163(self, k163):
        """Pinned regression vector on the NIST-degree Koblitz curve."""
        alice = generate_keypair(k163, random.Random(163))
        bob = generate_keypair(k163, random.Random(233))
        shared = ecdh_shared(k163, alice.private, bob.public)
        assert shared.x == 0x1A4939A008B32D2A8FF5E1004D58E3E519D6A77DA
        assert shared.y == 0x36A0DEA12E4511598DEE9D4345E12E36E8D0E6224

    def test_agreement_both_directions(self, toy):
        alice = keygen_batch(toy, 8, seed=1)
        bob = keygen_batch(toy, 8, seed=2)
        left = ecdh_batch(toy, [kp.private for kp in alice], [kp.public for kp in bob])
        right = ecdh_batch(toy, [kp.private for kp in bob], [kp.public for kp in alice])
        assert left == right

    def test_batched_byte_identical_to_scalar_reference(self, toy):
        alice = keygen_batch(toy, 16, seed=3)
        bob = keygen_batch(toy, 16, seed=4)
        privates = [kp.private for kp in alice]
        peers = [kp.public for kp in bob]
        assert ecdh_batch(toy, privates, peers) == ecdh_batch(toy, privates, peers, batched=False)

    def test_rejects_off_curve_peer(self, toy):
        with pytest.raises(ValueError, match="peer"):
            ecdh_shared(toy, 5, toy.point(2, 0, check=False))

    def test_rejects_infinity_peer(self, toy):
        with pytest.raises(ValueError, match="peer"):
            ecdh_shared(toy, 5, toy.infinity())

    def test_rejects_size_mismatch(self, toy):
        with pytest.raises(ValueError, match="mismatch"):
            ecdh_batch(toy, [1, 2], [toy.generator])

    def test_batch_names_every_off_curve_peer(self, toy):
        privates = [pair.private for pair in keygen_batch(toy, 5, seed=6)]
        peers = [pair.public for pair in keygen_batch(toy, 5, seed=7)]
        for lane in (1, 3):
            peers[lane] = toy.point(peers[lane].x, peers[lane].y ^ 1, check=False)
        with pytest.raises(LaneError, match="^lane 1: .*not a point of T-13; 2 lanes refused$") as refused:
            ecdh_batch(toy, privates, peers)
        assert list(refused.value.lanes) == [1, 3]
        assert isinstance(refused.value, ValueError)
        assert refused.value.results is None  # refused before any lane ran

    def test_a_shared_point_at_infinity_carries_the_other_lanes(self, toy):
        import pickle

        privates = [pair.private for pair in keygen_batch(toy, 4, seed=8)]
        peers = [pair.public for pair in keygen_batch(toy, 4, seed=9)]
        privates[2] = toy.order  # annihilates its peer
        with pytest.raises(LaneError, match="^lane 2: the shared point is the point at infinity$") as refused:
            ecdh_batch(toy, privates, peers)
        results = refused.value.results
        assert results[2].is_infinity
        for lane in (0, 1, 3):
            assert results[lane] == ecdh_shared(toy, privates[lane], peers[lane])
        copy = pickle.loads(pickle.dumps(refused.value))
        assert (copy.lanes, copy.results, str(copy)) == (refused.value.lanes, results, str(refused.value))

    def test_works_on_unknown_order_curve(self):
        b163 = curve_by_name("B-163")
        alice = keygen_batch(b163, 2, seed=5)
        bob = keygen_batch(b163, 2, seed=6)
        left = ecdh_batch(b163, [kp.private for kp in alice], [kp.public for kp in bob])
        right = ecdh_batch(b163, [kp.private for kp in bob], [kp.public for kp in alice])
        assert left == right

    @pytest.mark.parametrize(
        "name, required",
        [("B-163", {"ladder.step"}), ("T-13", {"ladder.tau.step", "comb.step"})],
        ids=["B-163", "T-13"],
    )
    def test_traced_engine_run_records_step_and_pass_spans(self, name, required):
        """The interpreting executor traces like the compiled ones."""
        from repro.telemetry import trace

        curve = curve_by_name(name)
        previous = trace.TRACER
        tracer = trace.enable()
        try:
            alice = keygen_batch(curve, 4, seed=7, backend="engine")
            bob = keygen_batch(curve, 4, seed=8, backend="engine")
            shared = ecdh_batch(
                curve, [kp.private for kp in alice], [kp.public for kp in bob], backend="engine"
            )
        finally:
            trace.set_tracer(previous)
        names = {event["name"] for event in tracer.events()}
        assert required <= names, sorted(names)
        assert any(name.startswith("ir.pass.") for name in names), sorted(names)
        assert shared == [curve.multiply(b.public, a.private) for a, b in zip(alice, bob)]


def _low_order_peers():
    """Catalog points of order 2 and 4: (0, sqrt(b)), and (b^(1/4), y) when Tr(a) = 0."""
    b163 = curve_by_name("B-163")
    return [
        ("K-163", 0, 1),
        ("K-233", 0, 1),
        ("K-233", 1, 0),
        ("K-233", 1, 1),
        ("T-13", 0, 1),
        ("T-13", 1, 0),
        ("T-13", 1, 1),
        ("B-163", 0, b163.field.sqrt(b163.b)),
    ]


def _ecdh_entry_points():
    """Every ECDH entry point, each fed one valid lane beside the peer under test."""

    def batched(curve, private, peer):
        return ecdh_batch(curve, [private, private], [curve.generator, peer])

    def scalar(curve, private, peer):
        return ecdh_batch(curve, [private, private], [curve.generator, peer], batched=False)

    return {"ecdh_shared": ecdh_shared, "ecdh_batch": batched, "ecdh_batch-scalar": scalar}


class TestLowOrderPeers:
    """SEC 1 §3.2.2 / NIST SP 800-56A §5.6.2.3: a peer whose small multiple
    is infinity would leak the private scalar modulo its order."""

    @pytest.mark.parametrize("name, x, y", _low_order_peers())
    def test_catalog_points_have_order_two_or_four(self, name, x, y):
        curve = curve_by_name(name)
        point = curve.point(x, y)
        assert not point.is_infinity
        assert curve.double(curve.double(point)).is_infinity
        assert x in curve.low_order_xs

    @pytest.mark.parametrize("entry", sorted(_ecdh_entry_points()))
    @pytest.mark.parametrize("name, x, y", _low_order_peers())
    def test_every_entry_point_refuses_them(self, name, x, y, entry):
        curve = curve_by_name(name)
        peer = curve.point(x, y)
        # Before the check, d and d + 2 gave different answers: d mod 2 (and
        # on order-4 points d mod 4) leaked.
        for private in (6, 7):
            with pytest.raises(ValueError, match="low-order"):
                _ecdh_entry_points()[entry](curve, private, peer)

    def test_low_order_xs_is_exactly_the_four_torsion_on_t13(self, toy):
        field = toy.field
        four_torsion = set()
        for x in range(field.order):
            y = toy.solve_y(x)
            if y is not None and toy.double(toy.double(toy.point(x, y))).is_infinity:
                four_torsion.add(x)
        assert four_torsion == set(toy.low_order_xs) == {0, 1}

    @pytest.mark.parametrize("entry", sorted(_ecdh_entry_points()))
    def test_shared_point_at_infinity_is_refused(self, toy, entry):
        # The generator has order n, so d = n annihilates it.
        with pytest.raises(ValueError, match="infinity"):
            _ecdh_entry_points()[entry](toy, toy.order, toy.generator)


class TestEcdsa:
    def test_sign_verify_roundtrip(self, toy):
        pair = generate_keypair(toy, random.Random(5))
        for digest in (0, 1, 123456789, 1 << 200):
            signature = ecdsa_sign(toy, pair.private, digest)
            assert ecdsa_verify(toy, pair.public, digest, signature)

    def test_deterministic_signatures(self, toy):
        pair = generate_keypair(toy, random.Random(6))
        assert ecdsa_sign(toy, pair.private, 99) == ecdsa_sign(toy, pair.private, 99)

    def test_tampered_digest_rejected(self, toy):
        pair = generate_keypair(toy, random.Random(7))
        signature = ecdsa_sign(toy, pair.private, 1000)
        assert not ecdsa_verify(toy, pair.public, 1001, signature)

    def test_tampered_signature_rejected(self, toy):
        pair = generate_keypair(toy, random.Random(8))
        signature = ecdsa_sign(toy, pair.private, 1000)
        bad = Signature(signature.r, signature.s ^ 1)
        assert not ecdsa_verify(toy, pair.public, 1000, bad)

    def test_wrong_key_rejected(self, toy):
        pair = generate_keypair(toy, random.Random(9))
        other = generate_keypair(toy, random.Random(10))
        signature = ecdsa_sign(toy, pair.private, 1000)
        assert not ecdsa_verify(toy, other.public, 1000, signature)

    def test_out_of_range_signature_rejected(self, toy):
        pair = generate_keypair(toy, random.Random(11))
        assert not ecdsa_verify(toy, pair.public, 1, Signature(0, 1))
        assert not ecdsa_verify(toy, pair.public, 1, Signature(1, toy.order))

    def test_explicit_nonce_reproduces(self, toy):
        pair = generate_keypair(toy, random.Random(12))
        assert ecdsa_sign(toy, pair.private, 5, nonce=77) == ecdsa_sign(toy, pair.private, 5, nonce=77)

    def test_invalid_nonce_rejected(self, toy):
        pair = generate_keypair(toy, random.Random(13))
        with pytest.raises(ValueError, match="nonce"):
            ecdsa_sign(toy, pair.private, 5, nonce=0)

    def test_unknown_order_curve_raises_clear_error(self):
        b163 = curve_by_name("B-163")
        with pytest.raises(ValueError, match="known subgroup order"):
            ecdsa_sign(b163, 12345, 1)
        with pytest.raises(ValueError, match="known subgroup order"):
            ecdsa_verify(b163, b163.generator, 1, Signature(1, 1))

    def test_k163_roundtrip(self, k163):
        pair = generate_keypair(k163, random.Random(14))
        digest = 0x1234567890ABCDEF
        signature = ecdsa_sign(k163, pair.private, digest)
        assert ecdsa_verify(k163, pair.public, digest, signature)
        assert not ecdsa_verify(k163, pair.public, digest + 1, signature)


class TestSignBatch:
    def test_batched_signatures_equal_scalar_reference(self, toy):
        rng = random.Random(20)
        privates = [rng.randrange(1, toy.order) for _ in range(12)]
        digests = [rng.getrandbits(64) for _ in range(12)]
        batched = sign_batch(toy, privates, digests)
        scalar = [ecdsa_sign(toy, d, z) for d, z in zip(privates, digests)]
        assert batched == scalar

    def test_batched_false_is_the_scalar_path(self, toy):
        rng = random.Random(21)
        privates = [rng.randrange(1, toy.order) for _ in range(4)]
        digests = [rng.getrandbits(32) for _ in range(4)]
        assert sign_batch(toy, privates, digests, batched=False) == sign_batch(
            toy, privates, digests
        )

    def test_signatures_verify_against_their_publics(self, toy):
        pairs = keygen_batch(toy, 6, seed=22)
        digests = list(range(100, 106))
        signatures = sign_batch(toy, [pair.private for pair in pairs], digests)
        for pair, digest, signature in zip(pairs, digests, signatures):
            assert ecdsa_verify(toy, pair.public, digest, signature)

    def test_backend_and_route_pins_stay_byte_identical(self, toy):
        rng = random.Random(23)
        privates = [rng.randrange(1, toy.order) for _ in range(5)]
        digests = [rng.getrandbits(48) for _ in range(5)]
        reference = sign_batch(toy, privates, digests)
        assert sign_batch(toy, privates, digests, backend="python") == reference
        assert sign_batch(toy, privates, digests, fixed_base=False) == reference
        assert sign_batch(
            toy, privates, digests, fixed_base=False, scalar_rep="binary"
        ) == reference

    def test_length_mismatch_and_bad_private_raise(self, toy):
        with pytest.raises(ValueError, match="mismatch"):
            sign_batch(toy, [1, 2], [3])
        with pytest.raises(ValueError, match="1 <= d < n"):
            sign_batch(toy, [0], [1])

    def test_unknown_order_curve_raises(self):
        b163 = curve_by_name("B-163")
        with pytest.raises(ValueError, match="known subgroup order"):
            sign_batch(b163, [5], [7])

    def test_empty_batch(self, toy):
        assert sign_batch(toy, [], []) == []

    @pytest.mark.parametrize("name, count", [("K-163", 8), ("K-283", 4)])
    def test_nist_koblitz_lanes_equal_scalar_reference(self, name, count):
        curve = curve_by_name(name)
        privates, digests = _sign_lanes(curve, count, seed=24)
        assert sign_batch(curve, privates, digests) == [
            ecdsa_sign(curve, d, z) for d, z in zip(privates, digests)
        ]

    def test_one_inversion_per_signing_round(self, k163, inversions, monkeypatch):
        privates, digests = _sign_lanes(k163, 64, seed=25)
        reference = [ecdsa_sign(k163, d, z) for d, z in zip(privates, digests)]
        rounds = []
        multiply_batch = BinaryCurve.multiply_batch

        def counting_multiply_batch(curve, points, scalars, **kwargs):
            rounds.append(len(scalars))
            return multiply_batch(curve, points, scalars, **kwargs)

        monkeypatch.setattr(BinaryCurve, "multiply_batch", counting_multiply_batch)
        inversions.clear()
        assert sign_batch(k163, privates, digests) == reference
        assert rounds == [64]
        assert inversions == [k163.order]

    def test_forced_retries_equal_scalar_reference(self, toy, inversions, monkeypatch):
        """An ``s = 0`` lane and invalid-nonce lanes retry exactly as :func:`ecdsa_sign` does."""
        order = toy.order
        privates, digests = _sign_lanes(toy, 6, seed=26)
        nonce = protocols._deterministic_nonce
        # Lane 0's first nonce is the reference nonce of digest 0, and its
        # digest makes s = k⁻¹(e + r·d) vanish: e ≡ −r·d (mod n).
        first = nonce(toy, privates[0], 0, 0)
        r = toy.multiply(toy.generator, first).x % order
        digests[0] = -r * privates[0] % order
        with pytest.raises(ValueError, match="s = 0"):
            ecdsa_sign(toy, privates[0], digests[0], nonce=first)
        # Lanes 1 and 2 draw an invalid first nonce (k = 0, k = n).
        forced = {privates[0]: first, privates[1]: 0, privates[2]: order}

        def forced_nonce(curve, private, digest, counter):
            if counter == 0 and private in forced:
                return forced[private]
            return nonce(curve, private, digest, counter)

        monkeypatch.setattr(protocols, "_deterministic_nonce", forced_nonce)
        reference = [ecdsa_sign(toy, d, z) for d, z in zip(privates, digests)]
        inversions.clear()
        assert sign_batch(toy, privates, digests) == reference
        # Round one multiplies lanes 0 and 3-5 and signs 3-5; round two signs 0-2.
        assert inversions == [order, order]


ORDERS = [curve_by_name(name).order for name in ("T-13", "K-163", "K-283")]


class TestInversesMod:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ORDERS).flatmap(
        lambda order: st.tuples(st.just(order), st.lists(st.integers(1, order - 1), max_size=40))
    ))
    @example((ORDERS[1], []))
    @example((ORDERS[1], [ORDERS[1] - 1]))
    def test_every_value_gets_its_own_inverse(self, case):
        order, values = case
        inverses = protocols._inverses_mod(values, order)
        assert inverses == [pow(value, -1, order) for value in values]
        assert all(value * inverse % order == 1 for value, inverse in zip(values, inverses))
