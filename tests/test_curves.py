"""Tests for the binary elliptic-curve subsystem (`repro.curves`)."""

from __future__ import annotations

import random

import pytest

from repro.curves import CURVES, BinaryCurve, LaneError, available_curves, curve_by_name, curve_catalog
from repro.galois.field import GF2mField
from repro.galois.pentanomials import smallest_type_ii_pentanomial, type_ii_parameters


@pytest.fixture(scope="module")
def toy():
    return curve_by_name("T-13")


@pytest.fixture(scope="module")
def k163():
    return curve_by_name("K-163")


class TestCatalog:
    def test_all_nist_degrees_present_in_both_families(self):
        names = set(available_curves())
        for m in (163, 233, 283, 409, 571):
            assert f"K-{m}" in names and f"B-{m}" in names

    def test_catalog_pentanomials_are_the_smallest_irreducible_ones(self):
        # K-m and B-m share (m, n); search each field once.
        for m, n in sorted({(spec.m, spec.n) for spec in CURVES}):
            assert type_ii_parameters(smallest_type_ii_pentanomial(m)) == (m, n)

    def test_lookup_is_case_insensitive_and_cached(self):
        assert curve_by_name("b-163") is curve_by_name("B-163")

    def test_unknown_curve_raises_with_catalog(self):
        with pytest.raises(KeyError, match="K-163"):
            curve_by_name("P-256")

    def test_koblitz_curves_record_orders_pseudorandom_do_not(self):
        catalog = curve_catalog()
        for m in (163, 233, 283, 409, 571):
            assert catalog[f"K-{m}"].order is not None
            assert catalog[f"K-{m}"].cofactor in (2, 4)
            assert catalog[f"B-{m}"].order is None

    def test_derived_b_is_deterministic_and_in_range(self):
        catalog = curve_catalog()
        for m in (163, 233):
            spec = catalog[f"B-{m}"]
            b = spec.coefficient_b()
            assert b == spec.coefficient_b()
            assert 0 < b < (1 << m)

    def test_singular_curve_rejected(self, toy):
        with pytest.raises(ValueError, match="singular"):
            BinaryCurve(toy.field, 0, 0)

    def test_reducible_modulus_rejected(self):
        ring = GF2mField(0b111 << 2 | 0b11, check_irreducible=False)  # reducible
        if not ring.is_field:
            with pytest.raises(ValueError, match="true field"):
                BinaryCurve(ring, 0, 1)


class TestGroupLaw:
    def test_identity_and_inverse(self, toy):
        rng = random.Random(1)
        infinity = toy.infinity()
        for _ in range(50):
            p = toy.random_point(rng)
            assert toy.add(p, infinity) == p
            assert toy.add(infinity, p) == p
            assert toy.add(p, toy.negate(p)).is_infinity
            assert toy.negate(toy.negate(p)) == p

    def test_commutativity_and_associativity(self, toy):
        rng = random.Random(2)
        for _ in range(50):
            p, q, r = (toy.random_point(rng) for _ in range(3))
            assert toy.add(p, q) == toy.add(q, p)
            assert toy.add(toy.add(p, q), r) == toy.add(p, toy.add(q, r))

    def test_doubling_matches_addition(self, toy):
        rng = random.Random(3)
        for _ in range(20):
            p = toy.random_point(rng)
            assert toy.double(p) == toy.add(p, p)

    def test_points_validated_on_construction(self, toy):
        assert not toy.is_on_curve(2, 0)
        with pytest.raises(ValueError, match="does not satisfy"):
            toy.point(2, 0)
        # The unchecked escape hatch still works.
        assert toy.point(2, 0, check=False).x == 2

    def test_order_two_point(self, toy):
        y = toy.solve_y(0)
        p = toy.point(0, y)
        assert toy.double(p).is_infinity
        assert toy.multiply(p, 3) == p
        assert toy.multiply(p, 4).is_infinity

    def test_group_order_annihilates_random_points(self, toy):
        # #E = h * n = 4 * 2003 = 8012, verified by exhaustive point count.
        rng = random.Random(4)
        for _ in range(10):
            p = toy.random_point(rng)
            assert toy.multiply(p, toy.order * toy.cofactor).is_infinity


class TestScalarMultiplication:
    def test_ladders_match_double_and_add(self, toy):
        rng = random.Random(5)
        for _ in range(30):
            p = toy.random_point(rng)
            k = rng.randrange(0, 3 * toy.order)
            reference = toy.multiply_reference(p, k)
            assert toy.multiply(p, k) == reference

    def test_negative_zero_and_unit_scalars(self, toy):
        rng = random.Random(6)
        p = toy.random_point(rng)
        assert toy.multiply(p, 0).is_infinity
        assert toy.multiply(p, 1) == p
        assert toy.multiply(p, -1) == toy.negate(p)
        assert toy.multiply(p, -7) == toy.multiply_reference(toy.negate(p), 7)

    def test_multiplying_infinity(self, toy):
        assert toy.multiply(toy.infinity(), 12345).is_infinity

    def test_off_curve_base_point_rejected(self, toy):
        with pytest.raises(ValueError, match="not a point"):
            toy.multiply(toy.point(2, 0, check=False), 5)

    def test_distributes_over_scalar_addition(self, toy):
        rng = random.Random(7)
        g = toy.generator
        for _ in range(10):
            j, k = rng.randrange(1, toy.order), rng.randrange(1, toy.order)
            assert toy.add(toy.multiply(g, j), toy.multiply(g, k)) == toy.multiply(g, j + k)

    def test_k163_matches_reference_ladder(self, k163):
        rng = random.Random(8)
        p = k163.random_point(rng)
        k = rng.getrandbits(80)
        assert k163.multiply(p, k) == k163.multiply_reference(p, k)


class TestBatchedLadder:
    def test_batch_byte_identical_to_scalar_ladder(self, toy):
        rng = random.Random(9)
        points = [toy.random_point(rng) for _ in range(24)]
        scalars = [rng.randrange(0, 2 * toy.order) for _ in range(24)]
        # Force the edge cases into the batch as well.
        scalars[0] = 0
        scalars[1] = 1
        scalars[2] = -5
        points[3] = toy.infinity()
        points[4] = toy.point(0, toy.solve_y(0))
        batch = toy.multiply_batch(points, scalars)
        for point, scalar, result in zip(points, scalars, batch):
            assert result == toy.multiply(point, scalar)

    def test_mixed_scalar_widths_share_one_ladder(self, toy):
        rng = random.Random(10)
        points = [toy.random_point(rng) for _ in range(6)]
        scalars = [1, 2, 3, 2003, 4, rng.randrange(1, toy.order)]
        batch = toy.multiply_batch(points, scalars)
        for point, scalar, result in zip(points, scalars, batch):
            assert result == toy.multiply_reference(point, scalar)

    def test_batch_size_mismatch_rejected(self, toy):
        with pytest.raises(ValueError, match="mismatch"):
            toy.multiply_batch([toy.generator], [1, 2])

    def test_refused_bases_are_named_by_lane(self, toy):
        rng = random.Random(12)
        good = toy.random_point(rng)
        off = toy.point(good.x, good.y ^ 1, check=False)
        other = BinaryCurve(toy.field, toy.a, toy.b ^ 2)
        foreign = other.random_point(rng)
        # A repeated off-curve base is priced once and refuses every lane it sits in.
        with pytest.raises(LaneError) as refused:
            toy.multiply_batch([off, good, off, foreign, toy.infinity()], [3] * 5)
        assert list(refused.value.lanes) == [0, 2, 3]
        assert all("not a point of T-13" in reason for reason in refused.value.lanes.values())

    def test_empty_batch(self, toy):
        assert toy.multiply_batch([], []) == []

    def test_k163_batch_matches_scalar(self, k163):
        rng = random.Random(11)
        points = [k163.random_point(rng) for _ in range(4)]
        scalars = [rng.getrandbits(64) for _ in range(4)]
        batch = k163.multiply_batch(points, scalars)
        for point, scalar, result in zip(points, scalars, batch):
            assert result == k163.multiply(point, scalar)


class TestPointTools:
    def test_solve_y_lands_on_curve(self, toy):
        found = 0
        for x in range(1, 200):
            y = toy.solve_y(x)
            if y is not None:
                assert toy.is_on_curve(x, y)
                assert toy.is_on_curve(x, y ^ x)  # the other root
                found += 1
        assert found > 0

    def test_generator_has_catalog_order(self, toy):
        g = toy.generator
        assert not g.is_infinity
        assert toy.multiply(g, toy.order).is_infinity
        assert not toy.multiply(g, toy.cofactor).is_infinity or toy.order == toy.cofactor

    def test_k163_standard_order_annihilates(self, k163):
        """The catalog's basis-independent Koblitz order is genuine."""
        p = k163.random_point(random.Random(12))
        assert k163.multiply(p, k163.order * k163.cofactor).is_infinity
        assert k163.multiply(k163.generator, k163.order).is_infinity

    def test_k233_standard_order_annihilates(self):
        k233 = curve_by_name("K-233")
        p = k233.random_point(random.Random(13))
        assert k233.multiply(p, k233.order * k233.cofactor).is_infinity

    def test_point_operator_syntax(self, toy):
        g = toy.generator
        assert g + (-g) == toy.infinity()
        assert 5 * g == toy.multiply_reference(g, 5)
        assert (2 * g) - g == g

    def test_exhaustive_point_count_matches_catalog(self, toy):
        """#E = 1 + sum over x of the number of curve points; equals h*n."""
        field = toy.field
        count = 2  # infinity + the single point with x = 0
        for x in range(1, field.order):
            c = x ^ toy.a ^ field.multiply(toy.b, field.inverse(field.square(x)))
            if field.trace(c) == 0:
                count += 2
        assert count == toy.order * toy.cofactor


class TestPointRepresentation:
    def test_point_is_slotted_and_pickles(self):
        """Batches hold hundreds of result points: no per-instance ``__dict__``."""
        import pickle

        curve = curve_by_name("K-163")
        point = curve.multiply(curve.generator, 12345)
        assert not hasattr(point, "__dict__")
        copy = pickle.loads(pickle.dumps(point))
        assert copy == point and copy.curve == curve
        assert pickle.loads(pickle.dumps(curve.infinity())).is_infinity
