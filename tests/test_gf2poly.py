"""Unit tests for GF(2)[y] polynomial arithmetic."""

from __future__ import annotations

import random

import pytest

from repro.galois.gf2poly import (
    clmul,
    degree,
    exponents,
    from_coefficient_list,
    from_exponents,
    is_irreducible,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mulmod,
    poly_powmod,
    poly_square,
    poly_to_string,
    to_coefficient_list,
    weight,
)


class TestBasics:
    def test_degree_of_zero_is_minus_one(self):
        assert degree(0) == -1

    def test_degree_matches_bit_length(self):
        assert degree(1) == 0
        assert degree(0b100011101) == 8

    def test_degree_rejects_negative(self):
        with pytest.raises(ValueError):
            degree(-1)

    def test_weight_counts_nonzero_coefficients(self):
        assert weight(0) == 0
        assert weight(0b100011101) == 5

    def test_exponents_round_trip(self):
        poly = 0b1001101
        assert from_exponents(exponents(poly)) == poly

    def test_from_exponents_cancels_duplicates(self):
        assert from_exponents([3, 3, 1]) == 0b10

    def test_coefficient_list_round_trip(self):
        poly = 0b101101
        assert from_coefficient_list(to_coefficient_list(poly)) == poly

    def test_coefficient_list_padding(self):
        assert to_coefficient_list(0b11, length=5) == [1, 1, 0, 0, 0]

    def test_coefficient_list_too_short_raises(self):
        with pytest.raises(ValueError):
            to_coefficient_list(0b11111, length=3)

    def test_poly_to_string(self):
        assert poly_to_string(0b100011101) == "y^8 + y^4 + y^3 + y^2 + 1"
        assert poly_to_string(0b11, variable="x") == "x + 1"
        assert poly_to_string(0) == "0"


class TestMultiplication:
    def test_clmul_simple(self):
        # (y + 1)(y^2 + y + 1) = y^3 + 1 over GF(2)
        assert clmul(0b11, 0b111) == 0b1001

    def test_clmul_commutative(self):
        rng = random.Random(7)
        for _ in range(50):
            a = rng.getrandbits(40)
            b = rng.getrandbits(40)
            assert clmul(a, b) == clmul(b, a)

    def test_clmul_distributes_over_xor(self):
        rng = random.Random(8)
        for _ in range(50):
            a, b, c = (rng.getrandbits(30) for _ in range(3))
            assert clmul(a, b ^ c) == clmul(a, b) ^ clmul(a, c)

    def test_clmul_degree_adds(self):
        assert degree(clmul(0b1011, 0b110)) == degree(0b1011) + degree(0b110)

    def test_square_is_self_multiplication(self):
        rng = random.Random(9)
        for _ in range(30):
            a = rng.getrandbits(25)
            assert poly_square(a) == clmul(a, a)


class TestDivision:
    def test_divmod_identity(self):
        rng = random.Random(11)
        for _ in range(100):
            dividend = rng.getrandbits(48)
            divisor = rng.getrandbits(20) | 1 << 19
            quotient, remainder = poly_divmod(dividend, divisor)
            assert clmul(quotient, divisor) ^ remainder == dividend
            assert degree(remainder) < degree(divisor)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(0b101, 0)

    def test_mod_of_smaller_is_identity(self):
        assert poly_mod(0b101, 0b100011101) == 0b101

    def test_mulmod_matches_manual_reduction(self):
        modulus = 0b100011101
        assert poly_mulmod(1 << 4, 1 << 4, modulus) == poly_mod(1 << 8, modulus)

    def test_powmod_matches_repeated_multiplication(self):
        modulus = 0b1011
        value = 0b10
        accumulated = 1
        for exponent in range(10):
            assert poly_powmod(value, exponent, modulus) == accumulated
            accumulated = poly_mulmod(accumulated, value, modulus)

    def test_powmod_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            poly_powmod(0b10, -1, 0b1011)


class TestGcd:
    def test_gcd_of_multiples(self):
        common = 0b111
        assert poly_gcd(clmul(common, 0b1011), clmul(common, 0b1101)) == common

    def test_gcd_with_zero(self):
        assert poly_gcd(0, 0b1101) == 0b1101
        assert poly_gcd(0b1101, 0) == 0b1101

    def test_gcd_of_coprime_is_one(self):
        # y and y + 1 are coprime
        assert poly_gcd(0b10, 0b11) == 1


class TestIrreducibility:
    def test_known_irreducible_polynomials(self):
        assert is_irreducible(0b111)          # y^2 + y + 1
        assert is_irreducible(0b1011)         # y^3 + y + 1
        assert is_irreducible(0b100011101)    # CCSDS GF(2^8)
        assert is_irreducible(0b100011011)    # AES GF(2^8)

    def test_known_reducible_polynomials(self):
        assert not is_irreducible(0b101)      # (y + 1)^2
        assert not is_irreducible(0b110)      # divisible by y
        assert not is_irreducible(0b1111)     # (y+1)(y^2+y+1)

    def test_degree_zero_and_constants_are_not_irreducible(self):
        assert not is_irreducible(1)
        assert not is_irreducible(0)

    def test_linear_polynomials_are_irreducible(self):
        assert is_irreducible(0b10)
        assert is_irreducible(0b11)

    @pytest.mark.parametrize("d", range(1, 15))
    def test_count_of_irreducible_matches_gauss(self, d):
        # Gauss: (1/d) * sum over k | d of mobius(d/k) * 2^k irreducibles of degree d.
        def mobius(n):
            sign, p = 1, 2
            while n > 1:
                if n % p == 0:
                    n //= p
                    if n % p == 0:
                        return 0
                    sign = -sign
                p += 1
            return sign

        expected = sum(mobius(d // k) * 2**k for k in range(1, d + 1) if d % k == 0) // d
        count = sum(1 for poly in range(1 << d, 1 << (d + 1)) if is_irreducible(poly))
        assert count == expected

    def test_agrees_with_trial_division_up_to_degree_12(self):
        def has_factor(poly):
            # Every polynomial of degree 1 .. deg(poly)/2 as a candidate divisor.
            return any(poly_mod(poly, g) == 0 for g in range(2, 1 << (degree(poly) // 2 + 1)))

        for poly in range(2, 1 << 13):
            assert is_irreducible(poly) == (not has_factor(poly)), poly_to_string(poly)

    def test_factor_of_half_the_degree_is_found_at_the_last_step(self):
        # Ben-Or sees a factor of degree m/2 only at its last squaring, i = m/2.
        y4 = 0b10011                                # y^4 + y + 1
        y5 = 0b100101                               # y^5 + y^2 + 1
        nist_163 = from_exponents([163, 7, 6, 3, 0])
        type_ii_163 = from_exponents([163, 68, 67, 66, 0])
        assert is_irreducible(nist_163) and is_irreducible(type_ii_163)
        assert not is_irreducible(clmul(y4, y4))    # m = 8
        assert not is_irreducible(clmul(y4, y5))    # m = 9
        assert not is_irreducible(clmul(nist_163, type_ii_163))  # m = 326
