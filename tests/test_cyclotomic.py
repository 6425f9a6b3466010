"""Exact cyclotomic arithmetic: canonical form, ring laws, numeric agreement."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regfrac import CycInt, CycRational, root
from regfrac.cyclotomic import validate_levels


def _accepts(s) -> bool:
    try:
        validate_levels(s)
    except ValueError:
        return False
    return True


def cyc(s, entries):
    return CycInt(s, tuple(entries))


def elements(s, lo=-50, hi=50):
    return st.lists(st.integers(lo, hi), min_size=s, max_size=s).map(lambda c: cyc(s, c))


class TestCycInt:
    def test_root_zero_is_one(self):
        assert root(0, 5) == CycInt.one(5)
        assert root(0, 5).coeffs == (1, 0, 0, 0, 0)

    def test_all_roots_sum_to_zero(self):
        total = sum((root(k, 5) for k in range(5)), CycInt.zero(5))
        assert total.is_zero()

    def test_root_product_adds_exponents(self):
        assert root(2, 5) * root(4, 5) == root(1, 5)
        assert root(1, 5) * root(4, 5) == root(0, 5)

    def test_conj_of_root(self):
        assert root(1, 5).conj() == root(4, 5)
        assert root(0, 7).conj() == root(0, 7)

    def test_add_with_negation_cancels(self):
        a = root(2, 5)
        assert (a + (-a)).is_zero()

    def test_mismatched_levels_rejected(self):
        with pytest.raises(ValueError):
            root(1, 5) + root(1, 7)

    def test_nonprime_levels_rejected(self):
        for s in (1, 4, 6, 9, 100):
            with pytest.raises(ValueError):
                validate_levels(s)
        with pytest.raises(ValueError):
            CycInt(4, (0, 0, 0, 0))

    def test_level_validation_messages(self):
        assert [s for s in range(-5, 120) if _accepts(s)] == [
            p for p in range(2, 98) if all(p % f for f in range(2, p))
        ]
        for bad in (0, 1, 9, 91, True, 5.0, "5", None, [5]):
            with pytest.raises(ValueError, match=r"must be prime, got " + re.escape(repr(bad))):
                validate_levels(bad)
        # above the maximum, composites and primes alike, without a primality test
        for big in (98, 101, 10**20 + 39):
            with pytest.raises(ValueError, match=f"{big} exceeds supported maximum 97"):
                validate_levels(big)

    def test_is_zero_on_constant_vectors(self):
        assert cyc(5, (1, 1, 1, 1, 1)).is_zero()
        assert not cyc(5, (2, 1, 1, 1, 1)).is_zero()
        assert cyc(5, (2, 1, 1, 1, 1)) == root(0, 5) + 1 - 1  # reduces to 1

    def test_canonical_form_subtracts_minimum(self):
        a = cyc(5, (3, 5, 3, 4, 3))
        assert min(a.coeffs) == 0
        assert a == cyc(5, (0, 2, 0, 1, 0))

    def test_to_complex_of_roots(self):
        z = root(0, 5).to_complex()
        assert abs(z - 1) < 1e-12
        z = cyc(5, (1, 1, 1, 1, 1)).to_complex()
        assert abs(z) < 1e-12
        z = root(1, 5).to_complex()
        assert math.isclose(z.real, math.cos(2 * math.pi / 5), abs_tol=1e-12)
        assert math.isclose(z.imag, math.sin(2 * math.pi / 5), abs_tol=1e-12)

    @given(elements(5), elements(5), elements(5))
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(elements(3), elements(3))
    def test_conj_is_ring_homomorphism(self, a, b):
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()
        assert a.conj().conj() == a

    @given(elements(5))
    def test_norm_is_nonnegative_real(self, a):
        z = (a * a.conj()).to_complex()
        assert abs(z.imag) < 1e-6
        assert z.real > -1e-6

    @settings(max_examples=300)
    @given(st.sampled_from([2, 3, 5]), st.data())
    def test_is_zero_matches_numeric_evaluation(self, s, data):
        a = data.draw(elements(s))
        assert a.is_zero() == (abs(a.to_complex()) < 1e-9)

    @settings(max_examples=200)
    @given(st.data())
    def test_is_zero_matches_numeric_evaluation_seven(self, data):
        # smaller coefficients: 7-level values of tiny modulus exist at +-50
        a = data.draw(elements(7, -5, 5))
        assert a.is_zero() == (abs(a.to_complex()) < 1e-9)

    @given(elements(5), st.integers(0, 4))
    def test_shift_multiplies_by_root(self, a, t):
        assert a.shift(t) == a * root(t, 5)

    def test_power(self):
        assert root(2, 5) ** 3 == root(1, 5)
        assert (root(1, 5) + 1) ** 0 == CycInt.one(5)


class TestCycRational:
    def test_reduction_to_lowest_terms(self):
        v = CycRational(cyc(5, (0, 5, 0, 0, 0)), 5)
        assert v.denominator == 1
        assert v.numerator == root(1, 5)

    def test_scaled_numerator_roundtrip(self):
        v = CycRational(cyc(5, (0, 3, 1, 0, 1)), 5)
        assert v.scaled_numerator(5) == cyc(5, (0, 3, 1, 0, 1))
        w = CycRational(root(1, 5), 1)
        assert w.scaled_numerator(5) == cyc(5, (0, 5, 0, 0, 0))

    def test_equality_cross_multiplies(self):
        assert CycRational(cyc(5, (0, 2, 0, 0, 0)), 2) == CycRational(root(1, 5), 1)
        assert CycRational(cyc(5, (0, 1, 0, 0, 0)), 5) != CycRational(root(1, 5), 1)

    def test_arithmetic(self):
        half = CycRational(root(0, 5), 2)
        assert half + half == CycRational.one(5)
        assert half * 2 == CycRational.one(5)
        assert (half - half).is_zero()
        assert half**2 == CycRational(root(0, 5), 4)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            CycRational(root(0, 5), 0)

    @given(elements(5), st.integers(1, 20), st.integers(1, 20))
    def test_value_determines_reduced_form(self, num, d1, scale):
        a = CycRational(num, d1)
        b = CycRational(num * scale, d1 * scale)
        assert a == b
        assert (a.numerator, a.denominator) == (b.numerator, b.denominator)

    def test_to_complex(self):
        v = CycRational(cyc(5, (1, 1, 1, 1, 1)), 7)
        assert abs(v.to_complex()) < 1e-12
        assert abs(CycRational(root(0, 5), 4).to_complex() - 0.25) < 1e-12
