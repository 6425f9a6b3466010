"""Indicator coefficients, strength from coefficients, aberration and GWLP."""

import itertools
import random
from fractions import Fraction

import pytest

from regfrac import (
    DefiningEquation,
    Design,
    IndicatorTable,
    LevelPerm,
    aberration,
    apply_level_perm,
    coefficient_numerator,
    evaluate_indicator,
    full_factorial,
    gwlp,
    level_counts,
    regular_fraction,
    root,
    strength_combinatorial,
    strength_from_coefficients,
)
from regfrac.indicator import (
    _members,
    _supports,
    nonzero_coefficients_up_to,
    summarize,
)
from fixtures import cyclic_design, plain_125_design, scrambled_125_design
from oracles import complex_coefficient, complex_gwlp, constant_words, omega

CONFOUNDED_WORDS = [(1, 1, 4), (2, 2, 3), (3, 3, 2), (4, 4, 1)]


class TestLevelCounts:
    def test_totally_confounded_word(self):
        assert level_counts(cyclic_design(), (1, 1, 4)) == (25, 0, 0, 0, 0)

    def test_single_factor_is_balanced(self):
        assert level_counts(cyclic_design(), (1, 0, 0)) == (5, 5, 5, 5, 5)

    def test_null_word_counts_everything(self):
        assert level_counts(cyclic_design(), (0, 0, 0)) == (25, 0, 0, 0, 0)

    def test_counts_sum_to_n(self):
        d = scrambled_125_design()
        for alpha in [(1, 2, 3, 4, 0), (0, 0, 0, 0, 1), (4, 4, 4, 4, 4)]:
            assert sum(level_counts(d, alpha)) == d.n


class TestCoefficients:
    def test_confounded_word_has_unit_numerator(self):
        num = coefficient_numerator(cyclic_design(), (1, 1, 4))
        assert num == 25 * root(0, 5)

    def test_balanced_word_vanishes(self):
        assert coefficient_numerator(cyclic_design(), (1, 0, 0)).is_zero()

    def test_null_word_counts_runs(self):
        assert coefficient_numerator(cyclic_design(), (0, 0, 0)) == 25 * root(0, 5)

    def test_matches_complex_oracle_everywhere(self):
        d = cyclic_design()
        denom = 5**3
        for alpha in itertools.product(range(5), repeat=3):
            exact = coefficient_numerator(d, alpha).to_complex() / denom
            assert abs(exact - complex_coefficient(d, alpha)) < 1e-9

    def test_conjugate_symmetry(self):
        d = scrambled_125_design()
        rng = random.Random(1)
        for _ in range(50):
            alpha = tuple(rng.randrange(5) for _ in range(5))
            neg = tuple((-a) % 5 for a in alpha)
            assert coefficient_numerator(d, neg) == coefficient_numerator(d, alpha).conj()

    def test_orthogonality_from_vanishing_difference(self):
        # N_{[a-b]} = 0 forces the columns X^a and X^b to be orthogonal
        d = cyclic_design()
        rng = random.Random(2)
        done = 0
        while done < 20:
            alpha = tuple(rng.randrange(5) for _ in range(3))
            beta = tuple(rng.randrange(5) for _ in range(3))
            diff = tuple((a - b) % 5 for a, b in zip(alpha, beta))
            if not coefficient_numerator(d, diff).is_zero():
                continue
            inner = sum(
                omega(sum(a * x for a, x in zip(alpha, row)) % 5, 5)
                * omega(sum(b * x for b, x in zip(beta, row)) % 5, 5).conjugate()
                for row in d.rows
            )
            assert abs(inner) < 1e-9
            done += 1

    def test_regular_fraction_coefficients_all_or_nothing(self):
        d = plain_125_design()
        n = d.n
        nonzero = 0
        for alpha in itertools.product(range(5), repeat=5):
            num = coefficient_numerator(d, alpha)
            if num.is_zero():
                continue
            nonzero += 1
            assert abs(abs(num.to_complex()) - n) < 1e-6
        assert nonzero == 25  # the whole relation group, null word included

    def test_scrambling_breaks_all_or_nothing(self):
        # the level permutations hiding the 125-run fraction are non-affine,
        # so its own indicator spreads over 289 nonzero monomials
        d = scrambled_125_design()
        nonzero = sum(
            1
            for alpha in itertools.product(range(5), repeat=5)
            if not coefficient_numerator(d, alpha).is_zero()
        )
        assert nonzero == 289


class TestStrength:
    def test_strength_of_fixtures(self):
        assert strength_from_coefficients(cyclic_design()) == 2
        assert strength_from_coefficients(scrambled_125_design()) == 2
        assert strength_from_coefficients(full_factorial(5, 3)) == 3

    def test_strength_zero_when_unbalanced(self):
        d = Design(s=2, m=2, rows=((0, 0), (0, 1), (1, 0)))
        assert strength_from_coefficients(d) == 0

    def test_agrees_with_combinatorial_on_random_designs(self):
        rng = random.Random(3)
        for _ in range(50):
            s = rng.choice([2, 3, 5])
            m = rng.randint(2, 4)
            universe = list(itertools.product(range(s), repeat=m))
            n = rng.randint(1, min(len(universe), 40))
            d = Design(s=s, m=m, rows=tuple(rng.sample(universe, n)))
            assert strength_from_coefficients(d) == strength_combinatorial(d)


class TestAberration:
    def test_confounded_word_fully_aliased(self):
        assert aberration(cyclic_design(), (1, 1, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_word_unaliased(self):
        assert aberration(cyclic_design(), (1, 0, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_counts_give_zero(self):
        d = full_factorial(3, 2)
        assert aberration(d, (1, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_null_word_rejected(self):
        with pytest.raises(ValueError):
            aberration(cyclic_design(), (0, 0, 0))

    def test_matches_squared_modulus_oracle(self):
        rng = random.Random(4)
        universe = list(itertools.product(range(5), repeat=3))
        for _ in range(20):
            d = Design(s=5, m=3, rows=tuple(rng.sample(universe, rng.randint(5, 40))))
            alpha = tuple(rng.randrange(5) for _ in range(3))
            if not any(alpha):
                alpha = (1, 0, 0)
            b0 = d.n / 125
            oracle = abs(complex_coefficient(d, alpha)) ** 2 / b0**2
            assert aberration(d, alpha) == pytest.approx(oracle, abs=1e-9)
            assert aberration(d, alpha) >= -1e-12


class TestGwlp:
    def test_cyclic_fraction_pattern(self):
        assert gwlp(cyclic_design()) == pytest.approx((0.0, 0.0, 4.0), abs=1e-9)

    def test_full_factorial_vanishes(self):
        assert gwlp(full_factorial(5, 3)) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_two_equation_fraction_total(self):
        pattern = gwlp(scrambled_125_design())
        assert pattern[0] == pytest.approx(0.0, abs=1e-9)
        assert pattern[1] == pytest.approx(0.0, abs=1e-9)
        assert sum(pattern) == pytest.approx(24.0, abs=1e-6)

    def test_matches_complex_oracle(self):
        rng = random.Random(5)
        universe = list(itertools.product(range(5), repeat=3))
        for _ in range(5):
            d = Design(s=5, m=3, rows=tuple(rng.sample(universe, rng.randint(5, 30))))
            assert gwlp(d) == pytest.approx(complex_gwlp(d), abs=1e-9)

    @pytest.mark.parametrize(
        "design, plain",
        [
            (cyclic_design(), cyclic_design()),
            (plain_125_design(), plain_125_design()),
            (scrambled_125_design(), plain_125_design()),
            (regular_fraction(3, 4, [DefiningEquation((1, 2, 1, 0), 2)]),) * 2,
        ],
    )
    def test_exact_word_counts_on_regular_fractions(self, design, plain):
        # A_j of a regular fraction is its number of words of length j;
        # level permutations leave the pattern unchanged
        words = constant_words(plain.point_set(), design.s, design.m)
        expected = [0] * design.m
        for alpha in words:
            if any(alpha):
                expected[sum(1 for a in alpha if a) - 1] += 1
        pattern = gwlp(design)
        assert all(type(a) is Fraction for a in pattern)
        assert pattern == tuple(expected)

    def test_invariance_under_relabelings(self):
        rng = random.Random(6)
        universe = list(itertools.product(range(5), repeat=3))
        for _ in range(25):
            d = Design(s=5, m=3, rows=tuple(rng.sample(universe, rng.randint(5, 40))))
            reference = gwlp(d)
            j = rng.randint(1, 3)
            perm = LevelPerm(5, tuple(rng.sample(range(5), 5)))
            permuted = apply_level_perm(d, j, perm)
            cols = rng.sample(range(3), 3)
            shuffled = Design(s=5, m=3, rows=tuple(tuple(r[c] for c in cols) for r in permuted.rows))
            assert gwlp(shuffled) == pytest.approx(reference, abs=1e-6)


def _random_design(rng, s, m):
    universe = list(itertools.product(range(s), repeat=m))
    return Design(s=s, m=m, rows=tuple(rng.sample(universe, rng.randint(1, min(len(universe), 60)))))


def _by_order(s, m):
    """Every nonzero exponent, grouped by order, in listing order."""
    out = []
    for t in range(1, m + 1):
        for positions in itertools.combinations(range(m), t):
            for values in itertools.product(range(1, s), repeat=t):
                alpha = [0] * m
                for j, v in zip(positions, values):
                    alpha[j] = v
                out.append(tuple(alpha))
    return out


# (s, m) pairs small enough to enumerate every exponent
RANDOM_SHAPES = [(2, 2), (2, 5), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)]


class TestLineCounts:
    """Counting one point per projective line agrees with counting every alpha."""

    def test_derived_counts_match_per_alpha_counts(self):
        rng = random.Random(7)
        for s, m in RANDOM_SHAPES * 3:
            d = _random_design(rng, s, m)
            derived = [
                pair
                for t in range(1, m + 1)
                for positions, lines in _supports(d, t)
                for pair in _members(s, m, positions, lines)
            ]
            assert derived == [(alpha, level_counts(d, alpha)) for alpha in _by_order(s, m)]

    def test_table_listing_strength_and_summary_match_per_alpha_path(self):
        rng = random.Random(8)
        for s, m in RANDOM_SHAPES * 3:
            d = _random_design(rng, s, m)
            per_alpha = {
                alpha: coefficient_numerator(d, alpha) for alpha in itertools.product(range(s), repeat=m)
            }
            table = IndicatorTable.compute(d)
            assert list(table.entries.items()) == list(per_alpha.items())
            assert table.counts == {alpha: level_counts(d, alpha) for alpha in per_alpha}

            nonzero = [(0,) * m] + [a for a in _by_order(s, m) if not per_alpha[a].is_zero()]
            orders = [sum(1 for v in a if v) for a in nonzero]
            strength = next((t - 1 for t in orders if t), m)
            assert strength_from_coefficients(d) == strength
            for k in range(m + 1):
                listed = [(a, per_alpha[a]) for a, t in zip(nonzero, orders) if t <= k]
                assert list(nonzero_coefficients_up_to(d, k)) == listed
                assert summarize(d, k) == (strength, gwlp(d), tuple(listed))


class TestIndicatorTable:
    def test_table_entries_and_counts(self):
        table = IndicatorTable.compute(cyclic_design())
        assert table.entries[(0, 0, 0)] == 25 * root(0, 5)
        assert sum(table.counts[(1, 1, 4)]) == 25
        nonzero = dict(table.nonzero_entries())
        assert set(nonzero) == {(0, 0, 0), *CONFOUNDED_WORDS}

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="bound"):
            IndicatorTable.compute(cyclic_design(), bound=100)

    def test_json_schema(self):
        table = IndicatorTable.compute(cyclic_design())
        entries = table.to_json(max_order=3)
        assert all(set(e) == {"alpha", "numerator", "denominator"} for e in entries)
        assert all(e["denominator"] == 125 for e in entries)
        assert {"alpha": [1, 1, 4], "numerator": [25, 0, 0, 0, 0], "denominator": 125} in entries

    def test_evaluation_separates_members(self):
        d = cyclic_design()
        table = IndicatorTable.compute(d)
        members = d.point_set()
        assert abs(evaluate_indicator(table, (0, 0, 0)) - 1) < 1e-9
        assert abs(evaluate_indicator(table, (1, 0, 0))) < 1e-9
        for point in itertools.product(range(5), repeat=3):
            expected = 1.0 if point in members else 0.0
            assert abs(evaluate_indicator(table, point) - expected) < 1e-9

    def test_full_factorial_indicator_is_one(self):
        table = IndicatorTable.compute(full_factorial(3, 2))
        for point in itertools.product(range(3), repeat=2):
            assert abs(evaluate_indicator(table, point) - 1) < 1e-9
