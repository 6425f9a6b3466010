"""Design construction, file round-trips, fractions, projections, strength."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regfrac import (
    DefiningEquation,
    Design,
    ParseError,
    check_strength_combinatorial,
    full_factorial,
    parse_design,
    project,
    regular_fraction,
    serialize_design,
    strength_combinatorial,
)
from fixtures import cyclic_design, plain_125_design
from oracles import constant_words, solve_congruences

FRACTION_25_TEXT = "25 3 5\n" + "\n".join(
    " ".join(str(v) for v in row)
    for row in sorted((a, b, (a + b) % 5) for a in range(5) for b in range(5))
) + "\n"

# a prime far too large for trial division to decide
HUGE_LEVELS_TEXT = "1 2 100000000000000000039\n0 0\n"

# short lines of tokens that are mostly small levels, so fuzzing reaches
# the header, row and run-count checks
_DESIGNISH_TEXT = st.lists(
    st.lists(st.sampled_from(["0", "1", "2", "3", "4", "5", "-1", "x", "#", "\t"]), max_size=4).map(" ".join),
    max_size=8,
).map("\n".join)


class TestParsing:
    def test_parse_accepts_well_formed_file(self):
        d = parse_design(FRACTION_25_TEXT)
        assert (d.n, d.m, d.s) == (25, 3, 5)
        assert d == cyclic_design()

    def test_parse_accepts_comments_and_blanks(self):
        text = "# comment\n\n2 2 2\n0 0\n# interior comment\n1 1\n"
        d = parse_design(text)
        assert d.rows == ((0, 0), (1, 1))

    def test_parse_accepts_bytes(self):
        assert parse_design(FRACTION_25_TEXT.encode()).n == 25

    def test_level_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_design("1 3 5\n0 5 0\n")

    def test_nonprime_levels(self):
        with pytest.raises(ParseError, match="prime"):
            parse_design("1 2 6\n0 0\n")

    def test_huge_level_count_is_rejected_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="exceeds supported maximum 97"):
            parse_design(HUGE_LEVELS_TEXT)
        assert time.perf_counter() - start < 0.5

    def test_duplicate_rows(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_design("2 2 3\n1 2\n1 2\n")

    def test_wrong_row_length(self):
        with pytest.raises(ParseError, match="expected 3"):
            parse_design("1 3 5\n0 0\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_design("25 3\n")
        with pytest.raises(ParseError, match="header"):
            parse_design("")

    def test_non_integer_token(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_design("1 2 3\n0 x\n")

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError, match="declares 3 runs"):
            parse_design("3 2 2\n0 0\n0 1\n")

    def test_parse_error_reports_line(self):
        try:
            parse_design("2 3 5\n0 0 0\n0 0 9\n")
        except ParseError as exc:
            assert exc.line == 3
        else:
            pytest.fail("expected ParseError")

    def test_undecodable_bytes(self):
        with pytest.raises(ParseError, match="not UTF-8"):
            parse_design(b"\xff\xfe")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=120), st.text(max_size=120), _DESIGNISH_TEXT))
    def test_fuzzed_input_gives_a_design_or_a_parse_error(self, raw):
        try:
            design = parse_design(raw)
        except ParseError:
            return
        assert isinstance(design, Design)

    def test_serialize_is_sorted_and_newline_terminated(self):
        d = Design(s=2, m=2, rows=((1, 1), (0, 0)))
        assert serialize_design(d) == "2 2 2\n0 0\n1 1\n"

    @settings(max_examples=50)
    @given(st.data())
    def test_parse_serialize_roundtrip(self, data):
        s = data.draw(st.sampled_from([2, 3, 5]))
        m = data.draw(st.integers(1, 3))
        universe = list(itertools.product(range(s), repeat=m))
        rows = data.draw(
            st.lists(st.sampled_from(universe), min_size=1, max_size=10, unique=True)
        )
        d = Design(s=s, m=m, rows=tuple(rows))
        assert parse_design(serialize_design(d)) == d


class TestConstruction:
    def test_design_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            Design(s=5, m=2, rows=((0, 5),))
        with pytest.raises(ValueError):
            Design(s=5, m=2, rows=((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            Design(s=5, m=2, rows=((0, 1, 2),))

    def test_equality_ignores_row_order(self):
        a = Design(s=2, m=1, rows=((0,), (1,)))
        b = Design(s=2, m=1, rows=((1,), (0,)))
        assert a == b and hash(a) == hash(b)

    def test_full_factorial_sizes_and_order(self):
        d = full_factorial(5, 1)
        assert d.rows == ((0,), (1,), (2,), (3,), (4,))
        assert full_factorial(5, 3).n == 125
        assert full_factorial(2, 2).rows == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_full_factorial_bound(self):
        with pytest.raises(ValueError, match="bound"):
            full_factorial(5, 3, bound=100)


class TestRegularFraction:
    def test_single_word_fraction_matches_enumeration(self):
        d = regular_fraction(5, 3, [DefiningEquation((1, 1, 4), 0)])
        assert d.n == 25
        assert d.point_set() == solve_congruences(5, 3, [((1, 1, 4), 0)])
        assert d.rows == d.sorted_rows()

    def test_two_word_fraction_size(self):
        d = plain_125_design()
        assert d.n == 125

    def test_two_level_halved(self):
        d = regular_fraction(2, 2, [DefiningEquation((1, 1), 0)])
        assert d.point_set() == {(0, 0), (1, 1)}

    def test_dependent_equation_named(self):
        eqs = [DefiningEquation((1, 1, 4), 0), DefiningEquation((2, 2, 3), 0)]
        with pytest.raises(ValueError, match="equation 2 .* dependent"):
            regular_fraction(5, 3, eqs)

    def test_inconsistent_equation_named(self):
        eqs = [DefiningEquation((1, 1, 4), 0), DefiningEquation((2, 2, 3), 1)]
        with pytest.raises(ValueError, match="equation 2 .* inconsistent"):
            regular_fraction(5, 3, eqs)

    def test_empty_equations_rejected(self):
        with pytest.raises(ValueError):
            regular_fraction(5, 3, [])

    def test_zero_exponent_vector_rejected(self):
        with pytest.raises(ValueError):
            DefiningEquation((0, 0, 0), 1)
        with pytest.raises(ValueError, match="zero modulo"):
            regular_fraction(5, 3, [DefiningEquation((5, 5, 5), 0)])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_fractions_match_enumeration(self, data):
        s = data.draw(st.sampled_from([2, 3, 5]))
        m = data.draw(st.integers(2, 4))
        alpha = tuple(data.draw(st.integers(0, s - 1)) for _ in range(m))
        if not any(alpha):
            alpha = (1,) + alpha[1:]
        k = data.draw(st.integers(0, s - 1))
        d = regular_fraction(s, m, [DefiningEquation(alpha, k)])
        assert d.point_set() == solve_congruences(s, m, [(alpha, k)])
        assert d.n == s ** (m - 1)


class TestProjectionAndStrength:
    def test_projection_multiplicities(self):
        d = cyclic_design()
        pairs = project(d, (1, 2))
        assert len(pairs) == 25 and set(pairs.values()) == {1}
        singles = project(d, (1,))
        assert set(singles.values()) == {5}
        full = project(full_factorial(5, 3), (1, 2))
        assert set(full.values()) == {5}

    def test_projection_validates_factors(self):
        d = cyclic_design()
        with pytest.raises(ValueError):
            project(d, ())
        with pytest.raises(ValueError):
            project(d, (4,))

    def test_strength_of_fixtures(self):
        d = cyclic_design()
        assert check_strength_combinatorial(d, 2)
        assert not check_strength_combinatorial(d, 3)
        assert check_strength_combinatorial(full_factorial(5, 3), 3)
        assert strength_combinatorial(d) == 2
        assert strength_combinatorial(full_factorial(5, 3)) == 3

    def test_strength_bounds_validated(self):
        with pytest.raises(ValueError):
            check_strength_combinatorial(cyclic_design(), 0)
        with pytest.raises(ValueError):
            check_strength_combinatorial(cyclic_design(), 4)

    def test_regular_fraction_with_wide_words_has_strength_two(self):
        rng = random.Random(7)
        found = 0
        while found < 10:
            s = rng.choice([3, 5])
            m = rng.randint(3, 4)
            alpha = tuple(rng.randrange(s) for _ in range(m))
            if sum(1 for a in alpha if a) < 3:
                continue
            d = regular_fraction(s, m, [DefiningEquation(alpha, rng.randrange(s))])
            # every word of the generated group is a multiple of alpha here,
            # so support >= 3 for all of them and strength 2 must follow
            assert check_strength_combinatorial(d, 2)
            found += 1

    def test_projection_of_regular_fraction_is_factorial_or_regular(self):
        d = plain_125_design()
        s, m = d.s, d.m
        for size in (1, 2, 3, 4):
            for subset in itertools.combinations(range(1, m + 1), size):
                points = frozenset(project(d, subset))
                if len(points) == s**size:
                    continue  # full factorial on these factors
                words = {
                    alpha: k
                    for alpha, k in constant_words(points, s, size).items()
                    if any(alpha)
                }
                assert words, f"projection onto {subset} is neither full nor regular"
                assert points == solve_congruences(s, size, list(words.items()))
