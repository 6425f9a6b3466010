"""Latin squares, the rank-1 criterion, and the full regularity decision."""

import itertools
import random
import time
import tracemalloc

import pytest

from regfrac import (
    DefiningEquation,
    Design,
    LatinSquare,
    LevelPerm,
    StrengthError,
    apply_level_perm,
    coset_representatives,
    find_equation_multilayer,
    find_triple_equation,
    first_failing_minor,
    full_factorial,
    latin_square,
    monomial_perm,
    rank_one_check,
    reduce_and_read,
    regular_fraction,
    regularity_check,
    same_monomial_coset,
    table_rank_one,
    verify_equations,
)
from regfrac import regularity
from regfrac.linalg import same_row_space
from regfrac.permutation import _relabel
from fixtures import (
    LAYERS_125,
    SQUARE_125_TRIPLE,
    SQUARE_CYCLIC,
    SQUARE_NONREGULAR,
    SQUARE_NONREGULAR_7,
    SQUARE_SCRAMBLED_RANK1,
    cyclic_design,
    design_from_square,
    latin_with_free_factor,
    nonregular_design,
    nonregular_design_7,
    random_latin_square,
    scrambled_125_design,
    scrambled_design,
)
from oracles import (
    brute_force_equation,
    float_table_rank_one,
    principal_loop_is_group,
    tuple_search_regularity,
)


class TestLatinSquare:
    def test_validation(self):
        with pytest.raises(ValueError, match="row"):
            LatinSquare(3, ((0, 1, 1), (1, 2, 0), (2, 0, 1)))
        with pytest.raises(ValueError, match="column"):
            LatinSquare(2, ((0, 1), (0, 1)))
        LatinSquare(5, SQUARE_CYCLIC)

    def test_extraction_from_design(self):
        sq = latin_square(cyclic_design(), 1, 2, 3)
        assert sq.rows == SQUARE_CYCLIC

    def test_extraction_from_worked_125_fraction(self):
        sq = latin_square(scrambled_125_design(), 1, 2, 3)
        assert sq.rows == SQUARE_125_TRIPLE

    def test_none_when_not_a_function(self):
        rows = tuple(
            (a, b, c) for a in range(2) for b in range(2) for c in range(2)
        )
        d = Design(s=2, m=3, rows=rows)
        assert latin_square(d, 1, 2, 3) is None

    def test_error_when_pair_projection_not_uniform(self):
        d = Design(s=2, m=3, rows=((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 0, 0)))
        with pytest.raises(StrengthError, match="not uniform"):
            latin_square(d, 1, 2, 3)

    def test_distinct_factors_required(self):
        with pytest.raises(ValueError):
            latin_square(cyclic_design(), 1, 1, 2)


class TestRankOne:
    def test_cyclic_square_passes(self):
        assert table_rank_one(SQUARE_CYCLIC, 5)
        assert rank_one_check(LatinSquare(5, SQUARE_CYCLIC))

    def test_relabeled_scrambled_square_passes(self):
        assert rank_one_check(LatinSquare(5, SQUARE_SCRAMBLED_RANK1))

    def test_nonregular_square_fails_with_first_minor(self):
        assert not table_rank_one(SQUARE_NONREGULAR, 5)
        detail = first_failing_minor(SQUARE_NONREGULAR, 5)
        assert detail == ((0, 1), (0, 1), (0, 2))  # exponent sums 0 vs 2: 1 - w2

    def test_first_failing_minor_none_when_rank_one(self):
        assert first_failing_minor(SQUARE_CYCLIC, 5) is None

    def test_additive_criterion_matches_float_minors(self):
        rng = random.Random(13)
        for _ in range(1000):
            rows = tuple(tuple(rng.randrange(5) for _ in range(5)) for _ in range(5))
            assert table_rank_one(rows, 5) == float_table_rank_one(rows, 5)

    def test_affine_relabelings_preserve_the_criterion(self):
        rng = random.Random(14)
        for _ in range(200):
            rows = tuple(tuple(rng.randrange(5) for _ in range(5)) for _ in range(5))
            h, k = rng.randrange(1, 5), rng.randrange(5)
            mapped = tuple(tuple((h * v + k) % 5 for v in r) for r in rows)
            assert table_rank_one(rows, 5) == table_rank_one(mapped, 5)


class TestReduceAndRead:
    def test_cyclic_square_reads_identities(self):
        p1, p2, c = reduce_and_read(LatinSquare(5, SQUARE_CYCLIC))
        assert p1.is_identity and p2.is_identity and c == 0

    def test_scrambled_square_reads_published_permutations(self):
        p1, p2, c = reduce_and_read(LatinSquare(5, SQUARE_SCRAMBLED_RANK1))
        assert p1.image == (0, 3, 2, 4, 1)
        assert p2.image == (0, 1, 4, 3, 2)
        assert c == 0

    def test_worked_125_square_readout(self):
        p1, p2, c = reduce_and_read(LatinSquare(5, SQUARE_125_TRIPLE))
        assert c == 1
        assert p2.image == (0, 4, 3, 2, 1)  # the e -> 4e power map
        assert p1.image == (0, 4, 2, 1, 3)
        # the row permutation is the 2<->4 transposition up to a power map
        switch = LevelPerm(5, (0, 1, 4, 3, 2))
        assert switch.compose(p1) == monomial_perm(2, 0, 5)

    def test_reduced_form_property(self):
        rng = random.Random(15)
        for _ in range(100):
            r = tuple(rng.sample(range(5), 5))
            cvec = tuple(rng.sample(range(5), 5))
            const = rng.randrange(5)
            rows = tuple(tuple((const + r[a] + cvec[b]) % 5 for b in range(5)) for a in range(5))
            sq = LatinSquare(5, rows)
            p1, p2, c0 = reduce_and_read(sq)
            assert c0 == rows[0][0]
            for a in range(5):
                for b in range(5):
                    assert rows[p1.image[a]][p2.image[b]] == (a + b + c0) % 5

    def test_rejects_non_rank_one(self):
        with pytest.raises(ValueError, match="rank 1"):
            reduce_and_read(LatinSquare(5, SQUARE_NONREGULAR))


class TestFindTripleEquation:
    def test_cyclic_fraction_immediate(self):
        perms, eq = find_triple_equation(cyclic_design(), (1, 2, 3))
        assert eq == DefiningEquation((1, 1, 4), 0)
        assert all(p.is_identity for p in perms.values())

    def test_scrambled_fraction_needs_the_published_coset(self):
        perms, eq = find_triple_equation(scrambled_design(), (1, 2, 3))
        assert eq == DefiningEquation((1, 4, 4), 1)
        assert same_monomial_coset(perms[3], LevelPerm(5, (4, 3, 0, 2, 1)))
        # residual permutations are coset representatives: they fix 0 and 1
        assert all(p.image[0] == 0 and p.image[1] == 1 for p in perms.values())

    def test_nonregular_fraction_yields_nothing(self):
        assert find_triple_equation(nonregular_design(), (1, 2, 3)) is None

    def test_returned_perms_satisfy_the_equation(self):
        for design in (cyclic_design(), scrambled_design()):
            perms, eq = find_triple_equation(design, (1, 2, 3))
            work = design
            for f, p in perms.items():
                work = apply_level_perm(work, f, p)
            for row in work.rows:
                assert sum(a * x for a, x in zip(eq.exponents, row)) % 5 == eq.constant


class TestFindEquationMultilayer:
    def test_worked_125_fraction_layers(self):
        d = scrambled_125_design()
        # fix the permutations recovered from the three-factor equation first:
        # the 2<->4 transposition on the first factor, nothing elsewhere
        fixed = {
            1: LevelPerm(5, (0, 1, 4, 3, 2)),
            2: LevelPerm.identity(5),
            3: LevelPerm.identity(5),
        }
        out = find_equation_multilayer(d, (2, 3, 4, 5), fixed_perms=fixed)
        assert out is not None
        perms, eq = out
        assert eq == DefiningEquation((0, 2, 3, 4, 2), 4)
        assert perms[4].is_identity  # no relabeling needed on the dependent factor
        assert perms[5].image == (0, 1, 3, 2, 4)
        assert same_monomial_coset(perms[5], LevelPerm(5, (2, 0, 1, 3, 4)))

    def test_layer_tables_match_frozen_fixture(self):
        d = scrambled_125_design()
        for z, expected in LAYERS_125.items():
            slice_rows = tuple(r for r in d.rows if r[4] == z)
            table = {(r[1], r[2]): r[3] for r in slice_rows}
            got = tuple(tuple(table[(a, b)] for b in range(5)) for a in range(5))
            assert got == expected

    def test_pruned_when_superset_of_known_support(self):
        d = scrambled_125_design()
        out = find_equation_multilayer(
            d, (1, 2, 3, 4), known_supports=[frozenset({1, 2, 3})]
        )
        assert out is None

    def test_two_level_four_factor_word(self):
        d = regular_fraction(2, 4, [DefiningEquation((1, 1, 1, 1), 0)])
        out = find_equation_multilayer(d, (1, 2, 3, 4))
        assert out is not None
        perms, eq = out
        assert eq == DefiningEquation((1, 1, 1, 1), 0)
        assert all(p.is_identity for p in perms.values())

    def test_requires_four_factors(self):
        with pytest.raises(ValueError):
            find_equation_multilayer(scrambled_125_design(), (1, 2, 3))


class TestRegularityCheck:
    def test_cyclic_fraction(self):
        report = regularity_check(cyclic_design())
        assert report.regular
        assert report.equations == (DefiningEquation((1, 1, 4), 0),)
        assert all(p.is_identity for p in report.perms)
        assert verify_equations(cyclic_design(), report.perms, report.equations)

    def test_scrambled_fraction(self):
        d = scrambled_design()
        report = regularity_check(d)
        assert report.regular
        assert len(report.equations) == 1
        assert report.equations[0] == DefiningEquation((1, 4, 4), 1)
        assert same_monomial_coset(report.perms[2], LevelPerm(5, (4, 3, 0, 2, 1)))
        assert verify_equations(d, report.perms, report.equations)

    def test_nonregular_fraction(self):
        report = regularity_check(nonregular_design())
        assert not report.regular
        assert report.equations == ()
        assert report.tuples_examined == 1

    def test_seven_level_counterexample(self):
        d = nonregular_design_7()
        sq = latin_square(d, 1, 2, 3)
        failures = [
            rep for rep in coset_representatives(7)
            if not rank_one_check(sq.permute_values(rep))
        ]
        assert len(failures) == 120
        assert not regularity_check(d).regular

    def test_worked_125_fraction(self):
        d = scrambled_125_design()
        report = regularity_check(d)
        assert report.regular
        assert len(report.equations) == 2
        # the triple equation is the construction word rescaled: the hidden
        # transposition on factor 1 is recovered and nothing else moves
        assert report.equations[0] == DefiningEquation((3, 4, 4, 0, 0), 4)
        assert report.perms[0].image == (0, 1, 4, 3, 2)
        assert report.perms[1].is_identity and report.perms[2].is_identity
        assert verify_equations(d, report.perms, report.equations)

    def test_verify_equations_rejects_altered_constant(self):
        d = cyclic_design()
        report = regularity_check(d)
        assert verify_equations(d, report.perms, report.equations)
        wrong = (DefiningEquation((1, 1, 4), 1),)
        assert not verify_equations(d, report.perms, wrong)

    def test_verify_equations_skips_identity_perms_unchecked(self):
        # an identity may be built for another level count, as it always could
        d = cyclic_design()
        report = regularity_check(d)
        perms = report.perms[:2] + (LevelPerm.identity(7),)
        assert verify_equations(d, perms, report.equations)
        with pytest.raises(ValueError, match="permutation on 7 levels"):
            verify_equations(d, perms[:2] + (LevelPerm(7, (1, 0, 2, 3, 4, 5, 6)),), report.equations)

    def test_full_factorial_is_regular_with_no_equations(self):
        report = regularity_check(full_factorial(5, 3))
        assert report.regular and report.equations == ()
        report = regularity_check(full_factorial(2, 4))
        assert report.regular and report.equations == ()

    def test_non_orthogonal_input_rejected(self):
        d = Design(s=2, m=3, rows=((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)))
        with pytest.raises(StrengthError, match="not an orthogonal array of strength 2"):
            regularity_check(d)

    def test_non_power_run_count_is_not_regular(self):
        # two parallel 25-run fractions: strength 2, but 125/50 is no power of 5
        rows = tuple(
            (a, b, c)
            for a in range(5)
            for b in range(5)
            for c in ((a + b) % 5, (a + b + 2) % 5)
        )
        d = Design(s=5, m=3, rows=rows)
        report = regularity_check(d)
        assert not report.regular and report.strength == 2

    def test_report_json_schema(self):
        report = regularity_check(cyclic_design())
        payload = report.to_json()
        assert payload["regular"] is True
        assert payload["strength"] == 2
        assert payload["permutations"] == [[0, 1, 2, 3, 4]] * 3
        assert payload["equations"] == [{"exponents": [1, 1, 4], "constant": 0}]
        assert isinstance(payload["tuples_examined"], int)


class TestRegressions:
    @pytest.mark.parametrize("order", [(0, 1, 3, 2), (0, 3, 1, 2)])
    def test_free_factor_beside_non_cyclic_square_is_not_regular(self, order):
        # the layer tables of some orderings have constant rows or columns,
        # which no readout can turn into an equation
        d = latin_with_free_factor(order)
        report = regularity_check(d)
        assert not report.regular
        assert report.strength == 2
        free = order.index(3) + 1
        others = [f for f in range(1, 5) if f != free]
        assert find_equation_multilayer(d, (free, *others)) is None

    def test_thirteen_levels_need_not_materialize_the_cosets(self):
        # 11! coset representatives exist; the first one already succeeds
        d = regular_fraction(13, 3, [DefiningEquation((1, 1, 12), 0)])
        tracemalloc.start()
        try:
            report = regularity_check(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.regular
        assert peak < 50 * 2**20


def random_regular_design(rng, s, m, r):
    """A regular fraction with random independent words, then random relabelings."""
    from regfrac import strength_combinatorial

    while True:
        try:
            eqs = [
                DefiningEquation(tuple(rng.randrange(s) for _ in range(m)), rng.randrange(s))
                for _ in range(r)
            ]
            base = regular_fraction(s, m, eqs)
        except ValueError:
            continue
        if strength_combinatorial(base) < 2:
            continue
        d = base
        for j in range(1, m + 1):
            d = apply_level_perm(d, j, LevelPerm(s, tuple(rng.sample(range(s), s))))
        return base, eqs, d


class TestRecoveryProperties:
    @pytest.mark.parametrize(
        "s,m,r", [(5, 3, 1), (5, 4, 1), (5, 5, 2), (3, 4, 2)], ids=["5^3", "5^4-1", "5^5-2", "3^4-2"]
    )
    def test_randomly_relabelled_regular_fractions_are_recovered(self, s, m, r):
        rng = random.Random(1000 + s * m * r)
        for _ in range(25):
            base, eqs, d = random_regular_design(rng, s, m, r)
            report = regularity_check(d)
            assert report.regular, f"failed to recover {eqs}"
            assert len(report.equations) == r
            assert verify_equations(d, report.perms, report.equations)

    def test_monomial_relabelings_never_change_the_verdict(self):
        rng = random.Random(17)
        designs = [cyclic_design(), scrambled_design(), nonregular_design()]
        for d in designs:
            expected = regularity_check(d).regular
            for _ in range(10):
                j = rng.randint(1, 3)
                p = monomial_perm(rng.randrange(1, 5), rng.randrange(5), 5)
                assert regularity_check(apply_level_perm(d, j, p)).regular == expected

    def test_recovered_row_space_matches_construction(self):
        # relabel a known fraction, recover it, then align the recovered
        # equations with the construction through the composite level maps,
        # which must all be affine
        d = scrambled_125_design()
        report = regularity_check(d)
        construction = {1: LevelPerm(5, (0, 1, 4, 3, 2)), 5: LevelPerm(5, (1, 2, 0, 3, 4))}
        scaled = []
        for alpha in ((2, 1, 1, 0, 0), (1, 1, 0, 1, 1)):
            row = []
            for j in range(1, 6):
                rho = construction.get(j, LevelPerm.identity(5))
                composite = report.perms[j - 1].compose(rho)
                from regfrac import is_monomial

                mono = is_monomial(composite)
                assert mono is not None, f"composite map on factor {j} is not affine"
                h_inv = pow(mono[0], -1, 5)
                row.append((alpha[j - 1] * h_inv) % 5)
            scaled.append(row)
        recovered = [list(eq.exponents) for eq in report.equations]
        assert same_row_space(scaled, recovered, 5)


def _random_level_map(rng, s):
    """A uniformly random bijection of Z_s, or half the time a random affine one."""
    if rng.random() < 0.5:
        return tuple(rng.sample(range(s), s))
    return monomial_perm(rng.randrange(1, s), rng.randrange(s), s).image


def _isotope(rng, square, s):
    rows, cols, vals = (_random_level_map(rng, s) for _ in range(3))
    return tuple(tuple(vals[square[rows[a]][cols[b]]] for b in range(s)) for a in range(s))


def _plain(found):
    if found is None:
        return None
    perms, eq = found
    return {f: p.image for f, p in perms.items()}, (eq.exponents, eq.constant)


def _random_committed(rng, factors):
    return frozenset(f for f in factors if rng.random() < 0.3)


def _cyclic_square(s):
    return tuple(tuple((a + b) % s for b in range(s)) for a in range(s))


class TestIsotopyAgainstEnumeration:
    """The isotopy decision returns what enumerating coset representatives found first."""

    SQUARES = [(3, _cyclic_square(3)), (5, _cyclic_square(5)), (7, _cyclic_square(7)),
               (5, SQUARE_NONREGULAR), (7, SQUARE_NONREGULAR_7)]

    @pytest.mark.parametrize("s,square", SQUARES, ids=["Z3", "Z5", "Z7", "nonZ5", "nonZ7"])
    def test_triples(self, s, square):
        rng = random.Random(repr(square))
        hits = 0
        for _ in range(30):
            design = design_from_square(_isotope(rng, square, s), s)
            for factors in ((1, 2, 3), (1, 3, 2), (2, 3, 1)):
                for committed in (frozenset(), _random_committed(rng, (1, 2, 3))):
                    expected = brute_force_equation(design, factors, committed)
                    got = _plain(find_triple_equation(design, factors, committed))
                    assert got == expected, (factors, committed)
                    hits += got is not None
        assert hits > 0 if square == _cyclic_square(s) else hits == 0

    @pytest.mark.parametrize("s", [5, 7, 11, 13])
    def test_random_latin_squares_match_the_associativity_test(self, s):
        # random squares of these orders are almost never isotopic to Z_s,
        # so every other square is a random isotope of Z_s
        rng = random.Random(6000 + s)
        groups = 0
        for trial in range(20):
            if trial % 2:
                square = _isotope(rng, _cyclic_square(s), s)
            else:
                square = random_latin_square(rng, s)
            is_group = principal_loop_is_group(square)
            found = find_triple_equation(design_from_square(square, s), (1, 2, 3))
            assert (found is not None) == is_group
            groups += is_group
        assert 10 <= groups < 20

    @pytest.mark.parametrize("s", [5, 7])
    def test_random_latin_square_triples(self, s):
        rng = random.Random(7000 + s)
        for _ in range(20):
            design = design_from_square(random_latin_square(rng, s), s)
            for factors in ((1, 2, 3), (2, 3, 1)):
                committed = _random_committed(rng, (1, 2, 3))
                expected = brute_force_equation(design, factors, committed)
                assert _plain(find_triple_equation(design, factors, committed)) == expected

    @pytest.mark.parametrize("s", [3, 5, 7])
    def test_four_factor_words(self, s):
        rng = random.Random(4000 + s)
        hits = 0
        for _ in range(12):
            word = tuple(rng.randrange(1, s) for _ in range(4))
            design = regular_fraction(s, 4, [DefiningEquation(word, rng.randrange(s))])
            for f in range(1, 5):
                design = apply_level_perm(design, f, LevelPerm(s, _random_level_map(rng, s)))
            for k in range(1, 5):
                rest = [f for f in range(1, 5) if f != k]
                factors = (rest[0], rest[1], k, rest[2])
                fixed = {f: LevelPerm(s, _random_level_map(rng, s)) if rng.random() < 0.5
                         else LevelPerm.identity(s) for f in _random_committed(rng, factors)}
                work = design
                for f, p in fixed.items():
                    work = apply_level_perm(work, f, p)
                expected = brute_force_equation(work, factors, fixed)
                got = _plain(find_equation_multilayer(design, factors, fixed_perms=fixed))
                assert got == expected, (factors, fixed)
                hits += got is not None
        assert hits > 0

    @pytest.mark.parametrize("s", [3, 5, 7])
    def test_independent_and_shifted_layers(self, s):
        # layer z of X_3(X_1, X_2) is an independent isotope of Z_s, or one
        # fixed isotope shifted by c(z) for a bijective or arbitrary c
        rng = random.Random(5000 + s)
        for trial in range(24):
            base = _isotope(rng, _cyclic_square(s), s)
            if trial % 3 == 0:
                layers = [_isotope(rng, _cyclic_square(s), s) for _ in range(s)]
            else:
                shift = _random_level_map(rng, s) if trial % 3 == 1 else [rng.randrange(s) for _ in range(s)]
                layers = [tuple(tuple((v + shift[z]) % s for v in r) for r in base) for z in range(s)]
            rows = tuple((a, b, layers[z][a][b], z) for z in range(s) for a in range(s) for b in range(s))
            design = Design(s=s, m=4, rows=rows)
            committed = _random_committed(rng, (1, 2, 3, 4))
            fixed = {f: LevelPerm.identity(s) for f in committed}
            expected = brute_force_equation(design, (1, 2, 3, 4), committed)
            assert _plain(find_equation_multilayer(design, (1, 2, 3, 4), fixed_perms=fixed)) == expected

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (0, 1, 3, 2), (0, 3, 1, 2), (3, 0, 1, 2)])
    def test_free_factor_beside_non_cyclic_square(self, order):
        d = latin_with_free_factor(order)
        for k in range(1, 5):
            rest = [f for f in range(1, 5) if f != k]
            for factors in ((rest[0], rest[1], k, rest[2]), (rest[1], rest[2], k, rest[0])):
                assert brute_force_equation(d, factors) is None
                assert find_equation_multilayer(d, factors) is None


def _scrambled_triple(s, seed):
    rng = random.Random(seed)
    d = regular_fraction(s, 3, [DefiningEquation((rng.randrange(1, s), rng.randrange(1, s), 1), rng.randrange(s))])
    for f in range(1, 4):
        d = apply_level_perm(d, f, LevelPerm(s, tuple(rng.sample(range(s), s))))
    return d


class TestLargeLevels:
    """Level counts whose (s-2)! relabelings could never be enumerated."""

    @pytest.mark.parametrize("s", [13, 31])
    def test_scrambled_triple_is_recovered_quickly(self, s):
        d = _scrambled_triple(s, 600 + s)
        start = time.perf_counter()
        report = regularity_check(d)
        elapsed = time.perf_counter() - start
        assert report.regular and len(report.equations) == 1
        assert verify_equations(d, report.perms, report.equations)
        assert elapsed < 2.0

    def test_non_cyclic_square_with_free_factor(self):
        s = 13
        square = random_latin_square(random.Random(13), s)
        assert not principal_loop_is_group(square)
        rows = tuple((a, b, square[a][b], f) for a in range(s) for b in range(s) for f in range(s))
        start = time.perf_counter()
        report = regularity_check(Design(s=s, m=4, rows=rows))
        assert not report.regular and report.strength == 2
        assert time.perf_counter() - start < 2.0


def _latin_design_with_affine_columns(rng, s, square, extras):
    """x1, x2, square(x1, x2), a free x4 and columns x4 + a x1 + b x2, all scrambled.

    The columns are shuffled, so the information set is not always the
    first factors.
    """
    words = rng.sample([w for w in itertools.product(range(s), repeat=2) if any(w)], extras)
    runs = [
        (x1, x2, square[x1][x2], x4, *((x4 + a * x1 + b * x2) % s for a, b in words))
        for x1 in range(s) for x2 in range(s) for x4 in range(s)
    ]
    order = rng.sample(range(len(runs[0])), len(runs[0]))
    maps = [_random_level_map(rng, s) for _ in order]
    rows = tuple(tuple(maps[c][run[c]] for c in order) for run in runs)
    return Design(s=s, m=len(order), rows=rows)


class TestInformationSetAgainstTupleSearch:
    """One pass over an information set decides what the tuple scan decided."""

    @staticmethod
    def _agree(design):
        expected = tuple_search_regularity(design)
        report = regularity_check(design)
        assert report.regular == (expected is not None)
        if expected is None:
            assert report.equations == () and all(p.is_identity for p in report.perms)
            return False
        perms, equations = expected
        assert report.perms == perms
        assert same_row_space([e.exponents for e in report.equations], [e.exponents for e in equations], design.s)
        assert verify_equations(design, report.perms, report.equations)
        assert verify_equations(design, perms, equations)
        return True

    @pytest.mark.parametrize(
        "s,m,r", [(2, 5, 2), (2, 6, 3), (3, 4, 2), (3, 5, 2), (5, 4, 2), (5, 5, 2), (7, 4, 2)]
    )
    def test_scrambled_regular_fractions(self, s, m, r):
        rng = random.Random(8000 + 100 * s + 10 * m + r)
        for _ in range(6):
            _, _, d = random_regular_design(rng, s, m, r)
            assert self._agree(d)

    @pytest.mark.parametrize("s", [3, 5, 7])
    def test_latin_square_designs_with_affine_columns(self, s):
        rng = random.Random(9000 + s)
        verdicts = []
        for trial in range(8):
            if trial % 2:
                square = _isotope(rng, _cyclic_square(s), s)
            else:
                square = random_latin_square(rng, s)
            d = _latin_design_with_affine_columns(rng, s, square, 1 + trial % 2)
            verdicts.append(self._agree(d))
        assert any(verdicts) and (s == 3 or not all(verdicts))


def _reduced_latin_squares(s):
    """Every s x s Latin square whose first row and column are 0, ..., s-1."""
    def extend(rows):
        if len(rows) == s:
            yield tuple(rows)
            return
        a = len(rows)
        for tail in itertools.permutations([v for v in range(s) if v != a]):
            row = (a, *tail)
            if all(row[b] != r[b] for r in rows for b in range(1, s)):
                yield from extend(rows + [row])

    yield from extend([tuple(range(s))])


def _wide_nonregular_design(m):
    """x1, x2, x3, SQUARE_NONREGULAR(x1, x2) and m - 4 columns x3 + a x1 + b x2."""
    words = [w for w in itertools.product(range(5), repeat=2) if any(w)][: m - 4]
    rows = tuple(
        (x1, x2, x3, SQUARE_NONREGULAR[x1][x2], *((x3 + a * x1 + b * x2) % 5 for a, b in words))
        for x1 in range(5) for x2 in range(5) for x3 in range(5)
    )
    return Design(s=5, m=m, rows=rows)


class TestInformationSetDecision:
    def test_reduced_latin_squares_of_order_five(self):
        squares = list(_reduced_latin_squares(5))
        assert len(squares) == 56
        regular = 0
        for square in squares:
            d = design_from_square(square, 5)
            report = regularity_check(d)
            if report.regular:
                regular += 1
                assert verify_equations(d, report.perms, report.equations)
        assert regular == 6  # (5 - 2)! reduced isotopes of Z_5

    def test_projection_counts_decide_without_a_square(self):
        # the third factor of two parallel 25-run fractions doubles the runs
        rows = tuple((a, b, (a + b + c) % 5) for a in range(5) for b in range(5) for c in (0, 2))
        report = regularity_check(Design(s=5, m=3, rows=rows))
        assert not report.regular and report.tuples_examined == 0
        assert regularity_check(full_factorial(3, 3)).tuples_examined == 0

    def test_failure_at_the_second_square(self):
        # X4 = x1 + x2 commits factor 1 unpermuted; X5 = g(x1) + x3 then
        # needs factor 1 relabeled by g's representative, which is not affine
        g = (0, 1, 3, 2, 4)
        rows = tuple(
            (x1, x2, x3, (x1 + x2) % 5, (g[x1] + x3) % 5)
            for x1 in range(5) for x2 in range(5) for x3 in range(5)
        )
        d = Design(s=5, m=5, rows=rows)
        report = regularity_check(d)
        assert not report.regular and report.strength == 2
        assert report.tuples_examined == 2
        assert tuple_search_regularity(d) is None

    def test_design_is_relabeled_only_to_verify_the_witness(self, monkeypatch):
        _, _, d = random_regular_design(random.Random(77), 5, 5, 2)
        calls = []

        def counting(design, perms):
            calls.append(dict(perms))
            return _relabel(design, perms)

        monkeypatch.setattr(regularity, "_relabel", counting)
        report = regularity_check(d)
        assert report.regular and len(report.equations) == 2
        assert calls == [dict(enumerate(report.perms, start=1))]

    def test_known_representatives_are_enforced(self):
        d = cyclic_design()
        identity, swap = LevelPerm.identity(5), LevelPerm(5, (0, 1, 3, 2, 4))
        assert regularity._multilayer_search(d, (1, 2, 3), {1: identity, 3: identity}) is not None
        for f in (1, 2, 3):
            assert regularity._multilayer_search(d, (1, 2, 3), {f: swap}) is None
        # the scrambled square needs factor 3 relabeled; known, it must match
        d = scrambled_design()
        perms, _ = regularity._multilayer_search(d, (1, 2, 3), {})
        assert regularity._multilayer_search(d, (1, 2, 3), {3: perms[3]}) is not None
        assert regularity._multilayer_search(d, (1, 2, 3), {3: identity}) is None

    @pytest.mark.parametrize("m", [13, 28])
    def test_wide_nonregular_designs_decide_at_the_first_square(self, m):
        d = _wide_nonregular_design(m)
        start = time.perf_counter()
        report = regularity_check(d)
        elapsed = time.perf_counter() - start
        assert not report.regular and report.strength == 2
        assert report.tuples_examined == 1
        assert elapsed < 1.0

    def test_scrambled_projective_plane_fraction(self):
        # the 31 points of PG(2, 5) as columns: a 5^(31-28) fraction
        points = [p for p in itertools.product(range(5), repeat=3) if any(p) and p[next(i for i, v in enumerate(p) if v)] == 1]
        rng = random.Random(31)
        maps = [_random_level_map(rng, 5) for _ in points]
        rows = tuple(
            tuple(g[sum(c * v for c, v in zip(p, x)) % 5] for p, g in zip(points, maps))
            for x in itertools.product(range(5), repeat=3)
        )
        d = Design(s=5, m=31, rows=rows)
        report = regularity_check(d)
        assert report.regular and len(report.equations) == 28
        assert report.tuples_examined == 28
        assert verify_equations(d, report.perms, report.equations)
        work = d
        for f, perm in enumerate(report.perms, start=1):
            work = apply_level_perm(work, f, perm)
        for eq in report.equations:
            assert all(sum(e * v for e, v in zip(eq.exponents, row)) % 5 == eq.constant for row in work.rows)
