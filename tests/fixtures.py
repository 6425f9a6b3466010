"""Shared fixed designs and Latin squares used across the test suite.

The three 25-run, 5-level arrays cover the interesting cases: one plainly
regular (its third factor is the cyclic sum of the first two), one regular
only after level permutations, and one that no level permutation makes
regular.  The 7-level square is built so that its upper-left 2x2 block
defeats every relabeling of the output factor.  The 125-run array is a
two-equation fraction of 5^5 with the levels of factors 1 and 5 scrambled.
"""

from __future__ import annotations

import random

from regfrac import DefiningEquation, Design, LevelPerm, apply_level_perm, regular_fraction

SQUARE_CYCLIC = tuple(tuple((a + b) % 5 for b in range(5)) for a in range(5))

SQUARE_SCRAMBLED = (
    (2, 4, 0, 1, 3),
    (0, 2, 1, 3, 4),
    (3, 1, 4, 2, 0),
    (4, 3, 2, 0, 1),
    (1, 0, 3, 4, 2),
)

# SQUARE_SCRAMBLED after relabeling the output factor by (4, 3, 0, 2, 1)
SQUARE_SCRAMBLED_RANK1 = (
    (0, 1, 4, 3, 2),
    (4, 0, 3, 2, 1),
    (2, 3, 1, 0, 4),
    (1, 2, 0, 4, 3),
    (3, 4, 2, 1, 0),
)

SQUARE_NONREGULAR = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 3, 4, 0, 1),
    (3, 4, 1, 2, 0),
    (4, 2, 0, 1, 3),
)

SQUARE_NONREGULAR_7 = (
    (0, 1, 2, 3, 4, 5, 6),
    (1, 0, 4, 5, 2, 6, 3),
    (4, 2, 3, 6, 5, 0, 1),
    (6, 3, 5, 0, 1, 4, 2),
    (5, 4, 1, 2, 6, 3, 0),
    (3, 5, 6, 1, 0, 2, 4),
    (2, 6, 0, 4, 3, 1, 5),
)

# X_3(X_1, X_2) of the scrambled 125-run fraction; all minors vanish as-is
SQUARE_125_TRIPLE = (
    (1, 0, 4, 3, 2),
    (4, 3, 2, 1, 0),
    (3, 2, 1, 0, 4),
    (0, 4, 3, 2, 1),
    (2, 1, 0, 4, 3),
)

# X_4(X_2, X_3) of the same fraction, one layer per level of X_5
LAYERS_125 = {
    0: ((1, 4, 2, 0, 3), (3, 1, 4, 2, 0), (0, 3, 1, 4, 2), (2, 0, 3, 1, 4), (4, 2, 0, 3, 1)),
    1: ((3, 1, 4, 2, 0), (0, 3, 1, 4, 2), (2, 0, 3, 1, 4), (4, 2, 0, 3, 1), (1, 4, 2, 0, 3)),
    2: ((2, 0, 3, 1, 4), (4, 2, 0, 3, 1), (1, 4, 2, 0, 3), (3, 1, 4, 2, 0), (0, 3, 1, 4, 2)),
    3: ((0, 3, 1, 4, 2), (2, 0, 3, 1, 4), (4, 2, 0, 3, 1), (1, 4, 2, 0, 3), (3, 1, 4, 2, 0)),
    4: ((4, 2, 0, 3, 1), (1, 4, 2, 0, 3), (3, 1, 4, 2, 0), (0, 3, 1, 4, 2), (2, 0, 3, 1, 4)),
}


def design_from_square(square, s: int) -> Design:
    """The n = s^2 design whose third factor is the tabled function."""
    rows = tuple((a, b, square[a][b]) for a in range(s) for b in range(s))
    return Design(s=s, m=3, rows=rows)


def cyclic_design() -> Design:
    return design_from_square(SQUARE_CYCLIC, 5)


def scrambled_design() -> Design:
    return design_from_square(SQUARE_SCRAMBLED, 5)


def nonregular_design() -> Design:
    return design_from_square(SQUARE_NONREGULAR, 5)


def nonregular_design_7() -> Design:
    return design_from_square(SQUARE_NONREGULAR_7, 7)


def random_latin_square(rng: random.Random, s: int) -> tuple[tuple[int, ...], ...]:
    """A random s x s Latin square, built one row at a time.

    Each new row is a perfect matching between columns and the symbols
    their column still lacks; that bipartite graph is regular, so one
    always exists, and augmenting paths over shuffled candidates find it.
    """
    rows: list[tuple[int, ...]] = []
    for _ in range(s):
        free = [rng.sample(sorted(set(range(s)) - {r[b] for r in rows}), s - len(rows)) for b in range(s)]
        column_of: dict[int, int] = {}

        def augment(b, seen):
            for v in free[b]:
                if v not in seen:
                    seen.add(v)
                    if v not in column_of or augment(column_of[v], seen):
                        column_of[v] = b
                        return True
            return False

        for b in range(s):
            augment(b, set())
        row = [0] * s
        for v, b in column_of.items():
            row[b] = v
        rows.append(tuple(row))
    return tuple(rows)


def latin_with_free_factor(order) -> Design:
    """SQUARE_NONREGULAR, output levels 0 and 1 swapped, times a free 5-level factor.

    Runs are (a, b, output, free) with the columns placed by ``order``.  A
    non-regular OA(125, 4, 5, 2) whose layered tables include constant
    rows and columns.
    """
    swap = (1, 0, 2, 3, 4)
    runs = [(a, b, swap[SQUARE_NONREGULAR[a][b]], f) for a in range(5) for b in range(5) for f in range(5)]
    return Design(s=5, m=4, rows=tuple(tuple(run[c] for c in order) for run in runs))


TWO_EQUATION_GENERATORS = ((2, 1, 1, 0, 0), (1, 1, 0, 1, 1))
TWO_EQUATION_CONSTANTS = (1, 1)
SCRAMBLE_125 = {1: (0, 1, 4, 3, 2), 5: (1, 2, 0, 3, 4)}


def plain_125_design() -> Design:
    return regular_fraction(
        5,
        5,
        [
            DefiningEquation(alpha, c)
            for alpha, c in zip(TWO_EQUATION_GENERATORS, TWO_EQUATION_CONSTANTS)
        ],
    )


def scrambled_125_design() -> Design:
    d = plain_125_design()
    for factor, image in SCRAMBLE_125.items():
        d = apply_level_perm(d, factor, LevelPerm(5, image))
    return d
