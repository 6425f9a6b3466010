"""Deciding whether a strength-2 orthogonal array hides a regular fraction.

Level permutations do not change how many distinct runs a projection
has, so the decision starts from an information set I: factors join it
in order when they multiply that number by s.  In a regular fraction
every other factor X_k is an affine function of its support S_k, the
factors of I whose level, the others held fixed, changes X_k; any growth
other than 1 or s already proves the design is not regular.  Each such
X_k then gives one equation on S_k and k, with X_k dependent and an
exponent of its own that no other equation uses, so the r equations are
independent by construction and each is decided once.

For factors (i, j, k) where X_k is a function of (X_i, X_j), the s x s
table C[a][b] = x_k is a Latin square.  The three factors support a
generating equation, possibly after per-factor level permutations,
exactly when some relabeling psi of X_k makes every 2 x 2 minor of the
root-of-unity-valued table vanish; additively,

    C[a][b] + C[a'][b'] = C[a][b'] + C[a'][b]  (mod s).

That holds exactly when the square is isotopic to the Cayley table of Z_s
(Albert 1943).  Its principal loop x * y = C[a][b], where x = C[a][0] and
y = C[0][b], must then be a group of prime order, hence cyclic: walking
the powers of any non-identity element g gives the only candidate phi
(phi(g^n) = n), and checking phi(x * y) = phi(x) + phi(y) on all s^2 cells
decides the square; that check also proves the loop associative.  Every
valid psi is h * phi + c, one affine coset, so its representative fixing
0 and 1 is unique and no enumeration of relabelings is needed.

After that relabeling the equation is one affine identity,

    rep(x_k) = c0 + g_i(x_i) + g_j(x_j) + sum over outer t of g_t(x_t),

on every run, read off at the origin.  The square with every outer
factor at level 0 gives rep; c0 is rep of X_k where all support factors
are at level 0, and each support factor's map g_f is read from its own
axis, the other factors at level 0, so g_f(0) = 0.  Each g_f must be a
bijection and factors as h * rep_f with rep_f fixing 0 and 1: the affine
slope h is absorbed into the equation's exponent, rep_f is applied to the
factor, and the equation becomes X^alpha X_k^{s-1} = w_{[-c0]} in the
permuted coordinates; monomial readouts need no actual permutation.  A
triple is the case with no outer factor, read out by the same code.

Factors whose permutation an earlier accepted equation already fixed may
not be re-permuted.  The design is not relabeled for them: each carries
the representative it must need, and its readout (or, for X_k, its
square) must come out with exactly that representative, so only the
exponent absorbs the rest.  Since every relabeling is forced up to an
affine map, a committed factor loses nothing, and an equation that fails
to read out proves the design is not regular.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .design import (
    DefiningEquation,
    Design,
    full_factorial,
    project,
    regular_fraction,
    strength_combinatorial,
)
from .permutation import LevelPerm, _relabel, monomial_decompose


class StrengthError(ValueError):
    """Raised when an operation requires an orthogonal array of strength 2."""


@dataclass(frozen=True)
class LatinSquare:
    """An s x s table of levels in which every row and column is a bijection."""

    s: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        s = self.s
        if len(self.rows) != s or any(len(r) != s for r in self.rows):
            raise ValueError(f"expected an {s} x {s} table")
        full = set(range(s))
        for r in self.rows:
            if set(r) != full:
                raise ValueError(f"row {r} is not a permutation of 0..{s - 1}")
        for b in range(s):
            if {r[b] for r in self.rows} != full:
                raise ValueError(f"column {b} is not a permutation of 0..{s - 1}")

    def permute_values(self, perm: LevelPerm) -> "LatinSquare":
        return LatinSquare(self.s, tuple(tuple(perm.image[v] for v in r) for r in self.rows))


def table_rank_one(rows: Sequence[Sequence[int]], s: int) -> bool:
    """Additive 2x2-minor criterion on an arbitrary square table of levels.

    All minors vanish over the complex coding iff every row differs from the
    first by a constant, since w_p w_q - w_r w_t = 0 iff [p+q] = [r+t].
    """
    r0 = rows[0]
    for a in range(1, len(rows)):
        ra = rows[a]
        d = (ra[0] - r0[0]) % s
        for b in range(1, len(r0)):
            if (ra[b] - r0[b]) % s != d:
                return False
    return True


def first_failing_minor(rows: Sequence[Sequence[int]], s: int):
    """First (a, a', b, b') whose minor is nonzero, with the two exponent sums.

    Returns ((a, a'), (b, b'), (diag, anti)) where diag = rows[a][b] +
    rows[a'][b'] and anti = rows[a][b'] + rows[a'][b] mod s, or None.
    """
    n = len(rows)
    for a, a2 in itertools.combinations(range(n), 2):
        for b, b2 in itertools.combinations(range(len(rows[0])), 2):
            diag = (rows[a][b] + rows[a2][b2]) % s
            anti = (rows[a][b2] + rows[a2][b]) % s
            if diag != anti:
                return (a, a2), (b, b2), (diag, anti)
    return None


def rank_one_check(square: LatinSquare) -> bool:
    return table_rank_one(square.rows, square.s)


def latin_square(design: Design, i: int, j: int, k: int) -> LatinSquare | None:
    """The table X_k(X_i, X_j), or None when X_k is not a function of (X_i, X_j).

    Requires the (i, j) projection to be a uniformly replicated full
    factorial (strength 2 on that pair).
    """
    s = design.s
    if len({i, j, k}) != 3:
        raise ValueError(f"factors ({i}, {j}, {k}) must be distinct")
    for f in (i, j, k):
        if not 1 <= f <= design.m:
            raise ValueError(f"factor {f} out of range 1..{design.m}")
    pair = project(design, (i, j))
    if len(pair) != s * s or len(set(pair.values())) != 1:
        raise StrengthError(f"projection onto factors ({i}, {j}) is not uniform")
    table = [[None] * s for _ in range(s)]
    for row in design.rows:
        a, b, v = row[i - 1], row[j - 1], row[k - 1]
        if table[a][b] is None:
            table[a][b] = v
        elif table[a][b] != v:
            return None
    return LatinSquare(s, tuple(tuple(r) for r in table))


def reduce_and_read(square: LatinSquare) -> tuple[LevelPerm, LevelPerm, int]:
    """Row/column rearrangements putting a rank-1 square in reduced form.

    Returns (pi_row, pi_col, constant) such that
    rows[pi_row(a)][pi_col(b)] = [a + b + constant]; the permutations are
    the inverses of the column and row whose leading entry is 0, and the
    constant is the upper-left entry.
    """
    s, rows = square.s, square.rows
    if not table_rank_one(rows, s):
        raise ValueError("square is not rank 1; nothing to read")
    c0 = rows[0][0]
    b0 = rows[0].index(0)
    col = tuple(rows[a][b0] for a in range(s))
    a0 = next(a for a in range(s) if rows[a][0] == 0)
    row = rows[a0]
    pi_row = LevelPerm(s, col).inverse()
    pi_col = LevelPerm(s, row).inverse()
    for a in range(s):
        for b in range(s):
            if rows[pi_row.image[a]][pi_col.image[b]] != (a + b + c0) % s:
                raise AssertionError("rank-1 square failed reduced-form verification")
    return pi_row, pi_col, c0


def _cyclic_representative(rows: Sequence[Sequence[int]], s: int) -> LevelPerm | None:
    """The relabeling fixing 0 and 1 that makes ``rows`` rank 1, or None.

    None unless the table C is a Latin square isotopic to Z_s.  phi is
    built by walking x -> x * g from the identity C[0][0], with g = C[0][1]
    (so x * g sits in column 1 of the row that starts with x); it must hit
    every level once and satisfy phi(C[a][b]) = phi(C[a][0]) + phi(C[0][b]).
    """
    top = rows[0]
    row_of = {r[0]: r for r in rows}
    if len(row_of) != s or len(set(top)) != s:
        return None
    phi = [-1] * s
    x = top[0]
    for power in range(s):
        if phi[x] >= 0:
            return None
        phi[x] = power
        x = row_of[x][1]
    for r in rows:
        shift = phi[r[0]]
        for v, y in zip(r, top):
            if phi[v] != (shift + phi[y]) % s:
                return None
    return monomial_decompose(LevelPerm(s, tuple(phi)))[2]


def find_triple_equation(
    design: Design,
    factors: tuple[int, int, int],
    committed: Iterable[int] = (),
):
    """Search for a generating equation on (i, j, k) with X_k dependent.

    X_k is relabeled by the unique coset representative that makes its
    square rank 1 (left as it is when X_k is committed), and the readouts
    must respect the committed factors.  Returns (perms, DefiningEquation)
    with ``perms`` mapping free factors to the non-monomial residue of
    their readout; applying them to the design makes X^alpha = w_c hold.
    None when X_k is not a function of (X_i, X_j) or no relabeling works.
    """
    if latin_square(design, *factors) is None:
        return None
    identity = LevelPerm.identity(design.s)
    return _multilayer_search(design, tuple(factors), dict.fromkeys(committed, identity))


def find_equation_multilayer(
    design: Design,
    factors: Sequence[int],
    fixed_perms: Mapping[int, LevelPerm] | None = None,
    known_supports: Iterable[frozenset[int]] = (),
):
    """Search for a q-factor equation (q >= 4) with one affine check.

    ``factors`` is ordered: (inner, inner, dependent, outer...).  The
    relabeling of the dependent factor comes from the square over the two
    inner factors with every outer factor at level 0, each other factor's
    readout from its own axis with the rest at level 0, and one check on
    every run decides the equation.  Factors in ``fixed_perms`` are
    relabeled first and then may not be re-permuted.  A tuple containing
    the whole support of an already-found equation is skipped outright.
    Returns (perms, DefiningEquation) over the free factors, stated for
    the design after both fixed and returned permutations, or None.
    """
    factors = tuple(factors)
    if len(factors) < 4:
        raise ValueError("multilayer search needs at least four factors")
    if len(set(factors)) != len(factors):
        raise ValueError(f"factors {factors} are not distinct")
    fset = set(factors)
    for support in known_supports:
        if set(support) <= fset:
            return None
    fixed_perms = dict(fixed_perms or {})
    work = _relabel(design, fixed_perms)
    return _multilayer_search(work, factors, dict.fromkeys(fixed_perms, LevelPerm.identity(design.s)))


def _multilayer_search(design: Design, factors: tuple[int, ...], known: Mapping[int, LevelPerm]):
    """The equation on ``factors`` = (i, j, k, outer...) with X_k dependent, or None.

    This is the one readout and commit path for triples and larger tuples.
    ``known`` maps a factor to the coset representative it must need, so
    a design need not be relabeled by the permutations already committed;
    only the factors outside it get a permutation in the result.
    """
    s, m, k = design.s, design.m, factors[2]
    support = (factors[0], factors[1], *factors[3:])
    levels = itemgetter(*(f - 1 for f in support))
    table: dict[tuple[int, ...], int] = {}
    for row in design.rows:
        v = row[k - 1]
        if table.setdefault(levels(row), v) != v:
            return None
    if len(table) < s ** len(support):
        return None
    # Under an equation the zero layer is a Latin square isotopic to Z_s,
    # whatever the value relabeling, and it alone fixes the relabeling.
    origin = (0,) * len(support)
    zero = origin[2:]
    rep = _cyclic_representative([[table[(a, b, *zero)] for b in range(s)] for a in range(s)], s)
    if rep is None or known.get(k, rep) != rep:
        return None
    image = rep.image
    c0 = image[table[origin]]
    readouts = []
    exponents = [0] * m
    perms: dict[int, LevelPerm] = {}
    for t, f in enumerate(support):
        g = tuple((image[table[origin[:t] + (e,) + origin[t + 1:]]] - c0) % s for e in range(s))
        if len(set(g)) != s:
            return None
        # the affine slope h moves into the exponent; the representative
        # fixing 0 and 1 is the factor's permutation
        h, _, residual = monomial_decompose(LevelPerm(s, g))
        if known.get(f, residual) != residual:
            return None
        readouts.append(g)
        exponents[f - 1] = h
        if f not in known:
            perms[f] = residual
    for key, v in table.items():
        if image[v] != (c0 + sum(map(tuple.__getitem__, readouts, key))) % s:
            return None
    exponents[k - 1] = s - 1
    if k not in known:
        perms[k] = rep
    return perms, DefiningEquation(tuple(exponents), (-c0) % s)


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the regularity decision for one design.

    ``perms`` has one permutation per factor, identities when the design is
    not regular; ``equations`` has one generator per factor outside the
    information set, with exponent s - 1 on that factor.
    ``tuples_examined`` counts the dependent-column squares decided: all r
    of them for a regular design, up to and including the first failure
    otherwise, and 0 when the projection counts already decide.
    """

    regular: bool
    strength: int
    perms: tuple[LevelPerm, ...]
    equations: tuple[DefiningEquation, ...]
    tuples_examined: int

    def to_json(self) -> dict:
        return {
            "regular": self.regular,
            "strength": self.strength,
            "permutations": [list(p.image) for p in self.perms],
            "equations": [
                {"exponents": list(eq.exponents), "constant": eq.constant}
                for eq in self.equations
            ],
            "tuples_examined": self.tuples_examined,
        }


def verify_equations(
    design: Design, perms: Sequence[LevelPerm], equations: Sequence[DefiningEquation]
) -> bool:
    """True iff applying the perms maps the design onto the equations' fraction."""
    work = _relabel(design, dict(enumerate(perms, start=1)))
    if equations:
        target = regular_fraction(design.s, design.m, list(equations))
    else:
        target = full_factorial(design.s, design.m)
    return work.point_set() == target.point_set()


def _support(design: Design, basis: Sequence[int], k: int) -> list[int]:
    """Factors of the information set whose level, the others held fixed, changes X_k.

    The design projects onto ``basis`` as a full factorial, so X_k ignores
    factor t exactly when X_k and the rest of the basis take only
    s^(|basis| - 1) distinct values together.
    """
    rest = design.s ** (len(basis) - 1)
    return [t for t in basis if len(project(design, (*(u for u in basis if u != t), k))) > rest]


def regularity_check(design: Design) -> RegularityReport:
    """Decide regularity under level permutations, recovering the witnesses.

    Requires a strength-2 orthogonal array.  Factors join the information
    set I in order when they multiply the number of distinct projected runs
    by s; a growth other than 1 or s proves the design is not regular.
    Each factor k outside I is a function of its support S_k in I, and the
    one equation on S_k and k, with X_k dependent, is decided once; a
    failure proves the design is not regular, since every relabeling is
    forced up to an affine map.  ``tuples_examined`` counts the dependent
    columns decided.
    """
    s, m = design.s, design.m
    strength = strength_combinatorial(design)
    if strength < 2:
        raise StrengthError("not an orthogonal array of strength 2")
    identity = LevelPerm.identity(s)

    basis: list[int] = []
    dependent: list[int] = []
    for f in range(1, m + 1):
        grown = len(project(design, (*basis, f)))
        if grown == s ** (len(basis) + 1):
            basis.append(f)
        elif grown == s ** len(basis):
            dependent.append(f)
        else:
            return RegularityReport(False, strength, (identity,) * m, (), 0)

    committed: dict[int, LevelPerm] = {}
    equations: list[DefiningEquation] = []
    for k in dependent:
        # strength 2 gives every support at least two factors
        support = _support(design, basis, k)
        found = _multilayer_search(design, (support[0], support[1], k, *support[2:]), committed)
        if found is None:
            return RegularityReport(False, strength, (identity,) * m, (), len(equations) + 1)
        perms, eq = found
        committed.update(perms)
        equations.append(eq)

    final_perms = tuple(committed.get(f, identity) for f in range(1, m + 1))
    report = RegularityReport(True, strength, final_perms, tuple(equations), len(equations))
    if not verify_equations(design, report.perms, report.equations):
        raise AssertionError("regularity witness failed verification")
    return report
