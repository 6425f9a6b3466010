"""Independent brute-force and floating-point oracles.

These deliberately avoid the code paths they are used to check: indicator
coefficients come from raw complex sums over the runs, the rank-1 test
from numeric 2x2 minors of the root-of-unity table, and small regular
fractions from direct congruence enumeration.  ``tuple_search_regularity``
is the regularity decision as it stood before the information-set pass: a
scan over every triple and every larger tuple, built only from the public
single-equation searches.
"""

from __future__ import annotations

import cmath
import itertools

from regfrac import (
    Design,
    LevelPerm,
    apply_level_perm,
    find_equation_multilayer,
    find_triple_equation,
)
from regfrac.linalg import reduce_against, row_reduce


def omega(k: int, s: int) -> complex:
    return cmath.exp(2j * cmath.pi * k / s)


def complex_coefficient(design: Design, alpha) -> complex:
    """b_alpha as a raw complex sum over the fraction's runs."""
    s = design.s
    total = 0j
    for row in design.rows:
        e = -sum(a * x for a, x in zip(alpha, row))
        total += omega(e % s, s)
    return total / (s**design.m)


def complex_aberration(design: Design, alpha) -> float:
    b0 = design.n / design.s**design.m
    return abs(complex_coefficient(design, alpha)) ** 2 / b0**2


def complex_gwlp(design: Design) -> tuple[float, ...]:
    s, m = design.s, design.m
    out = [0.0] * m
    for alpha in itertools.product(range(s), repeat=m):
        order = sum(1 for a in alpha if a)
        if order:
            out[order - 1] += complex_aberration(design, alpha)
    return tuple(out)


def float_table_rank_one(rows, s: int, tolerance: float = 1e-9) -> bool:
    """All 2x2 minors of (omega(entry)) vanish numerically."""
    n = len(rows)
    w = [[omega(v, s) for v in r] for r in rows]
    for a, a2 in itertools.combinations(range(n), 2):
        for b, b2 in itertools.combinations(range(len(rows[0])), 2):
            minor = w[a][b] * w[a2][b2] - w[a][b2] * w[a2][b]
            if abs(minor) > tolerance:
                return False
    return True


def solve_congruences(s: int, m: int, equations) -> frozenset[tuple[int, ...]]:
    """All points of Z_s^m satisfying every (alpha, k) pair, by enumeration."""
    points = []
    for x in itertools.product(range(s), repeat=m):
        if all(sum(a * v for a, v in zip(alpha, x)) % s == k % s for alpha, k in equations):
            points.append(x)
    return frozenset(points)


def constant_words(points, s: int, m: int):
    """All alpha for which X^alpha is constant on the point set, with the value."""
    out = {}
    points = list(points)
    for alpha in itertools.product(range(s), repeat=m):
        values = {sum(a * v for a, v in zip(alpha, x)) % s for x in points}
        if len(values) == 1:
            out[alpha] = next(iter(values))
    return out


def _additive_rank_one(rows, s: int) -> bool:
    return all(
        (rows[a][b] - rows[a][0] - rows[0][b] + rows[0][0]) % s == 0
        for a in range(len(rows))
        for b in range(len(rows[0]))
    )


def brute_force_equation(design: Design, factors, committed=()):
    """The regularity search's equation on ``factors`` by enumerating relabelings of X_k.

    ``factors`` is (i, j, k, outer...).  Every relabeling of X_k fixing 0
    and 1 is tried in lexicographic order (only the identity when k is
    committed); the first one whose zero layer is a rank-1 Latin square,
    whose layers share its increments, whose corner constants split into
    one bijection per outer factor and whose readouts are linear on the
    committed factors wins.  Returns ({factor: image}, (exponents,
    constant)) or None.
    """
    s, m = design.s, design.m
    i, j, k, *outers = factors
    committed = set(committed)
    tables = {}
    for row in design.rows:
        cell = tables.setdefault(tuple(row[t - 1] for t in outers), {})
        if cell.setdefault((row[i - 1], row[j - 1]), row[k - 1]) != row[k - 1]:
            return None
    layers = list(itertools.product(range(s), repeat=len(outers)))
    if set(tables) != set(layers) or any(len(cell) != s * s for cell in tables.values()):
        return None
    tables = {z: [[cell[a, b] for b in range(s)] for a in range(s)] for z, cell in tables.items()}
    zero = (0,) * len(outers)
    base = tables[zero]
    if len(set(base[0])) != s or len({r[0] for r in base}) != s:
        return None
    reps = [tuple(range(s))] if k in committed else (
        (0, 1) + tail for tail in itertools.permutations(range(2, s))
    )
    for rep in reps:
        layered = {z: [[rep[v] for v in r] for r in t] for z, t in tables.items()}
        base = layered[zero]
        if not _additive_rank_one(base, s):
            continue
        c0 = base[0][0]
        if any(
            (layered[z][a][b] - base[a][b] - layered[z][0][0] + c0) % s
            for z in layers for a in range(s) for b in range(s)
        ):
            continue
        b0, a0 = base[0].index(0), [r[0] for r in base].index(0)
        readouts = [(i, [r[b0] for r in base]), (j, base[a0])]
        for t, f in enumerate(outers):
            unit = tuple(int(u == t) for u in range(len(outers)))
            readouts.append((f, [(layered[tuple(v * e for e in unit)][0][0] - c0) % s for v in range(s)]))
        if any(sorted(g) != list(range(s)) for _, g in readouts) or any(
            (layered[z][0][0] - c0 - sum(g[z[t]] for t, (_, g) in enumerate(readouts[2:]))) % s
            for z in layers
        ):
            continue
        exponents, perms = [0] * m, {}
        for f, g in readouts:
            h = g[1]
            residual = tuple(pow(h, -1, s) * v % s for v in g)
            if f in committed and residual != tuple(range(s)):
                break
            exponents[f - 1] = h
            if f not in committed:
                perms[f] = residual
        else:
            exponents[k - 1] = s - 1
            if k not in committed:
                perms[k] = rep
            return perms, (tuple(exponents), -c0 % s)
    return None


def principal_loop_is_group(rows) -> bool:
    """Whether the square's principal loop is associative (Albert 1943).

    x * y = rows[a][b] with x = rows[a][0] and y = rows[0][b]; a square is
    isotopic to a group table exactly when this loop is associative, and a
    group of prime order is cyclic.
    """
    row_of = {r[0]: r for r in rows}
    col_of = {y: b for b, y in enumerate(rows[0])}

    def mul(x, y):
        return row_of[x][col_of[y]]

    levels = list(rows[0])
    return all(mul(mul(x, y), z) == mul(x, mul(y, z)) for x in levels for y in levels for z in levels)


def tuple_search_regularity(design: Design):
    """Regularity by scanning tuples until r independent equations commit.

    Requires strength 2.  Triples (i, j, k) are tried in lexicographic order
    with k dependent, then every q-subset (q >= 4) not containing the
    support of an equation already found, once per choice of dependent
    factor.  An equation commits when it is independent of the earlier ones;
    its permutations are applied and its factors may not be re-permuted.
    Passes repeat until one commits nothing.  Returns (perms, equations)
    with one permutation per factor, or None when the design is not regular.
    """
    s, m, n = design.s, design.m, design.n
    if s**m % n:
        return None
    ratio, r = s**m // n, 0
    while ratio % s == 0:
        ratio //= s
        r += 1
    if ratio != 1:
        return None
    identity = LevelPerm.identity(s)
    work, committed, equations, basis = design, {}, [], []

    def commit(found) -> bool:
        nonlocal work, basis
        perms, eq = found
        if not any(reduce_against(eq.exponents, basis, s)):
            return False
        for f, perm in perms.items():
            work = apply_level_perm(work, f, perm)
        committed.update(perms)
        for f in range(1, m + 1):
            if eq.exponents[f - 1] and f not in committed:
                committed[f] = identity
        basis = row_reduce(basis + [list(eq.exponents)], s)
        equations.append(eq)
        return True

    progress = True
    while progress and len(equations) < r:
        progress = False
        for i, j in itertools.combinations(range(1, m + 1), 2):
            for k in range(1, m + 1):
                if k not in (i, j) and len(equations) < r:
                    found = find_triple_equation(work, (i, j, k), committed=committed)
                    progress |= found is not None and commit(found)
        for q in range(4, m + 1):
            supports = [frozenset(f for f in range(1, m + 1) if eq.exponents[f - 1]) for eq in equations]
            for combo in itertools.combinations(range(1, m + 1), q):
                if len(equations) == r:
                    break
                for k in combo:
                    rest = [f for f in combo if f != k]
                    found = find_equation_multilayer(
                        design, (rest[0], rest[1], k, *rest[2:]), committed, supports
                    )
                    if found is not None and commit(found):
                        progress = True
                        break
    if len(equations) < r:
        return None
    return tuple(committed.get(f, identity) for f in range(1, m + 1)), tuple(equations)
