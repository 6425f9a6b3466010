"""Designs with a prime number of levels: construction, parsing, projection, strength.

A design is a set of runs (rows) over m factors, each factor taking levels
in {0, ..., s-1} with s prime.  Replicated runs are rejected.  Row order is
preserved as given, but designs compare equal as point sets, since run
order never affects any quantity computed here.

File format: UTF-8 text, '#' starts a comment line, the first significant
line is ``n m s``, followed by exactly n lines of m space-separated levels.
The serializer emits rows in lexicographic order with single spaces and
trailing newline on every line.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .cyclotomic import validate_levels
from .linalg import reduce_against, row_reduce

DEFAULT_ENUMERATION_BOUND = 10**6


class ParseError(ValueError):
    """Malformed design file; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message if not line else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class Design:
    s: int
    m: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        validate_levels(self.s)
        if self.m < 1:
            raise ValueError("a design needs at least one factor")
        if not self.rows:
            raise ValueError("a design needs at least one run")
        seen = set()
        for row in self.rows:
            if len(row) != self.m:
                raise ValueError(f"row {row} has {len(row)} entries, expected {self.m}")
            for v in row:
                if not 0 <= v < self.s:
                    raise ValueError(f"level {v} out of range [0, {self.s}) in row {row}")
            if row in seen:
                raise ValueError(f"duplicate run {row}")
            seen.add(row)

    @property
    def n(self) -> int:
        return len(self.rows)

    def point_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.rows)

    def sorted_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.rows))

    def column(self, j: int) -> tuple[int, ...]:
        """Values of factor ``j`` (1-based) across all runs."""
        return tuple(row[j - 1] for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Design):
            return NotImplemented
        return (self.s, self.m, self.point_set()) == (other.s, other.m, other.point_set())

    def __hash__(self):
        return hash((self.s, self.m, self.point_set()))


@dataclass(frozen=True)
class DefiningEquation:
    """A binomial relation X^alpha = w_constant cutting out a regular fraction."""

    exponents: tuple[int, ...]
    constant: int

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if not any(self.exponents):
            raise ValueError("defining equation needs a nonzero exponent vector")

    def reduced(self, s: int) -> "DefiningEquation":
        return DefiningEquation(tuple(e % s for e in self.exponents), self.constant % s)

    def text(self) -> str:
        return ",".join(str(e) for e in self.exponents) + f" = {self.constant}"


def parse_design(text: str | bytes) -> Design:
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    header = None
    rows: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"non-integer token in {line!r}", lineno) from None
        if header is None:
            if len(values) != 3:
                raise ParseError(f"malformed header {line!r}: expected 'n m s'", lineno)
            n, m, s = values
            if n < 1 or m < 1:
                raise ParseError(f"malformed header: n={n}, m={m} must be positive", lineno)
            try:
                validate_levels(s)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            header = (n, m, s)
            continue
        n, m, s = header
        if len(values) != m:
            raise ParseError(f"row has {len(values)} entries, expected {m}", lineno)
        for v in values:
            if not 0 <= v < s:
                raise ParseError(f"level {v} out of range [0, {s})", lineno)
        row = tuple(values)
        if row in seen:
            raise ParseError(f"duplicate run {row} (first seen on line {seen[row]})", lineno)
        seen[row] = lineno
        rows.append(row)
    if header is None:
        raise ParseError("missing header line 'n m s'")
    n, m, s = header
    if len(rows) != n:
        raise ParseError(f"header declares {n} runs but {len(rows)} were given")
    return Design(s=s, m=m, rows=tuple(rows))


def serialize_design(design: Design) -> str:
    lines = [f"{design.n} {design.m} {design.s}"]
    lines.extend(" ".join(str(v) for v in row) for row in design.sorted_rows())
    return "\n".join(lines) + "\n"


def full_factorial(s: int, m: int, bound: int = DEFAULT_ENUMERATION_BOUND) -> Design:
    validate_levels(s)
    if s**m > bound:
        raise ValueError(f"full factorial size {s}^{m} exceeds bound {bound}")
    rows = tuple(itertools.product(range(s), repeat=m))
    return Design(s=s, m=m, rows=rows)


def regular_fraction(
    s: int,
    m: int,
    equations: Sequence[DefiningEquation],
    bound: int = DEFAULT_ENUMERATION_BOUND,
) -> Design:
    """All points solving every equation; the equations must be independent."""
    validate_levels(s)
    if not equations:
        raise ValueError("need at least one defining equation")
    basis: list[list[int]] = []
    for idx, eq in enumerate(equations, start=1):
        if len(eq.exponents) != m:
            raise ValueError(f"equation {idx} ({eq.text()}) has {len(eq.exponents)} exponents, expected {m}")
        if not any(e % s for e in eq.exponents):
            raise ValueError(f"equation {idx} ({eq.text()}) is zero modulo {s}")
        eq = eq.reduced(s)
        augmented = list(eq.exponents) + [eq.constant]
        rem = reduce_against(augmented, basis, s)
        if not any(rem[:-1]):
            if rem[-1]:
                raise ValueError(f"equation {idx} ({eq.text()}) is inconsistent with the preceding ones")
            raise ValueError(f"equation {idx} ({eq.text()}) is dependent on the preceding ones")
        basis = row_reduce(basis + [augmented], s)
    r = len(basis)
    if s ** (m - r) > bound:
        raise ValueError(f"fraction size {s}^{m - r} exceeds bound {bound}")

    pivots = []
    for row in basis:
        pivots.append(next(i for i, v in enumerate(row[:-1]) if v))
    free = [j for j in range(m) if j not in pivots]
    rows = []
    for assignment in itertools.product(range(s), repeat=len(free)):
        point = [0] * m
        for j, v in zip(free, assignment):
            point[j] = v
        # basis rows have leading 1 at the pivot, so back-substitution is direct
        for row, p in zip(basis, pivots):
            acc = row[-1]
            for j in range(p + 1, m):
                if row[j]:
                    acc -= row[j] * point[j]
            point[p] = acc % s
        rows.append(tuple(point))
    rows.sort()
    return Design(s=s, m=m, rows=tuple(rows))


def project(design: Design, factors: Iterable[int]) -> Counter:
    """Multiset of runs restricted to the given 1-based factors."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("projection needs at least one factor")
    for j in factors:
        if not 1 <= j <= design.m:
            raise ValueError(f"factor {j} out of range 1..{design.m}")
    rows = design.rows
    return Counter(zip(*(map(itemgetter(j - 1), rows) for j in factors)))


def check_strength_combinatorial(design: Design, t: int) -> bool:
    """True iff every t-factor projection is a uniformly replicated full factorial."""
    if not 1 <= t <= design.m:
        raise ValueError(f"strength {t} out of range 1..{design.m}")
    cells = design.s**t
    if design.n % cells:
        return False
    k = design.n // cells
    for subset in itertools.combinations(range(1, design.m + 1), t):
        counts = project(design, subset)
        if len(counts) != cells or any(c != k for c in counts.values()):
            return False
    return True


def strength_combinatorial(design: Design) -> int:
    """Largest t whose projections are all uniform; 0 if even t=1 fails."""
    t = 0
    while t < design.m and check_strength_combinatorial(design, t + 1):
        t += 1
    return t
