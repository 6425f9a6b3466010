"""Indicator-function coefficients, strength, aberration and the GWLP.

The indicator of a fraction F inside the full factorial D is the polynomial
that is 1 on F and 0 elsewhere.  Writing it over the monomial basis X^alpha
with levels coded as roots of unity, the coefficient is

    b_alpha = (1/#D) * sum_{x in F} w_{[-alpha.x]},

so s^m * b_alpha is an exact cyclotomic integer determined by the level
counts n_{alpha,h} = #{x in F : alpha.x = h (mod s)}.

Counts are taken once per projective line {c*alpha : c = 1..s-1}, on its
representative, the alpha whose first nonzero entry is 1.  Since
(c*alpha).x = c*(alpha.x), the counts of every other point on the line are
relabeled copies, n_{c*alpha,[c*h]} = n_{alpha,h}, and N_{c*alpha} is the
Galois conjugate w -> w^c of N_alpha.  A coefficient vanishes exactly when
its counts are uniform, so strength is decided on representatives alone,
and Parseval over the s - 1 conjugates,

    sum_{c=1}^{s-1} |N_{c*alpha}|^2 = s * sum_h n_{alpha,h}^2 - n^2,

gives each line's share of the GWLP as an exact rational.  Floating point
appears only in ``aberration`` (one alpha) and ``evaluate_indicator``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from .cyclotomic import CycInt
from .design import DEFAULT_ENUMERATION_BOUND, Design

if TYPE_CHECKING:
    from fractions import Fraction


def level_counts(design: Design, alpha) -> tuple[int, ...]:
    """How often X^alpha takes each value w_h over the design."""
    s = design.s
    alpha = tuple(a % s for a in alpha)
    if len(alpha) != design.m:
        raise ValueError(f"exponent tuple {alpha} has {len(alpha)} entries, expected {design.m}")
    rows = design.rows
    values = [0] * len(rows)
    for j, a in enumerate(alpha):
        if a:
            values = [v + a * row[j] for v, row in zip(values, rows)]
    counts = [0] * s
    for v in values:
        counts[v % s] += 1
    return tuple(counts)


def numerator_from_counts(counts, s: int) -> CycInt:
    """N_alpha = sum_h n_{alpha,[s-h]} w_h, i.e. s^m * b_alpha."""
    return CycInt(s, tuple(counts[(s - h) % s] for h in range(s)))


def coefficient_numerator(design: Design, alpha) -> CycInt:
    return numerator_from_counts(level_counts(design, alpha), design.s)


def _supports(design: Design, order: int):
    """(positions, lines) for every support of size ``order``, in lexicographic order.

    ``lines`` maps the tail (v_2, ..., v_t) of each line representative,
    the exponent with values (1, v_2, ..., v_t) on ``positions``, to its
    level counts.  Only one support's lines are held at a time.
    """
    s, m = design.s, design.m
    for positions in itertools.combinations(range(m), order):
        lines = {}
        for tail in itertools.product(range(1, s), repeat=order - 1):
            alpha = [0] * m
            for j, v in zip(positions, (1,) + tail):
                alpha[j] = v
            lines[tail] = level_counts(design, alpha)
        yield positions, lines


def _members(s: int, m: int, positions, lines):
    """(alpha, counts) for every exponent on one support whose line is in ``lines``.

    Exponents come in lexicographic order of their values on ``positions``;
    c * rep has counts n_{c*rep,h} = n_{rep,[h/c]}.
    """
    inverse = [0] + [pow(c, -1, s) for c in range(1, s)]
    for values in itertools.product(range(1, s), repeat=len(positions)):
        inv = inverse[values[0]]
        rep = lines.get(tuple(v * inv % s for v in values[1:]))
        if rep is None:
            continue
        alpha = [0] * m
        for j, v in zip(positions, values):
            alpha[j] = v
        yield tuple(alpha), tuple(rep[h * inv % s] for h in range(s))


def _uniform(counts) -> bool:
    """True iff the coefficient with these level counts is zero."""
    return min(counts) == max(counts)


def _line_energy(counts, s: int) -> int:
    """n^2 times the summed aberrations of the s - 1 points on one line."""
    n = sum(counts)
    return s * sum(c * c for c in counts) - n * n


def _nonzero_members(s: int, m: int, positions, lines):
    live = {tail: c for tail, c in lines.items() if not _uniform(c)}
    if live:
        for alpha, counts in _members(s, m, positions, live):
            yield alpha, numerator_from_counts(counts, s)


def aberration(design: Design, alpha, counts=None) -> float:
    """Squared modulus of b_alpha over b_0^2, from level counts alone."""
    if not any(a % design.s for a in alpha):
        raise ValueError("aberration is not defined for the null exponent")
    s, n = design.s, design.n
    if counts is None:
        counts = level_counts(design, alpha)
    total = 0.0
    for k in range(s):
        inner = sum(counts[i] * counts[(i - k) % s] for i in range(s))
        total += math.cos(2 * math.pi * k / s) * inner
    return total / (n * n)


class IndicatorSummary(NamedTuple):
    """Strength, GWLP (None past the bound) and nonzero coefficients up to an order."""

    strength: int
    gwlp: tuple[Fraction, ...] | None
    coefficients: tuple[tuple[tuple[int, ...], CycInt], ...]


def _walk(design: Design, max_order: int, full: bool, to_strength: bool) -> IndicatorSummary:
    """The one pass over the lines that every indicator quantity reads from.

    Walks orders 1..max_order, listing their nonzero coefficients; every
    order when ``full``, summing the GWLP (None otherwise); and with
    ``to_strength`` on to the first order with a nonuniform line.  Strength
    is t - 1 for the first such order t, or m if the walk saw none.
    """
    s, m, n = design.s, design.m, design.n
    strength = None
    energy = [0] * m
    coefficients = [((0,) * m, CycInt.integer(n, s))]
    for t in range(1, m + 1):
        if not full and t > max_order and not (to_strength and strength is None):
            break
        for positions, lines in _supports(design, t):
            if strength is None and not all(_uniform(c) for c in lines.values()):
                strength = t - 1
            if full:
                energy[t - 1] += sum(_line_energy(c, s) for c in lines.values())
            elif t > max_order and strength is not None:
                break
            if t <= max_order:
                coefficients.extend(_nonzero_members(s, m, positions, lines))
    pattern = None
    if full:
        # imported here, not at the top: fractions loads decimal, about 0.5 MB
        # of RSS that commands which never build a GWLP should not carry
        from fractions import Fraction

        pattern = tuple(Fraction(e, n * n) for e in energy)
    return IndicatorSummary(
        strength=m if strength is None else strength,
        gwlp=pattern,
        coefficients=tuple(coefficients),
    )


def strength_from_coefficients(design: Design) -> int:
    """Largest t with every coefficient of order 1..t equal to zero."""
    return _walk(design, 0, full=False, to_strength=True).strength


def gwlp(design: Design, bound: int = DEFAULT_ENUMERATION_BOUND) -> tuple[Fraction, ...]:
    """(A_1, ..., A_m): aberrations summed by interaction order, exactly."""
    s, m = design.s, design.m
    if s**m > bound:
        raise ValueError(f"GWLP enumeration size {s}^{m} exceeds bound {bound}")
    return _walk(design, 0, full=True, to_strength=False).gwlp


def summarize(design: Design, max_order: int) -> IndicatorSummary:
    """Strength, GWLP and nonzero coefficients of order <= max_order, in one pass.

    Equal to ``strength_from_coefficients``, ``gwlp`` (None when s^m exceeds
    the enumeration bound) and ``nonzero_coefficients_up_to``, with each
    line counted once.  The pass covers every order when the GWLP is
    wanted, and otherwise orders up to max(max_order, strength + 1).
    """
    full = design.s**design.m <= DEFAULT_ENUMERATION_BOUND
    return _walk(design, max_order, full=full, to_strength=True)


@dataclass(frozen=True)
class IndicatorTable:
    """All coefficient numerators of a fraction, with their level counts."""

    s: int
    m: int
    n: int
    entries: dict[tuple[int, ...], CycInt] = field(repr=False)
    counts: dict[tuple[int, ...], tuple[int, ...]] = field(repr=False)

    @property
    def denominator(self) -> int:
        return self.s**self.m

    @classmethod
    def compute(cls, design: Design, bound: int = DEFAULT_ENUMERATION_BOUND) -> "IndicatorTable":
        s, m = design.s, design.m
        if s**m > bound:
            raise ValueError(f"table size {s}^{m} exceeds bound {bound}")
        null = (0,) * m
        found = {null: level_counts(design, null)}
        for t in range(1, m + 1):
            for positions, lines in _supports(design, t):
                found.update(_members(s, m, positions, lines))
        counts = {alpha: found[alpha] for alpha in sorted(found)}
        entries = {alpha: numerator_from_counts(c, s) for alpha, c in counts.items()}
        return cls(s=s, m=m, n=design.n, entries=entries, counts=counts)

    def nonzero_entries(self, max_order: int | None = None):
        for alpha, num in sorted(self.entries.items()):
            if max_order is not None and sum(1 for a in alpha if a) > max_order:
                continue
            if not num.is_zero():
                yield alpha, num

    def to_json(self, max_order: int | None = None) -> list[dict]:
        return [
            {"alpha": list(alpha), "numerator": list(num.coeffs), "denominator": self.denominator}
            for alpha, num in self.nonzero_entries(max_order)
        ]


def nonzero_coefficients_up_to(design: Design, max_order: int):
    """(alpha, numerator) for nonzero coefficients of order <= max_order.

    Walks the bounded-order exponents only, so it works on designs whose
    full table would exceed the enumeration bound.
    """
    yield from _walk(design, max_order, full=False, to_strength=False).coefficients


def evaluate_indicator(table: IndicatorTable, point) -> complex:
    """F(point): within 1e-9 of 1 on the fraction and of 0 off it."""
    point = tuple(point)
    if len(point) != table.m:
        raise ValueError(f"point {point} has {len(point)} entries, expected {table.m}")
    s = table.s
    acc = [0] * s
    for alpha, num in table.entries.items():
        t = sum(a * x for a, x in zip(alpha, point)) % s
        # accumulate num * w_t without building intermediate CycInt objects
        coeffs = num.coeffs
        for h in range(s):
            acc[(h + t) % s] += coeffs[h]
    return CycInt(s, acc).to_complex() / table.denominator
