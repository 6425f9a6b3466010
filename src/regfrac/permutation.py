"""Level permutations, their polynomial form, and the affine-coset reduction.

A permutation pi of the s levels acts on a factor coded by roots of unity.
It always equals a polynomial Y = sum_h u_h X^h whose coefficients solve a
Vandermonde system; inverting that system over the roots of unity gives

    u_h = (1/s) * sum_k w_{[pi(k) - h*k]},

so each u_h is a cyclotomic integer divided by s.  Monomial permutations
e -> [h*e + k] form the affine group of Z_s; it is sharply 2-transitive,
so every permutation factors uniquely as (monomial) o (representative
fixing 0 and 1), and there are (s-2)! representatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Iterator, Mapping

from .cyclotomic import CycInt, CycRational, validate_levels
from .design import Design


@dataclass(frozen=True)
class LevelPerm:
    """A bijection of the level set, stored as its image list."""

    s: int
    image: tuple[int, ...]

    def __post_init__(self):
        validate_levels(self.s)
        object.__setattr__(self, "image", tuple(self.image))
        if sorted(self.image) != list(range(self.s)):
            raise ValueError(f"{self.image} is not a bijection of 0..{self.s - 1}")

    @classmethod
    def identity(cls, s: int) -> "LevelPerm":
        return cls(s, tuple(range(s)))

    @classmethod
    def from_string(cls, text: str, s: int | None = None) -> "LevelPerm":
        image = tuple(int(p) for p in text.split(","))
        return cls(s if s is not None else len(image), image)

    def to_string(self) -> str:
        return ",".join(str(v) for v in self.image)

    def __call__(self, k: int) -> int:
        return self.image[k]

    @property
    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.image))

    def inverse(self) -> "LevelPerm":
        inv = [0] * self.s
        for k, v in enumerate(self.image):
            inv[v] = k
        return LevelPerm(self.s, tuple(inv))

    def compose(self, other: "LevelPerm") -> "LevelPerm":
        """self o other: apply ``other`` first, then ``self``."""
        if self.s != other.s:
            raise ValueError("cannot compose permutations on different level sets")
        return LevelPerm(self.s, tuple(self.image[v] for v in other.image))


def all_level_perms(s: int) -> Iterator[LevelPerm]:
    validate_levels(s)
    for image in itertools.permutations(range(s)):
        yield LevelPerm(s, image)


def monomial_perm(h: int, k: int, s: int) -> LevelPerm:
    """The affine level map e -> [h*e + k], i.e. X -> w_k X^h."""
    validate_levels(s)
    if not 1 <= h < s:
        raise ValueError(f"power {h} out of range 1..{s - 1}")
    if not 0 <= k < s:
        raise ValueError(f"shift {k} out of range 0..{s - 1}")
    return LevelPerm(s, tuple((h * e + k) % s for e in range(s)))


def is_monomial(perm: LevelPerm):
    """(h, k) if perm is e -> [h*e + k], else None."""
    s = perm.s
    k = perm.image[0]
    if s == 2:
        return (1, k)
    h = (perm.image[1] - k) % s
    if h == 0:
        return None
    if all(perm.image[e] == (h * e + k) % s for e in range(2, s)):
        return (h, k)
    return None


def monomial_decompose(perm: LevelPerm) -> tuple[int, int, LevelPerm]:
    """Unique (h, k, rep) with perm = monomial(h, k) o rep and rep fixing 0, 1."""
    s = perm.s
    k = perm.image[0]
    h = 1 if s == 2 else (perm.image[1] - k) % s
    rep = monomial_perm(h, k, s).inverse().compose(perm)
    return h, k, rep


def same_monomial_coset(a: LevelPerm, b: LevelPerm) -> bool:
    """True iff a = (monomial) o b."""
    return monomial_decompose(a)[2] == monomial_decompose(b)[2]


def coset_representatives(s: int) -> Iterator[LevelPerm]:
    """The (s-2)! permutations fixing levels 0 and 1, one per affine coset.

    The regularity search no longer enumerates them: it derives the one
    representative a Latin square needs from the square itself.
    """
    validate_levels(s)
    for tail in itertools.permutations(range(2, s)):
        yield LevelPerm(s, (0, 1) + tail)


def apply_level_perm(design: Design, j: int, perm: LevelPerm) -> Design:
    """Map the levels of factor ``j`` (1-based) through ``perm``."""
    if not 1 <= j <= design.m:
        raise ValueError(f"factor {j} out of range 1..{design.m}")
    if perm.s != design.s:
        raise ValueError(f"permutation on {perm.s} levels applied to a {design.s}-level design")
    return _relabel(design, {j: perm})


def _relabel(design: Design, perms: Mapping[int, LevelPerm]) -> Design:
    """The design with each factor f's levels mapped through perms[f], in one pass.

    Identity permutations are skipped unchecked, whatever their factor or
    level count; only the ones that move levels must fit the design.
    """
    moved = {f: p for f, p in perms.items() if not p.is_identity}
    if not moved:
        return design
    columns = list(zip(*design.rows))
    for f, p in moved.items():
        if not 1 <= f <= design.m:
            raise ValueError(f"factor {f} out of range 1..{design.m}")
        if p.s != design.s:
            raise ValueError(f"permutation on {p.s} levels applied to a {design.s}-level design")
        columns[f - 1] = map(p.image.__getitem__, columns[f - 1])
    return Design(s=design.s, m=design.m, rows=tuple(zip(*columns)))


@dataclass(frozen=True)
class PermPolynomial:
    """Coefficients u_0..u_{s-1} of the polynomial acting as a level permutation."""

    s: int
    coeffs: tuple[CycRational, ...]

    def scaled_coefficients(self) -> tuple[CycInt, ...]:
        """The numerators s*u_h, for comparison against hand-computed tables."""
        return tuple(u.scaled_numerator(self.s) for u in self.coeffs)

    def evaluate(self, k: int) -> CycRational:
        """The polynomial at w_k: sum_h u_h * w_{[h*k]}, over one common denominator.

        Multiplying by w_{[h*k]} rotates u_h's numerator, so the sum is one
        integer vector and is reduced to lowest terms once.
        """
        s = self.s
        denominator = lcm(*(u.denominator for u in self.coeffs))
        acc = [0] * s
        for h, u in enumerate(self.coeffs):
            scale = denominator // u.denominator
            for i, c in enumerate(u.numerator.coeffs):
                acc[(i + h * k) % s] += scale * c
        return CycRational(CycInt(s, acc), denominator)


def poly_coefficients(perm: LevelPerm) -> PermPolynomial:
    """Solve the interpolation system exactly via the inverse Vandermonde sum."""
    s = perm.s
    coeffs = []
    for h in range(s):
        vec = [0] * s
        for k in range(s):
            vec[(perm.image[k] - h * k) % s] += 1
        coeffs.append(CycRational(CycInt(s, vec), s))
    return PermPolynomial(s=s, coeffs=tuple(coeffs))


def _convolve(a: list[CycRational], b: list[CycRational], s: int) -> list[CycRational]:
    out = [CycRational.zero(s) for _ in range(s)]
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if not bj.is_zero():
                out[(i + j) % s] = out[(i + j) % s] + ai * bj
    return out


def check_perm_constraints(poly: PermPolynomial) -> bool:
    """Necessary equations every permutation polynomial satisfies.

    (i) u_0 = 0; (ii) for q = 2..s-1 the degree-zero coefficient of Y^q
    vanishes (an exact (q-1)-fold convolution); (iii)/(iv) the coefficient
    sum is a root of unity: (sum u_h)^s = 1.
    """
    s = poly.s
    if not poly.coeffs[0].is_zero():
        return False
    base = list(poly.coeffs)
    power = base
    for _ in range(2, s):
        power = _convolve(power, base, s)
        if not power[0].is_zero():
            return False
    total = CycRational.zero(s)
    for u in poly.coeffs[1:]:
        total = total + u
    return total**s == CycRational.one(s)
