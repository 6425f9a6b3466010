"""Exact arithmetic in the ring of integers extended by a prime-order root of unity.

A value is stored as an integer coefficient vector ``(c_0, ..., c_{s-1})``
standing for ``sum_h c_h * w_h`` where ``w_h = exp(2*pi*i*h/s)`` and ``s``
is prime.  Because ``w_0 + w_1 + ... + w_{s-1} = 0``, two vectors represent
the same value exactly when they differ by a constant vector, so the
canonical form subtracts the minimum coefficient: entries are non-negative
and at least one is zero.  Equality, hashing and the zero test are
structural on the canonical form, hence exact and decidable.

Coefficients are plain Python integers, so no overflow is possible at any
input size this library accepts.
"""

from __future__ import annotations

import cmath
from math import gcd

MAX_LEVELS = 97


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


_SUPPORTED_LEVELS = frozenset(n for n in range(MAX_LEVELS + 1) if is_prime(n))


def validate_levels(s: int) -> int:
    """Reject level counts that are not primes in [2, MAX_LEVELS]."""
    if isinstance(s, int) and s in _SUPPORTED_LEVELS:
        return s
    # no primality test above MAX_LEVELS, so a huge s cannot hang; every
    # smaller int outside the supported set is not a prime
    if isinstance(s, int) and s > MAX_LEVELS:
        raise ValueError(f"number of levels {s} exceeds supported maximum {MAX_LEVELS}")
    raise ValueError(f"number of levels must be prime, got {s!r}")


class CycInt:
    """An element of Z[w] for a primitive s-th root of unity w, s prime."""

    __slots__ = ("s", "coeffs")

    def __init__(self, s: int, coeffs):
        validate_levels(s)
        coeffs = tuple(coeffs)
        if len(coeffs) != s:
            raise ValueError(f"expected {s} coefficients, got {len(coeffs)}")
        low = min(coeffs)
        if low:
            coeffs = tuple(c - low for c in coeffs)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycInt is immutable")

    @classmethod
    def zero(cls, s: int) -> "CycInt":
        return cls(s, (0,) * s)

    @classmethod
    def one(cls, s: int) -> "CycInt":
        return root(0, s)

    @classmethod
    def integer(cls, value: int, s: int) -> "CycInt":
        """The rational integer ``value`` as an element of Z[w]."""
        return cls(s, (value,) + (0,) * (s - 1))

    def _check_same_ring(self, other: "CycInt") -> None:
        if self.s != other.s:
            raise ValueError(f"mixed roots of unity: s={self.s} vs s={other.s}")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.integer(other, self.s)
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check_same_ring(other)
        return CycInt(self.s, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.s, (-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.integer(other, self.s)
        if not isinstance(other, CycInt):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.s, (c * other for c in self.coeffs))
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check_same_ring(other)
        s = self.s
        out = [0] * s
        for h, a in enumerate(self.coeffs):
            if not a:
                continue
            for k, b in enumerate(other.coeffs):
                if b:
                    out[(h + k) % s] += a * b
        return CycInt(s, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined in Z[w]")
        acc = CycInt.one(self.s)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def shift(self, t: int) -> "CycInt":
        """Multiply by w_t (a cyclic rotation of the coefficient vector)."""
        s, t = self.s, t % self.s
        return CycInt(s, tuple(self.coeffs[(h - t) % s] for h in range(s)))

    def conj(self) -> "CycInt":
        """Complex conjugate: the coefficient at h moves to [s - h]."""
        s = self.s
        return CycInt(s, tuple(self.coeffs[(-h) % s] for h in range(s)))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def to_complex(self) -> complex:
        s = self.s
        return sum(c * cmath.exp(2j * cmath.pi * h / s) for h, c in enumerate(self.coeffs))

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycInt.integer(other, self.s)
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.s == other.s and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.s, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"CycInt({self.s}, {self.coeffs})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for h, c in enumerate(self.coeffs):
            if not c:
                continue
            if h == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"w{h}")
            else:
                parts.append(f"{c}*w{h}")
        return " + ".join(parts)


def root(k: int, s: int) -> CycInt:
    """The root of unity w_k = exp(2*pi*i*k/s)."""
    validate_levels(s)
    if not 0 <= k < s:
        raise ValueError(f"root index {k} out of range for s={s}")
    return CycInt(s, tuple(1 if h == k else 0 for h in range(s)))


class CycRational:
    """A CycInt scaled by a positive integer denominator, kept in lowest terms."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: CycInt, denominator: int = 1):
        if denominator == 0:
            raise ZeroDivisionError("zero denominator")
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        g = denominator
        for c in numerator.coeffs:
            g = gcd(g, c)
        if g > 1:
            numerator = CycInt(numerator.s, (c // g for c in numerator.coeffs))
            denominator //= g
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("CycRational is immutable")

    @property
    def s(self) -> int:
        return self.numerator.s

    @classmethod
    def zero(cls, s: int) -> "CycRational":
        return cls(CycInt.zero(s))

    @classmethod
    def one(cls, s: int) -> "CycRational":
        return cls(CycInt.one(s))

    def scaled_numerator(self, denominator: int) -> CycInt:
        """The numerator this value has when written over ``denominator``."""
        if denominator % self.denominator:
            raise ValueError(
                f"value with denominator {self.denominator} has no representation over {denominator}"
            )
        return self.numerator * (denominator // self.denominator)

    def __add__(self, other):
        if isinstance(other, (int, CycInt)):
            other = CycRational(other if isinstance(other, CycInt) else CycInt.integer(other, self.s))
        if not isinstance(other, CycRational):
            return NotImplemented
        num = self.numerator * other.denominator + other.numerator * self.denominator
        return CycRational(num, self.denominator * other.denominator)

    __radd__ = __add__

    def __neg__(self):
        return CycRational(-self.numerator, self.denominator)

    def __sub__(self, other):
        if isinstance(other, (int, CycInt, CycRational)):
            return self + (-other if isinstance(other, CycRational) else -CycRational(
                other if isinstance(other, CycInt) else CycInt.integer(other, self.s)))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return CycRational(self.numerator * other, self.denominator)
        if isinstance(other, CycInt):
            other = CycRational(other)
        if not isinstance(other, CycRational):
            return NotImplemented
        return CycRational(self.numerator * other.numerator, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not supported")
        return CycRational(self.numerator**e, self.denominator**e)

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def to_complex(self) -> complex:
        return self.numerator.to_complex() / self.denominator

    def __eq__(self, other):
        if isinstance(other, (int, CycInt)):
            other = CycRational(other if isinstance(other, CycInt) else CycInt.integer(other, self.s))
        if not isinstance(other, CycRational):
            return NotImplemented
        return (self.numerator * other.denominator) == (other.numerator * self.denominator)

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"CycRational({self.numerator!r}, {self.denominator})"

    def __str__(self):
        if self.denominator == 1:
            return str(self.numerator)
        return f"({self.numerator})/{self.denominator}"
