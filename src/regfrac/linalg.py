"""Small dense linear algebra over the prime field Z_s."""

from __future__ import annotations

from typing import Iterable, Sequence


def row_reduce(rows: Iterable[Sequence[int]], s: int) -> list[list[int]]:
    """Reduced row echelon form over Z_s; zero rows are dropped."""
    basis: list[list[int]] = []
    for row in rows:
        basis = _insert(basis, [v % s for v in row], s)
    return basis


def _insert(basis: list[list[int]], row: list[int], s: int) -> list[list[int]]:
    row = reduce_against(row, basis, s)
    pivot = _pivot(row)
    if pivot is None:
        return basis
    inv = pow(row[pivot], -1, s)
    row = [(v * inv) % s for v in row]
    out = []
    for b in basis:
        if b[pivot]:
            f = b[pivot]
            b = [(bv - f * rv) % s for bv, rv in zip(b, row)]
        out.append(b)
    out.append(row)
    out.sort(key=_pivot_key)
    return out


def _pivot(row: Sequence[int]) -> int | None:
    for i, v in enumerate(row):
        if v:
            return i
    return None


def _pivot_key(row: Sequence[int]) -> int:
    p = _pivot(row)
    return len(row) if p is None else p


def reduce_against(row: Sequence[int], basis: Iterable[Sequence[int]], s: int) -> list[int]:
    """Eliminate ``row`` against echelon ``basis`` (rows with leading 1)."""
    row = [v % s for v in row]
    for b in basis:
        p = _pivot(b)
        if p is not None and row[p]:
            f = row[p]
            row = [(rv - f * bv) % s for rv, bv in zip(row, b)]
    return row


def same_row_space(rows_a: Iterable[Sequence[int]], rows_b: Iterable[Sequence[int]], s: int) -> bool:
    return row_reduce(rows_a, s) == row_reduce(rows_b, s)
