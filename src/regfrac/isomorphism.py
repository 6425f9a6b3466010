"""Exhaustive combinatorial-isomorphism oracle for small designs.

Two designs are combinatorially isomorphic when one maps onto the other by
reordering runs, relabeling factors and permuting the levels of individual
factors.  Designs compare as point sets, so only the factor relabeling and
the per-factor level permutations are searched: column maps outermost,
then a backtracking assignment of level permutations pruned by prefix
projection multisets, with the last factor's permutation derived pointwise
whenever it is a function of the others in the target.  That search is
complete over m! * (s!)^(m-1) candidates, so a negative answer is a proof;
running out of the time budget is reported as a distinct third outcome.

An equal-GWLP prefilter runs first: differing GWLPs prove non-isomorphism,
equal ones decide nothing.  The GWLP is exact (tuples of Fractions, see
``indicator``), so the comparison is plain equality with no tolerance: a
rounding error can neither merge two patterns nor split one.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass

from .design import Design
from .indicator import gwlp
from .permutation import LevelPerm, apply_level_perm

DEFAULT_CANDIDATE_BOUND = 10**9


@dataclass(frozen=True)
class IsoWitness:
    """column_map[j] is the 1-based source factor feeding target factor j+1."""

    column_map: tuple[int, ...]
    level_perms: tuple[LevelPerm, ...]


@dataclass(frozen=True)
class IsoResult:
    outcome: str  # "isomorphic" | "not_isomorphic" | "exhausted"
    witness: IsoWitness | None
    candidates_checked: int
    elapsed: float

    @property
    def isomorphic(self) -> bool:
        return self.outcome == "isomorphic"

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "column_map": list(self.witness.column_map) if self.witness else None,
            "level_perms": [list(p.image) for p in self.witness.level_perms] if self.witness else None,
            "candidates_checked": self.candidates_checked,
            "elapsed_seconds": self.elapsed,
        }


def _check_shapes(a: Design, b: Design) -> None:
    if (a.n, a.m, a.s) != (b.n, b.m, b.s):
        raise ValueError(
            f"shape mismatch: ({a.n}, {a.m}, {a.s}) vs ({b.n}, {b.m}, {b.s})"
        )


def gwlp_prefilter(a: Design, b: Design) -> bool:
    """True when the GWLPs are equal; False proves non-isomorphism."""
    _check_shapes(a, b)
    return gwlp(a) == gwlp(b)


def apply_witness(design: Design, witness: IsoWitness) -> Design:
    rows = tuple(tuple(row[f - 1] for f in witness.column_map) for row in design.rows)
    out = Design(s=design.s, m=design.m, rows=rows)
    for j, perm in enumerate(witness.level_perms, start=1):
        if not perm.is_identity:
            out = apply_level_perm(out, j, perm)
    return out


def is_isomorphic(
    a: Design,
    b: Design,
    budget_seconds: float = 300.0,
    candidate_bound: int = DEFAULT_CANDIDATE_BOUND,
    prefilter: bool = True,
) -> IsoResult:
    """Find a witness mapping ``a`` onto ``b``, prove there is none, or time out."""
    _check_shapes(a, b)
    s, m, n = a.s, a.m, a.n
    space = 1
    for f in range(2, m + 1):
        space *= f
    perm_count = 1
    for f in range(2, s + 1):
        perm_count *= f
    space *= perm_count ** max(m - 1, 0)
    if space > candidate_bound:
        raise ValueError(f"search space of {space} candidates exceeds bound {candidate_bound}")

    start = time.monotonic()
    if prefilter and not gwlp_prefilter(a, b):
        return IsoResult("not_isomorphic", None, 0, time.monotonic() - start)

    b_rows = set(b.rows)
    b_prefix_counts = [Counter(row[: d + 1] for row in b.rows) for d in range(m)]
    # target last-factor lookup, usable when the last coordinate is functional
    b_func: dict[tuple[int, ...], int] | None = {}
    for row in b.rows:
        prev = b_func.setdefault(row[:-1], row[-1])
        if prev != row[-1]:
            b_func = None
            break

    all_perms = list(itertools.permutations(range(s)))
    deadline = start + budget_seconds
    checked = 0
    timed_out = False

    def timed_out_now() -> bool:
        return time.monotonic() > deadline

    def derive_last(rows, prefixes):
        image: list[int | None] = [None] * s
        for row, pre in zip(rows, prefixes):
            target = b_func.get(pre)
            if target is None:
                return None
            v = row[-1]
            if image[v] is None:
                if target in image:
                    return None
                image[v] = target
            elif image[v] != target:
                return None
        missing_targets = [t for t in range(s) if t not in image]
        for v in range(s):
            if image[v] is None:
                image[v] = missing_targets.pop()
        return tuple(image)

    def search(rows) -> tuple[LevelPerm, ...] | None:
        # depth-first over factors; prefixes[r] = already-permuted prefix of row r
        def descend(depth: int, prefixes, chosen) -> tuple[LevelPerm, ...] | None:
            nonlocal checked, timed_out
            if timed_out or timed_out_now():
                timed_out = True
                return None
            if depth == m - 1 and b_func is not None:
                checked += 1
                image = derive_last(rows, prefixes)
                if image is None:
                    return None
                candidate = chosen + [image]
                mapped = {pre + (image[row[-1]],) for row, pre in zip(rows, prefixes)}
                if mapped == b_rows:
                    return tuple(LevelPerm(s, im) for im in candidate)
                return None
            for image in all_perms:
                if timed_out or timed_out_now():
                    timed_out = True
                    return None
                if depth == m - 1:
                    checked += 1
                new_prefixes = [
                    pre + (image[row[depth]],) for row, pre in zip(rows, prefixes)
                ]
                if Counter(new_prefixes) != b_prefix_counts[depth]:
                    continue
                if depth == m - 1:
                    if set(new_prefixes) == b_rows:
                        return tuple(LevelPerm(s, im) for im in chosen + [image])
                    continue
                result = descend(depth + 1, new_prefixes, chosen + [image])
                if result is not None:
                    return result
            return None

        return descend(0, [() for _ in rows], [])

    for cm in itertools.permutations(range(1, m + 1)):
        remapped = [tuple(row[f - 1] for f in cm) for row in a.rows]
        perms = search(remapped)
        if perms is not None:
            witness = IsoWitness(column_map=cm, level_perms=perms)
            if apply_witness(a, witness).point_set() != b.point_set():
                raise AssertionError("isomorphism witness failed verification")
            return IsoResult("isomorphic", witness, checked, time.monotonic() - start)
        if timed_out:
            return IsoResult("exhausted", None, checked, time.monotonic() - start)
    return IsoResult("not_isomorphic", None, checked, time.monotonic() - start)
