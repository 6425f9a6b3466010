"""Exhaustive combinatorial-isomorphism oracle for small designs.

Two designs are combinatorially isomorphic when one maps onto the other by
reordering runs, relabeling factors and permuting the levels of individual
factors.  Designs compare as point sets, so only the factor relabeling and
the per-factor level permutations are searched: column maps outermost,
then a backtracking assignment of level permutations pruned by prefix
projection multisets, with the last factor's permutation derived pointwise
whenever it is a function of the others in the target.  That search is
complete over m! * (s!)^(m-1) candidates, so a negative answer is a proof.
A deadline that passes mid-search ends it at once with the distinct third
outcome ``exhausted``, never with a verdict.

The equal-GWLP prefilter always runs first: differing GWLPs prove
non-isomorphism, equal ones decide nothing.  The GWLP is exact (tuples of
Fractions, see ``indicator``), so the comparison is plain equality with no
tolerance: a rounding error can neither merge two patterns nor split one.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass

from .design import Design
from .indicator import gwlp
from .permutation import LevelPerm, _relabel

DEFAULT_CANDIDATE_BOUND = 10**9


class _OutOfTime(Exception):
    """The search passed its deadline."""


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
    return _relabel(Design(s=design.s, m=design.m, rows=rows), dict(enumerate(witness.level_perms, 1)))


def is_isomorphic(
    a: Design,
    b: Design,
    budget_seconds: float = 300.0,
    candidate_bound: int = DEFAULT_CANDIDATE_BOUND,
) -> IsoResult:
    """Find a witness mapping ``a`` onto ``b``, prove there is none, or time out."""
    _check_shapes(a, b)
    s, m = a.s, a.m
    space = math.factorial(m) * math.factorial(s) ** max(m - 1, 0)
    if space > candidate_bound:
        raise ValueError(f"search space of {space} candidates exceeds bound {candidate_bound}")

    start = time.monotonic()
    if not gwlp_prefilter(a, b):
        return IsoResult("not_isomorphic", None, 0, time.monotonic() - start)

    b_prefix_counts = [Counter(row[: d + 1] for row in b.rows) for d in range(m)]
    # target last-factor lookup; the runs are distinct, so the last
    # coordinate is a function of the others exactly when no key repeats
    b_func: dict[tuple[int, ...], int] | None = {row[:-1]: row[-1] for row in b.rows}
    if len(b_func) < b.n:
        b_func = None

    all_perms = list(itertools.permutations(range(s)))
    deadline = start + budget_seconds
    checked = 0

    def derive_last(rows, prefixes):
        image: list[int | None] = [None] * s
        for row, pre in zip(rows, prefixes):
            target = b_func[pre]
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

    def descend(rows, depth: int, prefixes, chosen) -> list | None:
        # depth-first over factors; prefixes[r] = already-permuted prefix of row r
        nonlocal checked
        if time.monotonic() > deadline:
            raise _OutOfTime
        if depth == m - 1 and b_func is not None:
            # the prefixes are b's, each once, so a consistent last factor
            # maps every row onto a distinct row of b
            checked += 1
            image = derive_last(rows, prefixes)
            return None if image is None else chosen + [image]
        for image in all_perms:
            if time.monotonic() > deadline:
                raise _OutOfTime
            if depth == m - 1:
                checked += 1
            new_prefixes = [pre + (image[row[depth]],) for row, pre in zip(rows, prefixes)]
            if Counter(new_prefixes) != b_prefix_counts[depth]:
                continue
            if depth == m - 1:
                # every count is 1, so equal counts mean equal point sets
                return chosen + [image]
            found = descend(rows, depth + 1, new_prefixes, chosen + [image])
            if found is not None:
                return found
        return None

    try:
        for cm in itertools.permutations(range(1, m + 1)):
            remapped = [tuple(row[f - 1] for f in cm) for row in a.rows]
            images = descend(remapped, 0, [() for _ in remapped], [])
            if images is not None:
                witness = IsoWitness(cm, tuple(LevelPerm(s, im) for im in images))
                if apply_witness(a, witness).point_set() != b.point_set():
                    raise AssertionError("isomorphism witness failed verification")
                return IsoResult("isomorphic", witness, checked, time.monotonic() - start)
    except _OutOfTime:
        return IsoResult("exhausted", None, checked, time.monotonic() - start)
    return IsoResult("not_isomorphic", None, checked, time.monotonic() - start)
