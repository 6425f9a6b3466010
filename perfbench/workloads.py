"""Seeded job streams for the regfrac benchmark.

A workload is an endless stream of cycles.  Every cycle holds the same
ordered list of job classes; the seed and the cycle index choose the
instances (equations, level scrambles, column orders, row orders,
permutations).  Each job is one ``regfrac`` command line plus the design
files it reads, and carries the facts its checker needs: the defining
equations and level scrambles a design was built from, or the fact that
it comes from a Latin square that is not isotopic to Z_s.

This module builds designs with its own arithmetic and never imports
``regfrac``, so the inputs do not depend on the code under test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

# Latin squares of orders 5 and 7 that are not isotopic to the Cayley
# table of Z_s: no relabeling of their symbols makes every 2x2 minor
# vanish.  Random isotopies of them give non-regular strength-2 arrays.
SQUARE_NOT_ZS = {
    5: (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 3, 4, 0, 1),
        (3, 4, 1, 2, 0),
        (4, 2, 0, 1, 3),
    ),
    7: (
        (0, 1, 2, 3, 4, 5, 6),
        (1, 0, 4, 5, 2, 6, 3),
        (4, 2, 3, 6, 5, 0, 1),
        (6, 3, 5, 0, 1, 4, 2),
        (5, 4, 1, 2, 6, 3, 0),
        (3, 5, 6, 1, 0, 2, 4),
        (2, 6, 0, 4, 3, 1, 5),
    ),
}

# The scrambled 11^3 regularity job relabels its dependent factor so that
# the search must pass this many affine-coset representatives (of 9!)
# before it reaches the right one; a narrow window keeps its cost the same
# on every seed.
S11_REP_WINDOW = (2000, 2200)

# Generous enough that no iso job in the listed workloads ends
# ``exhausted``, even under tracing.
ISO_BUDGET_SECONDS = 120.0


@dataclass
class Design:
    """A design as the benchmark built it, with how it was built."""

    s: int
    m: int
    rows: list[tuple[int, ...]]
    # final-coordinate defining equations (exponents, constant) before the
    # level scramble; empty for Latin-square designs
    equations: list[tuple[tuple[int, ...], int]] = field(default_factory=list)
    # scramble[f] is the image list applied to factor f's levels
    scramble: list[tuple[int, ...]] | None = None
    regular: bool = True

    @property
    def n(self) -> int:
        return len(self.rows)

    def text(self, shuffle: str | None = None) -> str:
        """The design file; with ``shuffle``, its rows in an order that key picks."""
        rows = list(self.rows)
        if shuffle is not None:
            random.Random(shuffle).shuffle(rows)
        lines = [f"{self.n} {self.m} {self.s}"]
        lines.extend(" ".join(map(str, row)) for row in rows)
        return "\n".join(lines) + "\n"


@dataclass
class Job:
    """One CLI invocation; ``{0}``, ``{1}`` in argv name the design files."""

    cls: str
    command: str
    argv: list[str]
    designs: list[Design] = field(default_factory=list)
    truth: dict = field(default_factory=dict)


# --------------------------------------------------------------- arithmetic


def word_space(equations, s: int) -> list[tuple[int, ...]]:
    """Every nonzero Z_s-combination of the exponent vectors (with repeats)."""
    vectors = [alpha for alpha, _ in equations]
    m = len(vectors[0])
    words = set()
    for coeffs in itertools.product(range(s), repeat=len(vectors)):
        if any(coeffs):
            w = tuple(sum(c * v[j] for c, v in zip(coeffs, vectors)) % s for j in range(m))
            if any(w):
                words.add(w)
    return sorted(words)


def _regular_rows(s: int, m: int, gens, consts) -> list[tuple[int, ...]]:
    """Runs of x_{k+i} = sum_j gens[i][j] x_j + consts[i] over free x_1..x_k."""
    k = m - len(gens)
    rows = []
    for free in itertools.product(range(s), repeat=k):
        dep = tuple((sum(g * x for g, x in zip(gen, free)) + c) % s for gen, c in zip(gens, consts))
        rows.append(free + dep)
    return rows


def regular_design(rng: random.Random, s: int, m: int, r: int, min_weight: int, scramble: bool) -> Design:
    """A random s^(m-r) regular fraction whose shortest word has exactly min_weight factors.

    Fixing the shortest word fixes the strength, which sets how far the
    strength searches run, so every instance of a class costs about the same.
    """
    k = m - r
    for _ in range(10000):
        gens = [tuple(rng.randrange(s) for _ in range(k)) for _ in range(r)]
        consts = [rng.randrange(s) for _ in range(r)]
        # x_{k+i} - gens[i].x = consts[i]
        equations = []
        for i, (gen, c) in enumerate(zip(gens, consts)):
            alpha = [(-g) % s for g in gen] + [0] * r
            alpha[k + i] = 1
            equations.append((tuple(alpha), c))
        if min(sum(1 for v in w if v) for w in word_space(equations, s)) == min_weight:
            break
    else:
        raise RuntimeError(f"no {s}^({m}-{r}) fraction with minimum word weight {min_weight}")
    rows = _regular_rows(s, m, gens, consts)
    order = list(range(m))
    rng.shuffle(order)
    rows = [tuple(row[c] for c in order) for row in rows]
    equations = [(tuple(alpha[c] for c in order), c0) for alpha, c0 in equations]
    design = Design(s, m, rows, equations)
    if scramble:
        scramble_levels(rng, design)
    rng.shuffle(design.rows)
    return design


def scramble_levels(rng: random.Random, design: Design, fixed: dict | None = None) -> None:
    """Relabel every factor's levels by a random bijection (or a given one)."""
    images = []
    for f in range(design.m):
        if fixed and f in fixed:
            images.append(tuple(fixed[f]))
            continue
        image = list(range(design.s))
        rng.shuffle(image)
        images.append(tuple(image))
    design.rows = [tuple(images[f][v] for f, v in enumerate(row)) for row in design.rows]
    design.scramble = images


def latin_design(rng: random.Random, s: int, extra_factor: bool = False) -> Design:
    """(a, b, L[a][b]) for a random isotope L of the non-Z_s square.

    With ``extra_factor`` every run is repeated across a fourth, free
    factor, giving a non-regular OA(s^3, 4, s, 2).
    """
    base = SQUARE_NOT_ZS[s]
    pr, pc, pv = (rng.sample(range(s), s) for _ in range(3))
    rows = [(a, b, pv[base[pr[a]][pc[b]]]) for a in range(s) for b in range(s)]
    m = 3
    if extra_factor:
        rows = [row + (c,) for row in rows for c in range(s)]
        m = 4
    order = list(range(m))
    rng.shuffle(order)
    rows = [tuple(row[c] for c in order) for row in rows]
    rng.shuffle(rows)
    return Design(s, m, rows, regular=False)


def relabeled_copy(rng: random.Random, design: Design) -> Design:
    """The design after a random column order and level relabeling."""
    order = list(range(design.m))
    rng.shuffle(order)
    copy = Design(design.s, design.m, [tuple(row[c] for c in order) for row in design.rows])
    scramble_levels(rng, copy)
    rng.shuffle(copy.rows)
    return copy


def coset_representative(s: int, index: int) -> tuple[int, ...]:
    """The index-th permutation fixing levels 0 and 1, in lexicographic order."""
    tail = list(range(2, s))
    out = []
    for size in range(len(tail), 0, -1):
        block = 1
        for f in range(2, size):
            block *= f
        q, index = divmod(index, block)
        out.append(tail.pop(q))
    return (0, 1, *out)


def _compose(outer, inner) -> tuple[int, ...]:
    return tuple(outer[v] for v in inner)


def _inverse(image) -> tuple[int, ...]:
    inv = [0] * len(image)
    for k, v in enumerate(image):
        inv[v] = k
    return tuple(inv)


def s11_triple(rng: random.Random) -> Design:
    """A scrambled 11^3 fraction whose dependent factor needs a fixed-depth search.

    Factor 3 is relabeled by rep^-1 composed with a random affine map, so the
    representative that straightens it is ``rep``; factors 1 and 2 get random
    scrambles, which do not change where the search stops.
    """
    s = 11
    a1, a2 = rng.randrange(1, s), rng.randrange(1, s)
    c = rng.randrange(s)
    # x_3 = a1 x_1 + a2 x_2 + c, i.e. exponents (-a1, -a2, 1)
    rows = [(x, y, (a1 * x + a2 * y + c) % s) for x in range(s) for y in range(s)]
    design = Design(s, 3, rows, [(((-a1) % s, (-a2) % s, 1), c)])
    rep = coset_representative(s, rng.randrange(*S11_REP_WINDOW))
    h, k = rng.randrange(1, s), rng.randrange(s)
    affine = tuple((h * e + k) % s for e in range(s))
    scramble_levels(rng, design, fixed={2: _compose(_inverse(rep), affine)})
    rng.shuffle(design.rows)
    return design


# ---------------------------------------------------------------- workloads


def _analyze(rng, cls):
    spec = ANALYZE_CLASSES[cls]
    if spec[0] == "latin":
        design = latin_design(rng, spec[1], extra_factor=spec[2])
    else:
        _, s, m, r, min_weight, scramble = spec[:6]
        design = regular_design(rng, s, m, r, min_weight, scramble)
    argv = ["analyze", "{0}", "--json"]
    max_order = spec[6] if spec[0] == "regular" and len(spec) > 6 else None
    if max_order is not None:
        argv += ["--max-order", str(max_order)]
    return Job(cls, "analyze", argv, [design], {"max_order": max_order})


def _regularity(rng, cls):
    spec = REGULARITY_CLASSES[cls]
    if spec[0] == "latin":
        design = latin_design(rng, spec[1], extra_factor=spec[2])
    elif spec[0] == "s11":
        design = s11_triple(rng)
    else:
        _, s, m, r, min_weight = spec
        design = regular_design(rng, s, m, r, min_weight, scramble=True)
    return Job(cls, "regularity", ["regularity", "{0}", "--json"], [design], {"regular": design.regular})


def _iso(rng, cls):
    kind, *spec = ISO_CLASSES[cls]
    budget = spec.pop() if kind == "copy" and len(spec) == 5 else ISO_BUDGET_SECONDS
    if kind == "copy":
        s, m, r, weight = spec
        a = regular_design(rng, s, m, r, weight, scramble=True)
        b = relabeled_copy(rng, a)
        truth = "isomorphic"
    elif kind == "equal_gwlp":
        # a Z_s square against a non-Z_s one: equal GWLP, only one regular
        (s,) = spec
        a = regular_design(rng, s, 3, 1, 3, scramble=True)
        b = latin_design(rng, s)
        truth = "not_isomorphic"
    else:
        # two regular fractions whose shortest words differ in length
        s, m, r, w_a, w_b = spec
        a = regular_design(rng, s, m, r, w_a, scramble=True)
        b = regular_design(rng, s, m, r, w_b, scramble=True)
        truth = "not_isomorphic"
    argv = ["iso", "{0}", "{1}", "--json", "--max-seconds", str(budget)]
    return Job(cls, "iso", argv, [a, b], {"outcome": truth})


def _perm_poly(rng, cls):
    kind, s = PERM_CLASSES[cls]
    if kind == "affine":
        h, k = rng.randrange(1, s), rng.randrange(s)
        image = [(h * e + k) % s for e in range(s)]
    else:
        image = rng.sample(range(s), s)
    return Job(cls, "perm-poly", ["perm-poly", str(s), ",".join(map(str, image))], [], {"image": image})


# Class tables.  A spec is ("regular", s, m, r, shortest word length, scrambled
# [, max order]) or ("latin", s, with a free fourth factor).
ANALYZE_CLASSES = {
    "reg_3^4-1": ("regular", 3, 4, 1, 3, False),
    "reg_3^5-2": ("regular", 3, 5, 2, 2, True),
    "reg_5^3-1": ("regular", 5, 3, 1, 2, True),
    "reg_5^4-2": ("regular", 5, 4, 2, 2, False),
    "reg_7^3-1": ("regular", 7, 3, 1, 3, True),
    "reg_11^3-1": ("regular", 11, 3, 1, 3, True),
    "latin_5": ("latin", 5, False),
    "latin_7": ("latin", 7, False),
    "latin_5x5": ("latin", 5, True),
    "reg_13^3-1": ("regular", 13, 3, 1, 3, True),
    "big_3^8-5": ("regular", 3, 8, 5, 3, True),
    "order2_3^13-9": ("regular", 3, 13, 9, 2, True, 2),
    "order2_3^13-8": ("regular", 3, 13, 8, 3, True, 2),
    "order2_5^9-6": ("regular", 5, 9, 6, 2, True, 2),
    "order2_11^6-4": ("regular", 11, 6, 4, 2, True, 2),
}

# ("s11",) is the fixed-depth scrambled 11^3 fraction.  Latin squares with
# a free fourth factor are left out here: regularity_check crashes on them
# at the seed commit (see perfbench/README.md).
REGULARITY_CLASSES = {
    "reg_3^3-1": ("regular", 3, 3, 1, 3),
    "reg_5^3-1": ("regular", 5, 3, 1, 3),
    "reg_7^3-1": ("regular", 7, 3, 1, 3),
    "reg_3^4-1": ("regular", 3, 4, 1, 4),
    "reg_5^4-1": ("regular", 5, 4, 1, 3),
    "reg_5^4-1w4": ("regular", 5, 4, 1, 4),
    "reg_3^5-2": ("regular", 3, 5, 2, 3),
    "reg_5^5-2": ("regular", 5, 5, 2, 3),
    "reg_7^4-1w4": ("regular", 7, 4, 1, 4),
    "reg_3^6-3": ("regular", 3, 6, 3, 3),
    "reg_5^6-3": ("regular", 5, 6, 3, 3),
    "latin_5": ("latin", 5, False),
    "latin_7": ("latin", 7, False),
    "s11_triple": ("s11",),
}

# ("copy", s, m, r, shortest word[, budget]) relabeled copies;
# ("equal_gwlp", s); ("gwlp_distinct", s, m, r, shortest word of a, of b)
ISO_CLASSES = {
    "copy_3^3-1": ("copy", 3, 3, 1, 3),
    "copy_3^4-2": ("copy", 3, 4, 2, 3),
    "copy_5^3-1": ("copy", 5, 3, 1, 3),
    "equal_gwlp_5": ("equal_gwlp", 5),
    "distinct_5^3-1": ("gwlp_distinct", 5, 3, 1, 3, 2),
    "distinct_3^5-2": ("gwlp_distinct", 3, 5, 2, 3, 2),
    "distinct_7^3-1": ("gwlp_distinct", 7, 3, 1, 3, 2),
    "distinct_5^4-2": ("gwlp_distinct", 5, 4, 2, 3, 2),
    "distinct_5^4-1": ("gwlp_distinct", 5, 4, 1, 4, 3),
    "copy_7^3-1_short": ("copy", 7, 3, 1, 3, 2.0),
}

PERM_CLASSES = {f"{kind}_{s}": (kind, s) for kind in ("random", "affine") for s in (3, 5, 7, 11, 13, 17, 19, 23)}

# The ordered class list of one cycle.  A timed run repeats the first
# cycle pass after pass and reports each job's median time over the
# passes, so a cycle holds at least 100 jobs: ten of them lie beyond the
# 90th percentile.  Class counts put the median and the 90th percentile of
# those times inside a block of same-class (or same-cost) jobs, so neither
# jumps between classes from one seed to the next:
#   analyze    p50 in reg_3^5-2, p90 among reg_7^3-1, latin_7 and
#              order2_5^9-6;
#   regularity p50 in reg_5^4-1w4, p90 in reg_7^4-1w4 (the multilayer
#              search); the cost of these two classes varies little with
#              the instance, unlike reg_3^5-2 or reg_7^3-1 (up to 1.7x);
#   iso        p50 in distinct_3^5-2, p90 in distinct_5^4-2 (both decided
#              by the GWLP prefilter, so their cost does not depend on
#              where a relabeling puts the witness);
#   perm_poly  p50 in random_7, p90 in random_13; the random_7 block is
#              large because the cost of a random permutation varies with
#              the permutation, and the median of a large block varies
#              less from seed to seed.
# No job runs much longer than half a second, except the one equal-GWLP
# iso search per cycle: the host's speed is sampled while a job runs, and
# the shorter the jobs the closer the scaling follows it.
CYCLES = {
    "analyze": (
        ["reg_3^4-1"] * 14 + ["latin_5"] * 12 + ["reg_5^3-1"] * 14 + ["reg_3^5-2"] * 30
        + ["order2_3^13-9"] + ["reg_5^4-2"] * 12 + ["reg_7^3-1"] * 6 + ["latin_7"] * 4 + ["order2_5^9-6"]
        + ["latin_5x5", "order2_11^6-4", "order2_3^13-8", "reg_11^3-1", "big_3^8-5", "reg_13^3-1"]
    ),
    "regularity": (
        ["reg_3^3-1"] * 8 + ["reg_5^3-1"] * 10 + ["latin_5"] * 8 + ["reg_7^3-1"] * 4 + ["reg_3^4-1"] * 6
        + ["reg_3^5-2"] * 4 + ["reg_3^6-3"] * 3 + ["reg_5^4-1"] * 3 + ["reg_5^4-1w4"] * 10
        + ["reg_5^5-2"] * 12 + ["latin_7"] * 10 + ["reg_5^6-3"] * 6
        + ["reg_7^4-1w4"] * 15 + ["s11_triple"]
    ),
    "iso": (
        ["copy_3^3-1"] * 20 + ["copy_3^4-2"] * 12 + ["distinct_5^3-1"] * 8 + ["distinct_3^5-2"] * 30
        + ["distinct_7^3-1"] * 8 + ["distinct_5^4-2"] * 16 + ["distinct_5^4-1"] * 5 + ["equal_gwlp_5"]
    ),
    "perm_poly": (
        [f"affine_{s}" for s in (3, 5, 7, 11, 13, 17, 19, 23)] * 2
        + ["random_3"] * 6 + ["random_5"] * 8 + ["random_7"] * 50 + ["random_11"] * 17
        + ["random_13"] * 12 + ["random_17"] * 3 + ["random_19", "random_23"]
    ),
    # Not listed in BENCHMARK.json: 7^3 relabeled copies under a 2 s budget
    # end ``exhausted`` at the seed commit, so this stream fails on purpose.
    "iso_exhaust": ["copy_5^3-1"] * 4 + ["copy_7^3-1_short"] * 2,
}

WORKLOADS = ("analyze", "regularity", "iso", "perm_poly")
_MAKERS = {"analyze": _analyze, "regularity": _regularity, "iso": _iso, "perm_poly": _perm_poly,
           "iso_exhaust": _iso}


def cycle_jobs(workload: str, seed: int, index: int) -> list[Job]:
    """The jobs of one cycle; the same arguments always give the same jobs."""
    rng = random.Random(f"regfrac-bench:{workload}:{seed}:{index}")
    make = _MAKERS[workload]
    return [make(rng, cls) for cls in CYCLES[workload]]
