"""Output checkers for every job class, independent of the code they check.

- analyze: strength and GWLP of a regular fraction come from counting the
  words in the span of its defining equations.  Every reported indicator
  coefficient, and the strength and GWLP of a non-regular array, are
  compared with a brute-force oracle that counts alpha.x over the runs
  with numpy.
- regularity: the returned permutations are applied to the input, every
  run must then satisfy every returned equation, the equations must be
  independent, and n must equal s^(m-r).
- iso: the returned witness is applied and the point sets compared.
- perm_poly: u_h is recomputed from the inverse-Vandermonde counts and the
  monomial verdict from a search over all affine maps.

``check_job`` returns a list of problems; an empty list means the job
passed.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from workloads import Design, Job, word_space

GWLP_TOLERANCE = 1e-6


def _weight(vector) -> int:
    return sum(1 for v in vector if v)


def _alphas(s: int, m: int, max_order: int) -> np.ndarray:
    """Every exponent of order <= max_order, the null exponent first."""
    out = [(0,) * m]
    for order in range(1, max_order + 1):
        for positions in itertools.combinations(range(m), order):
            for values in itertools.product(range(1, s), repeat=order):
                alpha = [0] * m
                for j, v in zip(positions, values):
                    alpha[j] = v
                out.append(tuple(alpha))
    return np.array(out, dtype=np.int64)


def level_count_oracle(design: Design, max_order: int):
    """(alphas, counts) with counts[i, h] = #{x : alphas[i].x = h mod s}."""
    s = design.s
    alphas = _alphas(s, design.m, max_order)
    values = (alphas @ np.array(design.rows, dtype=np.int64).T) % s
    offsets = values + s * np.arange(len(alphas))[:, None]
    counts = np.bincount(offsets.ravel(), minlength=len(alphas) * s).reshape(len(alphas), s)
    return alphas, counts


def _oracle_strength(alphas: np.ndarray, counts: np.ndarray, m: int) -> int:
    orders = (alphas != 0).sum(axis=1)
    nonuniform = (counts != counts[:, :1]).any(axis=1)
    bad = orders[nonuniform & (orders > 0)]
    return int(bad.min()) - 1 if len(bad) else m


def _oracle_gwlp(alphas: np.ndarray, counts: np.ndarray, design: Design) -> list[float]:
    s, n = design.s, design.n
    roots = np.exp(2j * np.pi * np.arange(s) / s)
    aberrations = np.abs(counts @ roots) ** 2 / (n * n)
    orders = (alphas != 0).sum(axis=1)
    return [float(aberrations[orders == j].sum()) for j in range(1, design.m + 1)]


def _regular_truth(design: Design) -> tuple[int, list[int]]:
    """(strength, word counts by length 1..m) of a regular fraction."""
    by_length = [0] * (design.m + 1)
    for w in word_space(design.equations, design.s):
        by_length[_weight(w)] += 1
    strength = next((j for j in range(1, design.m + 1) if by_length[j]), design.m + 1) - 1
    return strength, by_length[1:]


def _json(record: dict, problems: list):
    try:
        return json.loads(record["stdout"])
    except ValueError:
        problems.append("stdout is not one JSON object")
        return None


def check_analyze(job: Job, record: dict) -> list[str]:
    problems = []
    if record["rc"] != 0:
        return [f"exit code {record['rc']}, expected 0"]
    payload = _json(record, problems)
    if payload is None:
        return problems
    design = job.designs[0]
    s, m = design.s, design.m
    if (payload["n"], payload["m"], payload["s"]) != (design.n, m, s):
        problems.append("wrong n, m or s")
    full = s**m <= 10**6
    max_order = job.truth["max_order"] if job.truth["max_order"] is not None else m
    alphas, counts = level_count_oracle(design, max_order)
    if design.regular:
        strength, pattern = _regular_truth(design)
    else:
        strength = _oracle_strength(alphas, counts, m)
        pattern = _oracle_gwlp(alphas, counts, design)
    if payload["strength"] != strength:
        problems.append(f"strength {payload['strength']}, expected {strength}")
    if not full:
        if payload["gwlp"] is not None:
            problems.append("GWLP reported past the enumeration bound")
    elif payload["gwlp"] is None or len(payload["gwlp"]) != m or any(
        abs(a - b) > GWLP_TOLERANCE * max(1.0, abs(b)) for a, b in zip(payload["gwlp"], pattern)
    ):
        problems.append(f"GWLP {payload['gwlp']}, expected {pattern}")

    # exact coefficients: N_alpha = sum_h n_{alpha,[s-h]} w_h, canonical form
    orders = (alphas != 0).sum(axis=1)
    keep = orders <= max_order
    numerators = counts[:, (-np.arange(s)) % s]
    numerators = numerators - numerators.min(axis=1, keepdims=True)
    expected = {
        tuple(int(v) for v in alpha): [int(v) for v in num]
        for alpha, num, k in zip(alphas, numerators, keep)
        if k and (num.any() or not alpha.any())
    }
    reported = {}
    for entry in payload["coefficients"]:
        alpha = tuple(entry["alpha"])
        if alpha in reported:
            problems.append(f"coefficient {alpha} reported twice")
        reported[alpha] = entry["numerator"]
        if entry["denominator"] != s**m:
            problems.append(f"denominator {entry['denominator']} for {alpha}")
    if reported != expected:
        differ = sorted(a for a in reported.keys() | expected.keys() if reported.get(a) != expected.get(a))
        problems.append(f"{len(differ)} indicator coefficients differ, first at alpha={differ[0]}")
    return problems


def _rank(vectors, s: int) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % s), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, s)
        rows[rank] = [(v * inv) % s for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % s:
                f = rows[r][col]
                rows[r] = [(a - f * b) % s for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _is_perm(image, s: int) -> bool:
    return isinstance(image, list) and sorted(image) == list(range(s))


def check_regularity(job: Job, record: dict) -> list[str]:
    design = job.designs[0]
    s, m, n = design.s, design.m, design.n
    regular = job.truth["regular"]
    if record["rc"] != (0 if regular else 1):
        return [f"exit code {record['rc']}, expected {0 if regular else 1}"]
    problems = []
    payload = _json(record, problems)
    if payload is None:
        return problems
    if payload["regular"] is not regular:
        problems.append(f"verdict regular={payload['regular']}, expected {regular}")
    expected_strength = _regular_truth(design)[0] if regular else _oracle_strength(
        *level_count_oracle(design, m), m)
    if payload["strength"] != expected_strength:
        problems.append(f"strength {payload['strength']}, expected {expected_strength}")
    if not isinstance(payload["tuples_examined"], int) or payload["tuples_examined"] < 0:
        problems.append("tuples_examined is not a count")
    equations = payload["equations"]
    if not regular:
        if equations:
            problems.append("equations reported for a non-regular design")
        return problems
    perms = payload["permutations"]
    if len(perms) != m or not all(_is_perm(p, s) for p in perms):
        return problems + ["permutations are not m bijections of the levels"]
    runs = [tuple(perms[f][v] for f, v in enumerate(row)) for row in design.rows]
    r = len(equations)
    if s ** (m - r) != n:
        problems.append(f"{r} equations for n={n}, expected n = s^(m-r)")
    exps = [eq["exponents"] for eq in equations]
    if any(len(e) != m for e in exps) or _rank(exps, s) != r:
        problems.append("equations are not independent exponent vectors")
    for eq in equations:
        if any(sum(a * v for a, v in zip(eq["exponents"], run)) % s != eq["constant"] % s for run in runs):
            problems.append(f"equation {eq} fails on a permuted run")
            break
    return problems


def check_iso(job: Job, record: dict) -> list[str]:
    a, b = job.designs
    truth = job.truth["outcome"]
    problems = []
    payload = _json(record, problems) if record["rc"] in (0, 1, 2) else None
    if payload is not None and payload["outcome"] == "exhausted":
        return ["search exhausted its time budget"]
    if record["rc"] != (0 if truth == "isomorphic" else 1):
        return problems + [f"exit code {record['rc']}, outcome expected {truth}"]
    if payload is None:
        return problems
    if payload["outcome"] != truth:
        return [f"outcome {payload['outcome']}, expected {truth}"]
    if truth != "isomorphic":
        if payload["column_map"] is not None:
            problems.append("witness reported for non-isomorphic designs")
        return problems
    cmap, perms = payload["column_map"], payload["level_perms"]
    if sorted(cmap or []) != list(range(1, a.m + 1)) or len(perms or []) != a.m or not all(
        _is_perm(p, a.s) for p in perms
    ):
        return ["witness is not a column map and m level bijections"]
    mapped = {tuple(perms[j][row[f - 1]] for j, f in enumerate(cmap)) for row in a.rows}
    if mapped != set(b.rows):
        problems.append("witness does not map the first design onto the second")
    return problems


def _parse_cyclotomic(text: str, s: int) -> list[int] | None:
    vec = [0] * s
    if text == "0":
        return vec
    for term in text.split(" + "):
        coeff, _, power = term.partition("w")
        coeff = coeff.rstrip("*")
        try:
            h = int(power) if power else 0
            c = int(coeff) if coeff else 1
        except ValueError:
            return None
        vec[h] += c
    return vec


def check_perm_poly(job: Job, record: dict) -> list[str]:
    if record["rc"] != 0:
        return [f"exit code {record['rc']}, expected 0"]
    image = job.truth["image"]
    s = len(image)
    lines = record["stdout"].splitlines()
    if len(lines) != s + 2:
        return [f"{len(lines)} output lines, expected {s + 2}"]
    problems = []
    for h in range(s):
        vec = [0] * s
        for k in range(s):
            vec[(image[k] - h * k) % s] += 1
        low = min(vec)
        vec = [v - low for v in vec]
        prefix = f"u_{h} = (1/{s})*("
        line = lines[h]
        got = _parse_cyclotomic(line[len(prefix):-1], s) if line.startswith(prefix) and line.endswith(")") else None
        if got != vec:
            problems.append(f"u_{h} printed as {line!r}")
    # every permutation satisfies the necessary constraints
    if lines[s] != "constraints: pass":
        problems.append(f"constraint verdict {lines[s]!r}")
    affine = [(h, k) for h in range(1, s) for k in range(s)
              if all(image[e] == (h * e + k) % s for e in range(s))]
    expected = f"monomial: yes (power={affine[0][0]}, shift={affine[0][1]})" if affine else "monomial: no"
    if lines[s + 1] != expected:
        problems.append(f"monomial verdict {lines[s + 1]!r}, expected {expected!r}")
    return problems


CHECKERS = {"analyze": check_analyze, "regularity": check_regularity, "iso": check_iso,
            "perm-poly": check_perm_poly}


def check_job(job: Job, record: dict) -> list[str]:
    if record["error"]:
        return ["uncaught exception: " + record["error"].strip().splitlines()[-1]]
    if record["stderr"] and record["rc"] not in (0, 1):
        return [f"exit code {record['rc']}: {record['stderr'].strip()}"]
    try:
        return CHECKERS[job.command](job, record)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"malformed output ({type(exc).__name__}: {exc})"]
