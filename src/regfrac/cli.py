"""Batch command-line front end.

Subcommands: analyze, regularity, iso, make-regular, perm-poly.

Exit codes: 0 success (regular / isomorphic where applicable); 1 negative
verdict (not regular, not isomorphic); 2 isomorphism search exhausted its
time budget; 3 bad input (parse errors, malformed equations or
permutations); 4 precondition failure (input is not an orthogonal array of
strength 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .design import (
    DEFAULT_ENUMERATION_BOUND,
    DefiningEquation,
    Design,
    ParseError,
    parse_design,
    regular_fraction,
    serialize_design,
    strength_combinatorial,
)
# gwlp stays importable from here; perfbench/tracing.py patches it at this binding
from .indicator import gwlp, summarize  # noqa: F401
from .isomorphism import is_isomorphic
from .permutation import LevelPerm, check_perm_constraints, is_monomial, poly_coefficients
from .regularity import StrengthError, regularity_check

EXIT_NEGATIVE = 1
EXIT_EXHAUSTED = 2
EXIT_BAD_INPUT = 3
EXIT_NOT_OA = 4


def _load_design(path: str) -> Design:
    return parse_design(Path(path).read_bytes())


def _parse_equation(text: str, m: int) -> DefiningEquation:
    try:
        lhs, rhs = text.split("=")
        exponents = tuple(int(p) for p in lhs.strip().split(","))
        constant = int(rhs)
    except ValueError:
        raise ValueError(f"malformed equation {text!r}; expected 'a1,...,am=k'") from None
    if len(exponents) != m:
        raise ValueError(f"equation {text!r} has {len(exponents)} exponents, expected {m}")
    return DefiningEquation(exponents, constant)


def _cmd_analyze(args) -> int:
    if args.max_order is not None and args.max_order < 0:
        raise ValueError(f"--max-order must be at least 0, got {args.max_order}")
    design = _load_design(args.file)
    denominator = design.s**design.m
    full = denominator <= DEFAULT_ENUMERATION_BOUND
    if not full and args.max_order is None:
        raise ValueError(
            f"table size {design.s}^{design.m} exceeds the enumeration bound; pass --max-order"
        )
    max_order = args.max_order if args.max_order is not None else design.m
    summary = summarize(design, max_order)
    t_comb = strength_combinatorial(design)
    if summary.strength != t_comb:
        raise AssertionError(
            f"strength mismatch: coefficients say {summary.strength}, projections say {t_comb}"
        )
    pattern = [float(a) for a in summary.gwlp] if summary.gwlp is not None else None
    if args.json:
        payload = {
            "n": design.n,
            "m": design.m,
            "s": design.s,
            "strength": summary.strength,
            "gwlp": pattern,
            "coefficients": [
                {"alpha": list(alpha), "numerator": list(num.coeffs), "denominator": denominator}
                for alpha, num in summary.coefficients
            ],
        }
        print(json.dumps(payload))
        return 0
    print(f"n={design.n} m={design.m} s={design.s}")
    print(f"strength={summary.strength} (coefficient and combinatorial methods agree)")
    if pattern is None:
        print("GWLP: skipped (design exceeds the enumeration bound)")
    else:
        print("GWLP: " + " ".join(f"A_{j + 1}={v:.6g}" for j, v in enumerate(pattern)))
    print(f"b_0 = {design.n}/{denominator}")
    print(f"nonzero coefficients up to order {max_order}:")
    for alpha, num in summary.coefficients:
        print(f"  alpha=({','.join(str(a) for a in alpha)})  numerator {num}  / {denominator}")
    return 0


def _cmd_regularity(args) -> int:
    design = _load_design(args.file)
    report = regularity_check(design)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(f"regular: {'yes' if report.regular else 'no'}")
        print(f"strength: {report.strength}")
        if report.regular:
            for j, perm in enumerate(report.perms, start=1):
                print(f"X{j}: {perm.to_string()}")
            for eq in report.equations:
                print(f"equation: {eq.text()}")
        print(f"tuples examined: {report.tuples_examined}")
    return 0 if report.regular else EXIT_NEGATIVE


def _cmd_iso(args) -> int:
    a = _load_design(args.file_a)
    b = _load_design(args.file_b)
    result = is_isomorphic(a, b, budget_seconds=args.max_seconds)
    if args.json:
        print(json.dumps(result.to_json()))
    else:
        print(result.outcome)
        if result.witness is not None:
            print("column map: " + ",".join(str(c) for c in result.witness.column_map))
            for j, perm in enumerate(result.witness.level_perms, start=1):
                print(f"X{j}: {perm.to_string()}")
    if result.outcome == "isomorphic":
        return 0
    if result.outcome == "not_isomorphic":
        return EXIT_NEGATIVE
    return EXIT_EXHAUSTED


def _cmd_make_regular(args) -> int:
    equations = [_parse_equation(text, args.m) for text in args.eq]
    design = regular_fraction(args.s, args.m, equations)
    text = serialize_design(design)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_perm_poly(args) -> int:
    perm = LevelPerm.from_string(args.image, args.s)
    poly = poly_coefficients(perm)
    for h, scaled in enumerate(poly.scaled_coefficients()):
        print(f"u_{h} = (1/{args.s})*({scaled})")
    verdict = check_perm_constraints(poly)
    print(f"constraints: {'pass' if verdict else 'fail'}")
    mono = is_monomial(perm)
    if mono is None:
        print("monomial: no")
    else:
        print(f"monomial: yes (power={mono[0]}, shift={mono[1]})")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="regfrac",
        description="Analyze prime-level fractional factorial designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="strength, GWLP and indicator coefficients")
    p.add_argument("file")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("regularity", help="decide regularity under level permutations")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("iso", help="combinatorial isomorphism of two designs")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--max-seconds", type=float, default=300.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("make-regular", help="emit the fraction cut out by defining equations")
    p.add_argument("s", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--eq", action="append", required=True, metavar="a1,...,am=k")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_make_regular)

    p = sub.add_parser("perm-poly", help="polynomial coefficients of a level permutation")
    p.add_argument("s", type=int)
    p.add_argument("image", help="comma-separated image list, e.g. 4,3,0,2,1")
    p.set_defaults(func=_cmd_perm_poly)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except StrengthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_OA
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
