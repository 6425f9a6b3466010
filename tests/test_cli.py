"""End-to-end command-line checks: output content, JSON schemas, exit codes."""

import json
import random
from pathlib import Path

import pytest

from regfrac import Design, parse_design, serialize_design
from regfrac.cli import build_parser, main
from fixtures import (
    cyclic_design,
    latin_with_free_factor,
    nonregular_design,
    random_latin_square,
    scrambled_125_design,
    scrambled_design,
)

# `regfrac analyze` text output recorded while the GWLP was still summed in
# floating point: the exact GWLP must print the same digits
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def design_file(tmp_path):
    def write(design, name):
        path = tmp_path / name
        path.write_text(serialize_design(design), encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_cyclic_fraction_summary(self, design_file, capsys):
        path = design_file(cyclic_design(), "f.txt")
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "n=25 m=3 s=5" in out
        assert "strength=2" in out
        assert "A_3=4" in out
        assert "b_0 = 25/125" in out
        assert "alpha=(1,1,4)" in out

    def test_json_output(self, design_file, capsys):
        path = design_file(cyclic_design(), "f.txt")
        code, out, _ = run(capsys, "analyze", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["strength"] == 2
        assert payload["gwlp"] == [0.0, 0.0, 4.0]
        assert {
            "alpha": [1, 1, 4],
            "numerator": [25, 0, 0, 0, 0],
            "denominator": 125,
        } in payload["coefficients"]

    @pytest.mark.parametrize(
        "name, design",
        [("analyze_cyclic", cyclic_design()), ("analyze_scrambled_125", scrambled_125_design())],
    )
    def test_text_output_is_pinned(self, name, design, design_file, capsys):
        path = design_file(design, "f.txt")
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")

    def test_max_order_limits_listing(self, design_file, capsys):
        path = design_file(cyclic_design(), "f.txt")
        code, out, _ = run(capsys, "analyze", path, "--max-order", "2", "--json")
        payload = json.loads(out)
        assert [e["alpha"] for e in payload["coefficients"]] == [[0, 0, 0]]

    def test_large_fraction_summary(self, design_file, capsys):
        path = design_file(scrambled_125_design(), "d.txt")
        code, out, _ = run(capsys, "analyze", path, "--max-order", "1")
        assert code == 0
        assert "strength=2" in out
        assert "b_0 = 125/3125" in out

    def test_oversized_design_requires_max_order(self, tmp_path, capsys):
        m = 21  # 2^21 exceeds the full-table bound
        path = tmp_path / "wide.txt"
        body = " ".join(["0"] * m) + "\n" + " ".join(["1"] * m) + "\n"
        path.write_text(f"2 {m} 2\n{body}", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 3 and "--max-order" in err
        code, out, _ = run(capsys, "analyze", str(path), "--max-order", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["gwlp"] is None
        assert payload["strength"] == 1
        assert [e["alpha"] for e in payload["coefficients"]] == [[0] * m]

    def test_negative_max_order_rejected(self, tmp_path, capsys):
        path = tmp_path / "frac.txt"
        path.write_text("2 2 2\n0 0\n1 1\n", encoding="utf-8")
        code, out, err = run(capsys, "analyze", str(path), "--max-order", "-1")
        assert code == 3 and "--max-order" in err and out == ""
        code, out, _ = run(capsys, "analyze", str(path), "--max-order", "0")
        assert code == 0 and "nonzero coefficients up to order 0:" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 3 5\n0 0 0\n0 0 9\n", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 3
        assert "line 3" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/design.txt")
        assert code == 3
        assert "error" in err

    def test_undecodable_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 3
        assert "not UTF-8" in err

    def test_huge_level_count_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "huge.txt"
        bad.write_text("1 2 100000000000000000039\n0 0\n", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 3
        assert "exceeds supported maximum" in err

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()


class TestRegularity:
    def test_regular_fraction_exit_zero(self, design_file, capsys):
        path = design_file(cyclic_design(), "a.txt")
        code, out, _ = run(capsys, "regularity", path)
        assert code == 0
        assert "regular: yes" in out
        assert "equation: 1,1,4 = 0" in out

    def test_non_regular_exit_one(self, design_file, capsys):
        path = design_file(nonregular_design(), "c.txt")
        code, out, _ = run(capsys, "regularity", path)
        assert code == 1
        assert "regular: no" in out

    def test_free_factor_beside_non_cyclic_square_exit_one(self, design_file, capsys):
        for order in [(0, 1, 3, 2), (0, 3, 1, 2)]:
            path = design_file(latin_with_free_factor(order), "free.txt")
            code, out, err = run(capsys, "regularity", path, "--json")
            assert (code, err) == (1, "")
            assert json.loads(out)["regular"] is False

    def test_thirteen_level_non_cyclic_square_with_free_factor_exit_one(self, design_file, capsys):
        square = random_latin_square(random.Random(13), 13)
        rows = tuple((a, b, square[a][b], f) for a in range(13) for b in range(13) for f in range(13))
        path = design_file(Design(s=13, m=4, rows=rows), "free13.txt")
        code, out, err = run(capsys, "regularity", path, "--json")
        assert (code, err) == (1, "")
        assert json.loads(out)["regular"] is False

    def test_non_orthogonal_exit_four(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3 2 2\n0 0\n0 1\n1 0\n", encoding="utf-8")
        code, _, err = run(capsys, "regularity", str(path))
        assert code == 4
        assert "not an orthogonal array of strength 2" in err

    def test_json_schema(self, design_file, capsys):
        path = design_file(scrambled_design(), "b.txt")
        code, out, _ = run(capsys, "regularity", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"regular", "strength", "permutations", "equations", "tuples_examined"}
        assert payload["regular"] is True
        assert len(payload["permutations"]) == 3
        assert payload["equations"][0]["exponents"] == [1, 4, 4]


class TestMakeRegular:
    def test_emits_fraction_file(self, tmp_path, capsys):
        out_path = tmp_path / "frac.txt"
        code, _, _ = run(capsys, "make-regular", "5", "3", "--eq", "1,1,4=0", "--out", str(out_path))
        assert code == 0
        d = parse_design(out_path.read_text(encoding="utf-8"))
        assert d == cyclic_design()

    def test_two_equations_to_stdout(self, capsys):
        code, out, _ = run(capsys, "make-regular", "5", "5", "--eq", "2,1,1,0,0=1", "--eq", "1,1,0,1,1=1")
        assert code == 0
        d = parse_design(out)
        assert d.n == 125

    def test_dependent_equations_rejected(self, capsys):
        code, _, err = run(capsys, "make-regular", "5", "3", "--eq", "1,1,4=0", "--eq", "2,2,3=0")
        assert code == 3
        assert "dependent" in err

    def test_malformed_equation_rejected(self, capsys):
        code, _, err = run(capsys, "make-regular", "5", "3", "--eq", "1,1=0")
        assert code == 3
        assert "exponents" in err

    def test_roundtrip_through_regularity(self, tmp_path, capsys):
        out_path = tmp_path / "frac.txt"
        run(capsys, "make-regular", "5", "5", "--eq", "2,1,1,0,0=1", "--eq", "1,1,0,1,1=1", "--out", str(out_path))
        code, out, _ = run(capsys, "regularity", str(out_path), "--json")
        assert code == 0
        payload = json.loads(out)
        from regfrac.linalg import same_row_space

        recovered = [e["exponents"] for e in payload["equations"]]
        assert same_row_space(recovered, [[2, 1, 1, 0, 0], [1, 1, 0, 1, 1]], 5)


class TestPermPoly:
    def test_identity(self, capsys):
        code, out, _ = run(capsys, "perm-poly", "5", "0,1,2,3,4")
        assert code == 0
        assert "u_0 = (1/5)*(0)" in out
        assert "u_1 = (1/5)*(5)" in out
        assert "constraints: pass" in out
        assert "monomial: yes (power=1, shift=0)" in out

    def test_switch_of_first_two_levels(self, capsys):
        code, out, _ = run(capsys, "perm-poly", "5", "1,0,2,3,4")
        assert code == 0
        assert "constraints: pass" in out
        assert "monomial: no" in out
        assert "u_1 = (1/5)*(3 + w1 + w4)" in out

    def test_non_bijection_rejected(self, capsys):
        code, _, err = run(capsys, "perm-poly", "5", "0,0,1,2,3")
        assert code == 3
        assert "bijection" in err


class TestIso:
    def test_isomorphic_pair_exit_zero(self, design_file, capsys):
        a = design_file(scrambled_design(), "a.txt")
        b = design_file(cyclic_design(), "b.txt")
        code, out, _ = run(capsys, "iso", a, b, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "isomorphic"
        assert len(payload["level_perms"]) == 3

    def test_non_isomorphic_pair_exit_one(self, design_file, capsys):
        a = design_file(nonregular_design(), "a.txt")
        b = design_file(cyclic_design(), "b.txt")
        code, out, _ = run(capsys, "iso", a, b)
        assert code == 1
        assert "not_isomorphic" in out

    def test_exhausted_budget_exit_two(self, design_file, capsys):
        a = design_file(nonregular_design(), "a.txt")
        b = design_file(cyclic_design(), "b.txt")
        code, out, _ = run(capsys, "iso", a, b, "--max-seconds", "0")
        assert code == 2
        assert "exhausted" in out

    def test_shape_mismatch_exit_three(self, design_file, tmp_path, capsys):
        a = design_file(cyclic_design(), "a.txt")
        small = tmp_path / "small.txt"
        small.write_text("2 3 5\n0 0 0\n1 1 1\n", encoding="utf-8")
        code, _, err = run(capsys, "iso", a, str(small))
        assert code == 3
        assert "shape" in err
