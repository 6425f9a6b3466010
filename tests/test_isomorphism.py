"""Exhaustive isomorphism search: witnesses, definitive negatives, budget."""

import itertools
import random
import types

import pytest

import regfrac.isomorphism

from regfrac import (
    Design,
    LevelPerm,
    apply_level_perm,
    apply_witness,
    gwlp_prefilter,
    is_isomorphic,
    regularity_check,
)
from fixtures import cyclic_design, nonregular_design, scrambled_design


class TestPrefilter:
    def test_self_comparison(self):
        d = cyclic_design()
        assert gwlp_prefilter(d, d)

    def test_relabeled_copy_passes(self):
        assert gwlp_prefilter(cyclic_design(), scrambled_design())

    def test_both_25_run_arrays_share_a_pattern(self):
        # equal patterns prove nothing; the pair is settled by search below
        assert gwlp_prefilter(cyclic_design(), nonregular_design())

    def test_differing_patterns_prove_non_isomorphism(self):
        half = Design(s=2, m=2, rows=((0, 0), (1, 1)))   # pattern (0, 1)
        stuck = Design(s=2, m=2, rows=((0, 0), (0, 1)))  # pattern (1, 0)
        assert not gwlp_prefilter(half, stuck)
        assert is_isomorphic(half, stuck).outcome == "not_isomorphic"

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            gwlp_prefilter(cyclic_design(), Design(s=5, m=2, rows=((0, 0), (1, 1))))


class TestIsIsomorphic:
    def test_self_isomorphism(self):
        d = cyclic_design()
        result = is_isomorphic(d, d)
        assert result.isomorphic
        assert apply_witness(d, result.witness) == d

    def test_scrambled_copy_found_with_sound_witness(self):
        a, b = scrambled_design(), cyclic_design()
        result = is_isomorphic(a, b)
        assert result.isomorphic
        assert apply_witness(a, result.witness) == b

    def test_distinct_arrays_definitively_negative(self):
        result = is_isomorphic(nonregular_design(), cyclic_design())
        assert result.outcome == "not_isomorphic"
        assert result.witness is None
        # 3! column maps times 5! * 5! choices for the first two factors,
        # the third factor's permutation derived, not enumerated
        assert result.candidates_checked == 86_400

    def test_symmetry_on_all_pairs(self):
        trio = [cyclic_design(), scrambled_design(), nonregular_design()]
        for a, b in itertools.combinations(trio, 2):
            assert is_isomorphic(a, b).isomorphic == is_isomorphic(b, a).isomorphic

    def test_consistency_with_regularity(self):
        a, b = cyclic_design(), scrambled_design()
        assert regularity_check(a).regular
        assert is_isomorphic(a, b).isomorphic
        assert regularity_check(b).regular

    def test_column_relabeling_found(self):
        d = scrambled_design()
        shuffled = Design(s=5, m=3, rows=tuple((r[2], r[0], r[1]) for r in d.rows))
        result = is_isomorphic(shuffled, d)
        assert result.isomorphic
        assert apply_witness(shuffled, result.witness) == d

    def test_random_relabeled_copies_found(self):
        rng = random.Random(21)
        base = scrambled_design()
        for _ in range(5):
            d = base
            for j in range(1, 4):
                d = apply_level_perm(d, j, LevelPerm(5, tuple(rng.sample(range(5), 5))))
            cols = rng.sample(range(3), 3)
            d = Design(s=5, m=3, rows=tuple(tuple(r[c] for c in cols) for r in d.rows))
            result = is_isomorphic(d, base)
            assert result.isomorphic
            assert apply_witness(d, result.witness) == base

    def test_exhausted_budget_is_a_distinct_outcome(self):
        result = is_isomorphic(nonregular_design(), cyclic_design(), budget_seconds=0.0)
        assert result.outcome == "exhausted"
        assert result.witness is None

    def test_deadline_mid_search_is_exhausted(self, monkeypatch):
        # a clock that passes the deadline on its 41st read, inside the search
        reads = itertools.count()
        clock = types.SimpleNamespace(monotonic=lambda: 0.0 if next(reads) < 40 else 1e9)
        monkeypatch.setattr(regfrac.isomorphism, "time", clock)
        result = is_isomorphic(nonregular_design(), cyclic_design(), budget_seconds=1.0)
        assert result.outcome == "exhausted"
        assert result.witness is None
        assert 0 < result.candidates_checked < 86_400

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            is_isomorphic(cyclic_design(), Design(s=5, m=3, rows=((0, 0, 0),)))

    def test_candidate_bound_enforced(self):
        with pytest.raises(ValueError, match="bound"):
            is_isomorphic(cyclic_design(), cyclic_design(), candidate_bound=10)

    def test_json_payload(self):
        result = is_isomorphic(cyclic_design(), cyclic_design())
        payload = result.to_json()
        assert payload["outcome"] == "isomorphic"
        assert payload["column_map"] == [1, 2, 3]
        assert len(payload["level_perms"]) == 3
        negative = is_isomorphic(nonregular_design(), cyclic_design()).to_json()
        assert negative["outcome"] == "not_isomorphic"
        assert negative["column_map"] is None
