import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherebl import (
    BalancedType,
    EdgeSet,
    Symmetry,
    all_balanced_types,
    balanced_exponent,
    balanced_local_delta,
    balanced_types_upto,
    complete_edges,
    critical_gamma,
    decompose,
    edge_membership_count,
    enumerate_symmetries,
    identity_critical_gamma,
    identity_exponent_count,
    identity_partition,
    j_max,
    local_delta,
    multinomial,
    overcount_factor,
    per_function_exponents,
    report_for_family,
    report_for_type,
    uniform_exponent,
)
from oracles import exponent_by_counting, ordered_block_assignments, written

balanced_types = st.sampled_from(list(balanced_types_upto(12)))


def test_multinomial():
    assert multinomial([2, 2, 0]) == 6
    assert multinomial([3, 2]) == 10
    assert multinomial([-1, 2]) == 0
    assert multinomial([0, 0]) == 1


class TestBalancedType:
    def test_r_tilde(self):
        assert BalancedType(6, (2, 2)).r_tilde == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            BalancedType(4, ())
        with pytest.raises(ValueError):
            BalancedType(4, (1,))
        with pytest.raises(ValueError):
            BalancedType(4, (2, 3))
        with pytest.raises(ValueError):
            BalancedType(4, (3, 2))
        with pytest.raises(ValueError):
            BalancedType(4, (4,))  # covers every coordinate

    def test_json_round_trip(self):
        t = BalancedType(7, (3, 2))
        assert BalancedType(**json.loads(written(t))) == t


class TestClosedForms:
    def test_single_block_on_3(self):
        # functions of one variable on S^2: C(3,1) - C(1,1) = 2
        assert balanced_exponent(BalancedType(3, (2,))) == 2

    def test_two_blocks_on_4(self):
        # radial in 2 variables on S^3: 2*C(2,1) = 4
        assert balanced_exponent(BalancedType(4, (2, 2))) == 4

    def test_three_blocks_on_6(self):
        assert balanced_exponent(BalancedType(6, (2, 2, 2))) == 72
        assert j_max(BalancedType(6, (2, 2, 2))) == 90
        assert edge_membership_count(BalancedType(6, (2, 2, 2))) == 18

    def test_j_max_values(self):
        assert j_max(BalancedType(4, (2, 2))) == 6
        assert j_max(BalancedType(3, (2,))) == 3
        assert j_max(BalancedType(5, (3, 2))) == 10

    def test_membership_values(self):
        assert edge_membership_count(BalancedType(4, (2, 2))) == 2
        assert edge_membership_count(BalancedType(3, (2,))) == 1

    def test_overcount(self):
        assert overcount_factor(BalancedType(4, (2, 2))) == 2
        assert overcount_factor(BalancedType(5, (3, 2))) == 1
        assert overcount_factor(BalancedType(6, (2, 2, 2))) == 6

    def test_single_block_formula_family(self):
        # k-variable case: p = C(n,k) - C(n-2,k) with block length n-k
        from math import comb
        for n in range(3, 9):
            for k in range(1, n - 1):
                t = BalancedType(n, (n - k,))
                assert balanced_exponent(t) == comb(n, k) - comb(n - 2, k)

    def test_two_block_formula_family(self):
        # radial-in-k case on even split: p = 2*C(n-2, k-1)
        from math import comb
        for n in range(4, 10):
            for k in range(2, n // 2 + 1):
                t = BalancedType(n, (n - k, k) if n - k >= k else (k, n - k))
                assert balanced_exponent(t) == 2 * comb(n - 2, k - 1)


class TestFamilyExponents:
    def test_three_single_edges_on_3(self):
        fams = [decompose(EdgeSet.of(3, [e])) for e in [(1, 2), (1, 3), (2, 3)]]
        assert uniform_exponent(fams) == 2
        assert per_function_exponents(fams) == [2, 2, 2]

    def test_six_ordered_pairs_on_4(self):
        fams = enumerate_symmetries(BalancedType(4, (2, 2)))
        assert uniform_exponent(fams) == 4
        assert per_function_exponents(fams) == [4] * 6

    def test_singleton_family(self):
        fams = [decompose(EdgeSet.of(3, [(1, 2)]))]
        assert per_function_exponents(fams) == [1]
        assert uniform_exponent(fams) == 1

    def test_degenerate_full_graph(self):
        full = decompose(EdgeSet.of(4, complete_edges(4)))
        with pytest.raises(ValueError, match="every field lies in every member"):
            uniform_exponent([full])
        with pytest.raises(ValueError, match="family member 0 contains every field"):
            per_function_exponents([full, decompose(EdgeSet.of(4, [(1, 2)]))])

    def test_empty_family(self):
        with pytest.raises(ValueError):
            uniform_exponent([])

    def test_matches_naive_count(self):
        fams = enumerate_symmetries(BalancedType(5, (3, 2)))
        naive = exponent_by_counting([frozenset(s.edges().sorted_edges()) for s in fams])
        assert uniform_exponent(fams) == naive


class TestDelta:
    def test_three_singles_on_3(self):
        fams = [decompose(EdgeSet.of(3, [e])) for e in [(1, 2), (1, 3), (2, 3)]]
        assert local_delta(fams, [2, 2, 2]) == Fraction(3, 2)

    def test_balanced_values(self):
        assert balanced_local_delta(BalancedType(3, (2,))) == Fraction(3, 2)
        assert balanced_local_delta(BalancedType(4, (2, 2))) == 1
        assert balanced_local_delta(BalancedType(5, (3, 2))) == Fraction(5, 3)

    def test_family_matches_balanced(self):
        for t in [BalancedType(3, (2,)), BalancedType(4, (2, 2)), BalancedType(5, (3, 2))]:
            fams = enumerate_symmetries(t)
            exps = per_function_exponents(fams)
            assert local_delta(fams, exps) == balanced_local_delta(t)

    def test_inconsistent_exponents_rejected(self):
        fams = [decompose(EdgeSet.of(3, [e])) for e in [(1, 2), (1, 3), (2, 3)]]
        with pytest.raises(ValueError, match="delta = 0 <= 0; exponents are inconsistent"):
            local_delta(fams, [1, 1, 1])


class TestCriticalGamma:
    def test_values(self):
        assert critical_gamma(BalancedType(3, (2,))) == Fraction(1, 2)
        assert critical_gamma(BalancedType(4, (2, 2))) == Fraction(1, 4)

    @given(balanced_types)
    def test_reciprocal_is_exponent(self, t):
        assert 1 / critical_gamma(t) == balanced_exponent(t)


class TestCountingIdentities:
    @given(balanced_types)
    @settings(max_examples=200, deadline=None)
    def test_all_three(self, t):
        assert identity_exponent_count(t)
        assert identity_partition(t)
        assert identity_critical_gamma(t)

    def test_exhaustive_to_12(self):
        for t in balanced_types_upto(12):
            assert identity_exponent_count(t)
            assert identity_partition(t)
            assert identity_critical_gamma(t)


class TestAgainstBruteforceEnumeration:
    def test_counts_match_permutation_oracle(self):
        for t in balanced_types_upto(6):
            expected = ordered_block_assignments(t.n, t.lengths)
            assert j_max(t) == len(expected)
            got = {s.blocks() for s in enumerate_symmetries(t)}
            assert got == expected

    def test_membership_count_oracle(self):
        for t in balanced_types_upto(6):
            fams = enumerate_symmetries(t)
            fixed = (1, 2)
            count = sum(1 for s in fams if fixed in s.edges())
            assert count == edge_membership_count(t)


class TestReports:
    def test_balanced_report(self):
        rep = report_for_type(BalancedType(4, (2, 2)))
        assert rep.p_uniform == 4
        assert rep.j_count == 6
        assert rep.p_per_function == (4,) * 6
        assert rep.delta == 1
        assert rep.overcount == 2

    def test_family_report_mixed_profiles(self):
        fams = [decompose(EdgeSet.of(5, [(1, 2), (3, 4)])),
                decompose(EdgeSet.of(5, [(1, 2), (1, 3), (2, 3)]))]
        rep = report_for_family(fams)
        assert rep.j_count == 2
        assert rep.overcount == 1
        assert all(p <= rep.p_uniform for p in rep.p_per_function)

    def test_family_report_builds_each_edge_set_once(self, monkeypatch):
        fams = enumerate_symmetries(BalancedType(5, (2, 2)))
        built = []
        edge_bits = Symmetry.edge_bits
        monkeypatch.setattr(Symmetry, "edge_bits",
                            lambda s: built.append(s) or edge_bits(s))
        rep = report_for_family(fams)
        assert len(built) == len(fams)
        assert rep.p_uniform == uniform_exponent(fams)
        assert list(rep.p_per_function) == per_function_exponents(fams)

    def test_report_round_trip(self):
        rep = report_for_type(BalancedType(5, (3, 2)))
        text = written(rep)
        d = json.loads(text)
        assert json.dumps(d, indent=2) == text
        assert d["delta"] == {"num": rep.delta.numerator, "den": rep.delta.denominator}

    @given(balanced_types)
    @settings(max_examples=60, deadline=None)
    def test_dominance(self, t):
        p = balanced_exponent(t)
        assert 1 <= p <= j_max(t)


def test_all_balanced_types_listing():
    kinds = [t.lengths for t in all_balanced_types(6)]
    assert (2,) in kinds and (2, 2) in kinds and (2, 2, 2) in kinds and (5,) in kinds
    assert (6,) not in kinds
    assert all(len(set(kinds)) == len(kinds) for _ in [0])
