import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherebl import (
    EdgeSet,
    EmptySymmetryError,
    MultiIndex,
    NotMaximalError,
    Symmetry,
    decompose,
    is_maximal,
    lie_closure,
)
from spherebl.cli import _encode
from oracles import bracket_closure_oracle


def mi(n, *support):
    return MultiIndex.from_support(n, support)


class TestMultiIndex:
    def test_orthogonal_disjoint(self):
        assert MultiIndex(4, (1, 1, 0, 0)).dot(MultiIndex(4, (0, 0, 1, 1))) == 0

    def test_orthogonal_shared_index(self):
        assert MultiIndex(4, (1, 1, 0, 0)).dot(MultiIndex(4, (0, 1, 1, 0))) == 1

    def test_orthogonal_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MultiIndex(4, (1, 1, 0, 0)).dot(MultiIndex(5, (1, 1, 0, 0, 0)))

    def test_complement(self):
        assert MultiIndex(4, (1, 0, 1, 0)).complement().bits == (0, 1, 0, 1)
        assert MultiIndex(4, (1, 1, 1, 1)).complement().bits == (0, 0, 0, 0)

    def test_weight_and_support(self):
        a = mi(5, 2, 4)
        assert a.weight == 2
        assert a.support() == (2, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiIndex(4, (1, 0, 2, 0))
        with pytest.raises(ValueError):
            MultiIndex(4, (1, 0, 0))
        with pytest.raises(ValueError):
            MultiIndex(2, (1, 0))

    @given(st.integers(3, 10).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 1), min_size=n, max_size=n))))
    def test_complement_involution(self, case):
        n, bits = case
        a = MultiIndex(n, tuple(bits))
        assert a.complement().complement() == a
        assert a.dot(a.complement()) == 0


class TestEdgeSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeSet.of(4, [(2, 1)])
        with pytest.raises(ValueError):
            EdgeSet.of(4, [(0, 1)])
        with pytest.raises(ValueError):
            EdgeSet.of(4, [(1, 5)])

    def test_set_semantics(self):
        a = EdgeSet.of(4, [(1, 2), (1, 2), (3, 4)])
        assert len(a) == 2

    def test_json_round_trip(self):
        a = EdgeSet.of(5, [(1, 3), (2, 5)])
        assert EdgeSet.of(**json.loads(json.dumps(_encode(a)))) == a


class TestLieClosure:
    def test_shared_vertex_closes_triangle(self):
        a = EdgeSet.of(4, [(1, 2), (2, 3)])
        assert lie_closure(a).sorted_edges() == [(1, 2), (1, 3), (2, 3)]

    def test_disjoint_already_closed(self):
        a = EdgeSet.of(4, [(1, 2), (3, 4)])
        assert lie_closure(a) == a

    def test_empty(self):
        assert lie_closure(EdgeSet.empty(4)) == EdgeSet.empty(4)

    def test_maximality(self):
        assert is_maximal(EdgeSet.of(4, [(1, 2), (3, 4)]))
        assert not is_maximal(EdgeSet.of(4, [(1, 2), (2, 3)]))
        assert is_maximal(EdgeSet.full(5))

    def test_idempotent_and_monotone_exhaustive_n4(self):
        edges = list(itertools.combinations(range(1, 5), 2))
        for mask in range(2 ** len(edges)):
            a = EdgeSet.of(4, [e for k, e in enumerate(edges) if mask >> k & 1])
            c = lie_closure(a)
            assert a.edges <= c.edges
            assert lie_closure(c) == c

    def test_matches_bracket_oracle_exhaustive_n4(self):
        edges = list(itertools.combinations(range(1, 5), 2))
        for mask in range(2 ** len(edges)):
            a = EdgeSet.of(4, [e for k, e in enumerate(edges) if mask >> k & 1])
            assert lie_closure(a) == bracket_closure_oracle(a)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(list(itertools.combinations(range(1, 6), 2))),
                    max_size=10))
    def test_matches_bracket_oracle_random_n5(self, pairs):
        a = EdgeSet.of(5, pairs)
        assert lie_closure(a) == bracket_closure_oracle(a)


class TestDecompose:
    def test_single_edge(self):
        s = decompose(EdgeSet.of(4, [(1, 2)]))
        assert [a.bits for a in s.alphas] == [(1, 1, 0, 0)]
        assert s.r_mask.bits == (0, 0, 1, 1)

    def test_two_blocks(self):
        s = decompose(EdgeSet.of(4, [(1, 2), (3, 4)]))
        assert [a.bits for a in s.alphas] == [(1, 1, 0, 0), (0, 0, 1, 1)]
        assert s.r_mask.bits == (0, 0, 0, 0)

    def test_triangle_in_n5(self):
        s = decompose(EdgeSet.of(5, [(1, 2), (1, 3), (2, 3)]))
        assert [a.bits for a in s.alphas] == [(1, 1, 1, 0, 0)]
        assert s.r_mask.bits == (0, 0, 0, 1, 1)

    def test_requires_maximal(self):
        with pytest.raises(NotMaximalError):
            decompose(EdgeSet.of(4, [(1, 2), (2, 3)]))

    def test_empty_rejected(self):
        with pytest.raises(EmptySymmetryError):
            decompose(EdgeSet.empty(4))

    def test_sorting_weight_then_index(self):
        # component {3,4,5} is bigger than {1,2}; equal weights tie-break by index
        s = decompose(EdgeSet.of(5, [(1, 2), (3, 4), (3, 5), (4, 5)]))
        assert s.blocks() == ((3, 4, 5), (1, 2))
        s2 = decompose(EdgeSet.of(5, [(4, 5), (2, 3)]))
        assert s2.blocks() == ((2, 3), (4, 5))

    def test_round_trip_edges(self):
        for edges in [[(1, 2)], [(1, 2), (3, 4)], [(1, 2), (1, 3), (2, 3)]]:
            a = EdgeSet.of(5, edges)
            assert decompose(a).edges() == a

    def test_partition_with_remainder(self):
        s = decompose(EdgeSet.of(6, [(1, 2), (1, 3), (2, 3), (5, 6)]))
        total = [0] * 6
        for a in s.alphas:
            total = [x + b for x, b in zip(total, a.bits)]
        total = [x + b for x, b in zip(total, s.r_mask.bits)]
        assert total == [1] * 6


def test_decompose_finds_components_once(monkeypatch):
    import spherebl.symmetry as sym
    components, calls = sym._components, []

    def counted(A):
        calls.append(A)
        return components(A)

    monkeypatch.setattr(sym, "_components", counted)
    s = decompose(EdgeSet.of(6, [(1, 2), (1, 3), (2, 3), (4, 5)]))
    assert len(calls) == 1
    assert [a.support() for a in s.alphas] == [(1, 2, 3), (4, 5)]


class TestSymmetry:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Symmetry.of(4, [mi(4, 1, 2), mi(4, 2, 3)])  # overlap
        with pytest.raises(ValueError):
            Symmetry.of(4, [mi(4, 1)])  # weight 1
        with pytest.raises(ValueError):
            Symmetry.of(6, [mi(6, 1, 2), mi(6, 3, 4, 5)])  # weights increasing

    def test_non_canonical_order_allowed(self):
        s = Symmetry.of(4, [mi(4, 3, 4), mi(4, 1, 2)])
        assert not s.is_canonical()
        assert s.canonical().blocks() == ((1, 2), (3, 4))
        assert s.canonical().edges() == s.edges()
