import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherebl import (
    EdgeSet,
    MultiIndex,
    Symmetry,
    balanced_types_upto,
    complete_edges,
    decompose,
    enumerate_symmetries,
    is_maximal,
    lie_closure,
)
from oracles import bracket_closure_oracle, written


def mi(n, *support):
    return MultiIndex.from_support(n, support)


class TestMultiIndex:
    def test_complement(self):
        assert MultiIndex(4, 0b1010).complement().bits == (0, 1, 0, 1)
        assert MultiIndex(4, 0b1111).complement().bits == (0, 0, 0, 0)

    def test_weight_and_support(self):
        a = mi(5, 2, 4)
        assert a.weight == 2
        assert a.support() == (2, 4)

    def test_validation(self):
        for n, mask in [(4, 0b10000), (4, -1), (2, 0b10)]:
            with pytest.raises(ValueError):
                MultiIndex(n, mask)

    @given(st.integers(3, 10).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
    def test_complement_involution(self, case):
        n, mask = case
        a = MultiIndex(n, mask)
        assert a.complement().complement() == a
        assert a.mask & a.complement().mask == 0


class TestEdgeSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeSet.of(4, [(2, 1)])
        with pytest.raises(ValueError):
            EdgeSet.of(4, [(0, 1)])
        with pytest.raises(ValueError):
            EdgeSet.of(4, [(1, 5)])
        for n, bits in [(4, 1 << 6), (4, -1), (2, 0)]:
            with pytest.raises(ValueError):
                EdgeSet(n, bits)

    def test_set_semantics(self):
        a = EdgeSet.of(4, [(1, 2), (1, 2), (3, 4)])
        assert len(a) == 2

    def test_bit_layout(self):
        assert [EdgeSet.of(4, [e]).bits for e in complete_edges(4)] == [32, 16, 8, 4, 2, 1]

    def test_matches_frozenset_reference_exhaustive_n4(self):
        pairs = complete_edges(4)
        for mask in range(2 ** len(pairs)):
            ref = frozenset(e for k, e in enumerate(pairs) if mask >> k & 1)
            a = EdgeSet.of(4, ref)
            assert (len(a), a.sorted_edges()) == (len(ref), sorted(ref))
            assert all((e in a) == (e in ref) for e in pairs + [(2, 1), (0, 1), (4, 5)])
            assert EdgeSet.of(4, a.sorted_edges()) == a

    def test_json_round_trip(self):
        a = EdgeSet.of(5, [(1, 3), (2, 5)])
        assert EdgeSet.of(**json.loads(written(a))) == a


class TestLieClosure:
    def test_shared_vertex_closes_triangle(self):
        a = EdgeSet.of(4, [(1, 2), (2, 3)])
        assert lie_closure(a).sorted_edges() == [(1, 2), (1, 3), (2, 3)]

    def test_disjoint_already_closed(self):
        a = EdgeSet.of(4, [(1, 2), (3, 4)])
        assert lie_closure(a) == a

    def test_empty(self):
        assert lie_closure(EdgeSet.of(4, [])) == EdgeSet.of(4, [])

    def test_maximality(self):
        assert is_maximal(EdgeSet.of(4, [(1, 2), (3, 4)]))
        assert not is_maximal(EdgeSet.of(4, [(1, 2), (2, 3)]))
        assert is_maximal(EdgeSet.of(5, complete_edges(5)))

    def test_idempotent_and_monotone_exhaustive_n4(self):
        edges = list(itertools.combinations(range(1, 5), 2))
        for mask in range(2 ** len(edges)):
            a = EdgeSet.of(4, [e for k, e in enumerate(edges) if mask >> k & 1])
            c = lie_closure(a)
            assert a.bits | c.bits == c.bits
            assert lie_closure(c) == c

    def test_matches_bracket_oracle_exhaustive_n4(self):
        edges = list(itertools.combinations(range(1, 5), 2))
        for mask in range(2 ** len(edges)):
            a = [e for k, e in enumerate(edges) if mask >> k & 1]
            assert lie_closure(EdgeSet.of(4, a)).sorted_edges() == sorted(
                bracket_closure_oracle(4, a))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(list(itertools.combinations(range(1, 6), 2))),
                    max_size=10))
    def test_matches_bracket_oracle_random_n5(self, pairs):
        assert lie_closure(EdgeSet.of(5, pairs)).sorted_edges() == sorted(
            bracket_closure_oracle(5, pairs))

    def test_at_max_dimension(self):
        # n = MAX_DIMENSION = 64: edge sets of 2,016 bits
        path = EdgeSet.of(64, [(i, i + 1) for i in range(1, 64)])
        assert lie_closure(path) == EdgeSet.of(64, complete_edges(64))
        assert len(lie_closure(path)) == 2016 and not is_maximal(path)
        pairs = [(1, 64), (63, 64)]
        a, closed = EdgeSet.of(64, pairs), lie_closure(EdgeSet.of(64, pairs))
        assert closed.sorted_edges() == sorted(bracket_closure_oracle(64, pairs))
        assert closed.sorted_edges() == [(1, 63), (1, 64), (63, 64)]
        assert is_maximal(closed) and is_maximal(lie_closure(path)) and not is_maximal(a)
        s = decompose(closed)
        assert s.blocks() == ((1, 63, 64),) and s.r_mask.weight == 61
        assert s.edges() == closed


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
        with pytest.raises(ValueError, match="not bracket-closed"):
            decompose(EdgeSet.of(4, [(1, 2), (2, 3)]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no edges to decompose in dimension 4"):
            decompose(EdgeSet.of(4, []))

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
            Symmetry(4, [mi(4, 1, 2), mi(4, 2, 3)])  # overlap
        with pytest.raises(ValueError):
            Symmetry(4, [mi(4, 1)])  # weight 1
        with pytest.raises(ValueError):
            Symmetry(6, [mi(6, 1, 2), mi(6, 3, 4, 5)])  # weights increasing

    def test_non_canonical_order_allowed(self):
        s = Symmetry(4, [mi(4, 3, 4), mi(4, 1, 2)])
        assert s.canonical() != s
        assert s.canonical().blocks() == ((1, 2), (3, 4))
        assert s.canonical().edges() == s.edges()


class TestFreeCoordinates:
    """``r_mask`` is derived: the coordinates in no block."""

    @staticmethod
    def assert_free_is_complement(s):
        union = 0
        for a in s.alphas:
            union |= a.mask
        assert s.r_mask == MultiIndex(s.n, ((1 << s.n) - 1) ^ union)

    def test_every_balanced_member_up_to_8(self):
        for t in balanced_types_upto(8):
            for s in enumerate_symmetries(t):
                self.assert_free_is_complement(s)

    @pytest.mark.parametrize("n, edges", [
        (4, [(1, 2)]),
        (5, [(1, 2), (3, 4), (3, 5), (4, 5)]),
        (6, complete_edges(6)),
        (12, [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)]),
        (64, [(1, 64), (1, 63), (63, 64), (10, 20)]),
        (64, complete_edges(64)),
    ])
    def test_decompositions(self, n, edges):
        s = decompose(EdgeSet.of(n, edges))
        self.assert_free_is_complement(s)
        assert s.canonical().r_mask == s.r_mask

    def test_constructor_equals_from_blocks(self):
        blocks = [(2, 5, 6), (1, 3)]
        s = Symmetry(7, [mi(7, *b) for b in blocks])
        t = Symmetry.from_blocks(7, blocks)
        assert s == t and hash(s) == hash(t)
        assert s.r_mask.support() == (4, 7)

    def test_field_order_keeps_r_last(self):
        # the record writer and its oracle read the fields in this order
        assert [f.name for f in dataclasses.fields(Symmetry)] == ["n", "alphas", "r_mask"]

    def test_r_mask_is_not_an_argument(self):
        with pytest.raises(TypeError):
            Symmetry(4, [mi(4, 1, 2)], mi(4, 3, 4))
        with pytest.raises(TypeError):
            Symmetry(4, [mi(4, 1, 2)], r_mask=mi(4, 3, 4))
