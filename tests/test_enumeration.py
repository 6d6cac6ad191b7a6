import pytest

from spherebl import (
    BalancedType,
    CapExceededError,
    balanced_types_upto,
    canonical_classes,
    decompose,
    edge_membership_count,
    enumerate_symmetries,
    j_max,
    overcount_factor,
)
from spherebl.enumeration import iter_symmetries
from oracles import class_order_by_vectors, ordered_block_tuples


def test_three_blocks_on_3():
    fams = enumerate_symmetries(BalancedType(3, (2,)))
    assert [s.blocks() for s in fams] == [((1, 2),), ((1, 3),), ((2, 3),)]


def test_ordered_pairs_on_4():
    fams = enumerate_symmetries(BalancedType(4, (2, 2)))
    assert len(fams) == 6
    blocks = [s.blocks() for s in fams]
    assert (((1, 2), (3, 4))) in blocks
    assert (((3, 4), (1, 2))) in blocks  # ordered assignments both ways


def test_lexicographic_emission():
    fams = enumerate_symmetries(BalancedType(5, (3, 2)))
    blocks = [s.blocks() for s in fams]
    assert blocks == sorted(blocks)


def test_count_always_j_max():
    for t in [BalancedType(5, (2, 2)), BalancedType(6, (3, 2)), BalancedType(6, (2, 2, 2))]:
        assert len(enumerate_symmetries(t)) == j_max(t)


def test_cap_exceeded_carries_count():
    t = BalancedType(6, (2, 2, 2))
    with pytest.raises(CapExceededError) as err:
        enumerate_symmetries(t, cap=10)
    assert err.value.count == 90


def test_round_trip_through_decompose():
    for s in enumerate_symmetries(BalancedType(6, (3, 2))):
        assert decompose(s.edges()) == s.canonical()


def test_edge_balance():
    t = BalancedType(6, (2, 2, 2))
    fams = enumerate_symmetries(t)
    target = edge_membership_count(t)
    from spherebl import complete_edges
    for e in complete_edges(6):
        assert sum(1 for s in fams if e in s.edges()) == target


def test_classes_on_4():
    fams = enumerate_symmetries(BalancedType(4, (2, 2)))
    classes = canonical_classes(fams)
    assert len(classes) == 3
    assert all(len(c) == 2 for c in classes)
    # each class joins the two orderings of one unordered pair
    for c in classes:
        assert c[0].canonical().blocks() == c[1].canonical().blocks()


def test_classes_distinct_lengths_singletons():
    fams = enumerate_symmetries(BalancedType(5, (3, 2)))
    classes = canonical_classes(fams)
    assert all(len(c) == 1 for c in classes)


def test_class_counts():
    for t in [BalancedType(4, (2, 2)), BalancedType(6, (2, 2, 2)), BalancedType(6, (2, 2))]:
        fams = enumerate_symmetries(t)
        classes = canonical_classes(fams)
        assert len(classes) == j_max(t) // overcount_factor(t)
        assert all(len(c) == overcount_factor(t) for c in classes)


def test_matches_tuple_construction_in_order():
    # every balanced type with n <= 7: the same members, in the same order
    for t in balanced_types_upto(7):
        expected = ordered_block_tuples(t.n, t.lengths)
        fams = list(iter_symmetries(t))
        assert [s.blocks() for s in fams] == expected
        classes = canonical_classes(fams)
        assert [[s.blocks() for s in c] for c in classes] == \
            class_order_by_vectors(t.n, expected)
