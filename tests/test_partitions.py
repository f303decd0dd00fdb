from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from logcave.partitions import (
    SemistandardTableau,
    SkewShape,
    arrangement_count,
    conjugate,
    contains,
    count_ssyt,
    dominant_weights,
    dual_weight,
    enumerate_ssyt,
    pad,
    partition,
    partitions_of,
    partitions_up_to,
    shift_to_partition,
    subdiagrams,
    weight,
    weyl_dimension,
)


@st.composite
def partition_strategy(draw, max_weight=8, max_parts=5):
    n = draw(st.integers(min_value=0, max_value=max_weight))
    bins = draw(st.integers(min_value=1, max_value=max_parts))
    assignment = draw(st.lists(st.integers(0, bins - 1), min_size=n, max_size=n))
    counts = Counter(assignment)
    return partition(sorted(counts.values(), reverse=True))


@st.composite
def weight_strategy(draw, rank_max=4, entry=5):
    rank = draw(st.integers(1, rank_max))
    entries = sorted(
        draw(st.lists(st.integers(-entry, entry), min_size=rank, max_size=rank)),
        reverse=True,
    )
    return tuple(entries)


def test_partition_normalization():
    assert partition([3, 1, 0, 0]) == (3, 1)
    assert partition([]) == ()
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([1, -1])


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3, 1)) == (2, 1, 1)


@given(partition_strategy())
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p


def test_dual_weight_examples():
    assert dual_weight((0, 0, 0)) == (0, 0, 0)
    assert dual_weight((2, 1, 0)) == (0, -1, -2)
    assert dual_weight((1, 1)) == (-1, -1)


@given(weight_strategy())
def test_dual_weight_involution(w):
    assert dual_weight(dual_weight(w)) == w
    weight(dual_weight(w))  # stays dominant


def test_shift_to_partition_examples():
    assert shift_to_partition((0, -1, -2)) == ((2, 1), -2)
    assert shift_to_partition((3, 1)) == ((2,), 1)
    assert shift_to_partition((-1, -1)) == ((), -1)


@given(weight_strategy())
def test_shift_recomposes(w):
    p, shift = shift_to_partition(w)
    assert tuple(x + shift for x in pad(p, len(w))) == w
    assert all(x >= 0 for x in p)
    # minimal: no smaller partition recomposes w, so the padded one ends in 0
    assert pad(p, len(w))[-1] == 0


def test_skew_shape_validation():
    with pytest.raises(ValueError):
        SkewShape((2,), (3,))
    with pytest.raises(ValueError):
        SkewShape((2, 2), (1, 2))
    assert SkewShape((3, 1), (1,)).size == 3


def test_ssyt_examples():
    assert count_ssyt(SkewShape((2, 1), ()), 2) == 2
    assert count_ssyt(SkewShape((3, 2), (3, 2)), 7) == 1
    assert count_ssyt(SkewShape((1, 1), ()), 1) == 0


def test_ssyt_enumeration_order_and_validity():
    seen = []
    for t in enumerate_ssyt(SkewShape((2, 1), (1,)), 3):
        word = tuple(v for row in t.rows for v in row)
        seen.append(word)
        for row in t.rows:
            assert all(row[i] <= row[i + 1] for i in range(len(row) - 1))
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))


def test_tableau_content():
    tableaux = list(enumerate_ssyt(SkewShape((2, 1), ()), 3))
    contents = Counter(t.content(3) for t in tableaux)
    # s_{2,1}(x1, x2, x3) = m_{2,1} + 2 m_{1,1,1}: each of the six arrangements
    # of (2, 1, 0) once, and (1, 1, 1) twice
    assert contents == Counter({c: 1 for c in set(permutations((2, 1, 0)))} | {(1, 1, 1): 2})
    t = SemistandardTableau(SkewShape((3, 1), (1,)), ((1, 3), (2,)))
    assert t.content(3) == (1, 1, 1)
    assert t.content(4) == (1, 1, 1, 0)
    assert SemistandardTableau(SkewShape((), ()), ()).content(2) == (0, 0)


def test_ssyt_column_strictness():
    for t in enumerate_ssyt(SkewShape((2, 2), ()), 3):
        rows = t.rows
        assert all(rows[0][c] < rows[1][c] for c in range(2))


def test_weyl_dimension_examples():
    assert weyl_dimension((1, 0)) == 2
    for k in range(7):
        assert weyl_dimension((k, 0)) == k + 1
    assert weyl_dimension((2, 1, 0)) == 8


@given(partition_strategy(max_weight=6, max_parts=4), st.integers(1, 5))
def test_weyl_dimension_counts_tableaux(p, n):
    if len(p) > n:
        return
    assert weyl_dimension(pad(p, n)) == count_ssyt(SkewShape(p, ()), n)


@given(weight_strategy(rank_max=4, entry=4), st.integers(-3, 3))
def test_weyl_dimension_det_twist(w, c):
    assert weyl_dimension(w) == weyl_dimension(tuple(x + c for x in w))


def test_partitions_of_counts():
    assert sum(1 for _ in partitions_of(6)) == 11
    assert list(partitions_of(3)) == [(3,), (2, 1), (1, 1, 1)]
    assert list(partitions_of(4, max_parts=2)) == [(4,), (3, 1), (2, 2)]


def test_partitions_up_to_is_ordered_by_weight():
    seq = list(partitions_up_to(4))
    weights = [sum(p) for p in seq]
    assert weights == sorted(weights)
    assert len(seq) == len(set(seq)) == 1 + 1 + 2 + 3 + 5


def test_subdiagrams():
    subs = list(subdiagrams((2, 1)))
    assert set(subs) == {(), (1,), (2,), (1, 1), (2, 1)}
    assert all(contains((2, 1), mu) for mu in subs)


def test_dominant_weights_enumeration():
    ws = list(dominant_weights(2, -1, 1))
    assert len(ws) == 6
    assert all(a >= b for a, b in ws)
    assert len(set(ws)) == len(ws)


def _decreasing_filter(ranges):
    """The weakly decreasing tuples of a product of ranges, in product order."""
    return [t for t in product(*ranges) if all(a >= b for a, b in zip(t, t[1:]))]


@pytest.mark.parametrize("rank", range(5))
@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 2), (-1, 1), (-2, 1), (1, 3), (2, 1), (0, -1)])
def test_dominant_weights_is_the_ordered_product_filter(rank, lo, hi):
    expected = _decreasing_filter([range(hi, lo - 1, -1)] * rank)
    assert list(dominant_weights(rank, lo, hi)) == expected


def test_subdiagrams_is_the_ordered_product_filter():
    for lam in partitions_up_to(7):
        expected = [
            partition(t) for t in _decreasing_filter([range(c, -1, -1) for c in lam])
        ]
        assert list(subdiagrams(lam)) == expected, lam


def test_arrangement_count_counts_distinct_rearrangements():
    """The orbit sizes up to weight 5 in 0 to 6 slots, against the distinct
    permutations of the padded tuple; 0 where alpha has more parts than
    slots, the documented result that evaluate_ones never asks for."""
    for alpha in partitions_up_to(5):
        for slots in range(7):
            want = len(set(permutations(pad(alpha, slots)))) if len(alpha) <= slots else 0
            assert arrangement_count(alpha, slots) == want, (alpha, slots)
    assert arrangement_count((1, 1, 1), 2) == 0 and arrangement_count((), 0) == 1


@pytest.mark.parametrize("call,match", [(lambda: weight(()), "needs rank >= 1")])
def test_partitions_reject_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
