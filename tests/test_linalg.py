"""Exact linear algebra: the sparse rank against dense Bareiss elimination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubalg.linalg import _eliminate, _integer_rows, det, rank


def dense_rank(mat):
    return _eliminate(_integer_rows(mat)[0])[0]


def as_dicts(mat):
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


entries = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.just(0),
)


@st.composite
def matrices(draw):
    """Tall, wide and square shapes, often with zero rows and columns."""
    n_rows = draw(st.integers(0, 9))
    n_cols = draw(st.integers(1, 9))
    row = st.lists(entries, min_size=n_cols, max_size=n_cols)
    mat = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    for i in draw(st.sets(st.integers(0, 8), max_size=2)):
        if i < n_rows:
            mat[i] = [0] * n_cols
    for j in draw(st.sets(st.integers(0, n_cols - 1), max_size=2)):
        for row in mat:
            row[j] = 0
    return mat


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_sparse_rank_matches_dense_bareiss(mat):
    expected = dense_rank(mat)
    assert rank(mat) == expected
    assert rank(as_dicts(mat)) == expected


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_appended_combination_adds_no_rank(mat):
    if mat:
        combo = [
            sum((k + 1) * Fraction(row[j]) for k, row in enumerate(mat))
            for j in range(len(mat[0]))
        ]
        assert rank(mat + [combo]) == rank(as_dicts([combo] + mat)) == dense_rank(mat)


def test_rank_edge_cases():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([{}, {"x": 0}]) == 0
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
    # column labels need not be integers
    assert rank([{"a": 1, "b": -1}, {"b": 1, "c": -1}, {"a": 1, "c": -1}]) == 2


def test_det_stays_bareiss():
    assert det([[2, 1], [1, 1]]) == 1
    assert det([[Fraction(1, 2), 0], [0, 4]]) == 2
    assert det([[1, 2], [2, 4]]) == 0
    assert det([]) == 1
    with pytest.raises(ValueError):
        det([[1, 2]])
