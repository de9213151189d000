from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibkan.qlinalg import (
    QMatrix,
    Subspace,
    kernel_basis,
    rank,
    rat,
    row_space,
)


def F(x):
    return Fraction(x)


def test_rat_roundtrip():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == Fraction(-2)
    for x in (Fraction(3, 4), Fraction(-2)):
        assert rat(str(x)) == x
    with pytest.raises(ValueError):
        rat("1/0")
    with pytest.raises(ValueError):
        rat("x")


def test_rank_trivial_cases():
    assert rank(QMatrix.identity(2)) == 2
    assert rank(QMatrix.zero(2, 2)) == 0


def test_rank_dependent_rows():
    # hand elimination: second row is twice the first
    m = QMatrix.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_trivial():
    assert kernel_basis(QMatrix.identity(3)).dim == 0
    full = kernel_basis(QMatrix.zero(3, 3))
    assert full.dim == 3


def test_kernel_substitution_oracle():
    # x - y = 0 has solution line spanned by (1, 1)
    ker = kernel_basis(QMatrix.from_rows([[1, -1]]))
    assert ker.basis == ((F(1), F(1)),)


def test_subspace_coords():
    s = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 1]])
    assert s.coords((F(2), F(3), F(5))) == (F(2), F(3))
    assert s.coords((F(0), F(0), F(1))) is None


def test_matrix_algebra():
    a = QMatrix.from_rows([[1, 2], [3, 4]])
    b = QMatrix.from_rows([[0, 1], [1, 0]])
    assert (a * b).to_rows() == QMatrix.from_rows([[2, 1], [4, 3]]).to_rows()
    assert (a + (-a)).is_zero()
    assert a.apply((F(1), F(1))) == (F(3), F(7))
    assert a.transpose().get(0, 1) == F(3)


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    entries = draw(
        st.lists(
            st.lists(small_rationals, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return QMatrix.from_rows(entries)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    ker = kernel_basis(m)
    for vec in ker.basis:
        assert all(v == 0 for v in m.apply(vec))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_echelon_canonical(m):
    # same input twice gives identical bases
    assert row_space(m) == row_space(m)


@st.composite
def sparse_matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    cells = st.tuples(st.integers(0, max(rows - 1, 0)),
                      st.integers(0, max(cols - 1, 0)))
    data = draw(st.dictionaries(cells, small_rationals, max_size=8)) \
        if rows and cols else {}
    return QMatrix(rows, cols, data)


def dense_product(a_rows, b_rows, cols):
    return [[sum((x * b_rows[k][j] for k, x in enumerate(row)), F(0))
             for j in range(cols)] for row in a_rows]


def assert_indices_match(m):
    """Column, row and product views agree with the dense entries."""
    dense = m.to_rows()
    for j in range(m.cols):
        assert m.column(j) == {i: dense[i][j] for i in range(m.rows)
                               if dense[i][j]}
    for i in range(m.rows):
        assert m.by_row.get(i, {}) == {j: v for j, v in enumerate(dense[i])
                                       if v}
    for j in range(m.cols):
        # a sparse and a dense unit vector pick out column j
        unit = tuple(F(1) if k == j else F(0) for k in range(m.cols))
        assert m.apply(unit) == tuple(row[j] for row in dense)
        assert m.apply_sparse({j: F(1)}) == m.column(j)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cached_indices_agree_with_dense_products(data):
    a = data.draw(sparse_matrices())
    b = data.draw(sparse_matrices(rows=a.cols))
    vec = data.draw(st.lists(small_rationals, min_size=a.cols,
                             max_size=a.cols))
    assert_indices_match(a)
    want = dense_product(a.to_rows(), [[v] for v in vec], 1)
    assert a.apply(tuple(vec)) == tuple(row[0] for row in want)
    assert a.apply_sparse(dict(enumerate(vec))) == {
        i: row[0] for i, row in enumerate(want) if row[0]}
    # twice: the second product reads the indices that the first cached
    for _ in range(2):
        assert (a * b).to_rows() == dense_product(a.to_rows(), b.to_rows(),
                                                  b.cols)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derived_matrices_index_their_own_entries(data):
    a = data.draw(sparse_matrices())
    b = data.draw(sparse_matrices(rows=a.rows, cols=a.cols))
    c = data.draw(small_rationals)
    assert_indices_match(a)  # builds and caches the indices of a first
    for derived in (a.transpose(), a + b, a.scale(c), a - b, -a):
        assert_indices_match(derived)
    assert a.transpose().to_rows() == [[row[j] for row in a.to_rows()]
                                       for j in range(a.cols)]


def test_column_is_a_copy():
    m = QMatrix.from_rows([[1, 0], [2, 3]])
    col = m.column(0)
    col[0] = F(7)
    col[5] = F(1)
    m.column(1).clear()
    assert m.column(0) == {0: F(1), 1: F(2)}
    assert m.column(1) == {1: F(3)}
    assert m.apply((F(1), F(1))) == (F(1), F(5))
    assert m * QMatrix.identity(2) == m
