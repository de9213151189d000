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
    rat_str,
    row_space,
    solve,
)


def F(x):
    return Fraction(x)


def test_rat_roundtrip():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == Fraction(-2)
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(-2)) == "-2"
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


def test_solve():
    eye = QMatrix.identity(2)
    assert solve(eye, (F(5), F(7))) == (F(5), F(7))
    # free variable set to zero after reduction
    assert solve(QMatrix.from_rows([[1, 1]]), (F(2),)) == (F(2), F(0))
    assert solve(QMatrix.from_rows([[0]]), (F(1),)) is None


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


@settings(max_examples=40, deadline=None)
@given(matrices(), st.lists(small_rationals, min_size=1, max_size=5))
def test_solve_exact_when_present(m, b):
    b = (b * m.rows)[: m.rows]
    x = solve(m, b)
    if x is not None:
        assert m.apply(x) == tuple(rat(v) for v in b)
