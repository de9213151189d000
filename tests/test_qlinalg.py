from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_source import load_bench_module

from fibkan import qlinalg
from fibkan.hokan import HoKan
from fibkan.models import model_from_dict
from fibkan.qlinalg import (
    QMatrix,
    Subspace,
    invert,
    kernel_basis,
    rank,
    rat,
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
    with pytest.raises(ValueError):
        rat(True)  # a bool is an int to Python, but no JSON number
    with pytest.raises(ValueError):
        rat(0.5)


def test_integral_scalars_are_ints():
    # an integral value is an int whichever way it comes in, so whole-number
    # models run in int arithmetic; only a non-integral value is a Fraction
    for value in (3, "3", "6/2", Fraction(6, 2), "-0"):
        assert type(rat(value)) is int
    assert type(rat("3/4")) is Fraction
    m = QMatrix.from_rows([[2, 1], [4, 2]])
    assert {type(v) for v in m.data.values()} == {int}
    assert {type(v) for row in kernel_basis(m).rows for v in row.values()} \
        == {int}
    inverse = invert(QMatrix.from_rows([[2, 0], [0, 1]]))
    assert inverse.data == {(0, 0): Fraction(1, 2), (1, 1): 1}
    assert type(inverse.data[(1, 1)]) is int


def fraction_rat(text):
    """rat's reading of a string without the int fast path, Fraction alone:
    the oracle that the fast path must match."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal {text!r}") from exc
    return value.numerator if value.denominator == 1 else value


def read(reader, text):
    """(type, value) of reader(text), or the message it raises."""
    try:
        value = reader(text)
    except ValueError as exc:
        return str(exc)
    return type(value), value


# ASCII and Arabic-Indic digits, the signs and separators of both readers,
# and whitespace that int strips (space, tab, no-break space, ideographic
# space) or does not (the separators \x1c-\x1f, which Fraction strips)
LITERAL_CHARS = "0123456789\u0660\u0661\u0669_+-/.eE \t\x1c\x1d\x1e\x1f\xa0\u3000"
# literals shaped like numbers, with a lead, a tail and a trailing space
NUMBER_LIKE = st.tuples(
    st.sampled_from(["", " ", "\x1c", "\xa0", "-", "+", " -", "\x1c+"]),
    st.from_regex(r"[0-9\u0660-\u0669]{1,4}(_[0-9]{1,3})?", fullmatch=True),
    st.sampled_from(["", "/7", "/0", ".5", "e2", "e-1", "_", "\x1f"]),
    st.sampled_from(["", " ", "\x1d", "\u3000"])).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(LITERAL_CHARS, max_size=12), NUMBER_LIKE))
@example("\x1c1")
@example("\u0661\u0662")
@example("1" * 4301)
@example("-" + "9" * 4300)
@example("1" * 4301 + "/3")
def test_rat_reads_strings_as_fraction_does(text):
    assert read(rat, text) == read(fraction_rat, text)


@pytest.mark.parametrize("value", [0.5, 1.0, True, -1.5])
def test_matrix_refuses_floats_and_bools(value):
    # int / int is a float, so an inexact entry is refused where it enters
    with pytest.raises(TypeError):
        QMatrix(1, 1, {(0, 0): value})
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1, 0], [value, 1]])  # rat refuses it first
    assert QMatrix(1, 1, {(0, 0): 0.0}).is_zero()  # a zero is dropped


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
    assert full == Subspace.full(3)


def test_kernel_substitution_oracle():
    # x - y = 0 has solution line spanned by (1, 1)
    ker = kernel_basis(QMatrix.from_rows([[1, -1]]))
    assert ker.rows == ({0: F(1), 1: F(1)},)


def test_kernel_is_read_off_from_the_right():
    # x + y + z = 0: the canonical basis has its leading 1s at x and y; a
    # read-off from a left-to-right elimination gives (-1, 1, 0), (-1, 0, 1)
    ker = kernel_basis(QMatrix.from_rows([[1, 1, 1]]))
    assert ker.rows == ({0: F(1), 2: F(-1)}, {1: F(1), 2: F(-1)})
    assert ker.pivots == (0, 1)


def test_kernel_and_column_space_are_built_once():
    m = QMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    assert kernel_basis(m) is kernel_basis(m)
    assert m.column_space is m.column_space
    assert m.column_space == Subspace.from_vectors(2, [{0: F(1), 1: F(2)}])


def test_subspace_coords():
    s = Subspace.from_vectors(3, [{0: F(1), 2: F(1)}, {1: F(1), 2: F(1)}])
    assert s.coords({0: F(2), 1: F(3), 2: F(5)}) == {0: F(2), 1: F(3)}
    assert s.coords({2: F(1)}) is None


def test_from_vectors_rejects_columns_outside_the_ambient_space():
    for col in (-1, 3):
        with pytest.raises(ValueError):
            Subspace.from_vectors(3, [{0: F(1)}, {col: F(1)}])


def test_matrix_algebra():
    a = QMatrix.from_rows([[1, 2], [3, 4]])
    b = QMatrix.from_rows([[0, 1], [1, 0]])
    assert a * b == QMatrix.from_rows([[2, 1], [4, 3]])
    assert (a + (QMatrix.zero(2, 2) - a)).is_zero()
    assert a.apply_sparse({0: F(1), 1: F(1)}) == {0: F(3), 1: F(7)}


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
nonzero_rationals = small_rationals.filter(bool)


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
    # rank reads the kept kernel; a left-to-right elimination counts pivots
    _, pivots = qlinalg._echelon(m.by_row.values(), range(m.cols))
    assert rank(m) == len(pivots)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    ker = kernel_basis(m)
    for vec in ker.rows:
        assert m.apply_sparse(vec) == {}


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_rows_are_the_canonical_basis(m):
    ker = kernel_basis(m)
    assert list(ker.pivots) == sorted(set(ker.pivots))
    for row, pivot in zip(ker.rows, ker.pivots):
        assert min(row) == pivot
        assert {p: row.get(p, 0) for p in ker.pivots} == {
            p: int(p == pivot) for p in ker.pivots}
    assert Subspace.from_vectors(m.cols, ker.rows) == ker


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_echelon_canonical(data):
    # the basis depends on the span alone: scaling the spanning vectors,
    # reordering them and appending the sum of two leaves it unchanged
    m = data.draw(matrices())
    rows = [m.by_row.get(i, {}) for i in range(m.rows)]
    scales = data.draw(st.lists(nonzero_rationals, min_size=m.rows,
                                max_size=m.rows))
    i, j = data.draw(st.lists(st.integers(0, m.rows - 1), min_size=2,
                              max_size=2))
    moved = data.draw(st.permutations(
        [{k: c * v for k, v in row.items()} for row, c in zip(rows, scales)]))
    moved.append({k: rows[i].get(k, 0) + rows[j].get(k, 0)
                  for k in range(m.cols)})
    assert Subspace.from_vectors(m.cols, moved) == \
        Subspace.from_vectors(m.cols, rows)


def fraction_echelon(rows, columns):
    """The Fraction Gauss-Jordan elimination that the integer _echelon
    replaced, kept as its oracle: the first row with a nonzero entry takes
    each column, is divided by that entry and clears the column from every
    other row."""
    pivots = []
    r = 0
    order = list(range(len(rows)))
    for c in columns:
        pivot = next((idx for idx in range(r, len(order))
                      if rows[order[idx]].get(c)), None)
        if pivot is None:
            continue
        order[r], order[pivot] = order[pivot], order[r]
        prow = rows[order[r]]
        pv = prow[c]
        for k in list(prow):
            prow[k] /= pv
        for idx in range(len(order)):
            row = rows[order[idx]]
            factor = row.get(c) if idx != r else None
            if factor:
                for k, v in prow.items():
                    w = row.get(k, 0) - factor * v
                    if w:
                        row[k] = w
                    else:
                        row.pop(k, None)
        pivots.append(c)
        r += 1
        if r == len(order):
            break
    return [rows[order[i]] for i in range(r)], pivots


wide_rationals = st.one_of(
    st.just(F(0)), small_rationals,
    st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 10**12)))


@st.composite
def rational_rows(draw, cols=None):
    """Sparse rows over cols columns, some repeated, some all zero."""
    cols = draw(st.integers(0, 6)) if cols is None else cols
    rows = draw(st.lists(st.lists(wide_rationals, min_size=cols,
                                  max_size=cols), max_size=6))
    if rows:
        rows += [list(rows[i]) for i in draw(
            st.lists(st.integers(0, len(rows) - 1), max_size=2))]
    return cols, [{j: v for j, v in enumerate(row) if v} for row in rows]


@settings(max_examples=100, deadline=None)
@given(rational_rows())
def test_integer_elimination_matches_the_fraction_oracle(case):
    cols, rows = case
    for columns in (range(cols), range(cols - 1, -1, -1)):
        want = fraction_echelon([dict(row) for row in rows], columns)
        assert qlinalg._echelon([dict(row) for row in rows], columns) == want


def assert_echelon_is_the_oracles(cols, rows):
    """_echelon gives fraction_echelon's rows and pivots in both column
    orders, an int wherever a value is integral, and leaves its rows as they
    were. The oracle gets Fraction copies: on int rows its /= gives floats."""
    before = [list(row.items()) for row in rows]
    for columns in (range(cols), range(cols - 1, -1, -1)):
        want = fraction_echelon(
            [{k: Fraction(v) for k, v in row.items()} for row in rows], columns)
        got = qlinalg._echelon(rows, columns)
        assert got == want
        assert all(type(v) is int for row in got[0] for v in row.values()
                   if v.denominator == 1)
    assert [list(row.items()) for row in rows] == before
    return got


@st.composite
def cochain_rows(draw):
    """Tall, rank-deficient sparse rows, shaped like a cochain differential's:
    up to 30 rows over at most 10 columns, mostly +-1 and +-2 with some wide
    rationals, and rows repeated, negated and summed from earlier ones."""
    cols = draw(st.integers(1, 10))
    small = st.sampled_from([1, -1, 2, -2])
    entry = st.one_of(small, small, small, wide_rationals.filter(bool))
    rows = draw(st.lists(st.dictionaries(st.integers(0, cols - 1), entry,
                                         min_size=1, max_size=4),
                         min_size=1, max_size=12))
    picks = st.tuples(st.sampled_from(["repeat", "negate", "sum"]),
                      st.integers(0, len(rows) - 1),
                      st.integers(0, len(rows) - 1))
    for how, i, j in draw(st.lists(picks, max_size=18)):
        if how == "repeat":
            rows.append(dict(rows[i]))
        elif how == "negate":
            rows.append({k: -v for k, v in rows[i].items()})
        else:
            total = {k: rows[i].get(k, 0) + rows[j].get(k, 0)
                     for k in (*rows[i], *rows[j])}
            rows.append({k: v for k, v in total.items() if v})
    return cols, draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@given(cochain_rows())
def test_echelon_matches_the_oracle_on_tall_sparse_rows(case):
    assert_echelon_is_the_oracles(*case)


def assert_kernel_leaves_the_matrix_unchanged(m):
    # kernel_basis eliminates the matrix's own shared row index
    by_row = m.by_row
    data = list(m.data.items())
    rows = {i: list(row.items()) for i, row in by_row.items()}
    kernel_basis(m)
    assert list(m.data.items()) == data
    assert m.by_row is by_row
    assert {i: list(row.items()) for i, row in by_row.items()} == rows


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_basis_leaves_the_matrix_unchanged(m):
    assert_kernel_leaves_the_matrix_unchanged(m)


def test_echelon_and_kernel_on_a_cochain_differential():
    # d2 of horan(M0) on chain(2,Z3) at degree 3, a kernel that the
    # weak-equivalence check eliminates
    m = model_from_dict(load_bench_module("chainmodel").chain_dict(2, "Z3"))
    d2 = HoKan(m.fibered(), m.loc, m.A, 3).horan_object("M0").dga.complex.d(2)
    assert (d2.rows, d2.cols) == (468, 180)
    assert set(d2.data.values()) == {1, -1}
    _, pivots = assert_echelon_is_the_oracles(d2.cols,
                                              list(d2.by_row.values()))
    assert len(pivots) == 132
    assert_kernel_leaves_the_matrix_unchanged(d2)
    assert kernel_basis(d2).dim == 180 - 132


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: rational_rows(cols=n)))
def test_invert_is_an_inverse_exactly_at_full_rank(case):
    n, rows = case
    rows = (rows + [{}] * n)[:n]
    m = QMatrix(n, n, {(i, j): v for i, row in enumerate(rows)
                       for j, v in row.items()})
    inv = invert(m)
    if rank(m) < n:
        assert inv is None
    else:
        assert inv * m == QMatrix.identity(n) == m * inv


@st.composite
def sparse_matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    cells = st.tuples(st.integers(0, max(rows - 1, 0)),
                      st.integers(0, max(cols - 1, 0)))
    data = draw(st.dictionaries(cells, small_rationals, max_size=8)) \
        if rows and cols else {}
    return QMatrix(rows, cols, data)


def dense(m):
    """The entries of m as a list of dense rows, read from m.data."""
    out = [[F(0)] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.data.items():
        out[i][j] = v
    return out


def dense_product(a_rows, b_rows, cols):
    return [[sum((x * b_rows[k][j] for k, x in enumerate(row)), F(0))
             for j in range(cols)] for row in a_rows]


def assert_indices_match(m):
    """Column, row and product views agree with the dense entries."""
    rows = dense(m)
    for j in range(m.cols):
        assert m.column(j) == {i: rows[i][j] for i in range(m.rows)
                               if rows[i][j]}
    for i in range(m.rows):
        assert m.by_row.get(i, {}) == {j: v for j, v in enumerate(rows[i])
                                       if v}
    for j in range(m.cols):
        # a unit vector picks out column j
        assert m.apply_sparse({j: F(1)}) == {i: row[j] for i, row
                                             in enumerate(rows) if row[j]}
        assert m.apply_sparse({j: F(1)}) == m.column(j)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cached_indices_agree_with_dense_products(data):
    a = data.draw(sparse_matrices())
    b = data.draw(sparse_matrices(rows=a.cols))
    vec = data.draw(st.lists(small_rationals, min_size=a.cols,
                             max_size=a.cols))
    assert_indices_match(a)
    want = dense_product(dense(a), [[v] for v in vec], 1)
    # with and without the zero coordinates of vec
    for sparse in (dict(enumerate(vec)),
                   {j: v for j, v in enumerate(vec) if v}):
        assert a.apply_sparse(sparse) == {
            i: row[0] for i, row in enumerate(want) if row[0]}
    # twice: the second product reads the indices that the first cached
    for _ in range(2):
        assert dense(a * b) == dense_product(dense(a), dense(b), b.cols)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derived_matrices_index_their_own_entries(data):
    a = data.draw(sparse_matrices())
    b = data.draw(sparse_matrices(rows=a.rows, cols=a.cols))
    assert_indices_match(a)  # builds and caches the indices of a first
    for derived in (a + b, a - b, QMatrix.zero(a.rows, a.cols) - a):
        assert_indices_match(derived)


def assert_nonzero_rows(m, rows):
    """m holds the dense rows `rows` as its nonzero rows alone, the
    invariant that == relies on, and data is their nonzero entries."""
    assert all(row and all(row.values()) for row in m.by_row.values())
    assert m.by_row == {i: {j: v for j, v in enumerate(row) if v}
                        for i, row in enumerate(rows) if any(row)}
    assert m.data == {(i, j): v for i, row in enumerate(rows)
                      for j, v in enumerate(row) if v}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_results_hold_no_zero_entry_and_no_empty_row(data):
    a = data.draw(sparse_matrices())
    # b takes -a on some entries of a, so rows of a + b cancel in part or
    # in whole
    cancel = data.draw(st.sets(st.sampled_from(sorted(a.data)))
                       if a.data else st.just(set()))
    other = data.draw(sparse_matrices(rows=a.rows, cols=a.cols))
    b = QMatrix(a.rows, a.cols,
                {**other.data, **{k: -a.data[k] for k in cancel}})
    c = data.draw(sparse_matrices(rows=a.cols))
    da, db = dense(a), dense(b)
    results = [
        (a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(da, db)]),
        (a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(da, db)]),
        (QMatrix.zero(a.rows, a.cols) - a, [[-x for x in r] for r in da]),
        (a * c, dense_product(da, dense(c), c.cols)),
        (QMatrix.identity(a.rows),
         [[F(i == j) for j in range(a.rows)] for i in range(a.rows)]),
        (QMatrix.zero(a.rows, a.cols), [[F(0)] * a.cols] * a.rows),
    ]
    for m, rows in results:
        assert_nonzero_rows(m, rows)
    # == agrees with the dense comparison
    for (m1, rows1) in results[:3]:
        for (m2, rows2) in results[:3]:
            assert (m1 == m2) == (rows1 == rows2)
    zero = QMatrix.zero(a.rows, a.cols)
    assert a + (zero - a) == zero
    assert a - a == QMatrix.zero(a.rows, a.cols)
    assert (a + b == a) == (db == [[0] * a.cols] * a.rows)


def test_echelon_reads_integral_fractions_as_ints():
    # an int row enters as its nonzero entries; a Fraction row whose
    # denominators are all 1 still leaves as ints
    for row in ({0: 2, 1: 0, 2: -4}, {0: F(2), 1: F(0), 2: F(-4)}):
        reduced, pivots = qlinalg._echelon([row, {1: F(3)}], range(3))
        assert reduced == [{0: 1, 2: -2}, {1: 1}] and pivots == [0, 1]
        assert {type(v) for r in reduced for v in r.values()} == {int}


def test_column_is_a_copy():
    m = QMatrix.from_rows([[1, 0], [2, 3]])
    col = m.column(0)
    col[0] = F(7)
    col[5] = F(1)
    m.column(1).clear()
    assert m.column(0) == {0: F(1), 1: F(2)}
    assert m.column(1) == {1: F(3)}
    assert m.apply_sparse({0: F(1), 1: F(1)}) == {0: F(1), 1: F(5)}
    assert m * QMatrix.identity(2) == m
