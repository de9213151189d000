"""Exact linear algebra over the rationals.

Everything downstream (constraint solving, cochain differentials, homotopy
identities) reduces to rank / kernel / coordinate computations over QQ.
Matrices are stored sparsely because the cochain complexes of larger fixtures
are block sparse. Vectors are sparse {index: value} dicts; only
``QMatrix.apply`` takes and returns dense tuples. A subspace is its canonical
basis: the reduced row echelon rows as sparse vectors, with their pivot
columns. ``_echelon`` is the one elimination behind rank, kernel, span and
inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Parse a rational from "p/q" or "p" strings (also accepts int/Fraction)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational literal {value!r}") from exc
    raise ValueError(f"cannot interpret {value!r} as a rational")


class QMatrix:
    """A rows x cols matrix of Fractions, stored as {(i, j): nonzero value}.

    A matrix is never changed after construction, so its row and column
    indices are built on first use and kept.
    """

    __slots__ = ("rows", "cols", "data", "_by_row", "_by_col")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        self._by_row = self._by_col = None
        self.data = {}
        if data:
            for (i, j), v in data.items():
                if v:
                    if not (0 <= i < rows and 0 <= j < cols):
                        raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                    self.data[(i, j)] = v

    @classmethod
    def from_rows(cls, entries) -> "QMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        data = {}
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                v = rat(v)
                if v:
                    data[(i, j)] = v
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols)

    @property
    def by_row(self) -> dict:
        """{i: {j: value}} over the nonzero rows; shared, so read only."""
        if self._by_row is None:
            self._by_row = {}
            for (i, j), v in self.data.items():
                self._by_row.setdefault(i, {})[j] = v
        return self._by_row

    @property
    def by_col(self) -> dict:
        """{j: {i: value}} over the nonzero columns; shared, so read only."""
        if self._by_col is None:
            self._by_col = {}
            for (i, j), v in self.data.items():
                self._by_col.setdefault(j, {})[i] = v
        return self._by_col

    def column(self, j: int) -> dict:
        return dict(self.by_col.get(j, ()))

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __hash__(self):
        raise TypeError("QMatrix is not hashable")

    def __neg__(self) -> "QMatrix":
        return QMatrix(self.rows, self.cols,
                       {k: -v for k, v in self.data.items()})

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        data = dict(self.data)
        _axpy(data, ONE, other.data)
        return QMatrix(self.rows, self.cols, data)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + (-other)

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        by_row = other.by_row
        acc = {}
        for i, row in self.by_row.items():
            out = {}
            for k, v in row.items():
                if k in by_row:
                    _axpy(out, v, by_row[k])
            acc.update(((i, j), w) for j, w in out.items())
        return QMatrix(self.rows, other.cols, acc)

    def apply(self, vec) -> tuple:
        """Matrix-vector product on a dense coordinate tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = self.apply_sparse(dict(enumerate(vec)))
        return tuple(out.get(i, ZERO) for i in range(self.rows))

    def apply_sparse(self, vec: dict) -> dict:
        """Matrix-vector product on a sparse {index: value} vector."""
        out = {}
        by_col = self.by_col
        for j, c in vec.items():
            if j in by_col and c:
                _axpy(out, c, by_col[j])
        return out

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols}, nnz={len(self.data)})"


def _axpy(out: dict, c, vec: dict) -> None:
    """out += c * vec on sparse vectors, dropping the entries that cancel."""
    one = c == 1
    for k, v in vec.items():
        if not one:
            v = c * v
        w = out.get(k)
        if w is not None:
            v = w + v
        if v:
            out[k] = v
        else:
            out.pop(k, None)


def _dict_rows(m: QMatrix):
    by_row = m.by_row
    return [dict(by_row.get(i, ())) for i in range(m.rows)]


def _echelon(rows, columns):
    """In-place reduced row echelon on a list of {col: value} rows.

    Scans the columns in the order given and picks the first available pivot
    row for each. Returns (reduced_rows_without_zero_rows, pivot_columns),
    both in the order the pivots were found.
    """
    pivots = []
    r = 0
    order = list(range(len(rows)))
    for c in columns:
        pivot = None
        for idx in range(r, len(order)):
            if rows[order[idx]].get(c):
                pivot = idx
                break
        if pivot is None:
            continue
        order[r], order[pivot] = order[pivot], order[r]
        prow = rows[order[r]]
        pv = prow[c]
        if pv != ONE:
            for k in list(prow):
                prow[k] /= pv
        for idx in range(len(order)):
            if idx == r:
                continue
            row = rows[order[idx]]
            factor = row.get(c)
            if factor:
                _axpy(row, -factor, prow)
        pivots.append(c)
        r += 1
        if r == len(order):
            break
    return [rows[order[i]] for i in range(r)], pivots


def rank(m: QMatrix) -> int:
    _, pivots = _echelon(_dict_rows(m), range(m.cols))
    return len(pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of QQ^ambient_dim held as its canonical basis.

    rows is the reduced row echelon basis as sparse {col: value} rows and
    pivots their pivot columns, ascending: each row is 0 left of its pivot,
    1 at it and 0 at the other pivots. That basis is unique, so == compares
    spaces. The rows are shared, so read only.
    """

    ambient_dim: int
    rows: tuple
    pivots: tuple

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        """The span of sparse {col: value} vectors."""
        rows = []
        for vec in vectors:
            row = {}
            for j, v in vec.items():
                if not 0 <= j < ambient_dim:
                    raise ValueError(f"column {j} outside 0..{ambient_dim - 1}")
                if v:
                    row[j] = rat(v)
            rows.append(row)
        reduced, pivots = _echelon(rows, range(ambient_dim))
        return cls(ambient_dim, tuple(reduced), tuple(pivots))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple({j: ONE} for j in range(ambient_dim)),
                   tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def coords(self, vec: dict):
        """Coordinates {i: value} of the sparse vector vec in the basis, or
        None if vec is not in the span."""
        residue = {j: v for j, v in vec.items() if v}
        coords = {}
        for i, (row, pivot) in enumerate(zip(self.rows, self.pivots)):
            c = residue.get(pivot)
            if c:
                coords[i] = c
                _axpy(residue, -c, row)
        if residue:
            return None
        return coords


def kernel_basis(m: QMatrix) -> Subspace:
    """The kernel of m from one elimination, right to left.

    Each pivot row is then 1 at its pivot c and 0 right of it except at free
    columns j < c. So the kernel vector read off at free column j is 1 at j,
    0 at every other free column and nonzero only at pivots right of j: it is
    already the row with pivot j of the kernel's reduced row echelon basis.
    """
    reduced, pivots = _echelon(_dict_rows(m), range(m.cols - 1, -1, -1))
    pivot_set = set(pivots)
    kernel = {j: {j: ONE} for j in range(m.cols) if j not in pivot_set}
    for row, c in zip(reduced, pivots):
        for j, v in row.items():
            if j != c:
                kernel[j][c] = -v
    return Subspace(m.cols, tuple(kernel.values()), tuple(kernel))


def invert(m: QMatrix):
    """Inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    rows = _dict_rows(m)
    for i in range(n):
        rows[i][n + i] = ONE
    reduced, pivots = _echelon(rows, range(2 * n))
    if pivots[:n] != list(range(n)):
        return None
    data = {}
    for i, row in enumerate(reduced):
        for j, v in row.items():
            if j >= n:
                data[(i, j - n)] = v
    return QMatrix(n, n, data)
