"""Exact linear algebra over the rationals.

Everything downstream (constraint solving, cochain differentials, homotopy
identities) reduces to rank / kernel / coordinate computations over QQ.
Matrices are stored sparsely because the cochain complexes of larger fixtures
are block sparse, but the interface is that of an ordinary dense matrix.
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

    def get(self, i: int, j: int) -> Fraction:
        return self.data.get((i, j), ZERO)

    def to_rows(self):
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.data.items():
            out[i][j] = v
        return out

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

    def transpose(self) -> "QMatrix":
        return QMatrix(self.cols, self.rows,
                       {(j, i): v for (i, j), v in self.data.items()})

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

    def scale(self, c: Fraction) -> "QMatrix":
        c = rat(c)
        if not c:
            return QMatrix(self.rows, self.cols)
        return QMatrix(self.rows, self.cols,
                       {k: c * v for k, v in self.data.items()})

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


def _echelon(rows, cols):
    """In-place reduced row echelon on a list of {col: value} rows.

    Returns (reduced_rows_without_zero_rows, pivot_columns). Deterministic:
    scans columns left to right, picks the first available pivot row.
    """
    pivots = []
    r = 0
    order = list(range(len(rows)))
    for c in range(cols):
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
    _, pivots = _echelon(_dict_rows(m), m.cols)
    return len(pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of QQ^ambient_dim with a canonical (RREF) basis."""

    ambient_dim: int
    basis: tuple

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        rows = []
        for vec in vectors:
            if len(vec) != ambient_dim:
                raise ValueError("ambient dimension mismatch")
            rows.append({j: rat(v) for j, v in enumerate(vec) if v})
        reduced, _ = _echelon(rows, ambient_dim)
        basis = tuple(
            tuple(row.get(j, ZERO) for j in range(ambient_dim)) for row in reduced
        )
        return cls(ambient_dim, basis)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(
            ambient_dim,
            [[ONE if i == j else ZERO for j in range(ambient_dim)]
             for i in range(ambient_dim)],
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, vec):
        """Coordinates of vec in the basis, or None if vec is not in the span."""
        if len(vec) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        residue = {j: rat(v) for j, v in enumerate(vec) if v}
        coords = []
        for row in self.basis:
            pivot = next(j for j, v in enumerate(row) if v)
            c = residue.get(pivot, ZERO)
            coords.append(c)
            if c:
                for j, v in enumerate(row):
                    if v:
                        w = residue.get(j, ZERO) - c * v
                        if w:
                            residue[j] = w
                        else:
                            residue.pop(j, None)
        if residue:
            return None
        return tuple(coords)


def row_space(m: QMatrix) -> Subspace:
    return Subspace.from_vectors(m.cols, m.to_rows())


def kernel_basis(m: QMatrix) -> Subspace:
    reduced, pivots = _echelon(_dict_rows(m), m.cols)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    vectors = []
    for j in free:
        vec = [ZERO] * m.cols
        vec[j] = ONE
        for i, c in enumerate(pivots):
            v = reduced[i].get(j)
            if v:
                vec[c] = -v
        vectors.append(vec)
    return Subspace.from_vectors(m.cols, vectors)


def invert(m: QMatrix):
    """Inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    rows = _dict_rows(m)
    for i in range(n):
        rows[i][n + i] = ONE
    reduced, pivots = _echelon(rows, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    data = {}
    for i, row in enumerate(reduced):
        for j, v in row.items():
            if j >= n:
                data[(i, j - n)] = v
    return QMatrix(n, n, data)
