"""Exact linear algebra over the rationals.

Everything downstream (constraint solving, cochain differentials, homotopy
identities) reduces to rank / kernel / coordinate computations over QQ.
Matrices are stored sparsely because the cochain complexes of larger fixtures
are block sparse. Vectors are sparse {index: value} dicts. rat and _echelon
give an int for an integral value and a Fraction otherwise, so a whole-number
model runs in int arithmetic throughout. A subspace is its canonical basis:
the reduced row echelon rows as sparse vectors, with their pivot columns.
``_echelon`` is the one elimination behind rank, kernel, span and inverse; it
runs on integers and divides only its result, so it is exact with no modulus
and no fallback. A matrix keeps its kernel and column space, so each
differential is eliminated at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


def rat(value):
    """An int, a Fraction or a "p/q" or "p" string as an int when integral,
    else as a Fraction; a bool is refused (a JSON true is no number)."""
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational literal {value!r}") from exc
    elif type(value) not in (int, Fraction):
        raise ValueError(f"cannot interpret {value!r} as a rational")
    return value.numerator if value.denominator == 1 else value


def _check_exact(values, what: str) -> None:
    """Raise TypeError if any of the values is not an int or a Fraction."""
    inexact = set(map(type, values)) - {int, Fraction}
    if inexact:
        raise TypeError(f"inexact {what} of type {inexact.pop().__name__}")


def _rationals(value, depth: int, what: str) -> list:
    """JSON arrays nested depth deep, read entry by entry with rat; a string
    or an object where an array belongs is refused, not read item by item."""
    if not isinstance(value, list):
        raise ValueError(f"{what}: expected a JSON array, got {value!r}")
    if depth == 1:
        return [rat(v) for v in value]
    return [_rationals(v, depth - 1, what) for v in value]


class QMatrix:
    """A rows x cols matrix of ints and Fractions, as {(i, j): nonzero value}.

    A matrix is never changed after construction, so its row and column
    indices, its kernel and its column space are built on first use and kept.
    """

    __slots__ = ("rows", "cols", "data", "_by_row", "_by_col", "_kernel",
                 "_column_space")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        self._by_row = self._by_col = self._kernel = self._column_space = None
        self.data = {}
        if data:
            for (i, j), v in data.items():
                if v:
                    if not (0 <= i < rows and 0 <= j < cols):
                        raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                    self.data[(i, j)] = v
            _check_exact(self.data.values(), "matrix entry")

    @classmethod
    def from_rows(cls, entries) -> "QMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        data = {}
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ValueError("ragged rows")
            data.update(((i, j), rat(v)) for j, v in enumerate(row))
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

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

    @property
    def column_space(self) -> "Subspace":
        """The span of the columns; shared, so read only."""
        if self._column_space is None:
            self._column_space = Subspace.from_vectors(
                self.rows, list(self.by_col.values()))
        return self._column_space

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
        _axpy(data, 1, other.data)
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


def _echelon(rows, columns):
    """Reduced row echelon form of sparse {col: value} rows (left unchanged).

    Scans the columns in the order given; a column is a pivot when a row not
    yet used as a pivot meets it. Returns (reduced_rows_without_zero_rows,
    pivot_columns) in the order the pivots were found, a form fixed by the
    span and the column order alone.

    Exact on integers (fraction-free, Bareiss, Math. Comp. 22, 1968): rows are
    scaled to integers once, a step sets row := (p/g)*row - (a/g)*pivot_row
    with g = gcd(a, p) and divides out the row's content, and only the pivot
    rows are divided by their pivot (an int where it divides). A column ->
    rows index limits a step to the rows meeting its column; the shortest is
    the pivot (Markowitz, 1957).
    """
    live = {}
    index = {}
    for rid, row in enumerate(rows):
        scale = lcm(*(v.denominator for v in row.values()))
        ints = {k: v.numerator * (scale // v.denominator)
                for k, v in row.items() if v}
        if ints:
            live[rid] = ints
            for k in ints:
                index.setdefault(k, set()).add(rid)
    unused = set(live)
    found = []
    for c in columns:
        meet = index.get(c, ())
        candidates = [rid for rid in meet if rid in unused]
        if not candidates:
            continue
        pid = min(candidates, key=lambda rid: len(live[rid]))
        unused.discard(pid)
        prow = live[pid]
        p = prow[c]
        for rid in [rid for rid in meet if rid != pid]:
            row = live[rid]
            g = gcd(row[c], p)
            s, t = p // g, row[c] // g
            if s != 1:
                for k in row:
                    row[k] *= s
            for k, v in prow.items():
                w = row.get(k, 0) - t * v
                if w:
                    if k not in row:
                        index.setdefault(k, set()).add(rid)
                    row[k] = w
                else:
                    del row[k]
                    index[k].discard(rid)
            if row:
                content = gcd(*row.values())
                if content != 1:
                    for k in row:
                        row[k] //= content
            else:
                del live[rid]
                unused.discard(rid)
        found.append((c, prow))
        if not unused:
            break
    return ([{k: v // p if v % p == 0 else Fraction(v, p)
              for p in (row[c],) for k, v in row.items()}
             for c, row in found], [c for c, _ in found])


def rank(m: QMatrix) -> int:
    """cols - nullity, read from the kernel the matrix keeps, so a matrix
    asked for its rank again, or for its kernel, is not eliminated again."""
    return m.cols - kernel_basis(m).dim


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
                row[j] = rat(v)
            rows.append(row)
        reduced, pivots = _echelon(rows, range(ambient_dim))
        return cls(ambient_dim, tuple(reduced), tuple(pivots))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple({j: 1} for j in range(ambient_dim)),
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
    """The kernel of m from one elimination, right to left, kept on m.

    Each pivot row is then 1 at its pivot c and 0 right of it except at free
    columns j < c. So the kernel vector read off at free column j is 1 at j,
    0 at every other free column and nonzero only at pivots right of j: it is
    already the row with pivot j of the kernel's reduced row echelon basis.
    """
    if m._kernel is None:
        reduced, pivots = _echelon(m.by_row.values(),
                                   range(m.cols - 1, -1, -1))
        pivot_set = set(pivots)
        kernel = {j: {j: 1} for j in range(m.cols) if j not in pivot_set}
        for row, c in zip(reduced, pivots):
            for j, v in row.items():
                if j != c:
                    kernel[j][c] = -v
        m._kernel = Subspace(m.cols, tuple(kernel.values()), tuple(kernel))
    return m._kernel


def invert(m: QMatrix):
    """Inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    rows = [{**m.by_row.get(i, {}), n + i: 1} for i in range(n)]
    reduced, pivots = _echelon(rows, range(2 * n))
    if pivots[:n] != list(range(n)):
        return None
    data = {}
    for i, row in enumerate(reduced):
        for j, v in row.items():
            if j >= n:
                data[(i, j - n)] = v
    return QMatrix(n, n, data)
