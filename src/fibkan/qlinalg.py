"""Exact linear algebra over the rationals.

Everything downstream (constraint solving, cochain differentials, homotopy
identities) reduces to rank / kernel / coordinate computations over QQ.
A matrix is its nonzero rows {i: {j: value}}, stored once: products, sums
and dg's slot maps hand over finished rows. Vectors are sparse {index:
value} dicts. rat and _echelon give an int for an integral value and a
Fraction otherwise, so a whole-number model runs in int arithmetic. A
subspace is its canonical basis, the reduced row echelon rows as sparse
vectors with their pivot columns. ``_echelon``, the one elimination behind
rank, kernel, span and inverse, runs on integers (an int row enters as it
is): a forward pass over the rows not yet pivots, where a pivot of 1 or -1
clears its column inline with no scaling, one back-substitution over the
pivot rows, a row's content divided out only after a step that scaled it
and only the result divided, so it is exact with no modulus or fallback.
Which of the sparsest rows a column takes as pivot does not change the
result.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


def rat(value):
    """An int, a Fraction or a "p/q" or "p" string as an int when integral,
    else as a Fraction; a bool is refused (a JSON true is no number).

    A string is read by int first and by Fraction only where int refuses it,
    which gives the same value: Fraction reads every string int reads."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
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
    """A rows x cols matrix of ints and Fractions as its nonzero rows: by_row,
    {i: {j: value}}, has no zero entry and no empty row, so equal matrices
    have equal rows, and data, {(i, j): value}, is a view built on each read.
    Never changed, it keeps its column index, kernel, column space and
    inverse (False when singular)."""

    __slots__ = ("rows", "cols", "by_row", "_by_col", "_kernel",
                 "_column_space", "_inverse")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows, self.cols = rows, cols
        self._by_col = self._kernel = self._column_space = self._inverse = None
        self.by_row = by_row = {}
        for (i, j), v in (data or {}).items():
            if v:
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                by_row.setdefault(i, {})[j] = v
        _check_exact((v for r in by_row.values() for v in r.values()), "matrix entry")

    @classmethod
    def _of_rows(cls, rows: int, cols: int, by_row: dict) -> "QMatrix":
        """The matrix of by_row, fresh rows of exact nonzero entries in range."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.by_row = rows, cols, by_row
        m._by_col = m._kernel = m._column_space = m._inverse = None
        return m

    @classmethod
    def from_rows(cls, entries) -> "QMatrix":
        """The matrix of a JSON array of rows, each entry read with rat."""
        entries = _rationals(entries, 2, "matrix")
        cols = len(entries[0]) if entries else 0
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows")
        return cls(len(entries), cols, {
            (i, j): v for i, row in enumerate(entries)
            for j, v in enumerate(row)})

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls._of_rows(n, n, {i: {i: 1} for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls._of_rows(rows, cols, {})

    @property
    def data(self) -> dict:
        """{(i, j): value} over the nonzero entries, built on each read."""
        return {(i, j): v for i, r in self.by_row.items() for j, v in r.items()}

    @property
    def by_col(self) -> dict:
        """{j: {i: value}} over the nonzero columns; shared, so read only."""
        if self._by_col is None:
            self._by_col = {}
            for i, row in self.by_row.items():
                for j, v in row.items():
                    self._by_col.setdefault(j, {})[i] = v
        return self._by_col

    @property
    def column_space(self) -> "Subspace":
        """The span of the columns; shared, so read only."""
        if self._column_space is None:
            self._column_space = Subspace.from_vectors(
                self.rows, list(self.by_col.values()))
        return self._column_space

    def is_zero(self) -> bool:
        return not self.by_row

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.by_row == other.by_row

    def __hash__(self):
        raise TypeError("QMatrix is not hashable")

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return self._plus(1, other)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self._plus(-1, other)

    def _plus(self, c, other: "QMatrix") -> "QMatrix":
        """self + c * other, in one pass over other's rows."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        by_row = {i: dict(row) for i, row in self.by_row.items()}
        for i, row in other.by_row.items():
            _axpy(by_row.setdefault(i, {}), c, row)
        return QMatrix._of_rows(self.rows, self.cols, {
            i: r for i, r in by_row.items() if r})

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
            if out:
                acc[i] = out
        return QMatrix._of_rows(self.rows, other.cols, acc)

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


def _step(row, prow, c, index=None, rid=None) -> None:
    """row := (p/g)*row - (a/g)*prow, 0 at c, for p = prow[c], a = row[c] and
    g = gcd(a, p) signed as p; keeps a given column -> rows index of row rid."""
    p, a = prow[c], row[c]
    g = gcd(a, p) if p > 0 else -gcd(a, p)
    s, t = p // g, a // g
    if s != 1:
        for k in row:
            row[k] *= s
    for k, v in prow.items():
        w = row.get(k, 0) - t * v
        if w:
            if index is not None and k not in row:
                index[k].add(rid)
            row[k] = w
        else:
            del row[k]
            if index is not None:
                index[k].discard(rid)
    if s != 1 and (content := gcd(*row.values())) > 1:
        for k in row:
            row[k] //= content


def _echelon(rows, columns):
    """Reduced row echelon form of sparse {col: value} rows (left unchanged).

    Scans the columns in the order given; a column is a pivot when a row not
    yet used as a pivot meets it. Returns (reduced_rows_without_zero_rows,
    pivot_columns) in the order the pivots were found, a form fixed by the
    span and the column order alone.

    Exact on integers (fraction-free, Bareiss, Math. Comp. 22, 1968): rows are
    scaled to integers once and reduced in two passes. The forward pass
    takes at each column the shortest live row meeting it (Markowitz, 1957;
    among rows of one length the first by position, though any gives the
    same result), drops it from the live rows and the column -> rows index,
    and clears the column from the live rows that meet it: inline, with no
    scaling, when the pivot is 1 or -1 (row - a*p*pivot_row, the row _step
    gives there), else by _step. The back pass takes the pivot rows last
    first and clears from each the later pivot columns it meets with their
    rows, already reduced, in the same two ways. A step whose pivot divides
    the entry multiplies nothing; only a step that scaled the row divides
    out its content. Last, each row is divided by its pivot (an int where it
    divides); a row whose pivot is 1 is returned as it is.
    """
    live = {}
    index = defaultdict(set)
    for rid, row in enumerate(rows):
        ints = {k: v for k, v in row.items() if v}
        if any(type(v) is not int for v in ints.values()):
            scale = lcm(*(v.denominator for v in ints.values()))
            ints = {k: v.numerator * (scale // v.denominator) for k, v in ints.items()}
        if ints:
            live[rid] = ints
            for k in ints:
                index[k].add(rid)
    found = []
    for c in columns:
        meet = index.get(c)
        if not meet:
            continue
        pid = min((len(live[rid]), rid) for rid in meet)[1]
        prow = live.pop(pid)
        for k in prow:
            index[k].discard(pid)
        index[c] = set()  # detach meet: the steps clear c from its rows
        p = prow[c]
        if p == 1 or p == -1:
            # _step with g = p, s = 1 and t = a*p, entry by entry
            rest = [(k, v, index[k]) for k, v in prow.items() if k != c]
            for rid in meet:
                row = live[rid]
                t = row.pop(c) * p
                for k, v, rids in rest:
                    w = row.get(k)
                    if w is None:
                        row[k] = -t * v
                        rids.add(rid)
                    elif w := w - t * v:
                        row[k] = w
                    else:
                        del row[k]
                        rids.discard(rid)
                if not row:
                    del live[rid]
        else:
            for rid in meet:
                _step(live[rid], prow, c, index, rid)
                if not live[rid]:
                    del live[rid]
        found.append((c, prow))
        if not live:
            break
    pivot_rows = dict(found)
    for c, row in reversed(found):
        for k in [k for k in row if k != c and k in pivot_rows]:
            if (p := pivot_rows[k][k]) == 1 or p == -1:  # _step's row there
                _axpy(row, -row[k] * p, pivot_rows[k])
            else:
                _step(row, pivot_rows[k], k)
    return ([row if row[c] == 1 else
             {k: _quotient(v, row[c]) for k, v in row.items()}
             for c, row in found], [c for c, _ in found])


def _quotient(n: int, d: int):
    """n / d for ints n and d, an int where d divides n, else a Fraction."""
    return n // d if n % d == 0 else Fraction(n, d)


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
    """Inverse of a square matrix, or None if singular; kept on m."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    if m._inverse is None:
        n = m.rows
        rows = [{**m.by_row.get(i, {}), n + i: 1} for i in range(n)]
        reduced, pivots = _echelon(rows, range(2 * n))
        m._inverse = pivots[:n] == list(range(n)) and QMatrix._of_rows(
            n, n, {i: {j - n: v for j, v in row.items() if j >= n}
                   for i, row in enumerate(reduced)})
    return m._inverse or None
