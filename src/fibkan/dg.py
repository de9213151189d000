"""Truncated cochain complexes and dg-algebras over QQ.

A complex stores degrees 0..max_degree with labelled bases and explicit
differential matrices. Dg-algebras carry sparse product tables keyed by
basis pairs and one integer index of them for their law checks, which the
homotopy limit builds directly. A diagram of algebras has a limit (the
equalizer subalgebra, in degree 0) and a homotopy limit (the normalized
cochains of the nerve with coefficients in the diagram); weak equivalence
means isomorphism on cohomology through the requested degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import chain
from math import lcm
from operator import add, mul, sub

from .fincat import FinCategory, nerve
from .qlinalg import (QMatrix, Subspace, kernel_basis, _axpy, _check_exact,
                      _quotient)


class ComplexError(ValueError):
    pass


class Complex:
    """A cochain complex truncated to degrees 0..max_degree.

    labels[n] is the ordered basis of degree n; d[n] is the matrix of the
    differential from degree n to degree n+1.
    """

    def __init__(self, max_degree: int, labels, differentials):
        self.max_degree = max_degree
        self.labels = {n: tuple(labels.get(n, ())) for n in range(max_degree + 1)}
        self.differentials = dict(differentials)

    def dim(self, n: int) -> int:
        return len(self.labels.get(n, ()))

    @cached_property
    def blocks(self) -> dict:
        """{n: {anchor: (start, size)}} for slots (anchor, k): an anchor's
        slots (anchor, 0..size-1) sit at start..start+size-1 of degree n, in
        that order. Raises ComplexError for labels laid out otherwise."""
        out = {}
        for n, lbls in self.labels.items():
            index = out[n] = {}
            for i, (anchor, k) in enumerate(lbls):
                start, size = index.get(anchor, (i, 0))
                if k != size or start + size != i:
                    raise ComplexError(
                        f"slots of {anchor!r} in degree {n} are not contiguous")
                index[anchor] = start, size + 1
        return out

    def d(self, n: int) -> QMatrix:
        m = self.differentials.get(n)
        if m is None:
            return QMatrix.zero(self.dim(n + 1), self.dim(n))
        return m

    def violations(self):
        out = []
        for n, lbls in self.labels.items():
            if len(set(lbls)) != len(lbls):
                out.append(f"duplicate basis labels in degree {n}")
        for n in range(self.max_degree):
            dn = self.d(n)
            if (dn.rows, dn.cols) != (self.dim(n + 1), self.dim(n)):
                out.append(f"differential in degree {n} has wrong shape")
        if out:
            return out
        for n in range(self.max_degree - 1):
            if not (self.d(n + 1) * self.d(n)).is_zero():
                out.append(f"d*d is nonzero out of degree {n}")
        return out


class GradedLinearMap:
    """A degreewise linear map of complexes raising degree by `shift`.

    maps[n] is the QMatrix of shape target.dim(n + shift) x source.dim(n), or
    a function of no arguments that builds it. A composite, sum or difference
    fixes its degrees when formed, from the complexes' dimensions, and builds
    the matrix of a degree on first read, once, as an identity does: a
    check that reads degrees up to some n builds nothing above n. `maps`
    gives every degree built.
    """

    def __init__(self, source: Complex, target: Complex, shift: int, maps):
        self.source = source
        self.target = target
        self.shift = shift
        self._maps = maps

    @property
    def maps(self) -> dict:
        return {n: self.matrix(n) for n in self._maps}

    def matrix(self, n: int) -> QMatrix:
        m = self._maps.get(n)
        if m is None:
            return QMatrix.zero(self.target.dim(n + self.shift),
                                self.source.dim(n))
        if not isinstance(m, QMatrix):
            m = self._maps[n] = m()
        return m

    @classmethod
    def identity(cls, cx: Complex) -> "GradedLinearMap":
        return cls(cx, cx, 0, {n: partial(QMatrix.identity, cx.dim(n))
                               for n in range(cx.max_degree + 1)})

    @classmethod
    def zero(cls, source: Complex, target: Complex, shift: int = 0) -> "GradedLinearMap":
        return cls(source, target, shift, {})

    def after(self, other: "GradedLinearMap") -> "GradedLinearMap":
        maps = {}
        for n in range(other.source.max_degree + 1):
            mid = n + other.shift
            if (0 <= mid <= self.source.max_degree
                    and self.target.dim(mid + self.shift) * other.source.dim(n)):
                maps[n] = _built(mul, (self, mid), (other, n))
        return GradedLinearMap(other.source, self.target,
                               self.shift + other.shift, maps)

    def __add__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        return self._degreewise(add, other)

    def __sub__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        return self._degreewise(sub, other)

    def _degreewise(self, op, other: "GradedLinearMap") -> "GradedLinearMap":
        if self.shift != other.shift:
            raise ComplexError("cannot add maps of different shifts")
        degrees = set(self._maps) | set(other._maps)
        return GradedLinearMap(self.source, self.target, self.shift, {
            n: _built(op, (self, n), (other, n)) for n in degrees})

    def is_cochain_map(self, up_to: int | None = None) -> bool:
        if self.shift != 0:
            raise ComplexError("cochain map check requires shift 0")
        top = min(self.source.max_degree, self.target.max_degree) - 1
        if up_to is not None:
            top = min(top, up_to)
        for n in range(top + 1):
            if self.target.d(n) * self.matrix(n) != self.matrix(n + 1) * self.source.d(n):
                return False
        return True


def _built(op, *reads):
    """A function of no arguments that gives op of the matrices read, one
    (graded map, degree) pair each, when it is called."""
    return lambda: op(*(f.matrix(n) for f, n in reads))


def failing_degrees(lhs: GradedLinearMap, rhs: GradedLinearMap, up_to: int):
    """Degrees n <= up_to where lhs and rhs differ; empty means equal."""
    return [n for n in range(up_to + 1) if lhs.matrix(n) != rhs.matrix(n)]


def check_homotopy_identity(lhs: GradedLinearMap, rhs: GradedLinearMap,
                            homotopy: GradedLinearMap, up_to: int):
    """Degrees n <= up_to where lhs - rhs != d*H - (-1)^s H*d for a homotopy
    H of shift s between two maps of shift s + 1; empty means verified.

    No side is negated: for an even s the term H*d moves to the left, as
    lhs + H*d = d*H + rhs. The term d*H enters where n + s >= 0 and rhs only
    in the degrees it has, so a zero rhs (GradedLinearMap.zero) costs no
    matrix; where the right side has no term, the left side must be zero.
    """
    s = homotopy.shift
    if lhs.shift != s + 1 or rhs.shift != s + 1:
        raise ComplexError(f"homotopy identity expects two shift {s + 1}"
                           f" maps and a shift {s} map")
    src, tgt = lhs.source, lhs.target
    bad = []
    for n in range(up_to + 1):
        hd = homotopy.matrix(n + 1) * src.d(n)
        left, right = ((lhs.matrix(n) + hd, []) if s % 2 == 0
                       else (lhs.matrix(n), [hd]))
        if n + s >= 0:
            right.append(tgt.d(n + s) * homotopy.matrix(n))
        if n in rhs._maps:
            right.append(rhs.matrix(n))
        if not (left == reduce(add, right) if right else left.is_zero()):
            bad.append(n)
    return bad


def _sign(k: int):
    return 1 if k % 2 == 0 else -1


def _rule_map(source: Complex, target: Complex, shift: int,
              rule) -> GradedLinearMap:
    """The graded map of shift `shift` that a slot rule gives.

    Both complexes have slots (anchor, k). rule(n, anchor) yields (coef,
    anchor_in, matrix) triples for an anchor of target degree n: the slot
    (anchor, i) reads coef * matrix[i, j] times the source slot (anchor_in,
    j) of degree n - shift, and a matrix None stands for the identity on the
    block of anchor_in. The coefficient is any scalar, a sign or a matrix
    entry. A slot is found by its anchor's block offset (Complex.blocks); a
    matrix must have the shape of the two blocks. Each block adds into the
    map's rows in place: an identity block adds coef at (row + k, col + k),
    a matrix block makes a row on its first touch and adds into it after,
    and an entry that cancels is dropped. A zero coefficient adds nothing;
    every coefficient is checked for exactness once per degree.
    """
    maps = {}
    for n_out in range(target.max_degree + 1):
        n_in = n_out - shift
        if not (0 <= n_in <= source.max_degree):
            continue
        by_row, coefs = {}, []
        blocks_in = source.blocks[n_in]
        for anchor, (row, rows) in target.blocks[n_out].items():
            for coef, anchor_in, matrix in rule(n_out, anchor):
                # an anchor with no slots has an empty block
                col, cols = blocks_in.get(anchor_in, (0, 0))
                if (rows, cols) != ((cols, cols) if matrix is None
                                    else (matrix.rows, matrix.cols)):
                    raise ComplexError(f"the block from {anchor_in!r} to"
                                       f" {anchor!r} has the wrong shape")
                coefs.append(coef)
                if not coef:
                    continue
                if matrix is None:
                    for i, j in zip(range(row, row + rows),
                                    range(col, col + cols)):
                        out = by_row.get(i)
                        if out is None:
                            by_row[i] = {j: coef}
                        elif v := out.get(j, 0) + coef:
                            out[j] = v
                        else:
                            out.pop(j, None)
                    continue
                for i, r in matrix.by_row.items():
                    out = by_row.get(row + i)
                    if out is None:
                        by_row[row + i] = {col + j: coef * v
                                           for j, v in r.items()}
                        continue
                    for j, v in r.items():
                        if w := out.get(col + j, 0) + coef * v:
                            out[col + j] = w
                        else:
                            out.pop(col + j, None)
        _check_exact(coefs, "slot rule coefficient")
        maps[n_in] = QMatrix._of_rows(target.dim(n_out), source.dim(n_in), {
            i: r for i, r in by_row.items() if r})
    return GradedLinearMap(source, target, shift, maps)


# --- cohomology ------------------------------------------------------------


def cocycle_space(cx: Complex, n: int) -> Subspace:
    """Degree-n cocycles. The top degree max_degree counts as the end of the
    complex, so every class there is a cocycle: exact for a finite complex
    that really ends there, an over-count for a truncation of a longer one.
    """
    if n < cx.max_degree:
        return kernel_basis(cx.d(n))
    return Subspace.full(cx.dim(n))


def coboundary_space(cx: Complex, n: int) -> Subspace:
    if n == 0:
        return Subspace(cx.dim(0), (), ())
    return cx.d(n - 1).column_space


def cohomology_dim(cx: Complex, n: int) -> int:
    """Dimension of H^n. At n = max_degree this treats the complex as ending
    there (see cocycle_space): on the truncated fiber cochains of fix-a it
    gives 2 at the top degree, where the untruncated value is 0.
    """
    return cocycle_space(cx, n).dim - coboundary_space(cx, n).dim


def is_weak_equivalence(f: GradedLinearMap, up_to: int) -> bool:
    """True when f is a cochain map inducing isomorphisms on H^n, n <= up_to.

    H^n(f) has image (f(Z_src) + B_tgt) / B_tgt, and f(Z_src) + B_tgt lies in
    Z_tgt. So once the two cohomology dimensions agree, H^n(f) is an
    isomorphism exactly when that sum has the dimension of Z_tgt. The rows
    of Z_src are read, so the source's kernels are needed (for kappa, from
    horan to hou, the larger side's); of Z_tgt only the dimension is read.
    """
    if not f.is_cochain_map(up_to):
        return False
    src, tgt = f.source, f.target
    for n in range(up_to + 1):
        z_src, z_tgt = cocycle_space(src, n), cocycle_space(tgt, n)
        b_tgt = coboundary_space(tgt, n)
        if z_src.dim - coboundary_space(src, n).dim != z_tgt.dim - b_tgt.dim:
            return False
        fn = f.matrix(n)
        image = Subspace.from_vectors(
            tgt.dim(n), [*map(fn.apply_sparse, z_src.rows), *b_tgt.rows])
        if image.dim != z_tgt.dim:
            return False
    return True


# --- dg-algebras -----------------------------------------------------------


class Dga:
    """A dg-algebra on a truncated complex.

    products[(n1, n2)] maps basis index pairs (i, j) to the sparse product
    vector in degree n1 + n2 (int or Fraction entries); missing keys mean
    the product is zero. unit is a sparse degree-0 vector. Ready tables are
    copied and checked at construction; the law suite's integer index
    (_integer_tables) is derived from the copy once. A function given as
    products builds that index, and the tables are a view of it made on
    first read. A parsed model shares one Dga between the objects with
    equal specs, so a Dga is read only.
    """

    def __init__(self, complex_: Complex, products, unit):
        self.complex = complex_
        if callable(products):
            self._build = products
        else:
            self.products = {
                key: {pair: dict(vec) for pair, vec in table.items() if vec}
                for key, table in products.items()
            }
            _check_exact(chain.from_iterable(
                vec.values() for table in self.products.values()
                for vec in table.values()), "product entry")
            self._build = partial(_integer_tables, self.products)
        self.unit = dict(unit)
        _check_exact(self.unit.values(), "unit entry")

    @cached_property
    def _index(self):
        return self._build()

    @cached_property
    def products(self) -> dict:
        # only a built Dga gets here: a ready one set its copy in __init__
        scale, by_left, _ = self._index
        products = {}
        for key, left in by_left.items():
            table = products[key] = {}
            for i, entries in left.items():
                for j, m, c in entries:
                    table.setdefault((i, j), {})[m] = _quotient(c, scale)
        return products

    def table(self, n1: int, n2: int) -> dict:
        return self.products.get((n1, n2), {})

    def mul_basis(self, n1: int, i: int, n2: int, j: int) -> dict:
        return self.table(n1, n2).get((i, j), {})

    def mul(self, n1: int, x: dict, n2: int, y: dict) -> dict:
        out = {}
        table = self.table(n1, n2)
        for i, xv in x.items():
            for j, yv in y.items():
                vec = table.get((i, j))
                if vec and xv and yv:
                    _axpy(out, xv * yv, vec)
        return out

    def violations(self):
        out = self.complex.violations()
        cx = self.complex
        # unit element must be a degree-0 cocycle, 0 only in the zero algebra
        if not self.unit and cx.dim(0):
            out.append("unit element is zero")
        if cx.max_degree >= 1 and cx.d(0).apply_sparse(self.unit):
            out.append("unit element is not closed")
        units, triples, pairs = self.law_failures()
        out.extend(f"{side} unit law fails in degree {n} at index {i}"
                   for n, i, side in units)
        out.extend(f"associativity fails on degrees ({n1},{n2},{n3})"
                   f" indices ({i},{j},{k})"
                   for n1, n2, n3, i, j, k in triples)
        out.extend(f"Leibniz rule fails on degrees ({n1},{n2})"
                   f" indices ({i},{j})" for n1, n2, i, j in pairs)
        return out

    def law_failures(self):
        """Where the unit laws, associativity and the Leibniz rule fail, as
        three lists in report order: (n, i, side) for a unit law on the given
        side of index i in degree n, (n1, n2, n3, i, j, k) for a triple and
        (n1, n2, i, j) for a pair. All three read the Dga's integer index."""
        scale, by_left, by_right = self._index
        return (list(self._unit_failures(scale, by_left, by_right)),
                list(self._associativity_failures(by_left, by_right)),
                list(self._leibniz_failures(by_left, by_right)))

    def _unit_failures(self, scale, by_left, by_right):
        cx = self.complex
        for n in range(cx.max_degree + 1):
            left = _unit_sums(self.unit, by_left.get((0, n), {}))
            right = _unit_sums(self.unit, by_right.get((n, 0), {}))
            for i in range(cx.dim(n)):
                for side, sums in (("left", left), ("right", right)):
                    if sums.get(i) != {i: scale}:
                        yield n, i, side

    def _associativity_failures(self, by_left, by_right):
        # (x y) z - x (y z), times D^2, on every (i, j, k, m) that a nonzero
        # term reaches: a triple fails exactly where this is nonzero
        top = self.complex.max_degree
        for n1 in range(top + 1):
            for n2 in range(top + 1 - n1):
                for n3 in range(top + 1 - n1 - n2):
                    diff = {}
                    after = by_left.get((n1 + n2, n3), {})
                    for i, row in by_left.get((n1, n2), {}).items():
                        for j, l, c in row:
                            for k, m, v in after.get(l, ()):
                                key = (i, j, k, m)
                                diff[key] = diff.get(key, 0) + c * v
                    before = by_right.get((n1, n2 + n3), {})
                    for j, row in by_left.get((n2, n3), {}).items():
                        for k, l, c in row:
                            for i, m, v in before.get(l, ()):
                                key = (i, j, k, m)
                                diff[key] = diff.get(key, 0) - c * v
                    failing = {key[:3] for key, v in diff.items() if v}
                    for ijk in sorted(failing):
                        yield (n1, n2, n3, *ijk)

    def _leibniz_failures(self, by_left, by_right):
        # d(x y) - dx y - (-1)^n1 x dy, times D*E (E the lcm of the
        # differentials' denominators, d[n] as {col: [(row, value)]}), on
        # every (i, j, m) that a nonzero term reaches: a pair fails exactly
        # where this is nonzero
        cx = self.complex
        top = cx.max_degree
        scale = lcm(*(v.denominator for n in range(top)
                      for row in cx.d(n).by_row.values() for v in row.values()))
        d = [{j: [(i, v.numerator * (scale // v.denominator))
                  for i, v in col.items()] for j, col in cx.d(n).by_col.items()}
             for n in range(top)]
        for n1 in range(top):
            for n2 in range(top - n1):
                sign = -1 if n1 % 2 else 1
                diff = {}
                d12 = d[n1 + n2]
                for i, row in by_left.get((n1, n2), {}).items():
                    for j, l, c in row:
                        for m, v in d12.get(l, ()):
                            key = (i, j, m)
                            diff[key] = diff.get(key, 0) + c * v
                t1 = by_left.get((n1 + 1, n2), {})
                for i, col in d[n1].items():
                    for l, c in col:
                        for j, m, v in t1.get(l, ()):
                            key = (i, j, m)
                            diff[key] = diff.get(key, 0) - c * v
                t2 = by_right.get((n1, n2 + 1), {})
                for j, col in d[n2].items():
                    for l, c in col:
                        c *= sign
                        for i, m, v in t2.get(l, ()):
                            key = (i, j, m)
                            diff[key] = diff.get(key, 0) - c * v
                rows, cols = range(cx.dim(n1)), range(cx.dim(n2))
                failing = {(i, j) for (i, j, _), v in diff.items()
                           if v and i in rows and j in cols}
                for ij in sorted(failing):
                    yield (n1, n2, *ij)


def _integer_tables(products):
    """(D, by_left, by_right): the product tables times D, the lcm of their
    denominators, per degree pair as lists of nonzero entries: entry c at m
    of i * j is (j, m, c) in by_left[i] and (i, m, c) in by_right[j]. Both
    sides of an identity scale alike, so comparing these is exact."""
    scale = lcm(*(v.denominator for table in products.values()
                  for vec in table.values() for v in vec.values()))
    by_left, by_right = {}, {}
    for key, table in products.items():
        left, right = by_left[key], by_right[key] = {}, {}
        for (i, j), vec in table.items():
            for m, v in vec.items():
                if v:
                    c = v.numerator * (scale // v.denominator)
                    left.setdefault(i, []).append((j, m, c))
                    right.setdefault(j, []).append((i, m, c))
    return scale, by_left, by_right


def _unit_sums(unit, index) -> dict:
    """{i: {m: the sum of c * v}} over the unit's entries c at u and the
    entries (i, m, v) of index[u], added in place; a sum that cancels is
    dropped, and every i reached keeps its (maybe empty) sums."""
    sums = {}
    for u, c in unit.items():
        for i, m, v in index.get(u, ()):
            out = sums.setdefault(i, {})
            if w := out.get(m, 0) + c * v:
                out[m] = w
            else:
                out.pop(m, None)
    return sums


# --- diagrams of algebras ---------------------------------------------------


def _anchor_object(cat: FinCategory, anchor):
    return anchor if isinstance(anchor, str) else cat.target(anchor[0])


def holim_dgalg(diagram, max_degree: int) -> Dga:
    """Homotopy limit: the normalized cochains of the nerve with coefficients
    in the diagram, under the cup product. A diagram is a functor from a
    finite category diagram.cat to algebras concentrated in degree 0, read
    as diagram.algebra(obj) and diagram.matrix(g).

    Degree n has a slot (anchor, k) for each composable n-tuple of
    non-identity arrows (an object in degree 0) and each basis index k of the
    algebra at the target of its first arrow. The differential is the
    alternating sum of the faces. The product of two slots concatenates their
    tuples, transports the second factor along the composite of the first
    factor's arrows and multiplies in the algebra there. It is built as the
    law suite's index on first read, one block per composite arrow.
    """
    cat = diagram.cat
    dims = {obj: diagram.algebra(obj).complex.dim(0) for obj in cat.objects}
    anchors = {n: [(u, _anchor_object(cat, u)) for u in nerve(cat, n)]
               for n in range(max_degree + 1)}
    labels = {n: tuple((u, k) for u, obj in nerve_n for k in range(dims[obj]))
              for n, nerve_n in anchors.items()}
    cx = Complex(max_degree, labels, {})

    def faces(n, u):
        # the first face applies the algebra map of the leading arrow, the
        # inner faces compose adjacent arrows, the last face drops the
        # trailing arrow
        yield 1, u[1:] if n > 1 else cat.source(u[0]), diagram.matrix(u[0])
        for i in range(1, n):
            comp = cat.comp(u[i - 1], u[i])
            if not cat.is_identity(comp):
                yield _sign(i), u[:i - 1] + (comp,) + u[i + 1:], None
        yield _sign(n), u[:-1] if n > 1 else cat.target(u[0]), None

    cx.differentials = _rule_map(cx, cx, 1, faces).maps

    unit = {cx.blocks[0][obj][0] + i: v
            for obj in cat.objects
            for i, v in diagram.algebra(obj).unit.items()}
    return Dga(cx, partial(_cup_products, diagram, cx, anchors, dims), unit)


def _cup_products(diagram, cx: Complex, anchors, dims):
    """holim_dgalg's cup product as Dga's integer index, from its locals:
    slot (u1, k1) times slot (u2, k2), u2 anchored where u1 ends, is
    e_k1 · A(c) e_k2 in the block of u1 u2, for c the key of u1. Each key's
    block is transported and scaled once; each slot pair appends entries."""
    cat = diagram.cat
    # the slots (index, anchor, k) of each degree by the object of their
    # anchor, in index order: a slot multiplies only the slots anchored at
    # the object where its own tuple ends
    slots = {n: {} for n in anchors}
    for n, index in cx.blocks.items():
        for u, (start, size) in index.items():
            slots[n].setdefault(_anchor_object(cat, u), []).extend(
                (start + k, u, k) for k in range(size))
    # blocks[key][k1][k2] by (0, object) or (1, composite arrow)
    firsts, blocks = [], {}
    for n1, nerve_n in anchors.items():
        for u1, obj in nerve_n:
            if not dims[obj]:
                continue  # an anchor with no slots multiplies nothing
            if n1:
                tail, key = cat.source(u1[-1]), (1, cat.comp_chain(u1))
            else:
                tail, key = u1, (0, u1)
            firsts.append((n1, u1, tail, key))
            if key not in blocks:
                table = diagram.algebra(obj).table(0, 0)
                cols = (diagram.matrix(key[1]).by_col if n1
                        else {k: {k: 1} for k in range(dims[tail])})
                block = blocks[key] = [[{} for _ in range(dims[tail])]
                                       for _ in range(dims[obj])]
                for k1, row in enumerate(block):
                    for k2, vec in enumerate(row):
                        for l, a in cols.get(k2, {}).items():
                            if prod := table.get((k1, l)):
                                _axpy(vec, a, prod)
    values = [v for block in blocks.values() for row in block
              for vec in row for v in vec.values()]
    _check_exact(values, "product entry")
    scale = lcm(*(v.denominator for v in values))
    for block in blocks.values():
        for row in block:
            row[:] = [[(k, v.numerator * (scale // v.denominator))
                       for k, v in vec.items()] for vec in row]
    top = cx.max_degree
    by_left = {(n1, n2): {} for n1 in range(top + 1)
               for n2 in range(top + 1 - n1)}
    by_right = {key: {} for key in by_left}
    for n1, u1, tail, key in firsts:
        for n2 in range(top + 1 - n1):
            right, out = by_right[(n1, n2)], cx.blocks[n1 + n2]
            # (j2, k2, start of u1 u2) for each second factor; a degree-0
            # anchor is an object, the unit of concatenation
            seconds = [(j2, k2, out[u2 if not n1 else u1 if not n2
                                    else u1 + u2][0])
                       for j2, u2, k2 in slots[n2].get(tail, ())]
            for j1, row in enumerate(blocks[key], cx.blocks[n1][u1][0]):
                entries = [(j2, start + k, c) for j2, k2, start in seconds
                           for k, c in row[k2]]
                if entries:
                    by_left[(n1, n2)][j1] = entries
                    for j2, m, c in entries:
                        right.setdefault(j2, []).append((j1, m, c))
    return scale, by_left, by_right


@dataclass
class LimDga:
    """The limit algebra together with its inclusion.

    ambient is the degree-0 slot complex of the product of the algebras,
    slots (object, k) as holim_dgalg lays out degree 0; subspace is the
    limit in those coordinates.
    """

    dga: Dga
    ambient: Complex
    subspace: Subspace

    @property
    def dim(self) -> int:
        return self.subspace.dim


def lim_dgalg(diagram) -> LimDga:
    """Limit: families x with A(g)(x at source of g) = x at target of g, an
    algebra concentrated in degree 0. The slots of the product and its unit
    family are holim_dgalg's at degree 0, which runs no face and builds no
    product table. For a functor (A(id) = 1, A(a c) = A(a) A(c)), such as a
    valid QftFunctor and its fiber and under restrictions, the generators'
    rows cut out every arrow's kernel, A(a) A(c) x_s = A(a) x_t(c) = x_t(a),
    kept as its canonical basis."""
    cat = diagram.cat
    product = holim_dgalg(diagram, 0)
    ambient, blocks = product.complex, product.complex.blocks[0]
    rows = []
    for g in cat.generators:
        mat = diagram.matrix(g)
        (src, _), (tgt, _) = blocks[cat.source(g)], blocks[cat.target(g)]
        for i in range(mat.rows):
            # A(g)(x at source) - x at target, a cancelled diagonal dropped
            row = {src + j: v for j, v in mat.by_row.get(i, {}).items()}
            if row.get(tgt + i) == 1:
                del row[tgt + i]
            else:
                row[tgt + i] = row.get(tgt + i, 0) - 1
            rows.append(row)
    subspace = kernel_basis(QMatrix._of_rows(
        len(rows), ambient.dim(0), {i: r for i, r in enumerate(rows) if r}))

    def limit_coords(vec, what):
        # coordinates in the limit basis of a family in the product's slots
        coords = subspace.coords(vec)
        if coords is None:
            raise ComplexError(f"{what} does not satisfy the limit constraints")
        return coords

    # each limit family as {object: {index: value}}, multiplied per object
    families = [
        {obj: part for obj, (start, size) in blocks.items()
         if (part := {k: v for k in range(size) if (v := vec.get(start + k))})}
        for vec in subspace.rows]
    table = {}
    for i, parts1 in enumerate(families):
        for j, parts2 in enumerate(families):
            vec = limit_coords({
                blocks[obj][0] + k: v for obj, part in parts1.items()
                if obj in parts2 for k, v in diagram.algebra(obj).mul(
                    0, part, 0, parts2[obj]).items()}, "product")
            if vec:
                table[(i, j)] = vec
    unit = limit_coords(product.unit, "unit family")
    cx = Complex(0, {0: tuple(range(subspace.dim))}, {})
    return LimDga(Dga(cx, {(0, 0): table}, unit), ambient, subspace)


def canonical_e(lim: LimDga, holim: Dga) -> GradedLinearMap:
    """The comparison map from the limit into the homotopy limit: a limit
    family is a degree-0 cochain, in the slots the two share. Raises
    ComplexError when their degree-0 slots differ."""
    cx_lim, cx_ho = lim.dga.complex, holim.complex
    if lim.ambient.labels[0] != cx_ho.labels[0]:
        raise ComplexError(
            "the limit and the homotopy limit have different degree-0 slots")
    return GradedLinearMap(cx_lim, cx_ho, 0, {0: QMatrix(
        cx_ho.dim(0), cx_lim.dim(0), {(slot, j): v for j, row in enumerate(
            lim.subspace.rows) for slot, v in row.items()})})


# --- tensor products --------------------------------------------------------


def tensor_complex(left: Complex, right: Complex, max_degree: int) -> Complex:
    """Tensor product of two complexes, with slots ((p1, i), j) for the basis
    index i of degree p1 on the left and j on the right."""
    labels = {p: tuple(((p1, i), j) for p1 in range(p + 1)
                       for i in range(left.dim(p1))
                       for j in range(right.dim(p - p1)))
              for p in range(max_degree + 1)}
    cx = Complex(max_degree, labels, {})
    d_left, d_right = (GradedLinearMap(c, c, 1, c.differentials)
                       for c in (left, right))
    cx.differentials = (
        tensor_map(d_left, GradedLinearMap.identity(right), cx, cx)
        + tensor_map(GradedLinearMap.identity(left), d_right, cx, cx)).maps
    return cx


def tensor_map(f: GradedLinearMap, g: GradedLinearMap,
               source: Complex, target: Complex) -> GradedLinearMap:
    """f tensor g with the Koszul sign (-1)^{|g| * p1}, p1 the left degree
    of the source slot."""
    def rule(q, anchor):
        q1, a = anchor
        p1 = q1 - f.shift
        sign, right = _sign(g.shift * p1), g.matrix(q - q1 - g.shift)
        for i, v in f.matrix(p1).by_row.get(a, {}).items():
            yield sign * v, (p1, i), right

    return _rule_map(source, target, f.shift + g.shift, rule)


def _product_map(dga: Dga, tensor: Complex, product) -> GradedLinearMap:
    """The map from a tensor square that sends the slot ((p1, i), j) of
    degree p to product(p1, i, p - p1, j)."""
    cx = dga.complex
    maps = {}
    for p in range(min(tensor.max_degree, cx.max_degree) + 1):
        data = {}
        for col, ((p1, i), j) in enumerate(tensor.labels[p]):
            for k, v in product(p1, i, p - p1, j).items():
                data[(k, col)] = v
        maps[p] = QMatrix(cx.dim(p), tensor.dim(p), data)
    return GradedLinearMap(tensor, cx, 0, maps)


def mu_map(dga: Dga, tensor: Complex) -> GradedLinearMap:
    """The multiplication of a dg-algebra as a map from its tensor square."""
    return _product_map(dga, tensor, dga.mul_basis)


def muop_map(dga: Dga, tensor: Complex) -> GradedLinearMap:
    """The opposite multiplication with the Koszul sign (-1)^{p1 * p2}."""
    def product(p1, i, p2, j):
        vec = dga.mul_basis(p2, j, p1, i)
        return {k: -v for k, v in vec.items()} if p1 * p2 % 2 else vec
    return _product_map(dga, tensor, product)
