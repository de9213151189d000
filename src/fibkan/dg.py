"""Truncated cochain complexes and dg-algebras over QQ.

A complex stores degrees 0..max_degree with labelled bases and explicit
differential matrices. Dg-algebras carry sparse product tables keyed by
basis pairs. A diagram of algebras has a limit (the equalizer subalgebra,
in degree 0) and a homotopy limit (the normalized cochains of the nerve
with coefficients in the diagram); weak equivalence means isomorphism on
cohomology through the requested degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import FinCategory, nerve
from .qlinalg import (
    ONE,
    ZERO,
    QMatrix,
    Subspace,
    kernel_basis,
    rank,
    rat,
    row_space,
    solve,
)


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
        self.pos = {
            n: {lbl: i for i, lbl in enumerate(lbls)}
            for n, lbls in self.labels.items()
        }
        self.differentials = dict(differentials)

    def dim(self, n: int) -> int:
        return len(self.labels.get(n, ()))

    def index(self, n: int, label) -> int:
        return self.pos[n][label]

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


def validate_complex(max_degree, labels, differentials) -> Complex:
    cx = Complex(max_degree, labels, differentials)
    violations = cx.violations()
    if violations:
        raise ComplexError("; ".join(violations))
    return cx


def _sparse_apply(m: QMatrix, vec: dict) -> dict:
    out = {}
    by_col = {}
    for (i, j), v in m.data.items():
        by_col.setdefault(j, []).append((i, v))
    for j, c in vec.items():
        if not c:
            continue
        for i, v in by_col.get(j, ()):
            s = out.get(i, 0) + v * c
            if s:
                out[i] = s
            else:
                out.pop(i, None)
    return out


@dataclass
class GradedLinearMap:
    """A degreewise linear map of complexes raising degree by `shift`."""

    source: Complex
    target: Complex
    shift: int
    maps: dict  # n -> QMatrix of shape target.dim(n + shift) x source.dim(n)

    def matrix(self, n: int) -> QMatrix:
        m = self.maps.get(n)
        if m is None:
            tgt = self.target.dim(n + self.shift) if 0 <= n + self.shift <= self.target.max_degree else 0
            src = self.source.dim(n) if 0 <= n <= self.source.max_degree else 0
            return QMatrix.zero(tgt, src)
        return m

    @classmethod
    def identity(cls, cx: Complex) -> "GradedLinearMap":
        return cls(cx, cx, 0, {
            n: QMatrix.identity(cx.dim(n)) for n in range(cx.max_degree + 1)
        })

    @classmethod
    def zero(cls, source: Complex, target: Complex, shift: int = 0) -> "GradedLinearMap":
        return cls(source, target, shift, {})

    def after(self, other: "GradedLinearMap") -> "GradedLinearMap":
        maps = {}
        for n in range(other.source.max_degree + 1):
            mid = n + other.shift
            if not (0 <= mid <= self.source.max_degree):
                continue
            m = self.matrix(mid) * other.matrix(n)
            if not m.is_zero() or m.rows * m.cols:
                maps[n] = m
        return GradedLinearMap(other.source, self.target,
                               self.shift + other.shift, maps)

    def __add__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        if self.shift != other.shift:
            raise ComplexError("cannot add maps of different shifts")
        degrees = set(self.maps) | set(other.maps)
        return GradedLinearMap(self.source, self.target, self.shift, {
            n: self.matrix(n) + other.matrix(n) for n in degrees
        })

    def __neg__(self) -> "GradedLinearMap":
        return GradedLinearMap(self.source, self.target, self.shift,
                               {n: -m for n, m in self.maps.items()})

    def __sub__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        return self + (-other)

    def scale(self, c) -> "GradedLinearMap":
        c = rat(c)
        return GradedLinearMap(self.source, self.target, self.shift,
                               {n: m.scale(c) for n, m in self.maps.items()})

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


def check_homotopy_identity(lhs: GradedLinearMap, rhs: GradedLinearMap,
                            homotopy: GradedLinearMap, up_to: int):
    """Degrees n <= up_to where lhs - rhs != d*H + H*d; empty means verified."""
    if lhs.shift != 0 or rhs.shift != 0 or homotopy.shift != -1:
        raise ComplexError("homotopy identity expects two shift-0 maps and a shift -1 map")
    src, tgt = lhs.source, lhs.target
    bad = []
    for n in range(up_to + 1):
        want = lhs.matrix(n) - rhs.matrix(n)
        got = homotopy.matrix(n + 1) * src.d(n)
        if n > 0:
            got = got + tgt.d(n - 1) * homotopy.matrix(n)
        if want != got:
            bad.append(n)
    return bad


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
        return Subspace.from_vectors(cx.dim(0), [])
    return row_space(cx.d(n - 1).transpose())


def cohomology_dim(cx: Complex, n: int) -> int:
    """Dimension of H^n. At n = max_degree this treats the complex as ending
    there (see cocycle_space): on the truncated fiber cochains of fix-a it
    gives 2 at the top degree, where the untruncated value is 0.
    """
    return cocycle_space(cx, n).dim - coboundary_space(cx, n).dim


def cohomology_representatives(cx: Complex, n: int):
    """Cocycles whose classes form a basis of the degree-n cohomology."""
    bnd = coboundary_space(cx, n)
    reps = []
    span = bnd
    for vec in cocycle_space(cx, n).basis:
        if not span.contains(vec):
            reps.append(vec)
            span = Subspace.from_vectors(
                cx.dim(n), list(span.basis) + [vec])
    return reps


def _class_coords(cx: Complex, n: int, reps, vec):
    """Coefficients of the class of vec in the given representative basis."""
    bnd = coboundary_space(cx, n)
    cols = list(reps) + list(bnd.basis)
    m = QMatrix(cx.dim(n), len(cols), {
        (i, j): v for j, col in enumerate(cols) for i, v in enumerate(col) if v
    })
    sol = solve(m, vec)
    if sol is None:
        raise ComplexError("vector is not a cocycle class in the given basis")
    return sol[:len(reps)]


def induced_cohomology_map(f: GradedLinearMap, n: int) -> QMatrix:
    """Matrix of H^n(f) in the canonical representative bases."""
    if f.shift != 0:
        raise ComplexError("induced map requires a shift-0 cochain map")
    src_reps = cohomology_representatives(f.source, n)
    tgt_reps = cohomology_representatives(f.target, n)
    data = {}
    for j, rep in enumerate(src_reps):
        image = f.matrix(n).apply(rep)
        for i, v in enumerate(_class_coords(f.target, n, tgt_reps, image)):
            if v:
                data[(i, j)] = v
    return QMatrix(len(tgt_reps), len(src_reps), data)


def is_weak_equivalence(f: GradedLinearMap, up_to: int) -> bool:
    """True when f is a cochain map inducing isomorphisms on H^n, n <= up_to."""
    if not f.is_cochain_map(up_to):
        return False
    for n in range(up_to + 1):
        h_src = cohomology_dim(f.source, n)
        h_tgt = cohomology_dim(f.target, n)
        if h_src != h_tgt:
            return False
        if rank(induced_cohomology_map(f, n)) != h_src:
            return False
    return True


# --- dg-algebras -----------------------------------------------------------


class Dga:
    """A dg-algebra on a truncated complex.

    products[(n1, n2)] maps basis index pairs (i, j) to the sparse product
    vector in degree n1 + n2; missing keys mean the product is zero. unit is
    a sparse degree-0 vector.
    """

    def __init__(self, complex_: Complex, products, unit):
        self.complex = complex_
        self.products = {
            key: {pair: dict(vec) for pair, vec in table.items() if vec}
            for key, table in products.items()
        }
        self.unit = dict(unit)
        self._left_index = {}
        self._right_index = {}

    def table(self, n1: int, n2: int) -> dict:
        return self.products.get((n1, n2), {})

    def _lefts(self, n1, n2):
        # right index j -> set of left indices i with a nonzero table entry
        key = (n1, n2)
        if key not in self._left_index:
            idx = {}
            for (i, j) in self.table(n1, n2):
                idx.setdefault(j, set()).add(i)
            self._left_index[key] = idx
        return self._left_index[key]

    def _rights(self, n1, n2):
        # left index i -> set of right indices j with a nonzero table entry
        key = (n1, n2)
        if key not in self._right_index:
            idx = {}
            for (i, j) in self.table(n1, n2):
                idx.setdefault(i, set()).add(j)
            self._right_index[key] = idx
        return self._right_index[key]

    def mul_basis(self, n1: int, i: int, n2: int, j: int) -> dict:
        return self.table(n1, n2).get((i, j), {})

    def mul(self, n1: int, x: dict, n2: int, y: dict) -> dict:
        out = {}
        table = self.table(n1, n2)
        for i, xv in x.items():
            if not xv:
                continue
            for j, yv in y.items():
                if not yv:
                    continue
                vec = table.get((i, j))
                if not vec:
                    continue
                c = xv * yv
                for k, v in vec.items():
                    s = out.get(k, 0) + c * v
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return out

    def violations(self):
        out = []
        out.extend(self.complex.violations())
        cx = self.complex
        top = cx.max_degree
        # unit element must be a degree-0 cocycle
        if not self.unit:
            out.append("unit element is zero")
        dunit = _sparse_apply(cx.d(0), self.unit) if top >= 1 else {}
        if dunit:
            out.append("unit element is not closed")
        for n in range(top + 1):
            for i in range(cx.dim(n)):
                e = {i: ONE}
                if self.mul(0, self.unit, n, e) != e:
                    out.append(f"left unit law fails in degree {n} at index {i}")
                if self.mul(n, e, 0, self.unit) != e:
                    out.append(f"right unit law fails in degree {n} at index {i}")
        out.extend(self._associativity_violations())
        out.extend(self._leibniz_violations())
        return out

    def _assoc_check(self, n1, i, n2, j, n3, k):
        xy = self.mul_basis(n1, i, n2, j)
        yz = self.mul_basis(n2, j, n3, k)
        lhs = self.mul(n1 + n2, xy, n3, {k: ONE})
        rhs = self.mul(n1, {i: ONE}, n2 + n3, yz)
        return lhs == rhs

    def _associativity_violations(self):
        out = []
        top = self.complex.max_degree
        for n1 in range(top + 1):
            for n2 in range(top + 1 - n1):
                for n3 in range(top + 1 - n1 - n2):
                    # a triple can only be nonzero when one of the two inner
                    # products is; sweep both tables and dedupe
                    checked = set()
                    for (i, j), vec in self.table(n1, n2).items():
                        ks = set(self._rights(n2, n3).get(j, ()))
                        rights = self._rights(n1 + n2, n3)
                        for l in vec:
                            ks.update(rights.get(l, ()))
                        for k in ks:
                            checked.add((i, j, k))
                    for (j, k), vec in self.table(n2, n3).items():
                        is_ = set(self._lefts(n1, n2).get(j, ()))
                        lefts = self._lefts(n1, n2 + n3)
                        for l in vec:
                            is_.update(lefts.get(l, ()))
                        for i in is_:
                            checked.add((i, j, k))
                    for i, j, k in sorted(checked):
                        if not self._assoc_check(n1, i, n2, j, n3, k):
                            out.append(
                                f"associativity fails on degrees ({n1},{n2},{n3})"
                                f" indices ({i},{j},{k})")
        return out

    def _leibniz_violations(self):
        out = []
        cx = self.complex
        top = cx.max_degree
        for n1 in range(top):
            for n2 in range(top - n1):
                dcols1 = {j: cx.d(n1).column(j) for j in range(cx.dim(n1))}
                dcols2 = {j: cx.d(n2).column(j) for j in range(cx.dim(n2))}
                s = ONE if n1 % 2 == 0 else -ONE
                for i in range(cx.dim(n1)):
                    di = dcols1[i]
                    for j in range(cx.dim(n2)):
                        lhs = _sparse_apply(
                            cx.d(n1 + n2), self.mul_basis(n1, i, n2, j))
                        rhs = self.mul(n1 + 1, di, n2, {j: ONE})
                        for k, v in self.mul(
                                n1, {i: ONE}, n2 + 1, dcols2[j]).items():
                            w = rhs.get(k, 0) + s * v
                            if w:
                                rhs[k] = w
                            else:
                                rhs.pop(k, None)
                        if lhs != rhs:
                            out.append(
                                f"Leibniz rule fails on degrees ({n1},{n2})"
                                f" indices ({i},{j})")
        return out


def validate_dga(complex_, products, unit) -> Dga:
    dga = Dga(complex_, products, unit)
    violations = dga.violations()
    if violations:
        raise ComplexError("; ".join(violations[:10]))
    return dga


def algebra_to_dga(alg, max_degree: int) -> Dga:
    """A unital algebra viewed as a dg-algebra concentrated in degree 0."""
    cx = Complex(max_degree, {0: tuple(range(alg.dim))}, {})
    table = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            vec = {k: v for k, v in enumerate(alg.sc[i][j]) if v}
            if vec:
                table[(i, j)] = vec
    unit = {i: v for i, v in enumerate(alg.unit) if v}
    return Dga(cx, {(0, 0): table}, unit)


# --- diagrams of algebras ---------------------------------------------------


@dataclass
class DgaDiagram:
    """A functor from a finite category to algebras.

    at[obj] is the algebra at obj as a dg-algebra concentrated in degree 0;
    maps[g] is the matrix of the algebra map at g.
    """

    cat: FinCategory
    at: dict    # object -> Dga
    maps: dict  # morphism -> QMatrix


def algebra_diagram(cat: FinCategory, alg_of, mat_of) -> DgaDiagram:
    """The diagram of algebras alg_of(obj) and algebra maps mat_of(g) on cat."""
    return DgaDiagram(
        cat, {obj: algebra_to_dga(alg_of(obj), 0) for obj in cat.objects},
        {g: mat_of(g) for g in cat.morphisms})


def _anchor_object(cat: FinCategory, anchor):
    return anchor if isinstance(anchor, str) else cat.target(anchor[0])


def holim_dgalg(diagram: DgaDiagram, max_degree: int) -> Dga:
    """Homotopy limit: the normalized cochains of the nerve with coefficients
    in the diagram, under the cup product.

    Degree n has a slot (anchor, k) for each composable n-tuple of
    non-identity arrows (an object in degree 0) and each basis index k of the
    algebra at the target of its first arrow. The differential is the
    alternating sum of the faces. The product of two slots concatenates their
    tuples, transports the second factor along the composite of the first
    factor's arrows and multiplies in the algebra there.
    """
    cat = diagram.cat
    dims = {obj: dga.complex.dim(0) for obj, dga in diagram.at.items()}
    anchors = {n: [(u, _anchor_object(cat, u)) for u in nerve(cat, n)]
               for n in range(max_degree + 1)}
    labels = {n: tuple((u, k) for u, obj in nerve_n for k in range(dims[obj]))
              for n, nerve_n in anchors.items()}
    cx = Complex(max_degree, labels, {})

    for n in range(max_degree):
        data = {}
        rows, cols = cx.pos[n + 1], cx.pos[n]
        for u, obj in anchors[n + 1]:
            # the first face applies the algebra map of the leading arrow,
            # the inner faces compose adjacent arrows, the last face drops
            # the trailing arrow
            first, tail = diagram.maps[u[0]], u[1:] if n else cat.source(u[0])
            faces = []
            for i in range(1, n + 1):
                comp = cat.comp(u[i - 1], u[i])
                if not cat.is_identity(comp):
                    faces.append((u[:i - 1] + (comp,) + u[i + 1:],
                                  -ONE if i % 2 else ONE))
            faces.append((u[:n] if n else obj, -ONE if (n + 1) % 2 else ONE))
            for k in range(dims[obj]):
                row = rows[(u, k)]
                for j in range(first.cols):
                    v = first.get(k, j)
                    if v:
                        data[(row, cols[(tail, j)])] = v
                for t, s in faces:
                    key = (row, cols[(t, k)])
                    w = data.get(key, 0) + s
                    if w:
                        data[key] = w
                    else:
                        data.pop(key, None)
        cx.differentials[n] = QMatrix(cx.dim(n + 1), cx.dim(n), data)

    products = {}
    for n1 in range(max_degree + 1):
        for n2 in range(max_degree + 1 - n1):
            table = {}
            out_pos = cx.pos[n1 + n2]
            for j1, (u1, k1) in enumerate(labels[n1]):
                if n1:
                    tail = cat.source(u1[-1])
                    move = diagram.maps[cat.comp_chain(u1)]
                else:
                    tail, move = u1, None
                alg = diagram.at[_anchor_object(cat, u1)]
                for j2, (u2, k2) in enumerate(labels[n2]):
                    if _anchor_object(cat, u2) != tail:
                        continue
                    moved = {k2: ONE} if move is None else move.column(k2)
                    prod = alg.mul(0, {k1: ONE}, 0, moved)
                    if prod:
                        # a degree-0 anchor is an object, the unit of
                        # concatenation
                        u = u2 if not n1 else u1 if not n2 else u1 + u2
                        table[(j1, j2)] = {
                            out_pos[(u, k)]: v for k, v in prod.items()}
            products[(n1, n2)] = table
    unit = {cx.pos[0][(obj, i)]: v
            for obj in cat.objects for i, v in diagram.at[obj].unit.items()}
    return Dga(cx, products, unit)


@dataclass
class LimDga:
    """The limit algebra together with its inclusion.

    ambient_labels lists the (object, index) slots of the product of the
    algebras; subspace is the limit in those coordinates.
    """

    dga: Dga
    ambient_labels: tuple
    subspace: Subspace


def lim_dgalg(diagram: DgaDiagram) -> LimDga:
    """Limit: families x with A(g)(x at source of g) = x at target of g, an
    algebra concentrated in degree 0."""
    cat = diagram.cat
    offsets = {}
    ambient_labels = []
    for obj in sorted(cat.objects):
        offsets[obj] = len(ambient_labels)
        ambient_labels.extend(
            (obj, k) for k in range(diagram.at[obj].complex.dim(0)))
    data = {}
    row = 0
    for g in sorted(g for g in cat.morphisms if not cat.is_identity(g)):
        mat = diagram.maps[g]
        src, tgt = offsets[cat.source(g)], offsets[cat.target(g)]
        for (i, j), v in mat.data.items():
            data[(row + i, src + j)] = v
        for i in range(mat.rows):
            key = (row + i, tgt + i)
            w = data.get(key, 0) - ONE
            if w:
                data[key] = w
            else:
                data.pop(key, None)
        row += mat.rows
    subspace = kernel_basis(QMatrix(row, len(ambient_labels), data))

    def split(vec):
        # the nonzero entries of an ambient vector as {object: {index: value}}
        out = {}
        for slot, v in enumerate(vec):
            if v:
                obj = ambient_labels[slot][0]
                out.setdefault(obj, {})[slot - offsets[obj]] = v
        return out

    def limit_coords(parts, what):
        # coordinates in the limit basis of a family given per object
        vec = [ZERO] * len(ambient_labels)
        for obj, part in parts.items():
            for k, v in part.items():
                vec[offsets[obj] + k] = v
        coords = subspace.coords(tuple(vec))
        if coords is None:
            raise ComplexError(f"{what} does not satisfy the limit constraints")
        return {i: v for i, v in enumerate(coords) if v}

    blocks = [split(vec) for vec in subspace.basis]
    table = {}
    for i, parts1 in enumerate(blocks):
        for j, parts2 in enumerate(blocks):
            vec = limit_coords({
                obj: diagram.at[obj].mul(0, part, 0, parts2[obj])
                for obj, part in parts1.items() if obj in parts2}, "product")
            if vec:
                table[(i, j)] = vec
    unit = limit_coords(
        {obj: diagram.at[obj].unit for obj in offsets}, "unit family")
    cx = Complex(0, {0: tuple(range(subspace.dim))}, {})
    return LimDga(Dga(cx, {(0, 0): table}, unit), tuple(ambient_labels),
                  subspace)


def canonical_e(lim: LimDga, holim: Dga) -> GradedLinearMap:
    """The comparison map from the limit into the homotopy limit: a limit
    family is placed in the degree-0 slots."""
    cx_lim, cx_ho = lim.dga.complex, holim.complex
    data = {}
    for j, vec in enumerate(lim.subspace.basis):
        for slot, v in enumerate(vec):
            if v:
                data[(cx_ho.pos[0][lim.ambient_labels[slot]], j)] = v
    return GradedLinearMap(cx_lim, cx_ho, 0, {
        0: QMatrix(cx_ho.dim(0), cx_lim.dim(0), data)})


# --- tensor products --------------------------------------------------------


class TensorComplex(Complex):
    """Tensor product of two complexes; labels are (left degree, i, j)."""

    def __init__(self, left: Complex, right: Complex, max_degree: int):
        self.left = left
        self.right = right
        labels = {}
        for p in range(max_degree + 1):
            lbls = []
            for p1 in range(p + 1):
                p2 = p - p1
                for i in range(left.dim(p1)):
                    for j in range(right.dim(p2)):
                        lbls.append((p1, i, j))
            labels[p] = tuple(lbls)
        super().__init__(max_degree, labels, {})
        differentials = {}
        for p in range(max_degree):
            data = {}
            for col, (p1, i, j) in enumerate(self.labels[p]):
                p2 = p - p1
                for k, v in left.d(p1).column(i).items():
                    data[(self.pos[p + 1][(p1 + 1, k, j)], col)] = v
                s = ONE if p1 % 2 == 0 else -ONE
                for k, v in right.d(p2).column(j).items():
                    key = (self.pos[p + 1][(p1, i, k)], col)
                    data[key] = data.get(key, 0) + s * v
            differentials[p] = QMatrix(self.dim(p + 1), self.dim(p), data)
        self.differentials = differentials


def graded_tensor(left: Complex, right: Complex, max_degree: int) -> TensorComplex:
    return TensorComplex(left, right, max_degree)


def tensor_map(f: GradedLinearMap, g: GradedLinearMap,
               source: TensorComplex, target: TensorComplex) -> GradedLinearMap:
    """f tensor g with the Koszul sign (-1)^{|g| * (left degree)}."""
    maps = {}
    for p in range(source.max_degree + 1):
        q = p + f.shift + g.shift
        if not (0 <= q <= target.max_degree):
            continue
        data = {}
        for col, (p1, i, j) in enumerate(source.labels[p]):
            p2 = p - p1
            sign = ONE if (g.shift * p1) % 2 == 0 else -ONE
            fcol = f.matrix(p1).column(i)
            gcol = g.matrix(p2).column(j)
            if not fcol or not gcol:
                continue
            for a, va in fcol.items():
                for b, vb in gcol.items():
                    key = (target.pos[q][(p1 + f.shift, a, b)], col)
                    w = data.get(key, 0) + sign * va * vb
                    if w:
                        data[key] = w
                    else:
                        data.pop(key, None)
        maps[p] = QMatrix(target.dim(q), source.dim(p), data)
    return GradedLinearMap(source, target, f.shift + g.shift, maps)


def mu_map(dga: Dga, tensor: TensorComplex) -> GradedLinearMap:
    """The multiplication of a dg-algebra as a map from its tensor square."""
    cx = dga.complex
    maps = {}
    for p in range(tensor.max_degree + 1):
        if p > cx.max_degree:
            break
        data = {}
        for col, (p1, i, j) in enumerate(tensor.labels[p]):
            for k, v in dga.mul_basis(p1, i, p - p1, j).items():
                data[(k, col)] = v
        maps[p] = QMatrix(cx.dim(p), tensor.dim(p), data)
    return GradedLinearMap(tensor, cx, 0, maps)


def muop_map(dga: Dga, tensor: TensorComplex) -> GradedLinearMap:
    """The opposite multiplication with the Koszul sign (-1)^{p1 * p2}."""
    cx = dga.complex
    maps = {}
    for p in range(tensor.max_degree + 1):
        if p > cx.max_degree:
            break
        data = {}
        for col, (p1, i, j) in enumerate(tensor.labels[p]):
            p2 = p - p1
            sign = ONE if (p1 * p2) % 2 == 0 else -ONE
            for k, v in dga.mul_basis(p2, j, p1, i).items():
                data[(k, col)] = sign * v
        maps[p] = QMatrix(cx.dim(p), tensor.dim(p), data)
    return GradedLinearMap(tensor, cx, 0, maps)
