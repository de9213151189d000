from collections import Counter
from fractions import Fraction
from itertools import chain, product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_source import load_bench_module

from fibkan import dg
from fibkan.dg import (
    Complex,
    Dga,
    GradedLinearMap,
    canonical_e,
    check_homotopy_identity,
    cohomology_dim,
    holim_dgalg,
    is_weak_equivalence,
    lim_dgalg,
    mu_map,
    muop_map,
    tensor_complex,
    tensor_map,
)
from fibkan.fincat import flabbiness_report
from fibkan.fixtures import load_bundled
from fibkan.hokan import HoKan, check_square_homotopy
from fibkan.models import model_from_dict
from fibkan.qlinalg import QMatrix, _axpy, kernel_basis, rank, rat

N = 4


def z2_diagram():
    """The Z2 symmetry of the 2x2 matrix algebra as a one-object diagram."""
    m = model_from_dict(load_bundled("fix-a"))
    return dg.DgaDiagram(
        m.strcat, {"x": m.A.algebra("x")},
        {"id_x": QMatrix.identity(4), "g": m.A.matrix("g")})


def slot_index(cx):
    """{n: {label: index}}: each slot's index, looked up by its label."""
    return {n: {lbl: i for i, lbl in enumerate(lbls)}
            for n, lbls in cx.labels.items()}


def two_step_complex():
    """0 -> Q^2 -> Q^2 -> Q -> 0 with d0 = [[1,0],[0,0]], d1 = [0, 1]."""
    d0 = QMatrix.from_rows([[1, 0], [0, 0]])
    d1 = QMatrix.from_rows([[0, 1]])
    cx = Complex(2, {0: ("a", "b"), 1: ("c", "d"), 2: ("e",)}, {0: d0, 1: d1})
    assert cx.violations() == []
    return cx


def test_complex_violations_catch_nonzero_square():
    d0 = QMatrix.from_rows([[1, 0], [0, 1]])
    d1 = QMatrix.from_rows([[1, 0]])
    cx = Complex(2, {0: (0, 1), 1: (0, 1), 2: (0,)}, {0: d0, 1: d1})
    assert cx.violations() == ["d*d is nonzero out of degree 0"]


def test_cohomology_of_two_step_complex():
    cx = two_step_complex()
    # ker d0 = span(b); im into degree 1 = span(c); ker d1 = span(c)
    assert cohomology_dim(cx, 0) == 1
    assert cohomology_dim(cx, 1) == 0
    assert cohomology_dim(cx, 2) == 0


def test_graded_map_algebra():
    cx = two_step_complex()
    ident = GradedLinearMap.identity(cx)
    assert ident.is_cochain_map()
    double = ident + ident
    assert double.matrix(0) == QMatrix.identity(2) + QMatrix.identity(2)
    assert (double - ident).matrix(1) == QMatrix.identity(2)
    assert ident.after(ident).matrix(2) == QMatrix.identity(1)
    assert is_weak_equivalence(ident, 2)
    zero = GradedLinearMap.zero(cx, cx)
    assert not is_weak_equivalence(zero, 0)


def projection_onto_cohomology(cx):
    """Kills a, c, d, e and keeps b, the class spanning H^0."""
    return GradedLinearMap(cx, cx, 0, {0: QMatrix.from_rows([[0, 0], [0, 1]])})


def test_check_homotopy_identity_contractible_part():
    cx = two_step_complex()
    ident = GradedLinearMap.identity(cx)
    # projection onto the cohomology is homotopic to id
    p = projection_onto_cohomology(cx)
    h = GradedLinearMap(cx, cx, -1, {
        1: QMatrix.from_rows([[1, 0], [0, 0]]),
        2: QMatrix.from_rows([[0], [1]]),
    })
    assert check_homotopy_identity(ident, p, h, 2) == []
    bad = GradedLinearMap(cx, cx, -1, {1: QMatrix.from_rows([[1, 1], [0, 0]])})
    assert check_homotopy_identity(ident, p, bad, 2) != []


def test_check_homotopy_identity_at_shift_minus_two():
    # H of shift -2 has one block H2: degree 2 -> degree 0, and a shift -1
    # map equal to d*H - H*d reads -H2*d1 in degree 1 and d0*H2 in degree 2
    cx = two_step_complex()
    h = GradedLinearMap(cx, cx, -2, {2: QMatrix.from_rows([[1], [2]])})
    lhs = GradedLinearMap(cx, cx, -1, {
        1: QMatrix.from_rows([[0, -1], [0, -2]]),
        2: QMatrix.from_rows([[1], [0]]),
    })
    zero = GradedLinearMap.zero(cx, cx, -1)
    assert check_homotopy_identity(lhs, zero, h, 2) == []
    assert check_homotopy_identity(zero, zero - lhs, h, 2) == []
    # the sign of H*d flips with the parity of the shift
    assert check_homotopy_identity(zero - lhs, zero, h, 2) == [1, 2]
    without_dh = GradedLinearMap(cx, cx, -1, {1: lhs.matrix(1)})
    assert check_homotopy_identity(without_dh, zero, h, 2) == [2]
    # the two maps must have the shift one above the homotopy's
    ident = GradedLinearMap.identity(cx)
    with pytest.raises(dg.ComplexError):
        check_homotopy_identity(ident, ident, h, 2)
    with pytest.raises(dg.ComplexError):
        check_homotopy_identity(lhs, ident, h, 2)


def test_weak_equivalence_projection_and_mismatched_cohomology():
    cx = two_step_complex()
    p = projection_onto_cohomology(cx)
    for up_to in range(3):
        assert is_weak_equivalence(p, up_to), up_to
    # Q^2 in degree 0 with zero differential: H^0 has dimension 2, not 1
    wide = Complex(2, {0: ("x", "y")}, {})
    assert wide.violations() == []
    into = GradedLinearMap(cx, wide, 0, {0: QMatrix.from_rows([[0, 1], [0, 1]])})
    onto = GradedLinearMap(wide, cx, 0, {0: QMatrix.from_rows([[0, 0], [1, 1]])})
    for f in (into, onto):
        assert f.is_cochain_map()
        assert not is_weak_equivalence(f, 0)
    # a map between equal cohomology dimensions that kills the class
    assert not is_weak_equivalence(GradedLinearMap.zero(cx, cx), 0)


small_ints = st.integers(-2, 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["identity", "double", "projection", "zero"]),
       st.lists(small_ints, min_size=4, max_size=4),
       st.lists(small_ints, min_size=2, max_size=2))
def test_weak_equivalence_is_homotopy_invariant(which, h1, h2):
    # f and f + dh + hd induce the same map on cohomology
    cx = two_step_complex()
    ident = GradedLinearMap.identity(cx)
    f = {"identity": ident, "double": ident + ident,
         "projection": projection_onto_cohomology(cx),
         "zero": GradedLinearMap.zero(cx, cx)}[which]
    h = GradedLinearMap(cx, cx, -1, {
        1: QMatrix.from_rows([h1[:2], h1[2:]]),
        2: QMatrix.from_rows([[h2[0]], [h2[1]]]),
    })
    d = GradedLinearMap(cx, cx, 1, {0: cx.d(0), 1: cx.d(1)})
    moved = f + d.after(h) + h.after(d)
    assert moved.is_cochain_map()
    for up_to in range(3):
        assert is_weak_equivalence(moved, up_to) \
            == is_weak_equivalence(f, up_to) == (which != "zero"), up_to


def in_degrees(alg, max_degree):
    """An algebra as a dg-algebra on a complex that runs on to max_degree
    with nothing above degree 0."""
    return Dga(Complex(max_degree, alg.complex.labels, {}), alg.products,
               alg.unit)


def test_algebra_to_dga_validates():
    m = model_from_dict(load_bundled("fix-a"))
    dga = in_degrees(m.A.algebra("x"), 2)
    assert dga.violations() == []
    assert dga.complex.dim(0) == 4
    assert dga.complex.dim(1) == 0


def test_dga_violations_catch_broken_unit():
    m = model_from_dict(load_bundled("fix-a"))
    dga = in_degrees(m.A.algebra("x"), 1)
    dga.unit = {0: rat(1)}  # E11 alone is not a two-sided unit
    assert dga.violations() == [
        "right unit law fails in degree 0 at index 1",
        "left unit law fails in degree 0 at index 2",
        "left unit law fails in degree 0 at index 3",
        "right unit law fails in degree 0 at index 3",
    ]


@pytest.mark.parametrize("value", [0.5, 2.0, True])
def test_dga_refuses_floats_and_bools(value):
    m = model_from_dict(load_bundled("fix-a"))
    alg = m.A.algebra("x")
    products = {(0, 0): {**alg.products[(0, 0)], (1, 2): {0: value}}}
    with pytest.raises(TypeError):
        Dga(alg.complex, products, alg.unit)
    with pytest.raises(TypeError):
        Dga(alg.complex, alg.products, {**alg.unit, 1: value})


@pytest.mark.parametrize("value", [0.5, 2.0, True])
def test_built_tables_are_checked_when_built(value):
    # tables given by a builder are built on the first read, once, and
    # copied and checked as ready tables are at construction
    m = model_from_dict(load_bundled("fix-a"))
    alg = m.A.algebra("x")
    calls = []

    def tables():
        calls.append(1)
        return alg.products

    dga = Dga(alg.complex, tables, alg.unit)
    assert calls == []
    assert dga.products == alg.products and dga.products is dga.products
    assert calls == [1]
    products = {(0, 0): {**alg.products[(0, 0)], (1, 2): {0: value}}}
    dga = Dga(alg.complex, lambda: products, alg.unit)
    with pytest.raises(TypeError):
        dga.products


def unit_table(dim):
    """Products of the unit (index 0) with every basis element of a degree."""
    return {pair: {k: rat(1)} for k in range(dim)
            for pair in ((0, k), (k, 0))}


def test_dga_violations_catch_broken_leibniz():
    # span(1, x) -> span(y) with dx = y; x * x = x breaks d(x x) = dx x + x dx
    cx = Complex(1, {0: ("1", "x"), 1: ("y",)}, {0: QMatrix.from_rows([[0, 1]])})
    assert cx.violations() == []
    products = {
        (0, 0): {**unit_table(2), (1, 1): {1: rat(1)}},
        (0, 1): {(0, 0): {0: rat(1)}},
        (1, 0): {(0, 0): {0: rat(1)}},
    }
    violations = Dga(cx, products, {0: rat(1)}).violations()
    assert violations == ["Leibniz rule fails on degrees (0,0) indices (1,1)"]


@pytest.mark.parametrize("key, pair, assoc", [
    ((1, 0), (0, 1), "(1,0,0) indices (0,1,1)"),  # y x = y
    ((0, 1), (1, 0), "(0,0,1) indices (1,1,0)"),  # x y = y
])
def test_dga_violations_catch_one_sided_leibniz(key, pair, assoc):
    # dx = y and x x = 0, so d(x x) = 0 while exactly one of dx x and x dx
    # is y: Leibniz fails on a pair whose own product is zero
    cx = Complex(1, {0: ("1", "x"), 1: ("y",)}, {0: QMatrix.from_rows([[0, 1]])})
    assert cx.violations() == []
    products = {(0, 0): unit_table(2), (0, 1): {(0, 0): {0: rat(1)}},
                (1, 0): {(0, 0): {0: rat(1)}}}
    products[key][pair] = {0: rat(1)}
    assert Dga(cx, products, {0: rat(1)}).violations() == [
        f"associativity fails on degrees {assoc}",
        "Leibniz rule fails on degrees (0,0) indices (1,1)"]


def test_dga_violations_catch_broken_associativity():
    # a * a = b, b * a = a, a * b = 0: (a a) a = a but a (a a) = 0
    cx = Complex(0, {0: ("1", "a", "b")}, {})
    assert cx.violations() == []
    products = {(0, 0): {**unit_table(3), (1, 1): {2: rat(1)},
                         (2, 1): {1: rat(1)}}}
    violations = Dga(cx, products, {0: rat(1)}).violations()
    assert violations == [
        f"associativity fails on degrees (0,0,0) indices {ijk}"
        for ijk in ("(1,1,1)", "(1,2,1)", "(2,1,1)", "(2,2,1)")]


def test_dga_violations_of_a_perturbed_cochain_algebra():
    # bump one coefficient of a product of degrees (0, 1) in the Z2 cochain
    # algebra: the unit, associativity and Leibniz checks all see it, and
    # the list is pinned in content and order
    holim = holim_dgalg(z2_diagram(), 2)
    holim.products[(0, 1)][(0, 1)][1] += 1
    assoc = {(0, 0, 1): ("(0,0,1)", "(0,1,3)", "(1,2,1)", "(2,0,1)"),
             (0, 1, 0): ("(0,0,1)", "(0,1,2)"),
             (0, 1, 1): ("(0,1,2)", "(0,1,3)"),
             (1, 0, 1): ("(0,0,1)", "(2,0,1)")}
    assert holim.violations() == [
        "left unit law fails in degree 1 at index 1",
        *(f"associativity fails on degrees ({n1},{n2},{n3}) indices {ijk}"
          for (n1, n2, n3), triples in assoc.items() for ijk in triples),
        "Leibniz rule fails on degrees (0,0) indices (0,1)",
    ]


def test_algebra_diagram_limit_is_the_invariants():
    m = model_from_dict(load_bundled("fix-a"))
    lim = lim_dgalg(z2_diagram())
    assert lim.dga.violations() == []
    assert lim.ambient_labels == tuple(("x", k) for k in range(4))
    # the fixed points of the involution, computed without the limit code
    t = m.A.matrix("g")
    assert lim.subspace == kernel_basis(t - QMatrix.identity(t.rows))


def test_holim_z2_shapes():
    diagram = z2_diagram()
    cx = holim_dgalg(diagram, N).complex
    # one object, one non-identity arrow: a single tuple in each nerve degree
    for n in range(N + 1):
        anchor = ("g",) * n if n else "x"
        assert cx.labels[n] == tuple((anchor, k) for k in range(4))
    # g after g is the identity, so every inner face vanishes
    t, ident = diagram.maps["g"], QMatrix.identity(4)
    for n in range(N):
        assert cx.d(n) == (t - ident if n % 2 == 0 else t + ident)
    assert cx.violations() == []


def test_holim_z2_is_valid_dga():
    holim = holim_dgalg(z2_diagram(), N)
    assert holim.violations() == []


def test_holim_z2_cohomology():
    # group cohomology of Z/2 with rational coefficients vanishes above 0;
    # degree 0 is the invariants of the conjugation action
    holim = holim_dgalg(z2_diagram(), N)
    assert cohomology_dim(holim.complex, 0) == 2
    for n in range(1, N):
        assert cohomology_dim(holim.complex, n) == 0


def test_lim_z2_invariants():
    lim = lim_dgalg(z2_diagram())
    assert lim.dga.complex.dim(0) == 2
    assert lim.dga.violations() == []
    # invariants of conjugation by diag(1,-1) are the diagonal matrices
    for vec in lim.subspace.rows:
        assert 1 not in vec and 2 not in vec


def test_canonical_e_weak_equivalence():
    diagram = z2_diagram()
    lim = lim_dgalg(diagram)
    holim = holim_dgalg(diagram, N)
    e = canonical_e(lim, holim)
    # e lands in the degree-0 cocycles and is an isomorphism on cohomology
    assert (holim.complex.d(0) * e.matrix(0)).is_zero()
    assert is_weak_equivalence(e, N - 1)
    # e respects products on the degree-0 part
    for i in range(lim.dga.complex.dim(0)):
        for j in range(lim.dga.complex.dim(0)):
            prod = lim.dga.mul_basis(0, i, 0, j)
            lhs = e.matrix(0).apply_sparse(prod)
            rhs = holim.mul(
                0, e.matrix(0).apply_sparse({i: rat(1)}),
                0, e.matrix(0).apply_sparse({j: rat(1)}))
            assert lhs == rhs


def test_tensor_complex_structure():
    cx = two_step_complex()
    t = tensor_complex(cx, cx, 4)
    assert t.violations() == []
    assert t.dim(0) == 4
    assert t.dim(1) == 8  # 2*2 twice
    ident = GradedLinearMap.identity(cx)
    ii = tensor_map(ident, ident, t, t)
    for p in range(5):
        assert ii.matrix(p) == QMatrix.identity(t.dim(p))


def test_tensor_map_koszul_sign():
    cx = two_step_complex()
    t = tensor_complex(cx, cx, 4)
    ident = GradedLinearMap.identity(cx)
    # a degree -1 map paired with the identity picks up no sign on the left
    h = GradedLinearMap(cx, cx, -1, {
        1: QMatrix.from_rows([[1, 0], [0, 0]]),
        2: QMatrix.from_rows([[0], [1]]),
    })
    left = tensor_map(h, ident, t, t)
    right = tensor_map(ident, h, t, t)
    # (h ox id)(c ox c) has no sign; (id ox h)(c ox c) gains (-1)^{|c|}
    pos = slot_index(t)
    col = pos[2][((1, 0), 0)]  # c ox c
    lcol = left.matrix(2).column(col)
    rcol = right.matrix(2).column(col)
    assert lcol == {pos[1][((0, 0), 0)]: rat(1)}  # a ox c
    assert rcol == {pos[1][((1, 0), 0)]: rat(-1)}  # -(c ox a)


def oracle_slots(left, right, max_degree):
    """The tensor slots ((p1, i), j) of each degree, listed by hand."""
    labels = {}
    for p in range(max_degree + 1):
        lbls = []
        for p1 in range(p + 1):
            p2 = p - p1
            for i in range(left.dim(p1)):
                for j in range(right.dim(p2)):
                    lbls.append(((p1, i), j))
        labels[p] = tuple(lbls)
    return labels


def oracle_tensor_d(left, right, max_degree):
    """The differential d(x ox y) = dx ox y + (-1)^{|x|} x ox dy, written
    slot by slot without the slot-rule builder."""
    labels = oracle_slots(left, right, max_degree)
    pos = {p: {lbl: k for k, lbl in enumerate(lbls)}
           for p, lbls in labels.items()}
    differentials = {}
    for p in range(max_degree):
        data = {}
        for col, ((p1, i), j) in enumerate(labels[p]):
            p2 = p - p1
            for k, v in left.d(p1).column(i).items():
                data[(pos[p + 1][((p1 + 1, k), j)], col)] = v
            s = 1 if p1 % 2 == 0 else -1
            for k, v in right.d(p2).column(j).items():
                key = (pos[p + 1][((p1, i), k)], col)
                data[key] = data.get(key, 0) + s * v
        differentials[p] = QMatrix(len(labels[p + 1]), len(labels[p]), data)
    return differentials


def oracle_tensor_map(f, g, source, target):
    """The matrices of f ox g with the Koszul sign (-1)^{|g| * p1}, written
    slot by slot without the slot-rule builder."""
    maps = {}
    pos = slot_index(target)
    for p in range(source.max_degree + 1):
        q = p + f.shift + g.shift
        if not (0 <= q <= target.max_degree):
            continue
        data = {}
        for col, ((p1, i), j) in enumerate(source.labels[p]):
            p2 = p - p1
            sign = 1 if (g.shift * p1) % 2 == 0 else -1
            # distinct (a, b) are distinct target slots: nothing accumulates
            for a, va in f.matrix(p1).by_col.get(i, {}).items():
                for b, vb in g.matrix(p2).by_col.get(j, {}).items():
                    key = (pos[q][((p1 + f.shift, a), b)], col)
                    data[key] = sign * va * vb
        maps[p] = QMatrix(target.dim(q), source.dim(p), data)
    return maps


def random_matrix(data, rows, cols):
    entries = st.integers(-2, 2)
    return QMatrix(rows, cols, {(i, j): data.draw(entries)
                                for i in range(rows) for j in range(cols)})


def random_complex(data, top):
    """Degrees 0..top of dimension 0 to 2 with random differentials, which
    need not square to zero: the oracles compare matrices only."""
    dims = [data.draw(st.integers(0, 2)) for _ in range(top + 1)]
    return Complex(top, {n: tuple(range(k)) for n, k in enumerate(dims)},
                   {n: random_matrix(data, dims[n + 1], dims[n])
                    for n in range(top)})


def random_map(data, source, target, shift):
    return GradedLinearMap(source, target, shift, {
        n: random_matrix(data, target.dim(n + shift), source.dim(n))
        for n in range(source.max_degree + 1)
        if 0 <= n + shift <= target.max_degree})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tensor_layer_matches_the_slot_by_slot_oracles(data):
    top = data.draw(st.integers(0, 3))
    tensor_top = data.draw(st.integers(0, 3))
    l1, r1, l2, r2 = (random_complex(data, top) for _ in range(4))
    t1, t2 = (tensor_complex(l, r, tensor_top) for l, r in ((l1, r1), (l2, r2)))
    assert t1.labels == oracle_slots(l1, r1, tensor_top)
    assert {n: t1.d(n) for n in range(tensor_top)} \
        == oracle_tensor_d(l1, r1, tensor_top)
    f = random_map(data, l1, l2, data.draw(st.sampled_from([-1, 0, 1])))
    g = random_map(data, r1, r2, data.draw(st.sampled_from([-1, 0, 1])))
    got = tensor_map(f, g, t1, t2)
    assert got.shift == f.shift + g.shift
    assert got.maps == oracle_tensor_map(f, g, t1, t2)


def test_mu_map_is_cochain_map():
    holim = holim_dgalg(z2_diagram(), N)
    t = tensor_complex(holim.complex, holim.complex, N)
    mu = mu_map(holim, t)
    muop = muop_map(holim, t)
    assert mu.is_cochain_map()
    assert muop.is_cochain_map()
    # in degree 0 both agree on the commutative invariant part but the
    # underlying algebra is noncommutative, so mu != muop somewhere
    assert any(mu.matrix(p) != muop.matrix(p) for p in range(N + 1))


def test_dga_violations_catch_bad_product():
    m = model_from_dict(load_bundled("fix-a"))
    dga = in_degrees(m.A.algebra("x"), 1)
    table = dga.products[(0, 0)]
    table[(1, 1)] = {0: rat(1)}  # E12 * E12 must be zero
    assert Dga(dga.complex, dga.products, dga.unit).violations() == [
        f"associativity fails on degrees (0,0,0) indices {ijk}"
        for ijk in ("(1,0,1)", "(1,1,0)", "(1,1,1)", "(1,1,3)", "(1,3,1)",
                    "(2,1,1)")]


# --- the per-triple structure suite as an oracle ----------------------------


def _combine(terms) -> dict:
    """The sparse sum of c * vec over (vec, c) terms; a vec may be None."""
    out = {}
    for vec, c in terms:
        if vec and c:
            _axpy(out, c, vec)
    return out


def _partners(table, side):
    # side 0: left index -> the right indices with a nonzero product;
    # side 1: right index -> the left indices
    idx = {}
    for pair in table:
        idx.setdefault(pair[side], set()).add(pair[1 - side])
    return idx


def oracle_violations(dga):
    """Dga.violations as first written: one Fraction combination per basis
    pair and triple that a nonzero product reaches, compared side by side."""
    cx = dga.complex
    top = cx.max_degree
    out = cx.violations()
    if not dga.unit:
        out.append("unit element is zero")
    if top >= 1 and cx.d(0).apply_sparse(dga.unit):
        out.append("unit element is not closed")
    for n in range(top + 1):
        left, right = dga.table(0, n), dga.table(n, 0)
        for i in range(cx.dim(n)):
            e = {i: 1}
            if _combine((left.get((u, i)), c)
                        for u, c in dga.unit.items()) != e:
                out.append(f"left unit law fails in degree {n} at index {i}")
            if _combine((right.get((i, u)), c)
                        for u, c in dga.unit.items()) != e:
                out.append(f"right unit law fails in degree {n} at index {i}")
    for n1 in range(top + 1):
        for n2 in range(top + 1 - n1):
            for n3 in range(top + 1 - n1 - n2):
                t12, t23 = dga.table(n1, n2), dga.table(n2, n3)
                t12_3, t1_23 = dga.table(n1 + n2, n3), dga.table(n1, n2 + n3)
                rights = _partners(t12_3, 0)
                lefts = _partners(t1_23, 1)
                triples = {(i, j, k) for (i, j), xy in t12.items()
                           for l in xy for k in rights.get(l, ())}
                triples.update((i, j, k) for (j, k), yz in t23.items()
                               for l in yz for i in lefts.get(l, ()))
                for i, j, k in sorted(triples):
                    lhs = _combine((t12_3.get((l, k)), c)
                                   for l, c in t12.get((i, j), {}).items())
                    rhs = _combine((t1_23.get((i, l)), c)
                                   for l, c in t23.get((j, k), {}).items())
                    if lhs != rhs:
                        out.append(
                            f"associativity fails on degrees ({n1},{n2},{n3})"
                            f" indices ({i},{j},{k})")
    for n1 in range(top):
        for n2 in range(top - n1):
            d1, d2, d12 = cx.d(n1), cx.d(n2), cx.d(n1 + n2)
            t = dga.table(n1, n2)
            t1, t2 = dga.table(n1 + 1, n2), dga.table(n1, n2 + 1)
            odd = n1 % 2
            pairs = set(t)
            pairs.update((i, j) for (l, j) in t1
                         for i in d1.by_row.get(l, ()))
            pairs.update((i, j) for (i, l) in t2
                         for j in d2.by_row.get(l, ()))
            rows, cols = range(cx.dim(n1)), range(cx.dim(n2))
            for i, j in sorted(p for p in pairs
                               if p[0] in rows and p[1] in cols):
                lhs = d12.apply_sparse(t.get((i, j), {}))
                rhs = _combine(chain(
                    ((t1.get((l, j)), c)
                     for l, c in d1.by_col.get(i, {}).items()),
                    ((t2.get((i, l)), -c if odd else c)
                     for l, c in d2.by_col.get(j, {}).items())))
                if lhs != rhs:
                    out.append(
                        f"Leibniz rule fails on degrees ({n1},{n2})"
                        f" indices ({i},{j})")
    return out


def rescaled(dga, scale):
    """The same dg-algebra in the basis f_i = scale(n, i) e_i of each degree
    n: its structure constants become fractions."""
    cx = dga.complex
    s = {n: [rat(scale(n, i)) for i in range(cx.dim(n))]
         for n in range(cx.max_degree + 1)}
    d = {n: QMatrix(m.rows, m.cols, {
            (r, c): Fraction(v * s[n][c]) / s[n + 1][r]
            for (r, c), v in m.data.items()})
         for n, m in cx.differentials.items()}
    products = {
        (n1, n2): {(i, j): {
            m: Fraction(v * s[n1][i] * s[n2][j]) / s[n1 + n2][m]
            for m, v in vec.items()} for (i, j), vec in table.items()}
        for (n1, n2), table in dga.products.items()}
    unit = {i: Fraction(v) / s[0][i] for i, v in dga.unit.items()}
    return Dga(Complex(cx.max_degree, cx.labels, d), products, unit)


def test_fractional_structure_constants_give_no_violations():
    holim = rescaled(holim_dgalg(z2_diagram(), 2),
                     lambda n, i: Fraction(2 * i + 1, n + 2))
    assert any(v.denominator > 1 for table in holim.products.values()
               for vec in table.values() for v in vec.values())
    assert any(v.denominator > 1 for m in holim.complex.differentials.values()
               for v in m.data.values())
    assert holim.violations() == oracle_violations(holim) == []


scales = st.sampled_from([1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])
nudges = st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 3)])


def nudged_dga(data):
    """A valid dga with fractional constants, then a few entries of its
    products, differentials and unit nudged so that checks fail."""
    top = data.draw(st.integers(1, 2))
    factors = data.draw(st.lists(scales, min_size=12, max_size=12))
    dga = rescaled(holim_dgalg(z2_diagram(), top),
                   lambda n, i: factors[4 * n + i])
    cx = dga.complex
    entries = [(key, pair, m) for key, table in sorted(dga.products.items())
               for pair, vec in sorted(table.items()) for m in sorted(vec)]
    for _ in range(data.draw(st.integers(1, 3))):
        key, pair, m = data.draw(st.sampled_from(entries))
        at = data.draw(st.sampled_from([m, (m + 1) % 4]))
        vec = dga.products[key][pair]
        vec[at] = vec.get(at, 0) + data.draw(nudges)
    if data.draw(st.booleans()):
        n = data.draw(st.integers(0, top - 1))
        cell = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
        m = cx.d(n)
        nudged = {**m.data, cell: m.data.get(cell, 0) + data.draw(nudges)}
        cx.differentials[n] = QMatrix(m.rows, m.cols, nudged)
    if data.draw(st.booleans()):
        dga.unit[data.draw(st.integers(0, 3))] = data.draw(nudges)
    return dga


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_violations_match_the_per_triple_oracle(data):
    dga = nudged_dga(data)
    assert dga.violations() == oracle_violations(dga)


# --- graded maps: composites on first read, slot rules by block offsets ----


def eager_after(self, other):
    """GradedLinearMap.after as first written: every degree multiplied when
    the composite is formed."""
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


def eager_add(self, other):
    if self.shift != other.shift:
        raise dg.ComplexError("cannot add maps of different shifts")
    degrees = set(self.maps) | set(other.maps)
    return GradedLinearMap(self.source, self.target, self.shift, {
        n: self.matrix(n) + other.matrix(n) for n in degrees})


def eager_sub(self, other):
    if self.shift != other.shift:
        raise dg.ComplexError("cannot add maps of different shifts")
    degrees = set(self.maps) | set(other.maps)
    return GradedLinearMap(self.source, self.target, self.shift, {
        n: self.matrix(n) - other.matrix(n) for n in degrees})


def pos_rule_map(source, target, shift, rule):
    """dg._rule_map as first written: every slot looked up by its label."""
    maps = {}
    for n_out in range(target.max_degree + 1):
        n_in = n_out - shift
        if not (0 <= n_in <= source.max_degree):
            continue
        data = {}
        pos_out, pos_in = slot_index(target)[n_out], slot_index(source)[n_in]
        block_size = Counter(anchor for anchor, _ in source.labels[n_in])
        for anchor in dict.fromkeys(a for a, _ in target.labels[n_out]):
            for coef, anchor_in, matrix in rule(n_out, anchor):
                if matrix is None:
                    entries = ((k, k, coef)
                               for k in range(block_size[anchor_in]))
                else:
                    entries = ((i, j, coef * v)
                               for (i, j), v in matrix.data.items())
                for i, j, v in entries:
                    key = (pos_out[(anchor, i)], pos_in[(anchor_in, j)])
                    data[key] = data.get(key, 0) + v
        maps[n_in] = QMatrix(target.dim(n_out), source.dim(n_in), data)
    return GradedLinearMap(source, target, shift, maps)


CHAIN = load_bench_module("chainmodel")
# (model, truncation degree)
HOKAN_MODELS = {
    "fix-b": (load_bundled("fix-b"), 3),
    "fix-d": (load_bundled("fix-d"), 3),
    "fix-e": (load_bundled("fix-e"), 3),
    "chain(2,Z3)": (CHAIN.chain_dict(2, "Z3"), 3),
}


def hokan_of(name):
    doc, degree = HOKAN_MODELS[name]
    m = model_from_dict(doc)
    return HoKan(m.fibered(), m.loc, m.A, degree)


def arrows_of(hk):
    base = hk.fm.loc
    return sorted(f for f in base.morphisms if not base.is_identity(f))


def composable(hk, length):
    base = hk.fm.loc
    return [fs for fs in product(arrows_of(hk), repeat=length)
            if all(base.source(outer) == base.target(inner)
                   for outer, inner in zip(fs, fs[1:]))]


def extension_arrows(hk):
    """The non-identity Cauchy arrows, on a strongly Cauchy flabby model."""
    if not flabbiness_report(hk.fm, hk.loc).strongly_cauchy_flabby:
        return []
    return sorted(f for f in hk.loc.cauchy if f in arrows_of(hk))


def composites(hk):
    """The composites of the eta, gamma2, gamma3 and phi identities by key:
    their left-hand sides and the composition homotopies."""
    base, u, g2 = hk.fm.loc, hk.hou_morphism, hk.gamma2
    out = {f"eta:{M}": hk.zeta(M).after(hk.kappa(M))
           for M in sorted(base.objects)}
    for g, f in composable(hk, 2):
        out[f"gamma2:{g}:{f}"] = u(g).after(u(f)) - u(base.comp(g, f))
        out[f"gamma2-homotopy:{g}:{f}"] = g2(g, f)
    for h, g, f in composable(hk, 3):
        out[f"gamma3:{h}:{g}:{f}"] = (
            g2(h, base.comp(g, f)) + u(h).after(g2(g, f))
            - g2(base.comp(h, g), f) - g2(h, g).after(u(f)))
    for f in extension_arrows(hk):
        out[f"phi:{f}"] = hk.ext_pullback(f).after(u(f))
    return out


def entries(f):
    """Every stored degree of a graded map in order, each matrix with its
    shape and its entries in insertion order."""
    return [(n, m.rows, m.cols, list(m.data.items()))
            for n, m in f.maps.items()]


def test_composites_match_the_eager_oracle(monkeypatch):
    keys = set()
    for name in HOKAN_MODELS:
        hk = hokan_of(name)
        top = hk.max_degree
        lazy = composites(hk)
        # built degree by degree, each degree read once or twice
        for f in lazy.values():
            for n in range(-1, top + 2):
                f.matrix(n)
        with monkeypatch.context() as patch:
            patch.setattr(GradedLinearMap, "after", eager_after)
            patch.setattr(GradedLinearMap, "__add__", eager_add)
            patch.setattr(GradedLinearMap, "__sub__", eager_sub)
            eager = composites(hk)
        assert lazy.keys() == eager.keys()
        for key, f in lazy.items():
            assert all(isinstance(m, QMatrix) for m in f.maps.values())
            assert entries(f) == entries(eager[key]), (name, key)
            for n in range(-2, top + 3):
                assert f.matrix(n) == eager[key].matrix(n), (name, key, n)
        keys |= {key.split(":")[0] for key in lazy}
    assert keys == {"eta", "gamma2", "gamma2-homotopy", "gamma3", "phi"}


def rule_built_maps(hk):
    """Every map that slot rules build on hk's model, by key: the cochain
    differentials, the comparison maps and homotopies per object and arrow,
    and the tensor data of every causal cospan."""
    base = hk.fm.loc
    out = {}
    for M in sorted(base.objects):
        for kind in ("hou_object", "horan_object"):
            cx = getattr(hk, kind)(M).dga.complex
            out[f"d:{kind}:{M}"] = GradedLinearMap(cx, cx, 1, cx.differentials)
        for kind in ("kappa", "zeta", "eta_homotopy", "rho", "beta_homotopy"):
            out[f"{kind}:{M}"] = getattr(hk, kind)(M)
    for f in sorted(base.morphisms):
        out[f"hou:{f}"] = hk.hou_morphism(f)
        out[f"horan:{f}"] = hk.horan_morphism(f)
    for f in extension_arrows(hk):
        out[f"ext:{f}"] = hk.ext_pullback(f)
        out[f"phi:{f}"] = hk.phi_homotopy(f)
        out[f"phibar:{f}"] = hk.phibar_homotopy(f)
    # the tensor differential reads source anchors (p1, i) with no slots in
    # degrees below p1: the block of such an anchor is empty
    for f1, f2 in hk.loc.causal_cospans:
        M, t, big_l, _, _ = hk.cospan(f1, f2)
        out[f"d:tensor:{f1}:{f2}"] = GradedLinearMap(t, t, 1, t.differentials)
        out[f"L:{f1}:{f2}"] = big_l
        out[f"rho x beta:{f1}:{f2}"] = tensor_map(
            hk.rho(M), hk.beta_homotopy(M), t, t)
    return out


def test_rule_maps_match_the_label_lookup_oracle(monkeypatch):
    for name in HOKAN_MODELS:
        got = {key: entries(f) for key, f in rule_built_maps(hokan_of(name)).items()}
        with monkeypatch.context() as patch:
            patch.setattr(dg, "_rule_map", pos_rule_map)
            want = {key: entries(f)
                    for key, f in rule_built_maps(hokan_of(name)).items()}
        assert list(got) == list(want)
        for key in got:
            assert got[key] == want[key], (name, key)


def test_a_check_below_the_top_degree_builds_no_top_degree_product(
        monkeypatch):
    hk = hokan_of("fix-e")
    base, u, top = hk.fm.loc, hk.hou_morphism, hk.max_degree
    products = []

    def counted(a, b):
        products.append((a.rows, b.cols))
        return a * b

    checks = []
    for M in sorted(base.objects):
        horan = hk.horan_object(M).dga.complex
        checks.append((lambda M=M: hk.zeta(M).after(hk.kappa(M)),
                       GradedLinearMap.identity(horan), hk.eta_homotopy(M)))
    for g, f in composable(hk, 2):
        checks.append((lambda g=g, f=f: u(g).after(u(f)) - u(base.comp(g, f)),
                       None, hk.gamma2(g, f)))
    assert len(checks) == 8
    # the homotopies are formed before products are counted: only the
    # composites of the left-hand sides count
    monkeypatch.setattr(dg, "mul", counted)
    for build, rhs, h in checks:
        del products[:]
        lhs = build()
        assert products == []
        rhs = rhs or GradedLinearMap.zero(lhs.source, lhs.target)
        assert check_homotopy_identity(lhs, rhs, h, top - 1) == []
        # one product per degree below the top, and none in the top degree
        assert len(products) == top
        lhs.matrix(top)
        lhs.matrix(top)
        assert len(products) == top + 1


def test_block_offsets_need_contiguous_slots():
    cx = Complex(1, {0: (("a", 0), ("a", 1), ("b", 0)), 1: ()}, {})
    assert cx.blocks == {0: {"a": (0, 2), "b": (2, 1)}, 1: {}}
    for labels in ((("a", 0), ("b", 0), ("a", 1)), (("a", 1),),
                   (("a", 0), ("a", 0)), (("a", 0), ("a", 2))):
        bad = Complex(0, {0: labels}, {})
        with pytest.raises(dg.ComplexError):
            bad.blocks
        with pytest.raises(dg.ComplexError):
            dg._rule_map(bad, bad, 0, lambda n, anchor: ())
    # a rule's matrix must have the shape of the two blocks it joins
    with pytest.raises(dg.ComplexError):
        dg._rule_map(cx, cx, 0, lambda n, anchor: [
            (1, anchor, QMatrix.identity(2))])


def test_rule_map_drops_the_entries_that_cancel():
    # on the slots of b two triples cancel in whole, and on one slot of a
    # (a row of the map) two others cancel in part
    cx = Complex(0, {0: (("a", 0), ("a", 1), ("b", 0), ("b", 1))}, {})

    def rule(n, anchor):
        if anchor == "b":
            yield 1, "a", QMatrix.from_rows([[1, 2], [0, 3]])
            yield -1, "a", QMatrix.from_rows([[1, 0], [0, 3]])
        else:
            yield 1, "b", None
            yield -1, "b", None

    got = dg._rule_map(cx, cx, 0, rule).matrix(0)
    assert got.by_row == {2: {1: 2}}
    assert got == QMatrix(4, 4, {(2, 1): 2})
    assert got == pos_rule_map(cx, cx, 0, rule).matrix(0)


def slot_complex(sizes):
    """A complex of degrees 0 and 1, zero differential, with sizes[n][a]
    slots (a, k) on anchor a in degree n; an anchor of size 0 has none."""
    return Complex(1, {n: tuple((a, k) for a, size in degree.items()
                                for k in range(size))
                       for n, degree in enumerate(sizes)}, {})


rule_coefs = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
block_entries = st.sampled_from([0, 1, -1, 3, Fraction(2, 3)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rule_maps_match_the_oracle_on_random_slot_rules(data):
    anchors = st.dictionaries(st.sampled_from("abc"), st.integers(0, 3))
    sizes_in, sizes_out = ([data.draw(anchors) for _ in range(2)]
                           for _ in range(2))
    source, target = slot_complex(sizes_in), slot_complex(sizes_out)
    shift = data.draw(st.integers(-1, 1))
    table = {}
    for n, degree in enumerate(sizes_out):
        if not 0 <= n - shift <= 1:
            continue
        for anchor, rows in degree.items():
            triples = table[n, anchor] = []
            for _ in range(data.draw(st.integers(0, 4))):
                # "d" never has slots: its block is empty, as is one of size 0
                anchor_in = data.draw(st.sampled_from("abcd"))
                cols = sizes_in[n - shift].get(anchor_in, 0)
                matrix = None if cols == rows and data.draw(st.booleans()) \
                    else QMatrix(rows, cols, {
                        (i, j): data.draw(block_entries)
                        for i in range(rows) for j in range(cols)})
                triples.append((data.draw(rule_coefs), anchor_in, matrix))
            # a triple again with its coefficient negated cancels in whole
            if triples and data.draw(st.booleans()):
                coef, anchor_in, matrix = data.draw(st.sampled_from(triples))
                triples.append((-coef, anchor_in, matrix))

    def rule(n, anchor):
        return table.get((n, anchor), ())

    got = dg._rule_map(source, target, shift, rule)
    want = pos_rule_map(source, target, shift, rule)
    assert got.maps.keys() == want.maps.keys()
    for n, m in got.maps.items():
        assert m == want.matrix(n), n
        assert all(row and all(row.values()) for row in m.by_row.values())


def test_rule_map_refuses_mismatched_identities_and_inexact_coefficients():
    cx = Complex(0, {0: (("a", 0), ("a", 1), ("b", 0))}, {})
    # an identity block joins two anchors of one size, and an anchor with
    # no slots ("c") has size 0
    for anchor_in in ("b", "c"):
        with pytest.raises(dg.ComplexError, match="wrong shape"):
            dg._rule_map(cx, cx, 0, lambda n, anchor: [
                (1, anchor_in, None)] if anchor == "a" else ())
    # a float coefficient is refused, also a zero one that adds nothing and
    # two that cancel
    for triples in ([(0.5, "a", None)], [(0.0, "a", None)],
                    [(0.0, "a", QMatrix.identity(2))],
                    [(-1.5, "a", QMatrix.from_rows([[1, 0], [2, 3]]))],
                    [(0.5, "a", None), (-0.5, "a", None)]):
        with pytest.raises(TypeError, match="inexact slot rule coefficient"):
            dg._rule_map(cx, cx, 0, lambda n, anchor: (
                triples if anchor == "a" else ()))


def test_slot_maps_and_unit_sums_add_in_place(monkeypatch):
    # the parser multiplies in the algebras through _axpy: it runs before
    # the count starts
    m = model_from_dict(load_bundled("fix-e"))
    hk = HoKan(m.fibered(), m.loc, m.A, 3)
    calls = []
    axpy = dg._axpy

    def counted(*args):
        calls.append(args)
        axpy(*args)

    monkeypatch.setattr(dg, "_axpy", counted)
    built = []
    for M in sorted(hk.fm.loc.objects):
        built += [hk.hou_object(M).dga, hk.horan_object(M).dga]
        for kind in ("kappa", "zeta", "eta_homotopy", "rho", "beta_homotopy"):
            assert getattr(hk, kind)(M).maps
    assert calls == []
    # the cup products multiply through _axpy, so the count is live; the
    # law suite's unit sums then add in place
    for dga in built:
        dga.products
    assert calls
    del calls[:]
    for dga in built:
        dga.law_failures()
    assert calls == []


# --- the nested law check as an oracle of the flat index --------------------


def nested_integer_tables(products):
    """dg._integer_tables as it was: the scaled integer vectors indexed
    {i: {j: vec}} by the left factor and {j: {i: vec}} by the right one."""
    scale = lcm(*(v.denominator for table in products.values()
                  for vec in table.values() for v in vec.values()))
    by_left, by_right = {}, {}
    for key, table in products.items():
        left, right = by_left[key], by_right[key] = {}, {}
        for (i, j), vec in table.items():
            ints = {m: v.numerator * (scale // v.denominator)
                    for m, v in vec.items() if v}
            if ints:
                left.setdefault(i, {})[j] = ints
                right.setdefault(j, {})[i] = ints
    return scale, by_left, by_right


def nested_unit_sums(unit, index):
    sums = {}
    for u, c in unit.items():
        for i, vec in index.get(u, {}).items():
            _axpy(sums.setdefault(i, {}), c, vec)
    return sums


def nested_unit_failures(dga, scale, by_left, by_right):
    cx = dga.complex
    for n in range(cx.max_degree + 1):
        left = nested_unit_sums(dga.unit, by_left.get((0, n), {}))
        right = nested_unit_sums(dga.unit, by_right.get((n, 0), {}))
        for i in range(cx.dim(n)):
            e = {i: scale}
            if left.get(i, {}) != e:
                yield n, i, "left"
            if right.get(i, {}) != e:
                yield n, i, "right"


def nested_associativity_failures(dga, by_left, by_right):
    top = dga.complex.max_degree
    for n1 in range(top + 1):
        for n2 in range(top + 1 - n1):
            for n3 in range(top + 1 - n1 - n2):
                diff = {}
                after = by_left.get((n1 + n2, n3), {})
                for i, row in by_left.get((n1, n2), {}).items():
                    for j, xy in row.items():
                        for l, c in xy.items():
                            for k, vec in after.get(l, {}).items():
                                for m, v in vec.items():
                                    key = (i, j, k, m)
                                    diff[key] = diff.get(key, 0) + c * v
                before = by_right.get((n1, n2 + n3), {})
                for j, row in by_left.get((n2, n3), {}).items():
                    for k, yz in row.items():
                        for l, c in yz.items():
                            for i, vec in before.get(l, {}).items():
                                for m, v in vec.items():
                                    key = (i, j, k, m)
                                    diff[key] = diff.get(key, 0) - c * v
                failing = {key[:3] for key, v in diff.items() if v}
                for ijk in sorted(failing):
                    yield (n1, n2, n3, *ijk)


def nested_leibniz_failures(dga, by_left, by_right):
    cx = dga.complex
    top = cx.max_degree
    scale = lcm(*(v.denominator for n in range(top)
                  for v in cx.d(n).data.values()))
    d = [{j: {i: v.numerator * (scale // v.denominator)
              for i, v in col.items()} for j, col in cx.d(n).by_col.items()}
         for n in range(top)]
    for n1 in range(top):
        for n2 in range(top - n1):
            sign = -1 if n1 % 2 else 1
            diff = {}
            d12 = d[n1 + n2]
            for i, row in by_left.get((n1, n2), {}).items():
                for j, xy in row.items():
                    for l, c in xy.items():
                        for m, v in d12.get(l, {}).items():
                            key = (i, j, m)
                            diff[key] = diff.get(key, 0) + c * v
            t1 = by_left.get((n1 + 1, n2), {})
            for i, col in d[n1].items():
                for l, c in col.items():
                    for j, vec in t1.get(l, {}).items():
                        for m, v in vec.items():
                            key = (i, j, m)
                            diff[key] = diff.get(key, 0) - c * v
            t2 = by_right.get((n1, n2 + 1), {})
            for j, col in d[n2].items():
                for l, c in col.items():
                    c *= sign
                    for i, vec in t2.get(l, {}).items():
                        for m, v in vec.items():
                            key = (i, j, m)
                            diff[key] = diff.get(key, 0) - c * v
            rows, cols = range(cx.dim(n1)), range(cx.dim(n2))
            failing = {(i, j) for (i, j, _), v in diff.items()
                       if v and i in rows and j in cols}
            for ij in sorted(failing):
                yield (n1, n2, *ij)


def nested_law_failures(dga):
    """Dga.law_failures on the nested integer tables it read before the
    flat entry lists."""
    scale, by_left, by_right = nested_integer_tables(dga.products)
    return (list(nested_unit_failures(dga, scale, by_left, by_right)),
            list(nested_associativity_failures(dga, by_left, by_right)),
            list(nested_leibniz_failures(dga, by_left, by_right)))


def with_explicit_zeros(dga, shift):
    """The same dg-algebra with explicit zeros: every basis pair (i, j) of
    every table holds entry (i + j + shift) mod the dimension, a zero where
    the product had none there, and the unit holds every degree-0 index."""
    cx = dga.complex
    products = {key: {pair: dict(vec) for pair, vec in table.items()}
                for key, table in dga.products.items()}
    for (n1, n2), table in products.items():
        for i, j in product(range(cx.dim(n1)), range(cx.dim(n2))):
            m = (i + j + shift) % cx.dim(n1 + n2)
            table.setdefault((i, j), {}).setdefault(m, 0)
    unit = {u: dga.unit.get(u, 0) for u in range(cx.dim(0))}
    return Dga(cx, products, unit)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_law_failures_match_the_nested_oracle(data):
    dga = nudged_dga(data)
    got = dga.law_failures()
    assert got == nested_law_failures(dga)
    zeros = with_explicit_zeros(dga, data.draw(st.integers(0, 3)))
    assert 0 in zeros.unit.values()
    assert {} in [{m: v for m, v in vec.items() if v}
                  for table in zeros.products.values()
                  for vec in table.values()]
    assert zeros.law_failures() == nested_law_failures(zeros) == got


def test_law_failures_match_the_nested_oracle_on_a_perturbed_horan():
    hk = hokan_of("fix-e")
    dga = hk.horan_object("M0").dga
    assert hk.max_degree == 3
    assert dga.law_failures() == nested_law_failures(dga) == ([], [], [])
    # one entry of one degree-(1, 1) product changed
    pair, vec = sorted(dga.products[(1, 1)].items())[0]
    m = min(vec)
    vec[m] += 1
    got = dga.law_failures()
    assert got == nested_law_failures(dga)
    assert got[1] and got[2]


def test_a_zero_unit_entry_and_a_cancelling_unit_sum():
    # e0 is the unit of e0 e0 = e0, e0 e1 = e1 e0 = e1 e1 = e1; the unit
    # e0 - e1 cancels on e1, and a sum that cancels drops its entry, as
    # _axpy does, with no KeyError
    cx = Complex(0, {0: (0, 1)}, {})
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}}
    both = [(0, i, side) for i in (0, 1) for side in ("left", "right")]
    for unit, fails in (({0: 1}, []), ({0: 1, 1: 0}, []),
                        ({1: 0, 0: 1}, []), ({0: 1, 1: -1}, both)):
        dga = Dga(cx, {(0, 0): table}, unit)
        assert dga.law_failures() == nested_law_failures(dga) \
            == (fails, [], [])
    assert dg._unit_sums({0: 1, 1: -1}, {0: [(1, 1, 1)], 1: [(1, 1, 1)]}) \
        == nested_unit_sums({0: 1, 1: -1}, {0: {1: {1: 1}}, 1: {1: {1: 1}}}) \
        == {1: {}}
    assert dg._unit_sums({0: 0}, {0: [(0, 0, 1)]}) \
        == nested_unit_sums({0: 0}, {0: {0: {0: 1}}}) == {0: {}}


# --- homotopy identities against a zero map ---------------------------------


def negated(m):
    """-m in one matrix, as the removed QMatrix.__neg__ built it, so the
    oracles below build as many matrices as the checks they stand for."""
    return QMatrix(m.rows, m.cols, {k: -v for k, v in m.data.items()})


def subtracting_homotopy_identity(lhs, rhs, homotopy, up_to):
    """dg.check_homotopy_identity as it was: lhs - rhs in every degree, for
    a zero rhs too."""
    s = homotopy.shift
    src, tgt = lhs.source, lhs.target
    bad = []
    for n in range(up_to + 1):
        got = homotopy.matrix(n + 1) * src.d(n)
        if s % 2 == 0:
            got = negated(got)
        if n + s >= 0:
            got = got + tgt.d(n + s) * homotopy.matrix(n)
        if lhs.matrix(n) - rhs.matrix(n) != got:
            bad.append(n)
    return bad


def homotopy_identities(hk):
    """The failing degrees of eta per object, gamma2 per composable pair and
    gamma3 per composable triple, and of gamma2 with hou(g after f) left out
    of its left side, which fails."""
    base, u, g2, top = hk.fm.loc, hk.hou_morphism, hk.gamma2, hk.max_degree
    out = {}
    for M in sorted(base.objects):
        out[f"eta:{M}"] = dg.check_homotopy_identity(
            hk.zeta(M).after(hk.kappa(M)),
            GradedLinearMap.identity(hk.horan_object(M).dga.complex),
            hk.eta_homotopy(M), top - 1)
    for g, f in composable(hk, 2):
        composite = u(g).after(u(f))
        for key, lhs in (("gamma2", composite - u(base.comp(g, f))),
                         ("uncorrected", composite)):
            out[f"{key}:{g}:{f}"] = dg.check_homotopy_identity(
                lhs, GradedLinearMap.zero(lhs.source, lhs.target),
                g2(g, f), top - 1)
    for h, g, f in composable(hk, 3):
        out[f"gamma3:{h}:{g}:{f}"] = check_square_homotopy(
            g2(h, base.comp(g, f)) + u(h).after(g2(g, f))
            - g2(base.comp(h, g), f) - g2(h, g).after(u(f)),
            hk.gamma3(h, g, f), top - 2)
    return out


def counted_builds(monkeypatch):
    """A list that gains an item for every QMatrix built from here on:
    products, sums and slot maps take the private row constructor, parsed
    and hand-built matrices the public one."""
    built = []
    init, of_rows = QMatrix.__init__, QMatrix._of_rows

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counted_rows(cls, *args):
        built.append(1)
        return of_rows(*args)

    monkeypatch.setattr(QMatrix, "__init__", counted)
    monkeypatch.setattr(QMatrix, "_of_rows", classmethod(counted_rows))
    return built


def test_a_zero_rhs_builds_fewer_matrices_and_the_same_degrees(monkeypatch):
    # chain(6,Z2) at degree 2, the size of the chain-coherence workload
    m = model_from_dict(CHAIN.chain_dict(6, "Z2"))
    built = counted_builds(monkeypatch)
    results, counts = [], []
    for check in (dg.check_homotopy_identity, subtracting_homotopy_identity):
        monkeypatch.setattr(dg, "check_homotopy_identity", check)
        hk = HoKan(m.fibered(), m.loc, m.A, 2)
        del built[:]
        results.append(homotopy_identities(hk))
        counts.append(len(built))
    got, want = results
    assert got == want
    assert any(got.values())
    assert any(key.startswith("gamma3") for key in got)
    assert counts[0] < counts[1], counts


# --- differences in one pass, identities on first read, no negation --------


def test_a_difference_builds_one_matrix_per_degree(monkeypatch):
    cx = two_step_complex()
    f = GradedLinearMap(cx, cx, 0, {
        0: QMatrix.from_rows([[1, 2], [0, 3]]),
        1: QMatrix.from_rows([[1, 0], [0, 1]]),
        2: QMatrix.from_rows([[5]])})
    g = GradedLinearMap(cx, cx, 0, {
        0: QMatrix.from_rows([[1, 0], [4, 3]]),
        1: QMatrix.from_rows([[1, 0], [0, 1]]),
        2: QMatrix.from_rows([[Fraction(1, 2)]])})
    want = {0: [[0, 2], [-4, 0]], 1: [[0, 0], [0, 0]], 2: [[Fraction(9, 2)]]}
    built = counted_builds(monkeypatch)
    diff = f - g
    assert built == []
    for n, rows in want.items():
        del built[:]
        m = diff.matrix(n)
        assert diff.matrix(n) is m
        assert len(built) == 1, n
        assert m == QMatrix.from_rows(rows)
    del built[:]
    f.matrix(0) - g.matrix(0)
    assert len(built) == 1
    # maps of different shifts have no difference
    with pytest.raises(dg.ComplexError):
        f - GradedLinearMap.zero(cx, cx, 1)
    with pytest.raises(ValueError):
        f.matrix(0) - f.matrix(2)


def test_an_identity_builds_only_the_degrees_read(monkeypatch):
    m = model_from_dict(load_bundled("fix-e"))
    hk = HoKan(m.fibered(), m.loc, m.A, 3)
    M = sorted(m.loc.base.objects)[0]
    cx = hk.horan_object(M).dga.complex
    lhs, h = hk.zeta(M).after(hk.kappa(M)), hk.eta_homotopy(M)
    calls = []
    identity = QMatrix.identity

    def counted(cls, n):
        calls.append(n)
        return identity(n)

    monkeypatch.setattr(QMatrix, "identity", classmethod(counted))
    ident = GradedLinearMap.identity(cx)
    assert calls == []
    # the eta check reads degrees up to top - 1 and never the top one
    assert check_homotopy_identity(lhs, ident, h, 2) == []
    assert calls == [cx.dim(n) for n in range(3)]
    assert ident.matrix(1) is ident.matrix(1)
    assert ident.maps == {n: identity(cx.dim(n)) for n in range(4)}
    assert calls == [cx.dim(n) for n in range(4)]


def negating_homotopy_identity(lhs, rhs, homotopy, up_to):
    """dg.check_homotopy_identity as it was: for an even shift, H*d is
    negated into a matrix of its own and rhs is added to the right side."""
    s = homotopy.shift
    src, tgt = lhs.source, lhs.target
    bad = []
    for n in range(up_to + 1):
        got = homotopy.matrix(n + 1) * src.d(n)
        if s % 2 == 0:
            got = negated(got)
        if n + s >= 0:
            got = got + tgt.d(n + s) * homotopy.matrix(n)
        if n in rhs._maps:
            got = got + rhs.matrix(n)
        if lhs.matrix(n) != got:
            bad.append(n)
    return bad


def cochain_map_identities(hk, check):
    """Even-shift identities with kappa(M) as the homotopy H: as a cochain
    map it has d*H - H*d = 0, so lhs - rhs = 0 holds exactly where lhs and
    rhs agree, which fails for d after kappa against zero."""
    out = {}
    for M in sorted(hk.fm.loc.objects):
        k = hk.kappa(M)
        src_d, tgt_d = (GradedLinearMap(cx, cx, 1, cx.differentials)
                        for cx in (k.source, k.target))
        zero = GradedLinearMap.zero(k.source, k.target, 1)
        for key, lhs, rhs in (("zero", zero, zero),
                              ("d after kappa", tgt_d.after(k), zero),
                              ("naturality", k.after(src_d), tgt_d.after(k)),
                              ("minus", zero, tgt_d.after(k))):
            out[f"{key}:{M}"] = check(lhs, rhs, k, hk.max_degree - 1)
    return out


def test_an_even_shift_check_negates_nothing(monkeypatch):
    # chain(6,Z2) at degree 2, the size of the chain-coherence workload
    m = model_from_dict(CHAIN.chain_dict(6, "Z2"))
    built = counted_builds(monkeypatch)
    results, counts = [], []
    for check in (dg.check_homotopy_identity, negating_homotopy_identity):
        hk = HoKan(m.fibered(), m.loc, m.A, 2)
        del built[:]
        results.append(cochain_map_identities(hk, check))
        counts.append(len(built))
    got, want = results
    assert got == want
    assert any(got.values()) and not all(got.values())
    assert all(got[key] == [] for key in got
               if key.startswith(("zero:", "naturality:")))
    assert counts[0] < counts[1], counts
