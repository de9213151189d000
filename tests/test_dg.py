from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibkan import dg
from fibkan.dg import (
    Complex,
    Dga,
    GradedLinearMap,
    TensorComplex,
    algebra_to_dga,
    canonical_e,
    check_homotopy_identity,
    cohomology_dim,
    holim_dgalg,
    is_weak_equivalence,
    lim_dgalg,
    mu_map,
    muop_map,
    tensor_map,
)
from fibkan.fixtures import load_bundled
from fibkan.models import model_from_dict
from fibkan.qlinalg import QMatrix, kernel_basis, rank, rat

N = 4


def z2_diagram():
    """The Z2 symmetry of the 2x2 matrix algebra as a one-object diagram."""
    m = model_from_dict(load_bundled("fix-a"))
    return dg.DgaDiagram(
        m.strcat, {"x": algebra_to_dga(m.A.algebra("x"), 0)},
        {"id_x": QMatrix.identity(4), "g": m.A.matrix("g")})


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


def test_algebra_to_dga_validates():
    m = model_from_dict(load_bundled("fix-a"))
    dga = algebra_to_dga(m.A.algebra("x"), 2)
    assert dga.violations() == []
    assert dga.complex.dim(0) == 4
    assert dga.complex.dim(1) == 0


def test_dga_violations_catch_broken_unit():
    m = model_from_dict(load_bundled("fix-a"))
    dga = algebra_to_dga(m.A.algebra("x"), 1)
    dga.unit = {0: rat(1)}  # E11 alone is not a two-sided unit
    assert dga.violations() == [
        "right unit law fails in degree 0 at index 1",
        "left unit law fails in degree 0 at index 2",
        "left unit law fails in degree 0 at index 3",
        "right unit law fails in degree 0 at index 3",
    ]


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
    diagram = dg.algebra_diagram(m.strcat, m.A.algebra, m.A.matrix)
    assert diagram.maps == z2_diagram().maps
    lim = lim_dgalg(diagram)
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
    t = TensorComplex(cx, cx, 4)
    assert t.violations() == []
    assert t.dim(0) == 4
    assert t.dim(1) == 8  # 2*2 twice
    ident = GradedLinearMap.identity(cx)
    ii = tensor_map(ident, ident, t, t)
    for p in range(5):
        assert ii.matrix(p) == QMatrix.identity(t.dim(p))


def test_tensor_map_koszul_sign():
    cx = two_step_complex()
    t = TensorComplex(cx, cx, 4)
    ident = GradedLinearMap.identity(cx)
    # a degree -1 map paired with the identity picks up no sign on the left
    h = GradedLinearMap(cx, cx, -1, {
        1: QMatrix.from_rows([[1, 0], [0, 0]]),
        2: QMatrix.from_rows([[0], [1]]),
    })
    left = tensor_map(h, ident, t, t)
    right = tensor_map(ident, h, t, t)
    # (h ox id)(c ox c) has no sign; (id ox h)(c ox c) gains (-1)^{|c|}
    col = t.pos[2][(1, 0, 0)]  # c ox c
    lcol = left.matrix(2).column(col)
    rcol = right.matrix(2).column(col)
    assert lcol == {t.pos[1][(0, 0, 0)]: rat(1)}  # a ox c
    assert rcol == {t.pos[1][(1, 0, 0)]: rat(-1)}  # -(c ox a)


def test_mu_map_is_cochain_map():
    holim = holim_dgalg(z2_diagram(), N)
    t = TensorComplex(holim.complex, holim.complex, N)
    mu = mu_map(holim, t)
    muop = muop_map(holim, t)
    assert mu.is_cochain_map()
    assert muop.is_cochain_map()
    # in degree 0 both agree on the commutative invariant part but the
    # underlying algebra is noncommutative, so mu != muop somewhere
    assert any(mu.matrix(p) != muop.matrix(p) for p in range(N + 1))


def test_dga_violations_catch_bad_product():
    m = model_from_dict(load_bundled("fix-a"))
    dga = algebra_to_dga(m.A.algebra("x"), 1)
    table = dga.products[(0, 0)]
    table[(1, 1)] = {0: rat(1)}  # E12 * E12 must be zero
    assert Dga(dga.complex, dga.products, dga.unit).violations() == [
        f"associativity fails on degrees (0,0,0) indices {ijk}"
        for ijk in ("(1,0,1)", "(1,1,0)", "(1,1,1)", "(1,1,3)", "(1,3,1)",
                    "(2,1,1)")]
