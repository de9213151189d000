from fractions import Fraction

import pytest

from fibkan import dg
from fibkan.dg import (
    Complex,
    ComplexError,
    Dga,
    GradedLinearMap,
    algebra_to_dga,
    canonical_e,
    check_homotopy_identity,
    cohomology_dim,
    cohomology_representatives,
    graded_tensor,
    holim_dgalg,
    induced_cohomology_map,
    is_weak_equivalence,
    lim_dgalg,
    mu_map,
    muop_map,
    tensor_map,
    validate_complex,
    validate_dga,
)
from fibkan.fixtures import fixture
from fibkan.models import model_from_dict
from fibkan.qlinalg import QMatrix, kernel_basis, rank, rat

N = 4


def z2_diagram():
    """The Z2 symmetry of the 2x2 matrix algebra as a one-object diagram."""
    m = model_from_dict(fixture("fix-a"))
    return dg.DgaDiagram(
        m.strcat, {"x": algebra_to_dga(m.A.algebra("x"), 0)},
        {"id_x": QMatrix.identity(4), "g": m.A.matrix("g")})


def two_step_complex():
    """0 -> Q^2 -> Q^2 -> Q -> 0 with d0 = [[1,0],[0,0]], d1 = [0, 1]."""
    d0 = QMatrix.from_rows([[1, 0], [0, 0]])
    d1 = QMatrix.from_rows([[0, 1]])
    return validate_complex(2, {0: ("a", "b"), 1: ("c", "d"), 2: ("e",)},
                            {0: d0, 1: d1})


def test_validate_complex_rejects_nonsquare_zero():
    d0 = QMatrix.from_rows([[1, 0], [0, 1]])
    d1 = QMatrix.from_rows([[1, 0]])
    with pytest.raises(ComplexError) as err:
        validate_complex(2, {0: (0, 1), 1: (0, 1), 2: (0,)}, {0: d0, 1: d1})
    assert "d*d" in str(err.value)


def test_cohomology_of_two_step_complex():
    cx = two_step_complex()
    # ker d0 = span(b); im into degree 1 = span(c); ker d1 = span(c)
    assert cohomology_dim(cx, 0) == 1
    assert cohomology_dim(cx, 1) == 0
    assert cohomology_dim(cx, 2) == 0
    reps = cohomology_representatives(cx, 0)
    assert reps == [(rat(0), rat(1))]


def test_graded_map_algebra():
    cx = two_step_complex()
    ident = GradedLinearMap.identity(cx)
    assert ident.is_cochain_map()
    double = ident + ident
    assert double.matrix(0) == QMatrix.identity(2).scale(rat(2))
    assert (double - ident).matrix(1) == QMatrix.identity(2)
    assert ident.after(ident).matrix(2) == QMatrix.identity(1)
    assert is_weak_equivalence(ident, 2)
    zero = GradedLinearMap.zero(cx, cx)
    assert not is_weak_equivalence(zero, 0)


def test_check_homotopy_identity_contractible_part():
    cx = two_step_complex()
    ident = GradedLinearMap.identity(cx)
    # projection onto the cohomology (kill a, c, d, e) is homotopic to id
    p = GradedLinearMap(cx, cx, 0, {0: QMatrix.from_rows([[0, 0], [0, 1]])})
    h = GradedLinearMap(cx, cx, -1, {
        1: QMatrix.from_rows([[1, 0], [0, 0]]),
        2: QMatrix.from_rows([[0], [1]]),
    })
    assert check_homotopy_identity(ident, p, h, 2) == []
    bad = GradedLinearMap(cx, cx, -1, {1: QMatrix.from_rows([[1, 1], [0, 0]])})
    assert check_homotopy_identity(ident, p, bad, 2) != []


def test_induced_cohomology_map_identity():
    cx = two_step_complex()
    ident = GradedLinearMap.identity(cx)
    m = induced_cohomology_map(ident, 0)
    assert m == QMatrix.identity(1)


def test_algebra_to_dga_validates():
    m = model_from_dict(fixture("fix-a"))
    dga = algebra_to_dga(m.A.algebra("x"), 2)
    assert dga.violations() == []
    assert dga.complex.dim(0) == 4
    assert dga.complex.dim(1) == 0


def test_dga_violations_catch_broken_unit():
    m = model_from_dict(fixture("fix-a"))
    dga = algebra_to_dga(m.A.algebra("x"), 1)
    dga.unit = {0: rat(1)}  # E11 alone is not a two-sided unit
    assert any("unit law" in v for v in dga.violations())


def unit_table(dim):
    """Products of the unit (index 0) with every basis element of a degree."""
    return {pair: {k: rat(1)} for k in range(dim)
            for pair in ((0, k), (k, 0))}


def test_dga_violations_catch_broken_leibniz():
    # span(1, x) -> span(y) with dx = y; x * x = x breaks d(x x) = dx x + x dx
    cx = validate_complex(1, {0: ("1", "x"), 1: ("y",)},
                          {0: QMatrix.from_rows([[0, 1]])})
    products = {
        (0, 0): {**unit_table(2), (1, 1): {1: rat(1)}},
        (0, 1): {(0, 0): {0: rat(1)}},
        (1, 0): {(0, 0): {0: rat(1)}},
    }
    violations = Dga(cx, products, {0: rat(1)}).violations()
    assert violations == ["Leibniz rule fails on degrees (0,0) indices (1,1)"]


def test_dga_violations_catch_broken_associativity():
    # a * a = b, b * a = a, a * b = 0: (a a) a = a but a (a a) = 0
    cx = validate_complex(0, {0: ("1", "a", "b")}, {})
    products = {(0, 0): {**unit_table(3), (1, 1): {2: rat(1)},
                         (2, 1): {1: rat(1)}}}
    violations = Dga(cx, products, {0: rat(1)}).violations()
    assert "associativity fails on degrees (0,0,0) indices (1,1,1)" \
        in violations
    assert not any("unit" in v or "Leibniz" in v for v in violations)


def test_algebra_diagram_limit_is_the_invariants():
    m = model_from_dict(fixture("fix-a"))
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
        assert cx.d(n) == t + ident.scale(-1 if n % 2 == 0 else 1)
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
    for vec in lim.subspace.basis:
        assert vec[1] == 0 and vec[2] == 0


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
            lhs = dg._sparse_apply(e.matrix(0), prod)
            rhs = holim.mul(
                0, dg._sparse_apply(e.matrix(0), {i: rat(1)}),
                0, dg._sparse_apply(e.matrix(0), {j: rat(1)}))
            assert lhs == rhs


def test_tensor_complex_structure():
    cx = two_step_complex()
    t = graded_tensor(cx, cx, 4)
    assert t.violations() == []
    assert t.dim(0) == 4
    assert t.dim(1) == 8  # 2*2 twice
    ident = GradedLinearMap.identity(cx)
    ii = tensor_map(ident, ident, t, t)
    for p in range(5):
        assert ii.matrix(p) == QMatrix.identity(t.dim(p))


def test_tensor_map_koszul_sign():
    cx = two_step_complex()
    t = graded_tensor(cx, cx, 4)
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
    t = graded_tensor(holim.complex, holim.complex, N)
    mu = mu_map(holim, t)
    muop = muop_map(holim, t)
    assert mu.is_cochain_map()
    assert muop.is_cochain_map()
    # in degree 0 both agree on the commutative invariant part but the
    # underlying algebra is noncommutative, so mu != muop somewhere
    assert any(mu.matrix(p) != muop.matrix(p) for p in range(N + 1))


def test_validate_dga_rejects_bad_product():
    m = model_from_dict(fixture("fix-a"))
    dga = algebra_to_dga(m.A.algebra("x"), 1)
    table = dga.products[(0, 0)]
    table[(1, 1)] = {0: rat(1)}  # E12 * E12 must be zero
    with pytest.raises(ComplexError):
        validate_dga(dga.complex, dga.products, dga.unit)
