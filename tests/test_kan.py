import pytest

from fibkan.fixtures import load_bundled
from fibkan.kan import (
    KanError,
    check_induced_axioms,
    counit,
    kappa_iso,
    pullback_dimension_check,
    ran_under,
    u_morphism,
    u_object,
)
from fibkan.models import model_from_dict
from fibkan.qlinalg import QMatrix, rank, rat


def model(name):
    return model_from_dict(load_bundled(name))


def test_u_object_z2_invariants():
    m = model("fix-a")
    u = u_object(m.fibered(), m.A, "pt")
    # invariants of conjugation by diag(1,-1) inside M2: the diagonal
    assert u.dim == 2
    assert u.dga.violations() == []
    # induced algebra is commutative
    for i in range(2):
        for j in range(2):
            assert u.dga.mul_basis(0, i, 0, j) \
                == u.dga.mul_basis(0, j, 0, i)


def test_u_object_discrete_fiber():
    m = model("fix-c")
    fm = m.fibered()
    assert u_object(fm, m.A, "M1").dim == 2
    assert u_object(fm, m.A, "M").dim == 1


def test_u_object_swap_invariants():
    m = model("fix-b")
    fm = m.fibered()
    u = u_object(fm, m.A, "M")
    assert u.dim == 1
    # the invariant line is spanned by (1, 1)
    assert u.subspace.rows == ({0: rat(1), 1: rat(1)},)


def test_u_morphism_not_injective_when_not_flabby():
    m = model("fix-c")
    fm = m.fibered()
    src = u_object(fm, m.A, "M1")
    tgt = u_object(fm, m.A, "M")
    mat = u_morphism(fm, m.A, "f", src, tgt)
    assert mat.rows == 1 and mat.cols == 2
    assert rank(mat) == 1


def test_u_morphism_iso_on_cauchy():
    m = model("fix-d")
    fm = m.fibered()
    src = u_object(fm, m.A, "N")
    tgt = u_object(fm, m.A, "Np")
    mat = u_morphism(fm, m.A, "f", src, tgt)
    assert rank(mat) == src.dim == tgt.dim == 2


def test_ran_under_matches_u_dimension():
    for name in ("fix-a", "fix-b", "fix-c", "fix-d", "fix-e"):
        m = model(name)
        fm = m.fibered()
        for M in m.loc.base.objects:
            ran = ran_under(fm, m.A, M)
            u = u_object(fm, m.A, M)
            assert ran.dim == u.dim, (name, M)


def test_kappa_iso_all_fixtures_and_orders():
    for name in ("fix-a", "fix-b", "fix-c", "fix-d", "fix-e"):
        m = model(name)
        for order in ("normal", "reversed"):
            fm = m.fibered(order)
            for M in m.loc.base.objects:
                ran = ran_under(fm, m.A, M)
                u = u_object(fm, m.A, M)
                kappa, kappa_inv = kappa_iso(fm, m.A, M, ran, u)
                assert kappa * kappa_inv == QMatrix.identity(u.dim)


def test_u_subspace_independent_of_cleavage_order():
    for name in ("fix-a", "fix-b", "fix-d", "fix-e"):
        m = model(name)
        normal = m.fibered("normal")
        rev = m.fibered("reversed")
        for M in m.loc.base.objects:
            assert (u_object(normal, m.A, M).subspace
                    == u_object(rev, m.A, M).subspace)


def test_counit_projects_and_is_natural():
    m = model("fix-d")
    fm = m.fibered()
    for S in m.strcat.objects:
        M = m.pi.on_obj(S)
        ran = ran_under(fm, m.A, M)
        eps = counit(fm, m.A, ran, S)
        assert eps.rows == m.A.algebra(S).complex.dim(0)
        # naturality along fiber morphisms: A(g) after eps_S = eps_target
        fiber = fm.fiber(M)
        for g in fiber.morphisms:
            if fiber.source(g) != S:
                continue
            eps_t = counit(fm, m.A, ran, fiber.target(g))
            assert m.A.matrix(g) * eps == eps_t


def test_counit_rejects_wrong_base():
    m = model("fix-c")
    fm = m.fibered()
    ran = ran_under(fm, m.A, "M")
    with pytest.raises(KanError):
        counit(fm, m.A, ran, "S")


def test_pullback_dimension_check():
    m = model("fix-c")
    fm = m.fibered()
    u = u_object(fm, m.A, "M1")
    assert pullback_dimension_check(fm, m.A, "M1", u) is True
    # conjugation action is not fiberwise constant, so the check is inapplicable
    ma = model("fix-a")
    fma = ma.fibered()
    ua = u_object(fma, ma.A, "pt")
    assert pullback_dimension_check(fma, ma.A, "pt", ua) is None


def test_induced_axioms_all_pass_fixtures():
    for name in ("fix-a", "fix-b", "fix-d", "fix-e"):
        m = model(name)
        report = check_induced_axioms(m.fibered(), m.loc, m.A)
        assert report.qft_axioms.all_pass == (name != "fix-bprime")
        assert report.all_pass, (name, report)
        assert report.isotony_iff_flabby is True


def test_induced_axioms_nonflabby():
    m = model("fix-c")
    report = check_induced_axioms(m.fibered(), m.loc, m.A)
    assert report.qft_axioms.all_pass
    assert not report.flabbiness.flabby
    assert not report.isotony
    assert "f" in report.isotony_violations
    assert report.isotony_iff_flabby is True
    assert report.functorial


def test_induced_axioms_upstream_causality_failure():
    m = model("fix-bprime")
    report = check_induced_axioms(m.fibered(), m.loc, m.A)
    assert not report.qft_axioms.causality
    # the biconditional is only asserted for valid inputs
    assert report.isotony_iff_flabby is None
    # the invariants happen to be commutative, so the induced functor is fine
    assert report.causality


def test_u_dims_recorded():
    m = model("fix-e")
    report = check_induced_axioms(m.fibered(), m.loc, m.A)
    assert report.u_dims == {f"M{i}": 2 for i in range(4)}
