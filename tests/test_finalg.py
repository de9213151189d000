import pytest
from hypothesis import given, strategies as st

from fibkan.finalg import (
    AlgebraError,
    AlgMorphism,
    check_axioms_on_str,
    is_iso,
    is_mono,
    validate_algebra,
)
from fibkan.fixtures import load_bundled
from fibkan.models import model_from_dict
from fibkan.qlinalg import QMatrix, rat


def model(name):
    return model_from_dict(load_bundled(name))


def m2():
    return model("fix-a").A.algebra("x")


def test_matrix_algebra_validates():
    alg = m2()
    assert alg.dim == 4
    assert alg.unit == (rat(1), rat(0), rat(0), rat(1))
    assert not alg.violations()


def test_matrix_algebra_products():
    alg = m2()
    e11, e12, e21, e22 = (alg.basis_vector(i) for i in range(4))
    assert alg.mul(e11, e12) == e12
    assert alg.mul(e12, e11) == (rat(0),) * 4
    assert alg.mul(e12, e21) == e11
    assert alg.commutator(e11, e12) == e12


def test_non_associative_rejected():
    # x*x = unit-less table: e1*e1 = e2, e2*anything = e1 breaks associativity
    sc = [[["0", "1"], ["1", "0"]], [["1", "0"], ["1", "0"]]]
    with pytest.raises(AlgebraError):
        validate_algebra(2, sc, ["1", "0"])


def test_zero_unit_rejected():
    with pytest.raises(AlgebraError) as err:
        validate_algebra(1, [[["1"]]], ["0"])
    assert "unit" in str(err.value)


def test_alg_morphism_conjugation():
    alg = m2()
    ad = model("fix-a").A.matrix("g")
    mor = AlgMorphism(alg, alg, ad)
    assert mor.violations() == []
    assert is_mono(mor)
    assert is_iso(mor)
    assert ad * ad == QMatrix.identity(4)


def test_alg_morphism_rejects_non_multiplicative():
    alg = m2()
    bad = QMatrix.from_rows(
        [[rat(1), rat(0), rat(0), rat(0)],
         [rat(0), rat(2), rat(0), rat(0)],
         [rat(0), rat(0), rat(1), rat(0)],
         [rat(0), rat(0), rat(0), rat(1)]]
    )
    assert AlgMorphism(alg, alg, bad).violations() == [
        "multiplicativity fails on basis pair (1,2)",
        "multiplicativity fails on basis pair (2,1)"]


def test_is_mono_detects_kernel():
    one = validate_algebra(1, [[["1"]]], ["1"])
    two = model("fix-b").A.algebra("M")
    diag = QMatrix.from_rows([[rat(1)], [rat(1)]])
    mor = AlgMorphism(one, two, diag)
    assert mor.violations() == []
    assert is_mono(mor)
    assert not is_iso(mor)
    collapse = AlgMorphism(two, one, QMatrix.from_rows([[rat(1), rat(0)]]))
    assert not is_mono(collapse)


def test_axioms_pass_on_valid_models():
    for name in ("fix-a", "fix-b", "fix-d", "fix-e"):
        m = model(name)
        report = check_axioms_on_str(m.fibered(), m.loc, m.A)
        assert report.all_pass, (name, report)


def test_axioms_causality_violation():
    m = model("fix-bprime")
    report = check_axioms_on_str(m.fibered(), m.loc, m.A)
    assert report.isotony
    assert report.timeslice
    assert not report.causality
    assert report.causality_violations


def test_axioms_isotony_violation():
    data = load_bundled("fix-b")
    # collapse the two-dimensional algebra at M onto its first coordinate
    data["algebra_maps"]["id_M.g"] = [["1", "1"], ["0", "0"]]
    # keep the composition table consistent: swap squared must be itself now
    with pytest.raises(Exception):
        model_from_dict(data)


def test_axioms_timeslice_violation():
    data = load_bundled("fix-c")
    data["loc"]["cauchy"] = sorted(["id_M", "id_M1", "f"])
    m = model_from_dict(data)
    # u: Q -> Q by identity is iso, so timeslice holds even over Cauchy f
    report = check_axioms_on_str(m.fibered(), m.loc, m.A)
    assert report.timeslice
    # shrink the source algebra map to non-iso is impossible for 1x1 identity;
    # instead check a genuinely non-invertible Cauchy image on a fresh model
    data2 = load_bundled("fix-b")
    data2["loc"]["cauchy"] = sorted(set(data2["loc"]["cauchy"]) | {"c1"})
    m2_ = model_from_dict(data2)
    report2 = check_axioms_on_str(m2_.fibered(), m2_.loc, m2_.A)
    assert not report2.timeslice
    assert "c1.e" in report2.timeslice_violations


@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_matrix_algebra_associativity_property(x, y, z):
    alg = m2()
    x, y, z = tuple(map(rat, x)), tuple(map(rat, y)), tuple(map(rat, z))
    assert alg.mul(alg.mul(x, y), z) == alg.mul(x, alg.mul(y, z))


@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_commutator_antisymmetry_property(x, y):
    alg = m2()
    x, y = tuple(map(rat, x)), tuple(map(rat, y))
    assert alg.commutator(x, y) == tuple(-v for v in alg.commutator(y, x))
