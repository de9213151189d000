from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fibkan import qlinalg
from fibkan.dg import Complex, Dga
from fibkan.finalg import (
    AlgebraError,
    AlgMorphism,
    check_axioms_on_str,
    is_iso,
    is_mono,
    noncommuting_pairs,
    validate_algebra,
)
from fibkan.fixtures import load_bundled
from fibkan.models import model_from_dict
from fibkan.qlinalg import QMatrix, _axpy, rat


def model(name):
    return model_from_dict(load_bundled(name))


def m2():
    return model("fix-a").A.algebra("x")


def commutator(alg, x, y):
    out = dict(alg.mul(0, x, 0, y))
    _axpy(out, -1, alg.mul(0, y, 0, x))
    return out


def test_matrix_algebra_validates():
    alg = m2()
    assert alg.complex.dim(0) == 4
    assert alg.unit == {0: rat(1), 3: rat(1)}
    assert not alg.violations()


def test_matrix_algebra_products():
    alg = m2()
    e11, e12, e21, e22 = ({i: 1} for i in range(4))
    assert alg.mul(0, e11, 0, e12) == e12
    assert alg.mul(0, e12, 0, e11) == {}
    assert alg.mul(0, e12, 0, e21) == e11
    assert commutator(alg, e11, e12) == e12


def test_parsed_table_drops_zero_entries():
    alg = m2()
    assert all(v for vec in alg.table(0, 0).values() for v in vec.values())
    assert alg.mul_basis(0, 1, 0, 0) == {}  # e12 e11 = 0 is no entry
    assert all(v for v in alg.unit.values())


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


def test_mono_then_iso_on_one_matrix_eliminates_once(monkeypatch):
    # rank reads the kernel the matrix keeps, so a Cauchy arrow checked for
    # isotony and then time-slice is eliminated once
    alg = m2()
    mor = AlgMorphism(alg, alg, QMatrix.from_rows(
        [[rat(int(i == j) * (-1) ** (i in (1, 2))) for j in range(4)]
         for i in range(4)]))
    calls = []
    echelon = qlinalg._echelon

    def counted(rows, columns):
        calls.append(columns)
        return echelon(rows, columns)

    monkeypatch.setattr(qlinalg, "_echelon", counted)
    assert is_mono(mor) and is_iso(mor)
    assert len(calls) == 1


def test_axioms_pass_on_valid_models():
    for name in ("fix-a", "fix-b", "fix-d", "fix-e"):
        m = model(name)
        report = check_axioms_on_str(m.fibered(), m.loc, m.A)
        assert report.all_pass, (name, report)


def test_axioms_causality_violation():
    m = model("fix-bprime")
    report = check_axioms_on_str(m.fibered(), m.loc, m.A)
    assert report.isotony_violations == ()
    assert report.timeslice_violations == ()
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
    assert report.timeslice_violations == ()
    # shrink the source algebra map to non-iso is impossible for 1x1 identity;
    # instead check a genuinely non-invertible Cauchy image on a fresh model
    data2 = load_bundled("fix-b")
    data2["loc"]["cauchy"] = sorted(set(data2["loc"]["cauchy"]) | {"c1"})
    m2_ = model_from_dict(data2)
    report2 = check_axioms_on_str(m2_.fibered(), m2_.loc, m2_.A)
    assert report2.timeslice_violations
    assert not report2.all_pass
    assert "c1.e" in report2.timeslice_violations


def sparse(vec):
    return {i: rat(v) for i, v in enumerate(vec) if v}


@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_matrix_algebra_associativity_property(x, y, z):
    alg = m2()
    x, y, z = sparse(x), sparse(y), sparse(z)
    assert alg.mul(0, alg.mul(0, x, 0, y), 0, z) \
        == alg.mul(0, x, 0, alg.mul(0, y, 0, z))


@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_commutator_antisymmetry_property(x, y):
    alg = m2()
    x, y = sparse(x), sparse(y)
    assert commutator(alg, x, y) == {
        k: -v for k, v in commutator(alg, y, x).items()}


# --- the dense routines as oracles -------------------------------------------
#
# The algebra checks as they ran on dense coordinate tuples, kept to check
# the sparse ones against: sc[i][j] is the coordinate tuple of e_i e_j, a
# unit a tuple and a matrix a list of dense rows.


def dense_mul(sc, x, y):
    out = [Fraction(0)] * len(sc)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, v in enumerate(sc[i][j]):
                if v:
                    out[k] += c * v
    return tuple(out)


def dense_basis(dim, i):
    return tuple(Fraction(int(j == i)) for j in range(dim))


def dense_apply(rows, vec):
    return tuple(sum((a * b for a, b in zip(row, vec)), Fraction(0))
                 for row in rows)


def oracle_algebra_violations(sc, unit):
    dim = len(sc)
    out = []
    basis = [dense_basis(dim, i) for i in range(dim)]
    if all(v == 0 for v in unit):
        out.append("unit element is zero")
    for i, e in enumerate(basis):
        if dense_mul(sc, unit, e) != e or dense_mul(sc, e, unit) != e:
            out.append(f"unit law fails on basis element {i}")
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left = dense_mul(sc, sc[i][j], basis[k])
                right = dense_mul(sc, basis[i], sc[j][k])
                if left != right:
                    out.append(f"associativity fails on triple ({i},{j},{k})")
    return out


def oracle_morphism_violations(src, tgt, rows, cols):
    (src_sc, src_unit), (tgt_sc, tgt_unit) = src, tgt
    if (len(rows), cols) != (len(tgt_sc), len(src_sc)):
        return ["matrix shape does not match source/target dimensions"]
    out = []
    if dense_apply(rows, src_unit) != tgt_unit:
        out.append("unit not preserved")
    images = [dense_apply(rows, dense_basis(cols, i)) for i in range(cols)]
    for i in range(cols):
        for j in range(cols):
            lhs = dense_apply(rows, src_sc[i][j])
            if lhs != dense_mul(tgt_sc, images[i], images[j]):
                out.append(f"multiplicativity fails on basis pair ({i},{j})")
    return out


def oracle_noncommuting_pairs(tgt_sc, rows1, cols1, rows2, cols2):
    ys = [dense_apply(rows2, dense_basis(cols2, j)) for j in range(cols2)]
    out = []
    for i in range(cols1):
        x = dense_apply(rows1, dense_basis(cols1, i))
        out.extend((i, j) for j, y in enumerate(ys)
                   if dense_mul(tgt_sc, x, y) != dense_mul(tgt_sc, y, x))
    return out


# small algebras that satisfy every law, as (dim, product rule, unit)
VALID = [
    (1, lambda i, j: {0: 1}, (1,)),
    (2, lambda i, j: {i: 1} if i == j else {}, (1, 1)),           # Q x Q
    (2, lambda i, j: {i + j: 1} if i + j < 2 else {}, (1, 0)),    # Q[x]/x^2
    (3, lambda i, j: {i + j: 1} if i + j < 3 else {}, (1, 0, 0)),  # Q[x]/x^3
    (3, lambda i, j: {(i + j) % 3: 1}, (1, 0, 0)),                # Q[Z3]
    # upper triangular 2x2 matrices on E11, E12, E22
    (3, lambda i, j: {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1},
                      (2, 2): {2: 1}}.get((i, j), {}), (1, 0, 1)),
]

# entries in -2..2 and a few fractions, as JSON gives them
entries = st.one_of(st.integers(-2, 2), st.integers(-2, 2),
                    st.sampled_from(["1/2", "-2/3", "3/2"]))


@st.composite
def algebra_specs(draw):
    """(structure constants, unit) of a valid small algebra with up to two
    entries of its table and one of its unit redrawn."""
    dim, rule, unit = draw(st.sampled_from(VALID))
    sc = [[[rule(i, j).get(k, 0) for k in range(dim)] for j in range(dim)]
          for i in range(dim)]
    unit = list(unit)
    for _ in range(draw(st.integers(0, 2))):
        i, j, k = (draw(st.integers(0, dim - 1)) for _ in range(3))
        sc[i][j][k] = draw(entries)
    if draw(st.booleans()):
        unit[draw(st.integers(0, dim - 1))] = draw(entries)
    return sc, unit


def rationals(value):
    return [rationals(v) for v in value] if isinstance(value, list) \
        else rat(value)


def oracle_spec(spec):
    sc, unit = spec
    return rationals(sc), tuple(rationals(unit))


def unchecked_algebra(spec):
    """The degree-0 dg-algebra of a dense spec, with no law checked."""
    sc, unit = oracle_spec(spec)
    table = {(i, j): sparse(vec) for i, row in enumerate(sc)
             for j, vec in enumerate(row)}
    return Dga(Complex(0, {0: tuple(range(len(sc)))}, {}), {(0, 0): table},
               sparse(unit))


@st.composite
def matrices(draw, rows, cols):
    """Random dense rows, or sometimes the identity with one entry
    redrawn or none."""
    if rows == cols and draw(st.booleans()):
        dense = [[int(i == j) for j in range(cols)] for i in range(rows)]
        if draw(st.booleans()):
            i, j = (draw(st.integers(0, rows - 1)) for _ in range(2))
            dense[i][j] = draw(entries)
        return dense
    return [[draw(st.sampled_from([0, 0, 1, 1, -1, "1/2"]))
             for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=100, deadline=None)
@given(algebra_specs())
def test_validate_algebra_matches_the_dense_oracle(spec):
    sc, unit = spec
    want = oracle_algebra_violations(*oracle_spec(spec))
    try:
        alg = validate_algebra(len(sc), sc, unit)
    except AlgebraError as exc:
        assert want and str(exc) == "; ".join(want)
    else:
        assert want == []
        assert alg.violations() == []


@settings(max_examples=60, deadline=None)
@given(algebra_specs(), st.data())
def test_alg_morphism_violations_match_the_dense_oracle(src, data):
    tgt = data.draw(st.one_of(st.just(src), algebra_specs()))
    # mostly of the right shape, sometimes of a wrong one
    rows = data.draw(st.sampled_from([len(tgt[0])] * 4 + [1, 2, 3]))
    cols = data.draw(st.sampled_from([len(src[0])] * 4 + [1, 2, 3]))
    dense = data.draw(matrices(rows, cols))
    mor = AlgMorphism(unchecked_algebra(src), unchecked_algebra(tgt),
                      QMatrix(rows, cols, {(i, j): rat(v)
                                           for i, row in enumerate(dense)
                                           for j, v in enumerate(row)}))
    assert mor.violations() == oracle_morphism_violations(
        oracle_spec(src), oracle_spec(tgt), rationals(dense), cols)


@settings(max_examples=60, deadline=None)
@given(algebra_specs(), st.integers(1, 3), st.integers(1, 3), st.data())
def test_noncommuting_pairs_match_the_dense_oracle(tgt, cols1, cols2, data):
    rows = len(tgt[0])
    dense1 = data.draw(matrices(rows, cols1))
    dense2 = data.draw(matrices(rows, cols2))
    target = unchecked_algebra(tgt)

    def leg(dense, cols):
        source = unchecked_algebra(([[[0] * cols] * cols] * cols, [0] * cols))
        return AlgMorphism(source, target, QMatrix.from_rows(dense))

    assert noncommuting_pairs(leg(dense1, cols1), leg(dense2, cols2)) \
        == oracle_noncommuting_pairs(oracle_spec(tgt)[0], rationals(dense1),
                                     cols1, rationals(dense2), cols2)
