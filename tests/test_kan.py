import pytest
from test_source import load_bench_module

from fibkan.finalg import AlgMorphism, axiom_report, noncommuting_pairs
from fibkan.fincat import flabbiness_report
from fibkan.fixtures import fixture_names, load_bundled
from fibkan.kan import (
    KanError,
    check_induced_axioms,
    counit,
    kappa_iso,
    pullback_dimension_check,
    ran_under,
    u_morphism,
    u_object,
    u_objects,
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
    assert not report.axioms.isotony
    assert "f" in report.axioms.isotony_violations
    assert report.isotony_iff_flabby is True
    assert report.functorial


def test_induced_axioms_upstream_causality_failure():
    m = model("fix-bprime")
    report = check_induced_axioms(m.fibered(), m.loc, m.A)
    assert not report.qft_axioms.causality
    # the biconditional is only asserted for valid inputs
    assert report.isotony_iff_flabby is None
    # the invariants happen to be commutative, so the induced functor is fine
    assert report.axioms.causality


def test_u_dims_recorded():
    m = model("fix-e")
    report = check_induced_axioms(m.fibered(), m.loc, m.A)
    assert report.u_dims == {f"M{i}": 2 for i in range(4)}


def induced_axioms_oracle(fm, loc, A):
    """The induced functor's axioms checked on the matrices of the induced
    maps directly, with no QftFunctor: rank for injectivity, dimensions and
    rank for invertibility, and explicit identity and composition checks."""
    base = fm.loc
    qft = axiom_report(fm, loc, A)
    flab = flabbiness_report(fm, loc)
    u_at = u_objects(fm, A)
    u_maps = {
        f: u_morphism(fm, A, f, u_at[base.source(f)], u_at[base.target(f)])
        for f in base.morphisms
    }
    injective = {f: rank(u_maps[f]) == u_at[base.source(f)].dim
                 for f in base.morphisms}
    iso_bad = tuple(f for f in sorted(base.morphisms) if not injective[f])
    ts_bad = tuple(
        f for f in sorted(loc.cauchy)
        if u_at[base.source(f)].dim != u_at[base.target(f)].dim
        or not injective[f]
    )
    causal_bad = []
    for f1, f2 in loc.causal_cospans:
        legs = (AlgMorphism(u_at[base.source(f)].dga,
                            u_at[base.target(f)].dga, u_maps[f])
                for f in (f1, f2))
        causal_bad.extend(
            (f1, f2, i, j) for i, j in noncommuting_pairs(*legs))
    functorial = all(
        u_maps[base.id_of(M)] == QMatrix.identity(u_at[M].dim)
        for M in base.objects
    ) and all(
        u_maps[g] * u_maps[f] == u_maps[h]
        for (g, f), h in base.compose.items()
    )
    return {
        "qft_axioms": qft,
        "flabbiness": flab,
        "u_dims": {M: u.dim for M, u in u_at.items()},
        "isotony": not iso_bad,
        "isotony_violations": iso_bad,
        "causality": not causal_bad,
        "causality_violations": tuple(causal_bad),
        "timeslice": not ts_bad,
        "timeslice_violations": ts_bad,
        "functorial": functorial,
        "isotony_iff_flabby": (not iso_bad) == flab.flabby
        if qft.all_pass else None,
    }


def cospan_model():
    """Arrows l: L -> M and r: R -> M with the causal cospan [r, l], fix-a's
    M2(Q) at every object and identity maps, so the legs' images do not
    commute."""
    m2 = load_bundled("fix-a")["algebras"]["x"]
    identity = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    arrows = [("l", "L", "M"), ("r", "R", "M")] + [
        (f"id_{o}", o, o) for o in "LRM"]
    cat = {
        "objects": ["L", "R", "M"],
        "morphisms": [{"name": g, "source": s, "target": t}
                      for g, s, t in arrows],
        "identity": {o: f"id_{o}" for o in "LRM"},
        "compose": [["l", "id_L", "l"], ["r", "id_R", "r"],
                    ["id_M", "l", "l"], ["id_M", "r", "r"]]
        + [[f"id_{o}"] * 3 for o in "LRM"],
    }
    return model_from_dict({
        "format": 1,
        "loc": {**cat, "causal_cospans": [["r", "l"]],
                "cauchy": [f"id_{o}" for o in "LRM"]},
        "str": cat,
        "projection": {"objects": {o: o for o in "LRM"},
                       "morphisms": {g: g for g, _, _ in arrows}},
        "algebras": {o: m2 for o in "LRM"},
        "algebra_maps": {g: identity for g, _, _ in arrows},
    })


def oracle_cases():
    chain = load_bench_module("chainmodel")
    for name in fixture_names():
        m = model(name)
        for order in ("normal", "reversed"):
            yield f"{name} {order}", m.fibered(order), m
    for n, group in ((3, "Z2"), (2, "S3")):
        m = model_from_dict(chain.chain_dict(n, group))
        yield f"chain({n},{group})", m.fibered(), m
    m = cospan_model()
    yield "cospan", m.fibered(), m


def test_induced_axioms_match_the_matrix_oracle():
    for name, fm, m in oracle_cases():
        report = check_induced_axioms(fm, m.loc, m.A)
        axioms = report.axioms
        got = {
            "qft_axioms": report.qft_axioms,
            "flabbiness": report.flabbiness,
            "u_dims": report.u_dims,
            "isotony": axioms.isotony,
            "isotony_violations": axioms.isotony_violations,
            "causality": axioms.causality,
            "causality_violations": axioms.causality_violations,
            "timeslice": axioms.timeslice,
            "timeslice_violations": axioms.timeslice_violations,
            "functorial": report.functorial,
            "isotony_iff_flabby": report.isotony_iff_flabby,
        }
        assert got == induced_axioms_oracle(fm, m.loc, m.A), name


def test_induced_causality_on_a_cospan_of_matrix_algebras():
    # the base reports the declared orientation of the cospan, Str both
    m = cospan_model()
    report = check_induced_axioms(m.fibered(), m.loc, m.A)
    assert m.loc.causal_cospans == (("l", "r"),)
    assert not report.axioms.causality
    assert len(report.axioms.causality_violations) == 10
    assert {v[:2] for v in report.axioms.causality_violations} == {("l", "r")}
    assert len(report.qft_axioms.causality_violations) == 20
    assert report.isotony_iff_flabby is None
    assert report.functorial
