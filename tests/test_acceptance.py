"""End-to-end acceptance checks.

Every assertion here is exact: all arithmetic is rational, every identity is
required on the nose in the stated degree range, and expected values are
frozen literals or recomputed through an independent oracle.
"""

import json
from functools import lru_cache

from fibkan import cli, dg, kan
from fibkan.dg import GradedLinearMap, check_homotopy_identity
from fibkan.finalg import check_axioms_on_str
from fibkan.fincat import classify_flabbiness
from fibkan.fixtures import load_bundled
from fibkan.hokan import HoKan, check_square_homotopy
from fibkan.models import model_from_dict
from fibkan.qlinalg import QMatrix, kernel_basis, rank

N = 4
ALL = ("fix-a", "fix-b", "fix-bprime", "fix-c", "fix-d", "fix-e")
VALID = ("fix-a", "fix-b", "fix-c", "fix-d", "fix-e")


@lru_cache(maxsize=None)
def context(name, order="normal", max_degree=N):
    m = model_from_dict(load_bundled(name))
    fm = m.fibered(order)
    return m, HoKan(fm, m.loc, m.A, max_degree)


def equal_maps(f, g, up_to):
    return [n for n in range(up_to + 1) if f.matrix(n) != g.matrix(n)]


def test_structural_suite_on_every_cochain_algebra():
    # criterion 1: every constructed complex and dg-algebra passes the full
    # structural validation (d*d = 0, unit laws, associativity, Leibniz)
    for name in ALL:
        m, hk = context(name)
        for M in m.loc.base.objects:
            hou = hk.hou_object(M).dga
            horan = hk.horan_object(M).dga
            assert hou.complex.violations() == [], (name, M)
            assert hou.violations() == [], (name, M)
            assert horan.complex.violations() == [], (name, M)
            assert horan.violations() == [], (name, M)


def test_degree_zero_cocycles_are_the_invariants():
    # criterion 2: ker d^0 equals the limit-style invariant subalgebra
    for name in ALL:
        m, hk = context(name)
        for M in m.loc.base.objects:
            assert hk.h0_subspace(M) == kan.u_object(hk.fm, m.A, M).subspace, \
                (name, M)
    _, hk = context("fix-a")
    assert hk.h0_subspace("pt").dim == 2


def test_cohomology_against_independent_involution_oracle():
    # criterion 3: for the one-object order-two model the cochain algebra is
    # the normalized resolution of the fiber involution T, so H^0 = ker(T - 1)
    # and d^n = T + (-1)^(n+1), giving H^n = ker(T -+ 1) - rank(T +- 1).
    # This recomputes those numbers from T alone, without the dg machinery.
    m, hk = context("fix-a")
    t = m.A.matrix("g")
    dim = t.rows
    ident = QMatrix.identity(dim)
    assert t * t == ident
    cx = hk.hou_object("pt").dga.complex

    oracle_h0 = kernel_basis(t - ident).dim
    assert oracle_h0 == 2
    assert dg.cohomology_dim(cx, 0) == oracle_h0

    for n in range(1, N):
        d_in = t - ident if n % 2 == 0 else t + ident
        d_out = t + ident if n % 2 == 0 else t - ident
        oracle_hn = kernel_basis(d_out).dim - rank(d_in)
        assert oracle_hn == 0, n
        assert dg.cohomology_dim(cx, n) == oracle_hn, n


def test_comparison_iso_and_cleavage_independence():
    # criterion 4: the canonical map from the strict pointwise extension to
    # the invariants is invertible on the nose, and the invariant subspace
    # does not depend on which cartesian lift the cleavage picks
    for name in VALID:
        m, _ = context(name)
        for order in ("normal", "reversed"):
            fm = m.fibered(order)
            for M in m.loc.base.objects:
                ran = kan.ran_under(fm, m.A, M)
                u = kan.u_object(fm, m.A, M)
                kap, kap_inv = kan.kappa_iso(fm, m.A, M, ran, u)
                assert kap * kap_inv == QMatrix.identity(u.dim)
                assert kap_inv * kap == QMatrix.identity(ran.dim)
        for M in m.loc.base.objects:
            assert kan.u_object(m.fibered("normal"), m.A, M).subspace \
                == kan.u_object(m.fibered("reversed"), m.A, M).subspace


def test_induced_isotony_iff_flabby():
    # criterion 5: when the input satisfies its axioms, the extension is
    # isotone exactly when the model is flabby
    for name in VALID:
        m, _ = context(name)
        fm = m.fibered("normal")
        report = kan.check_induced_axioms(fm, m.loc, m.A)
        assert report.isotony_iff_flabby is True, name
        assert (not report.axioms.isotony_violations) \
            == (classify_flabbiness(fm, m.loc).flabby_counterexample is None), \
            name
    m, _ = context("fix-bprime")
    report = kan.check_induced_axioms(m.fibered("normal"), m.loc, m.A)
    assert report.isotony_iff_flabby is None
    # the non-flabby model is the one that loses isotony
    m, _ = context("fix-c")
    report = kan.check_induced_axioms(m.fibered("normal"), m.loc, m.A)
    assert report.axioms.isotony_violations != ()
    assert "f" in report.axioms.isotony_violations


def test_comparison_retraction_and_homotopy_inverse():
    # criterion 6: kappa zeta = id exactly, kappa is a weak equivalence, and
    # zeta kappa differs from the identity by the explicit homotopy eta
    for name in VALID:
        m, hk = context(name)
        for M in m.loc.base.objects:
            kap, zet = hk.kappa(M), hk.zeta(M)
            assert kap.is_cochain_map(), (name, M)
            assert zet.is_cochain_map(), (name, M)
            hou_cx = hk.hou_object(M).dga.complex
            horan_cx = hk.horan_object(M).dga.complex
            assert equal_maps(kap.after(zet),
                              GradedLinearMap.identity(hou_cx), N) == []
            assert dg.is_weak_equivalence(kap, N - 1), (name, M)
            bad = check_homotopy_identity(
                zet.after(kap), GradedLinearMap.identity(horan_cx),
                hk.eta_homotopy(M), N - 1)
            assert bad == [], (name, M, bad)


def test_reversal_involution_and_homotopy_triviality():
    # criterion 7: order reversal squares to the identity and is chain
    # homotopic to the identity via the explicit homotopy beta
    for name in ("fix-a", "fix-d"):
        m, hk = context(name)
        for M in m.loc.base.objects:
            rho = hk.rho(M)
            assert rho.is_cochain_map(), (name, M)
            ident = GradedLinearMap.identity(hk.hou_object(M).dga.complex)
            assert equal_maps(rho.after(rho), ident, N) == []
            bad = check_homotopy_identity(rho, ident, hk.beta_homotopy(M),
                                          N - 1)
            assert bad == [], (name, M, bad)


def test_causal_commutator_homotopy():
    # criterion 8: over a causal cospan the two products agree up to the
    # explicit homotopy, the reversal intertwines them exactly, and the
    # noncommutative variant fails already at the input axioms
    _, hk = context("fix-b")
    assert hk.max_degree == N
    assert hk.product_reversal_identity("c1", "c2") == []
    assert hk.lambda_causality("c1", "c2") == []

    m, hk = context("fix-bprime")
    qft = check_axioms_on_str(hk.fm, m.loc, m.A)
    assert qft.causality_violations != ()
    assert hk.product_reversal_identity("c1", "c2") != []
    assert hk.lambda_causality("c1", "c2") != []


def test_functoriality_up_to_coherent_homotopy():
    # criterion 9: identities map to identities strictly; binary composition
    # holds up to the explicit homotopy; the two ways of comparing a triple
    # composite agree up to the explicit second-order homotopy
    for name in VALID:
        m, hk = context(name)
        for M in m.loc.base.objects:
            u = hk.hou_morphism(m.loc.base.id_of(M))
            ident = GradedLinearMap.identity(hk.hou_object(M).dga.complex)
            assert equal_maps(u, ident, N) == [], (name, M)

    m, hk = context("fix-e")
    base = m.loc.base
    arrows = sorted(g for g in base.morphisms if not base.is_identity(g))
    for g in arrows:
        for f in arrows:
            if base.source(g) != base.target(f):
                continue
            lhs = hk.hou_morphism(g).after(hk.hou_morphism(f)) \
                - hk.hou_morphism(base.comp(g, f))
            zero = GradedLinearMap.zero(lhs.source, lhs.target)
            assert check_homotopy_identity(lhs, zero, hk.gamma2(g, f),
                                           N - 1) == [], (g, f)
    lhs = (hk.gamma2("f23", "f02")
           + hk.hou_morphism("f23").after(hk.gamma2("f12", "f01"))
           - hk.gamma2("f13", "f01")
           - hk.gamma2("f23", "f12").after(hk.hou_morphism("f01")))
    assert check_square_homotopy(lhs, hk.gamma3("f23", "f12", "f01"),
                                 N - 2) == []


def test_extension_pullback_homotopy_inverse():
    # criterion 10: along a Cauchy morphism of a strongly Cauchy flabby
    # model, transport and the extension pullback are homotopy inverse, so
    # transport is a weak equivalence
    _, hk = context("fix-d")
    ext_star = hk.ext_pullback("f")
    hou_f = hk.hou_morphism("f")
    ident_src = GradedLinearMap.identity(hk.hou_object("N").dga.complex)
    ident_tgt = GradedLinearMap.identity(hk.hou_object("Np").dga.complex)
    assert check_homotopy_identity(ext_star.after(hou_f), ident_src,
                                   hk.phi_homotopy("f"), N - 1) == []
    assert check_homotopy_identity(hou_f.after(ext_star), ident_tgt,
                                   hk.phibar_homotopy("f"), N - 1) == []
    assert dg.is_weak_equivalence(hou_f, N - 1)


def test_cohomology_strictness_and_commutators():
    # criterion 11: on the chain model all higher cohomology vanishes, and
    # on the causal cospan the two products agree on cohomology
    m, hk = context("fix-e")
    for M in m.loc.base.objects:
        cx = hk.hou_object(M).dga.complex
        assert dg.cohomology_dim(cx, 0) == 2, M
        for n in range(1, N):
            assert dg.cohomology_dim(cx, n) == 0, (M, n)

    # the two products agree on cohomology when their difference maps every
    # cocycle to a coboundary
    _, hk = context("fix-b")
    _, _, big_l, mu, muop = hk.cospan("c1", "c2")
    diff = (mu - muop).after(big_l)
    for n in range(N):
        bnd = dg.coboundary_space(diff.target, n)
        for z in dg.cocycle_space(diff.source, n).rows:
            assert bnd.coords(diff.matrix(n).apply_sparse(z)) is not None, n


def test_truncation_stability():
    # criterion 12: raising the truncation degree does not change anything
    # the truncated run reports
    for name in ("fix-a", "fix-d"):
        m, hk4 = context(name)
        _, hk6 = context(name, max_degree=N + 2)
        for M in m.loc.base.objects:
            cx4 = hk4.hou_object(M).dga.complex
            cx6 = hk6.hou_object(M).dga.complex
            for n in range(N + 1):
                assert cx4.dim(n) == cx6.dim(n), (name, M, n)
            for n in range(N):
                assert cx4.d(n) == cx6.d(n), (name, M, n)
                assert dg.cohomology_dim(cx4, n) == dg.cohomology_dim(cx6, n)
            assert hk4.h0_subspace(M) == hk6.h0_subspace(M)
            for n in range(N + 1):
                assert hk4.kappa(M).matrix(n) == hk6.kappa(M).matrix(n)
                assert hk4.rho(M).matrix(n) == hk6.rho(M).matrix(n)


def test_verify_reports_are_deterministic(capsys):
    # criterion 13: the full verification report is byte-identical across
    # runs, for both a clean model and one with declared violations
    def report(*argv):
        cli.run(list(argv))
        return capsys.readouterr().out

    first = report("verify", "--fixture", "fix-d")
    second = report("verify", "--fixture", "fix-d")
    assert first == second
    parsed = json.loads(first)
    assert parsed["summary"]["fail"] == 0
    assert parsed["summary"]["violation"] == 0

    first = report("verify", "--fixture", "fix-bprime")
    second = report("verify", "--fixture", "fix-bprime")
    assert first == second
    parsed = json.loads(first)
    byname = {c["name"]: c["status"] for c in parsed["checks"]}
    assert byname["qft-causality"] == "violation"
    assert byname["lambda-homotopy"] == "blocked"
