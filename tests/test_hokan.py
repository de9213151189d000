import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_source import load_bench_module

from fibkan import cli, dg, qlinalg
from fibkan.dg import (
    Dga,
    GradedLinearMap,
    check_homotopy_identity,
    cohomology_dim,
    is_weak_equivalence,
)
from fibkan.fincat import classify_flabbiness
from fibkan.fixtures import fixture_names, load_bundled
from fibkan.hokan import HoKan, HoKanError, check_square_homotopy
from fibkan.kan import u_object
from fibkan.models import model_from_dict
from fibkan.qlinalg import QMatrix

N = 4


def context(name, order="normal", max_degree=N):
    m = model_from_dict(load_bundled(name))
    fm = m.fibered(order)
    return m, HoKan(fm, m.loc, m.A, max_degree)


def assert_equal_maps(f, g, up_to):
    for n in range(up_to + 1):
        assert f.matrix(n) == g.matrix(n), n


def test_max_degree_below_one_rejected():
    m = model_from_dict(load_bundled("fix-a"))
    for degree in (0, -1):
        with pytest.raises(HoKanError):
            HoKan(m.fibered(), m.loc, m.A, degree)


def test_hou_object_dims_bz2():
    _, hk = context("fix-a")
    cx = hk.hou_object("pt").dga.complex
    assert [cx.dim(n) for n in range(N + 1)] == [4] * (N + 1)
    assert hk.hou_object("pt").dga.violations() == []


def test_horan_object_dims_chain():
    _, hk = context("fix-e")
    cx = hk.horan_object("M0").dga.complex
    # walk counts of the under-category times the algebra dimension
    assert cx.dim(0) == 16
    assert cx.dim(1) == 64
    assert cx.violations() == []


KEPT = ("kappa", "zeta", "eta_homotopy", "kappa_zeta_failures",
        "eta_failures", "rho", "beta_homotopy", "hou_morphism",
        "horan_morphism", "gamma2", "ext_pullback")


def test_maps_are_built_once_and_kept():
    m, hk = context("fix-d", max_degree=2)
    base = m.loc.base
    for M in base.objects:
        assert hk.kappa(M) is hk.kappa(M)
        assert hk.rho(M) is hk.rho(M)
    for f in base.morphisms:
        assert hk.hou_morphism(f) is hk.hou_morphism(f)
    # the key holds the method and its argument: no map answers for another
    assert hk.zeta("N") is not hk.zeta("Np")
    assert hk.kappa("N") is not hk.zeta("N")


def test_kept_maps_leave_the_verify_report_unchanged(monkeypatch, capsys):
    argv = ["verify", "--fixture", "fix-d", "--max-degree", "2"]
    assert cli.run(argv) == 0
    kept = capsys.readouterr().out
    for name in KEPT:
        monkeypatch.setattr(HoKan, name, getattr(HoKan, name).__wrapped__)
    _, hk = context("fix-d", max_degree=2)
    assert hk.kappa("N") is not hk.kappa("N")
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == kept


def test_gamma2_is_formed_once_per_pair(monkeypatch, capsys):
    # gamma2-homotopy and gamma3-coherence read the same gamma2 of a pair
    formed = []
    compose = HoKan._composition_homotopy

    def counted(self, *fs):
        if len(fs) == 2:
            formed.append(fs)
        return compose(self, *fs)

    monkeypatch.setattr(HoKan, "_composition_homotopy", counted)
    kept = HoKan.gamma2
    for order in ("normal", "reversed"):
        argv = ["hokan", "--fixture", "fix-e", "--max-degree", "4",
                "--seed-order", order]
        reports, counts = [], []
        for gamma2 in (kept, kept.__wrapped__):
            del formed[:]
            monkeypatch.setattr(HoKan, "gamma2", gamma2)
            assert cli.run(argv) == 0
            reports.append(capsys.readouterr().out)
            counts.append((len(formed), len(set(formed))))
        assert counts == [(4, 4), (8, 4)]
        assert reports[0] == reports[1]


def test_cohomology_after_the_kappa_check_runs_no_elimination(monkeypatch):
    # the weak-equivalence check builds the cocycle and coboundary spaces of
    # both complexes; the cohomology and h0 reads take them from the
    # differentials, which keep their kernels and column spaces
    chain = load_bench_module("chainmodel")
    m = model_from_dict(chain.chain_dict(2, "Z2"))
    hk = HoKan(m.fibered(), m.loc, m.A, 2)
    invariants = u_object(m.fibered(), m.A, "M0").dim
    calls = []
    echelon = qlinalg._echelon

    def counted(rows, columns):
        calls.append(columns)
        return echelon(rows, columns)

    monkeypatch.setattr(qlinalg, "_echelon", counted)
    assert is_weak_equivalence(hk.kappa("M0"), 1)
    checked = len(calls)
    complexes = [hk.horan_object("M0").dga.complex,
                 hk.hou_object("M0").dga.complex]
    assert [cohomology_dim(cx, n) for cx in complexes for n in (0, 1)] == \
        [invariants, 0] * 2
    assert hk.h0_subspace("M0").dim == invariants
    assert checked and len(calls) == checked


def test_product_tables_are_built_on_first_read_and_once(monkeypatch):
    # cohomology, the kappa weak equivalence and the homotopy identities
    # read only the cochain complexes, so no product is computed for them;
    # the structure suite builds each table once, and the table is kept
    products, builds = [], []
    mul, build = Dga.mul, dg._cup_products

    def counted_mul(self, *args):
        products.append(args)
        return mul(self, *args)

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    m, hk = context("fix-e", max_degree=3)
    base = m.loc.base
    # the limit algebras of the oracle multiply, so they are built first
    invariants = {M: u_object(hk.fm, m.A, M).dim for M in base.objects}
    monkeypatch.setattr(Dga, "mul", counted_mul)
    monkeypatch.setattr(dg, "_cup_products", counted_build)
    arrows = sorted(f for f in base.morphisms if not base.is_identity(f))
    dgas = {}
    for M in sorted(base.objects):
        hou, horan = hk.hou_object(M).dga, hk.horan_object(M).dga
        dgas.update({id(hou): hou, id(horan): horan})
        assert is_weak_equivalence(hk.kappa(M), 2)
        assert [cohomology_dim(dga.complex, n) for dga in (hou, horan)
                for n in range(3)] == [invariants[M], 0, 0] * 2
        assert check_homotopy_identity(
            hk.zeta(M).after(hk.kappa(M)),
            GradedLinearMap.identity(horan.complex), hk.eta_homotopy(M),
            2) == []
        assert check_homotopy_identity(
            hk.rho(M), GradedLinearMap.identity(hou.complex),
            hk.beta_homotopy(M), 2) == []
    pairs = [(g, f) for g in arrows for f in arrows
             if base.source(g) == base.target(f)]
    for g, f in pairs:
        lhs = hk.hou_morphism(g).after(hk.hou_morphism(f)) \
            - hk.hou_morphism(base.comp(g, f))
        assert check_homotopy_identity(
            lhs, GradedLinearMap.zero(lhs.source, lhs.target),
            hk.gamma2(g, f), 2) == []
    for f in sorted(set(m.loc.cauchy) & set(arrows)):
        source, target = (GradedLinearMap.identity(
            hk.hou_object(M).dga.complex)
            for M in (base.source(f), base.target(f)))
        assert check_homotopy_identity(
            hk.ext_pullback(f).after(hk.hou_morphism(f)), source,
            hk.phi_homotopy(f), 2) == []
        assert check_homotopy_identity(
            hk.hou_morphism(f).after(hk.ext_pullback(f)), target,
            hk.phibar_homotopy(f), 2) == []
    assert pairs and products == [] and builds == []
    for dga in dgas.values():
        assert dga.violations() == []
    assert products and len(builds) == len(dgas) == 8
    for dga in dgas.values():
        assert dga.products is dga.products
        assert dga.violations() == []
    assert len(builds) == len(dgas)


def test_kappa_zeta_identity():
    for name in ("fix-a", "fix-b", "fix-c", "fix-d"):
        m, hk = context(name)
        for M in m.loc.base.objects:
            kappa = hk.kappa(M)
            zeta = hk.zeta(M)
            assert kappa.is_cochain_map(), (name, M)
            assert zeta.is_cochain_map(), (name, M)
            comp = kappa.after(zeta)
            ident = GradedLinearMap.identity(hk.hou_object(M).dga.complex)
            assert_equal_maps(comp, ident, N)


def test_kappa_weak_equivalence():
    for name in ("fix-a", "fix-d"):
        m, hk = context(name)
        for M in m.loc.base.objects:
            assert is_weak_equivalence(hk.kappa(M), N - 1), (name, M)


CHAIN = load_bench_module("chainmodel")
MODEL_DOCS = {name: load_bundled(name) for name in fixture_names()} | {
    f"chain({n},{group})": CHAIN.chain_dict(n, group)
    for n, group in ((2, "Z2"), (2, "Z3"), (3, "Z2"), (3, "Z3"), (2, "S3"))}


@pytest.mark.parametrize("name, degree", [
    (name, degree) for name in MODEL_DOCS
    for degree in ((1, 2) if name == "chain(2,S3)" else (1, 2, 3))])
def test_certificate_agrees_with_the_kernel_route(name, degree):
    m = model_from_dict(MODEL_DOCS[name])
    for order in ("normal", "reversed"):
        hk = HoKan(m.fibered(order), m.loc, m.A, degree)
        for M in sorted(m.loc.base.objects):
            assert hk.kappa_is_weak_equivalence(M) == is_weak_equivalence(
                hk.kappa(M), degree - 1), (order, M)


def weak_equivalence_calls(monkeypatch):
    """The maps dg.is_weak_equivalence is called with from now on."""
    calls = []
    check = dg.is_weak_equivalence

    def counted(f, up_to):
        calls.append(f)
        return check(f, up_to)

    monkeypatch.setattr(dg, "is_weak_equivalence", counted)
    return calls


def verify_findings(capsys, name, order="normal"):
    cli.run(["verify", "--fixture", name, "--max-degree", "2",
             "--seed-order", order])
    return {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}


def test_a_held_certificate_runs_no_kernel_route(monkeypatch, capsys):
    calls = weak_equivalence_calls(monkeypatch)
    for order in ("normal", "reversed"):
        checks = verify_findings(capsys, "fix-e", order)
        assert checks["kappa-weak-equivalence"]["status"] == "pass"
    assert calls == []


def test_a_broken_certificate_falls_back_once_per_object(monkeypatch, capsys):
    def zero_eta(self, M):
        cx = self.horan_object(M).dga.complex
        return GradedLinearMap.zero(cx, cx, -1)

    monkeypatch.setattr(HoKan, "eta_homotopy", zero_eta)
    calls = weak_equivalence_calls(monkeypatch)
    checks = verify_findings(capsys, "fix-e")
    # M3 has no arrow out, so its under-category is its fiber and zeta after
    # kappa is the identity: a zero eta is a homotopy there
    eta = checks["eta-homotopy"]["details"]["objects"]
    broken = [M for M, outcome in eta.items() if outcome != "pass"]
    assert broken == ["M0", "M1", "M2"]
    assert len(calls) == len({id(f) for f in calls}) == len(broken)
    assert checks["kappa-weak-equivalence"]["status"] == "pass"
    assert checks["eta-homotopy"]["status"] == "fail"


def test_a_zero_kappa_is_not_a_weak_equivalence(monkeypatch, capsys):
    def zero_kappa(self, M):
        return GradedLinearMap.zero(self.horan_object(M).dga.complex,
                                    self.hou_object(M).dga.complex)

    monkeypatch.setattr(HoKan, "kappa", zero_kappa)
    assert verify_findings(capsys, "fix-a")["kappa-weak-equivalence"] == {
        "name": "kappa-weak-equivalence", "status": "fail",
        "details": {"objects": {"pt": "not a weak equivalence"}}}


def test_eta_homotopy():
    for name in ("fix-a", "fix-c", "fix-d"):
        m, hk = context(name)
        for M in m.loc.base.objects:
            comp = hk.zeta(M).after(hk.kappa(M))
            ident = GradedLinearMap.identity(hk.horan_object(M).dga.complex)
            bad = check_homotopy_identity(comp, ident, hk.eta_homotopy(M), N - 1)
            assert bad == [], (name, M, bad)


def test_rho_involution_and_cochain():
    for name in ("fix-a", "fix-d"):
        m, hk = context(name)
        for M in m.loc.base.objects:
            rho = hk.rho(M)
            assert rho.is_cochain_map(), (name, M)
            ident = GradedLinearMap.identity(hk.hou_object(M).dga.complex)
            assert_equal_maps(rho.after(rho), ident, N)


def test_beta_homotopy():
    for name in ("fix-a", "fix-d"):
        m, hk = context(name)
        for M in m.loc.base.objects:
            rho = hk.rho(M)
            beta = hk.beta_homotopy(M)
            ident = GradedLinearMap.identity(hk.hou_object(M).dga.complex)
            bad = check_homotopy_identity(rho, ident, beta, N - 1)
            assert bad == [], (name, M, bad)


def test_beta_degree_one_oracle():
    # in degree 1 the homotopy identity reduces to rho - id = beta after d
    _, hk = context("fix-a")
    rho = hk.rho("pt")
    beta = hk.beta_homotopy("pt")
    cx = hk.hou_object("pt").dga.complex
    assert beta.matrix(1) == QMatrix.zero(cx.dim(0), cx.dim(1))
    assert rho.matrix(1) - QMatrix.identity(cx.dim(1)) \
        == beta.matrix(2) * cx.d(1)


def test_hou_morphism_identity_is_identity():
    for name in ("fix-d", "fix-e"):
        m, hk = context(name)
        for M in m.loc.base.objects:
            u = hk.hou_morphism(m.loc.base.id_of(M))
            ident = GradedLinearMap.identity(hk.hou_object(M).dga.complex)
            assert_equal_maps(u, ident, N)


def test_hou_morphism_is_cochain_and_multiplicative():
    m, hk = context("fix-e")
    u = hk.hou_morphism("f01")
    assert u.is_cochain_map()
    src = hk.hou_object("M0").dga
    tgt = hk.hou_object("M1").dga
    for n1 in range(N + 1):
        for n2 in range(N + 1 - n1):
            for (i, j), vec in src.table(n1, n2).items():
                lhs = u.matrix(n1 + n2).apply_sparse(vec)
                rhs = tgt.mul(
                    n1, u.matrix(n1).apply_sparse({i: 1}),
                    n2, u.matrix(n2).apply_sparse({j: 1}))
                assert lhs == rhs


def test_gamma2_homotopy():
    _, hk = context("fix-e")
    lhs = hk.hou_morphism("f12").after(hk.hou_morphism("f01")) \
        - hk.hou_morphism("f02")
    zero = GradedLinearMap.zero(lhs.source, lhs.target)
    bad = check_homotopy_identity(lhs + zero, zero, hk.gamma2("f12", "f01"),
                                  N - 1)
    assert bad == []


def test_gamma3_coherence():
    _, hk = context("fix-e")
    g = hk.gamma2
    u = hk.hou_morphism
    lhs = (g("f23", "f02") + u("f23").after(g("f12", "f01"))
           - g("f13", "f01") - g("f23", "f12").after(u("f01")))
    bad = check_square_homotopy(lhs, hk.gamma3("f23", "f12", "f01"), N - 2)
    assert bad == []


def square_homotopy_oracle(lhs, h, up_to):
    """Degrees n <= up_to where lhs != d*h - h*d, written out for a shift -2
    homotopy h of a shift -1 map."""
    src, tgt = lhs.source, lhs.target
    bad = []
    for n in range(up_to + 1):
        hd = h.matrix(n + 1) * src.d(n)
        got = QMatrix.zero(hd.rows, hd.cols) - hd
        if n >= 2:
            got = got + tgt.d(n - 2) * h.matrix(n)
        if lhs.matrix(n) != got:
            bad.append(n)
    return bad


def test_shift_minus_two_homotopy_check_matches_the_oracle():
    _, hk = context("fix-e")
    base, g2, u = hk.fm.loc, hk.gamma2, hk.hou_morphism
    arrows = sorted(f for f in base.morphisms if not base.is_identity(f))
    triples = [(h, g, f) for h in arrows for g in arrows for f in arrows
               if base.source(h) == base.target(g)
               and base.source(g) == base.target(f)]
    assert triples
    for h, g, f in triples:
        lhs = (g2(h, base.comp(g, f)) + u(h).after(g2(g, f))
               - g2(base.comp(h, g), f) - g2(h, g).after(u(f)))
        zero = GradedLinearMap.zero(lhs.source, lhs.target, -1)
        gamma3 = hk.gamma3(h, g, f)
        # the homotopy itself, then each entry of it moved in turn, in the
        # degrees the check reads
        homotopies = [gamma3]
        for n in range(N):
            m = gamma3.matrix(n)
            for key in ((i, j) for i in range(m.rows) for j in range(m.cols)):
                data = dict(m.data)
                data[key] = data.get(key, 0) + 1
                homotopies.append(GradedLinearMap(
                    gamma3.source, gamma3.target, -2,
                    {**gamma3.maps, n: QMatrix(m.rows, m.cols, data)}))
        found = [square_homotopy_oracle(lhs, hom, N - 2)
                 for hom in homotopies]
        # both terms of the identity are reached: failures at n - 1 through
        # h*d and at n through d*h
        assert found[0] == [] and {1, 2} <= set().union(*found)
        for hom, want in zip(homotopies, found):
            assert check_homotopy_identity(lhs, zero, hom, N - 2) == want


def test_ext_pullback_homotopies():
    _, hk = context("fix-d")
    ext_star = hk.ext_pullback("f")
    hou_f = hk.hou_morphism("f")
    ident_src = GradedLinearMap.identity(hk.hou_object("N").dga.complex)
    ident_tgt = GradedLinearMap.identity(hk.hou_object("Np").dga.complex)
    bad = check_homotopy_identity(
        ext_star.after(hou_f), ident_src, hk.phi_homotopy("f"), N - 1)
    assert bad == []
    bad = check_homotopy_identity(
        hou_f.after(ext_star), ident_tgt, hk.phibar_homotopy("f"), N - 1)
    assert bad == []


def test_ext_pullback_homotopies_nontrivial_witnesses(monkeypatch):
    # pair a normal-order cleavage with the reversed-order extension choice:
    # the triangle witnesses become the nontrivial fiber automorphism, which
    # separates the correct summation range of the second homotopy
    from fibkan.fincat import extension_data, lemma_witnesses

    m, hk = context("fix-d")
    ext_rev = extension_data(m.fibered("reversed"), m.loc, "f")
    monkeypatch.setattr(hk, "extension", {"f": ext_rev}.__getitem__)
    into, outof = lemma_witnesses(hk.fm, "f", ext_rev)
    assert into == {"N": "id_N.g"}
    assert outof == {"Np": "id_Np.g"}
    ext_star = hk.ext_pullback("f")
    hou_f = hk.hou_morphism("f")
    ident_src = GradedLinearMap.identity(hk.hou_object("N").dga.complex)
    ident_tgt = GradedLinearMap.identity(hk.hou_object("Np").dga.complex)
    assert check_homotopy_identity(
        ext_star.after(hou_f), ident_src, hk.phi_homotopy("f"), N - 1) == []
    assert check_homotopy_identity(
        hou_f.after(ext_star), ident_tgt, hk.phibar_homotopy("f"), N - 1) == []
    # the witness term of the lowest degree alone is not a homotopy
    phibar = hk.phibar_homotopy("f")
    lowest = GradedLinearMap(phibar.source, phibar.target, -1,
                             {1: phibar.matrix(1)})
    assert check_homotopy_identity(
        hou_f.after(ext_star), ident_tgt, lowest, N - 1) != []


def test_composition_homotopies_reject_non_composable_morphisms():
    _, hk = context("fix-e")
    base = hk.fm.loc
    arrows = sorted(g for g in base.morphisms if not base.is_identity(g))
    g, f = next((g, f) for g in arrows for f in arrows
                if base.source(g) != base.target(f))
    with pytest.raises(HoKanError):
        hk.gamma2(g, f)
    with pytest.raises(HoKanError):
        hk.gamma3(g, g, f)


def test_hou_cauchy_weak_equivalence():
    _, hk = context("fix-d")
    assert is_weak_equivalence(hk.hou_morphism("f"), N - 1)


def test_lambda_causality_on_cospan():
    _, hk = context("fix-b")
    assert hk.product_reversal_identity("c1", "c2", N) == []
    assert hk.lambda_causality("c1", "c2", N - 1) == []


def test_lambda_blocked_without_causality():
    _, hk = context("fix-bprime")
    assert hk.product_reversal_identity("c1", "c2", N) != []
    assert hk.lambda_causality("c1", "c2", N - 1) != []


def test_h0_matches_invariants():
    for name in ("fix-a", "fix-b", "fix-c", "fix-d", "fix-e"):
        m, hk = context(name)
        for M in m.loc.base.objects:
            assert hk.h0_subspace(M) == u_object(hk.fm, m.A, M).subspace


def as_fractions(entries):
    """Sorted (key, Fraction) pairs: the digests were recorded when every
    scalar was a Fraction, and hash a value's repr, so an int entry is
    hashed as the Fraction it equals."""
    return sorted((k, Fraction(v)) for k, v in entries.items())


def dga_digest(dga):
    """sha256 prefix of the labels, differentials, product tables and unit."""
    cx = dga.complex
    h = hashlib.sha256()
    for n in range(cx.max_degree + 1):
        h.update(repr(("labels", n, cx.labels[n])).encode())
        if n < cx.max_degree:
            d = cx.d(n)
            h.update(repr(("d", n, d.rows, d.cols,
                           as_fractions(d.data))).encode())
    for key in sorted(dga.products):
        h.update(repr(("mul", key, sorted(
            (pair, as_fractions(vec))
            for pair, vec in dga.products[key].items()))).encode())
    h.update(repr(("unit", as_fractions(dga.unit))).encode())
    return h.hexdigest()[:16]


# (hou, horan) digests at degree 3, recorded from the double-complex
# construction of the homotopy limit that the nerve cochains replaced
HOLIM_DIGESTS = {
    "fix-a:pt": ("1ed0e97c0fbbfbba", "54f646a3ca80e1c5"),
    "fix-b:M": ("db2111df2b76f379", "9a5845d14ddf348b"),
    "fix-b:M1": ("5573d4d7e908d6a8", "0819df3b7c76557a"),
    "fix-b:M2": ("3156f657a7fd1fef", "9a9f1f0ec7cf4824"),
    "fix-bprime:M": ("1c8fb989b112417a", "858e3112340e56b7"),
    "fix-bprime:M1": ("06acee00c14badbb", "93d18abcfc1eaab7"),
    "fix-bprime:M2": ("f5fea64a7196a28b", "983bc7e606592023"),
    "fix-c:M": ("ff12f2344e3b6c1f", "c2e49ae94258d634"),
    "fix-c:M1": ("32152b6f03b05790", "453bfe381baeeb62"),
    "fix-d:N": ("df8817691c25ea0e", "e8046c06ce867ee6"),
    "fix-d:Np": ("1e885a527c9815fd", "c7ef474e097739ad"),
    "fix-e:M0": ("62ae7924cf230633", "dc9dc5ad34bf2959"),
    "fix-e:M1": ("06acee00c14badbb", "96609d4d623b41b2"),
    "fix-e:M2": ("f5fea64a7196a28b", "d41dd07dc4bcc560"),
    "fix-e:M3": ("f61d5784f251ad34", "b6d4f1cb9331f751"),
    # generated chains, recorded from the tables built per anchor, before
    # the products of a composite arrow were computed once for all anchors
    "chain(2,S3)@2:M0": ("2f6cd7bb09f49a3e", "ea98a389dca02763"),
    "chain(2,S3)@2:M1": ("57f58ef591bd9ff8", "55d8e9b51496d707"),
    "chain(3,Z2)@3:M0": ("7704e725702a9224", "7b089d5e9d5623ba"),
    "chain(3,Z2)@3:M1": ("7394fcd51a8a6c02", "45f5afda11362def"),
    "chain(3,Z2)@3:M2": ("bcb6740d02dfb3a6", "e17b1a652c9e5292"),
}


def test_cochain_algebras_match_recorded_digests():
    got = {}
    for name in fixture_names():
        m, hk = context(name, max_degree=3)
        for M in sorted(m.loc.base.objects):
            got[f"{name}:{M}"] = (dga_digest(hk.hou_object(M).dga),
                                  dga_digest(hk.horan_object(M).dga))
    for n, group, degree in ((2, "S3", 2), (3, "Z2", 3)):
        m = model_from_dict(CHAIN.chain_dict(n, group))
        hk = HoKan(m.fibered(), m.loc, m.A, degree)
        for M in sorted(m.loc.base.objects):
            got[f"chain({n},{group})@{degree}:{M}"] = (
                dga_digest(hk.hou_object(M).dga),
                dga_digest(hk.horan_object(M).dga))
    assert got == HOLIM_DIGESTS


def maps_digest(keyed_maps):
    """sha256 prefix of every matrix of a family of graded maps, by key."""
    h = hashlib.sha256()
    for key, f in keyed_maps:
        for n in sorted(f.maps):
            m = f.maps[n]
            h.update(repr((key, f.shift, n, m.rows, m.cols,
                           as_fractions(m.data))).encode())
    return h.hexdigest()[:16]


# digests of the comparison maps and homotopies at degree 3: kappa, zeta and
# eta per base object, hou and horan per base arrow, ext_pullback, phi and
# phibar per non-identity Cauchy arrow of a strongly Cauchy flabby model
MAP_DIGESTS = {
    "fix-a": {
        "kappa": "21b97261b9ec9967", "zeta": "21b97261b9ec9967",
        "eta": "9f14a3ebd73ce153",
        "hou": "8e3910e0a14f7388", "horan": "8e3910e0a14f7388",
    },
    "fix-b": {
        "kappa": "b8613d59219a1989", "zeta": "1666209e17caae81",
        "eta": "db2849a1916c272c",
        "hou": "0a13442aa0f9939f", "horan": "d79bcdce06705bb4",
    },
    "fix-bprime": {
        "kappa": "24ef0150d1c440d9", "zeta": "7a1ba3c62d388130",
        "eta": "977b22294d16a261",
        "hou": "8b7b82aa508e4ce1", "horan": "fc43329c8adfdd2b",
    },
    "fix-c": {
        "kappa": "89b54fa5df68e424", "zeta": "4450d60810c215e9",
        "eta": "5dd2f19ee3cbe7cc",
        "hou": "4ee65b8c8a9bbe8a", "horan": "4cd50bb0a430274d",
    },
    "fix-d": {
        "kappa": "6ce0b30cae610a0e", "zeta": "859ffd4f2610d45b",
        "eta": "84897f99460130f2",
        "hou": "a95e3f6324d3cc38", "horan": "652ef203a3f6fdb5",
        "ext": "df672d1bcb462116", "phi": "ae2a284c472bf6a2",
        "phibar": "ae2a284c472bf6a2",
    },
    "fix-e": {
        "kappa": "de62dba825175fb1", "zeta": "f5c6cf6bc4368275",
        "eta": "ba0f8a394b4ce3d6",
        "hou": "0a96f2ff6857885d", "horan": "88542c55cd5118cf",
        "ext": "f922b64aa4062872", "phi": "700c40dfef7f0e45",
        "phibar": "700c40dfef7f0e45",
    },
}


def test_comparison_maps_match_recorded_digests():
    got = {}
    for name in fixture_names():
        m, hk = context(name, max_degree=3)
        base = m.loc.base
        objects, arrows = sorted(base.objects), sorted(base.morphisms)
        cauchy = []
        if classify_flabbiness(hk.fm, m.loc).strongly_cauchy_flabby:
            cauchy = sorted(f for f in m.loc.cauchy if not base.is_identity(f))
        families = {
            "kappa": (hk.kappa, objects), "zeta": (hk.zeta, objects),
            "eta": (hk.eta_homotopy, objects),
            "hou": (hk.hou_morphism, arrows),
            "horan": (hk.horan_morphism, arrows),
            "ext": (hk.ext_pullback, cauchy), "phi": (hk.phi_homotopy, cauchy),
            "phibar": (hk.phibar_homotopy, cauchy),
        }
        got[name] = {
            family: maps_digest([(key, build(key)) for key in keys])
            for family, (build, keys) in families.items() if keys}
    assert got == MAP_DIGESTS


def scalars(hk):
    """Every entry of the cochain algebras of each base object (their
    differentials, kernel rows, product tables and units), of its comparison
    maps and homotopies, and of the maps induced by each base arrow."""
    base = hk.loc.base
    for M in sorted(base.objects):
        for cochains in (hk.hou_object(M), hk.horan_object(M)):
            dga = cochains.dga
            cx = dga.complex
            for n in range(cx.max_degree):
                yield from cx.d(n).data.values()
                for row in qlinalg.kernel_basis(cx.d(n)).rows:
                    yield from row.values()
            for table in dga.products.values():
                for vec in table.values():
                    yield from vec.values()
            yield from dga.unit.values()
        for build in (hk.kappa, hk.zeta, hk.eta_homotopy, hk.rho,
                      hk.beta_homotopy):
            for m in build(M).maps.values():
                yield from m.data.values()
    for f in sorted(base.morphisms):
        for build in (hk.hou_morphism, hk.horan_morphism):
            for m in build(f).maps.values():
                yield from m.data.values()


CHAIN = load_bench_module("chainmodel")
seeds = st.none() | st.integers(0, 9)
# (model, the scalar types allowed in it, truncation degree): a chain is
# whole-number throughout, a fixture may hold fractions
models = st.one_of(
    st.tuples(st.sampled_from(fixture_names()).map(load_bundled),
              st.just({int, Fraction}), st.integers(1, 3)),
    st.tuples(st.builds(CHAIN.chain_dict, st.integers(1, 3),
                        st.sampled_from(["Z2", "Z3"]), seeds),
              st.just({int}), st.integers(1, 3)),
    st.tuples(st.builds(CHAIN.chain_dict, st.integers(1, 2), st.just("S3"),
                        seeds),
              st.just({int}), st.integers(1, 2)))


@settings(max_examples=25, deadline=None)
@given(models, st.sampled_from(["normal", "reversed"]))
def test_scalars_are_exact_and_whole_number_models_stay_int(model, order):
    # an int for every integral scalar is what keeps whole-number models in
    # int arithmetic: a Fraction in place of an int fails on the chains, and
    # a float or a bool fails on every model
    doc, allowed, max_degree = model
    m = model_from_dict(doc)
    hk = HoKan(m.fibered(order), m.loc, m.A, max_degree)
    kinds = {type(v) for v in scalars(hk)}
    assert kinds <= allowed, kinds


def test_maschke_oracle_on_every_fixture():
    # over QQ a finite groupoid has no higher cohomology, and H^0 is the
    # invariants, whose dimension comes from kan without the nerve code
    for name in fixture_names():
        m, hk = context(name, max_degree=3)
        for M in m.loc.base.objects:
            want = [u_object(hk.fm, m.A, M).dim, 0, 0]
            for obj in (hk.hou_object(M), hk.horan_object(M)):
                cx = obj.dga.complex
                assert [cohomology_dim(cx, n) for n in range(3)] == want, \
                    (name, M)


def test_hou_cohomology_strict():
    _, hk = context("fix-e")
    cx = hk.hou_object("M0").dga.complex
    assert cohomology_dim(cx, 0) == 2
    for n in range(1, N):
        assert cohomology_dim(cx, n) == 0


def test_cleavage_order_independence_on_cohomology():
    for order in ("normal", "reversed"):
        _, hk = context("fix-d", order)
        for M in ("N", "Np"):
            cx = hk.hou_object(M).dga.complex
            assert cohomology_dim(cx, 0) == 2
            assert cohomology_dim(cx, 1) == 0
