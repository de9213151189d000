"""Homotopy right Kan extension on normalized cochains, with explicit
homotopies.

Every value is a truncated dg-algebra of normalized cochains on the nerve of
a fiber (or under-category) groupoid, and every structural statement comes
with a concrete witness: comparison maps, cochain homotopies for composition
and extension defects, the involution straightening the order of products,
and the homotopy trivializing commutators across causal cospans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, wraps

from . import dg, kan
from .dg import Dga, GradedLinearMap
from .finalg import QftFunctor
from .fincat import (
    ExtensionData,
    FiberedModel,
    FinCategory,
    LocStructure,
    extension_data,
    lemma_witnesses,
    pullback_fiber_square,
)
from .qlinalg import Subspace, invert, kernel_basis


class HoKanError(ValueError):
    pass


def check_max_degree(max_degree: int) -> int:
    """The truncation degree, which must be at least 1: the degree-0
    cocycles need the differential into degree 1."""
    if max_degree < 1:
        raise HoKanError(f"max degree must be at least 1, got {max_degree}")
    return max_degree


@dataclass
class CochainData:
    """A cochain algebra of a base object together with its index category:
    the fiber over the object (hou) or the objects under it (horan)."""

    dga: Dga
    cat: FinCategory


def _nonidentity(cat: FinCategory, image):
    """image, evaluated once per argument, with None for an identity of cat."""
    @cache
    def get(x):
        g = image(x)
        return None if cat.is_identity(g) else g
    return get


def _induced_map(source: CochainData, target: CochainData, vertex,
                 arrow) -> GradedLinearMap:
    """The cochain map induced by a functor F from target.cat to source.cat.

    vertex(v) is (F(v), m), where the matrix m transports the coefficients at
    F(v) to those at v (None for the identity), and arrow(g) is F(g). A slot
    at u reads the source at F(u) through m at the leading vertex of u; a
    tuple that F sends to one with an identity arrow reads 0.
    """
    cat = target.cat
    vertex, arrow = cache(vertex), _nonidentity(source.cat, arrow)

    def rule(n, anchor):
        if n == 0:
            yield 1, *vertex(anchor)
            return
        image = tuple(arrow(g) for g in anchor)
        if None not in image:
            yield 1, image, vertex(cat.target(anchor[0]))[1]

    return dg._rule_map(source.dga.complex, target.dga.complex, 0, rule)


def _prism(cochains: CochainData, witness, arrow) -> GradedLinearMap:
    """The prism homotopy of a natural transformation w: G => id of the index
    category, between the map that G induces and the identity.

    witness(v) is w at the object v and arrow(g) is G(g). With v_0 the
    leading vertex and v_i the source of g_i, a slot at (g_1, ..., g_n) reads
    the sum over i of (-1)^i (g_1, ..., g_i, w(v_i), G(g_{i+1}), ...,
    G(g_n)); a tuple with an identity arrow reads 0.
    """
    cat = cochains.cat
    witness, arrow = _nonidentity(cat, witness), _nonidentity(cat, arrow)

    def rule(n, anchor):
        if n == 0:
            anchor, vertices = (), (anchor,)
        else:
            vertices = (cat.target(anchor[0]), *map(cat.source, anchor))
        image = tuple(arrow(g) for g in anchor)
        for i, v in enumerate(vertices):
            entry = anchor[:i] + (witness(v),) + image[i:]
            if None not in entry:
                yield dg._sign(i), entry, None

    return dg._rule_map(cochains.dga.complex, cochains.dga.complex, -1, rule)


def _kept(build):
    """A HoKan builder that builds once per argument and keeps the value in
    the instance's _values."""
    @wraps(build)
    def get(self, *args):
        key = (build.__name__, *args)
        if key not in self._values:
            self._values[key] = build(self, *args)
        return self._values[key]
    return get


class HoKan:
    """All homotopy Kan extension data of one fibered model, memoized.

    The cochain algebras, the extension data, the maps kappa, zeta,
    eta_homotopy, rho, beta_homotopy, hou_morphism, horan_morphism, gamma2
    and ext_pullback, the tensor data of a cospan, and the failing degrees
    of kappa after zeta and of eta (kappa_zeta_failures, eta_failures) are
    built once per argument and kept; they are shared, so read only. The
    findings and the certificate of kappa_is_weak_equivalence read the same
    failure lists, whatever order they run in.
    """

    def __init__(self, fm: FiberedModel, loc: LocStructure, A: QftFunctor,
                 max_degree: int):
        self.fm = fm
        self.loc = loc
        self.A = A
        self.max_degree = check_max_degree(max_degree)
        self._values = {}

    # --- objects -----------------------------------------------------------

    @_kept
    def hou_object(self, M: str) -> CochainData:
        """Normalized cochains of the fiber over M."""
        diagram = kan.fiber_diagram(self.fm, self.A, M)
        return CochainData(dg.holim_dgalg(diagram, self.max_degree),
                           diagram.cat)

    @_kept
    def horan_object(self, M: str) -> CochainData:
        """Normalized cochains of the category of objects under M."""
        diagram = kan.under_diagram(self.fm, self.A, M)
        return CochainData(dg.holim_dgalg(diagram, self.max_degree),
                           diagram.cat)

    # --- comparison with the under-category --------------------------------

    @_kept
    def kappa(self, M: str) -> GradedLinearMap:
        """Restriction of an under-category cochain to the fiber slots."""
        under = self.fm.under(M)
        id_M = self.fm.loc.id_of(M)
        return _induced_map(
            self.horan_object(M), self.hou_object(M),
            lambda S: (under.obj_name(S, id_M), None),
            lambda g: under.mor_name(g, id_M))

    def _under_square(self, under, name: str) -> str:
        """The fiber arrow closing the cleavage square of an under-category
        arrow (g, h)."""
        g, h = under.mor_info[name]
        return pullback_fiber_square(self.fm, h, g)

    @_kept
    def zeta(self, M: str) -> GradedLinearMap:
        """Extension of a fiber cochain by cleavage transport."""
        under = self.fm.under(M)
        return _induced_map(
            self.hou_object(M), self.horan_object(M),
            lambda obj: kan.cleavage_transport(
                self.fm, self.A, *under.obj_info[obj]),
            lambda g: self._under_square(under, g))

    @_kept
    def eta_homotopy(self, M: str) -> GradedLinearMap:
        """Cochain homotopy between zeta after kappa and the identity."""
        under = self.fm.under(M)
        id_M = self.fm.loc.id_of(M)
        return _prism(
            self.horan_object(M),
            lambda obj: under.mor_name(
                self.fm.lift(*under.obj_info[obj])[1], id_M),
            lambda g: under.mor_name(self._under_square(under, g), id_M))

    @_kept
    def kappa_zeta_failures(self, M: str):
        """Degrees n <= max_degree where kappa after zeta is not the identity
        of hou(M)."""
        return dg.failing_degrees(
            self.kappa(M).after(self.zeta(M)),
            GradedLinearMap.identity(self.hou_object(M).dga.complex),
            self.max_degree)

    @_kept
    def eta_failures(self, M: str):
        """Degrees n < max_degree where eta is not a homotopy between zeta
        after kappa and the identity of horan(M)."""
        return dg.check_homotopy_identity(
            self.zeta(M).after(self.kappa(M)),
            GradedLinearMap.identity(self.horan_object(M).dga.complex),
            self.eta_homotopy(M), self.max_degree - 1)

    def kappa_is_weak_equivalence(self, M: str) -> bool:
        """Whether kappa is a cochain map inducing isomorphisms on H^n for
        n < max_degree (dg.is_weak_equivalence at max_degree - 1).

        Through that degree, if kappa and zeta are cochain maps, kappa after
        zeta is the identity and eta is a homotopy between zeta after kappa
        and the identity, then H^n(zeta) inverts H^n(kappa): a cochain
        homotopy equivalence is a quasi-isomorphism (Weibel, An Introduction
        to Homological Algebra, 1994, 1.4). Only when this certificate fails
        do the kernels of the large horan side decide, through
        dg.is_weak_equivalence.
        """
        up_to = self.max_degree - 1
        kappa = self.kappa(M)
        if (not self.eta_failures(M)
                and all(n > up_to for n in self.kappa_zeta_failures(M))
                and kappa.is_cochain_map(up_to)
                and self.zeta(M).is_cochain_map(up_to)):
            return True
        return dg.is_weak_equivalence(kappa, up_to)

    # --- product reversal ---------------------------------------------------

    @_kept
    def rho(self, M: str) -> GradedLinearMap:
        """Order-reversing involution transported along the composite."""
        hou = self.hou_object(M)
        fiber = hou.cat

        def rule(n, anchor):
            if n == 0:
                yield 1, anchor, None
                return
            rev = tuple(fiber.inverse(g) for g in reversed(anchor))
            chain = fiber.comp_chain(anchor)
            yield dg._sign(n * (n + 1) // 2), rev, self.A.matrix(chain)

        return dg._rule_map(hou.dga.complex, hou.dga.complex, 0, rule)

    @_kept
    def beta_homotopy(self, M: str) -> GradedLinearMap:
        """Cochain homotopy between the order reversal and the identity."""
        hou = self.hou_object(M)
        fiber = hou.cat

        def rule(n, anchor):
            if n == 0:
                return
            for i in range(1, n + 1):
                segment = anchor[i - 1:]
                comp = fiber.comp_chain(segment)
                if fiber.is_identity(comp):
                    continue
                entry = anchor[:i - 1] + (comp,) + tuple(
                    fiber.inverse(g) for g in reversed(segment))
                k = n - i
                yield dg._sign(n + k * (k + 1) // 2), entry, None

        return dg._rule_map(hou.dga.complex, hou.dga.complex, -1, rule)

    # --- induced morphisms ---------------------------------------------------

    @_kept
    def hou_morphism(self, f: str) -> GradedLinearMap:
        """Transport of fiber cochains along a base morphism via the cleavage."""
        base = self.fm.loc
        return _induced_map(
            self.hou_object(base.source(f)), self.hou_object(base.target(f)),
            lambda S: kan.cleavage_transport(self.fm, self.A, S, f),
            lambda g: pullback_fiber_square(self.fm, f, g))

    @_kept
    def horan_morphism(self, f: str) -> GradedLinearMap:
        """Strict reindexing of under-category cochains along a base morphism."""
        base = self.fm.loc
        under_t = self.fm.under(base.target(f))

        def vertex(obj):
            S, h = under_t.obj_info[obj]
            return under_t.obj_name(S, base.comp(h, f)), None

        def arrow(name):
            g, h = under_t.mor_info[name]
            return under_t.mor_name(g, base.comp(h, f))

        return _induced_map(
            self.horan_object(base.source(f)),
            self.horan_object(base.target(f)), vertex, arrow)

    def _composition_homotopy(self, *fs) -> GradedLinearMap:
        """kappa after horan(f_k) after eta after ... after horan(f_1) after
        zeta, for a composable chain fs = (f_k, ..., f_1), outermost first."""
        base = self.fm.loc
        for outer, inner in zip(fs, fs[1:]):
            if base.source(outer) != base.target(inner):
                raise HoKanError("morphisms are not composable")
        out = self.kappa(base.target(fs[0]))
        for f in fs[:-1]:
            out = out.after(self.horan_morphism(f)).after(
                self.eta_homotopy(base.source(f)))
        return out.after(self.horan_morphism(fs[-1])).after(
            self.zeta(base.source(fs[-1])))

    @_kept
    def gamma2(self, f2: str, f1: str) -> GradedLinearMap:
        """Composition homotopy: hou(f2) after hou(f1) vs hou(f2 after f1)."""
        return self._composition_homotopy(f2, f1)

    def gamma3(self, f3: str, f2: str, f1: str) -> GradedLinearMap:
        """Second-order homotopy for triple compositions."""
        return self._composition_homotopy(f3, f2, f1)

    # --- extension along Cauchy morphisms ------------------------------------

    @_kept
    def extension(self, f: str) -> ExtensionData:
        return extension_data(self.fm, self.loc, f)

    @_kept
    def witnesses(self, f: str):
        return lemma_witnesses(self.fm, f, self.extension(f))

    @_kept
    def ext_pullback(self, f: str) -> GradedLinearMap:
        """Inverse transport along the chosen extensions of a Cauchy morphism."""
        base = self.fm.loc
        ext = self.extension(f)

        def vertex(S):
            ext_S, f_sharp = ext.obj_map[S]
            inv = invert(self.A.matrix(f_sharp))
            if inv is None:
                raise HoKanError(
                    f"extension map at {S!r} is not invertible")
            return ext_S, inv

        return _induced_map(
            self.hou_object(base.target(f)), self.hou_object(base.source(f)),
            vertex, ext.mor_map.__getitem__)

    def phi_homotopy(self, f: str) -> GradedLinearMap:
        """Homotopy between ext_pullback after hou(f) and the identity."""
        ext = self.extension(f)
        into, _ = self.witnesses(f)
        hou = self.hou_object(self.fm.loc.source(f))
        return _prism(
            hou, lambda S: hou.cat.inverse(into[S]),
            lambda g: pullback_fiber_square(self.fm, f, ext.mor_map[g]))

    def phibar_homotopy(self, f: str) -> GradedLinearMap:
        """Homotopy between hou(f) after ext_pullback and the identity."""
        ext = self.extension(f)
        _, outof = self.witnesses(f)
        hou = self.hou_object(self.fm.loc.target(f))
        return _prism(
            hou, lambda S: hou.cat.inverse(outof[S]),
            lambda g: ext.mor_map[pullback_fiber_square(self.fm, f, g)])

    # --- causality -----------------------------------------------------------

    @_kept
    def cospan(self, f1: str, f2: str):
        """(M, T, L, mu, muop) for a cospan f1, f2 into M: T is the tensor
        square of hou(M), L transports a tensor class along the two legs and
        mu/muop are the two multiplications from T."""
        base = self.fm.loc
        M = base.target(f1)
        if base.target(f2) != M:
            raise HoKanError("cospan legs must share a target")
        src1, src2 = (self.hou_object(base.source(f)).dga.complex
                      for f in (f1, f2))
        tgt = self.hou_object(M).dga
        t_src = dg.tensor_complex(src1, src2, self.max_degree)
        t_tgt = dg.tensor_complex(tgt.complex, tgt.complex, self.max_degree)
        big_l = dg.tensor_map(self.hou_morphism(f1), self.hou_morphism(f2),
                              t_src, t_tgt)
        return M, t_tgt, big_l, dg.mu_map(tgt, t_tgt), dg.muop_map(tgt, t_tgt)

    def lambda_homotopy(self, f1: str, f2: str) -> GradedLinearMap:
        """Homotopy between mu after L and muop after L."""
        M, t_tgt, big_l, mu, muop = self.cospan(f1, f2)
        rho, beta = self.rho(M), self.beta_homotopy(M)
        ident = GradedLinearMap.identity(self.hou_object(M).dga.complex)
        rho_beta = dg.tensor_map(rho, beta, t_tgt, t_tgt)
        beta_id = dg.tensor_map(beta, ident, t_tgt, t_tgt)
        return (muop.after(rho_beta + beta_id) - beta.after(mu)).after(big_l)

    def product_reversal_identity(self, f1: str, f2: str, up_to: int):
        """Degrees where reversal fails to intertwine the two products."""
        M, t_tgt, big_l, mu, muop = self.cospan(f1, f2)
        rho = self.rho(M)
        rho_rho = dg.tensor_map(rho, rho, t_tgt, t_tgt)
        return dg.failing_degrees(rho.after(mu).after(big_l),
                                  muop.after(rho_rho).after(big_l), up_to)

    def lambda_causality(self, f1: str, f2: str, up_to: int):
        """Degrees where the commutator homotopy identity fails."""
        _, _, big_l, mu, muop = self.cospan(f1, f2)
        return dg.check_homotopy_identity(
            mu.after(big_l), muop.after(big_l), self.lambda_homotopy(f1, f2),
            up_to)

    # --- cohomology comparisons ----------------------------------------------

    def h0_subspace(self, M: str) -> Subspace:
        """Degree-0 cocycles of the fiber cochain algebra, in fiber slots."""
        return kernel_basis(self.hou_object(M).dga.complex.d(0))


def check_square_homotopy(lhs: GradedLinearMap, h: GradedLinearMap,
                          up_to: int):
    """Degrees n <= up_to where lhs != d*h - h*d for a shift -2 homotopy h
    of a shift -1 map."""
    if lhs.shift != -1 or h.shift != -2:
        raise HoKanError("expected a shift -1 map and a shift -2 homotopy")
    return dg.check_homotopy_identity(
        lhs, GradedLinearMap.zero(lhs.source, lhs.target, -1), h, up_to)
