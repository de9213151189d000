"""Homotopy right Kan extension on normalized cochains, with explicit
homotopies.

Every value is a truncated dg-algebra of normalized cochains on the nerve of
a fiber (or under-category) groupoid, and every structural statement comes
with a concrete witness: comparison maps, cochain homotopies for composition
and extension defects, the involution straightening the order of products,
and the homotopy trivializing commutators across causal cospans.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass

from . import dg
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
    pullback_tuple,
    under_pullback_tuple,
)
from .qlinalg import ONE, QMatrix, Subspace, invert, kernel_basis

DEFAULT_MAX_DEGREE = 4


class HoKanError(ValueError):
    pass


def default_max_degree() -> int:
    """FIBKAN_MAX_DEGREE, or DEFAULT_MAX_DEGREE when it is unset."""
    value = os.environ.get("FIBKAN_MAX_DEGREE")
    if value is None:
        return DEFAULT_MAX_DEGREE
    try:
        return int(value)
    except ValueError:
        raise HoKanError(
            f"FIBKAN_MAX_DEGREE must be an integer, got {value!r}") from None


def check_max_degree(max_degree: int) -> int:
    """The truncation degree, which must be at least 1: the degree-0
    cocycles need the differential into degree 1."""
    if max_degree < 1:
        raise HoKanError(f"max degree must be at least 1, got {max_degree}")
    return max_degree


def _sign(k: int):
    return ONE if k % 2 == 0 else -ONE


def _rule_map(source: Dga, target: Dga, shift: int, rule) -> GradedLinearMap:
    """Build a graded map from a slotwise rule.

    rule(n_out, anchor_out) yields (sign, anchor_in, matrix) triples, where
    matrix transports internal indices (None for the identity) and anchor_in
    lives in degree n_out - shift of the source.
    """
    cx_s, cx_t = source.complex, target.complex
    maps = {}
    for n_out in range(cx_t.max_degree + 1):
        n_in = n_out - shift
        if not (0 <= n_in <= cx_s.max_degree):
            continue
        data = {}
        pos_out = cx_t.pos[n_out]
        pos_in = cx_s.pos[n_in]
        block_size = Counter(anchor for anchor, _ in cx_s.labels[n_in])
        for anchor in dict.fromkeys(a for a, _ in cx_t.labels[n_out]):
            for sign, anchor_in, matrix in rule(n_out, anchor):
                if matrix is None:
                    size = block_size[anchor_in]
                    entries = ((k, k, sign) for k in range(size))
                else:
                    entries = ((i, j, sign * v)
                               for (i, j), v in matrix.data.items())
                for i, j, v in entries:
                    key = (pos_out[(anchor, i)], pos_in[(anchor_in, j)])
                    w = data.get(key, 0) + v
                    if w:
                        data[key] = w
                    else:
                        data.pop(key, None)
        maps[n_in] = QMatrix(cx_t.dim(n_out), cx_s.dim(n_in), data)
    return GradedLinearMap(cx_s, cx_t, shift, maps)


@dataclass
class CochainData:
    """A cochain algebra of a base object together with its index category:
    the fiber over the object (hou) or the objects under it (horan)."""

    dga: Dga
    cat: FinCategory


class HoKan:
    """All homotopy Kan extension data of one fibered model, memoized."""

    def __init__(self, fm: FiberedModel, loc: LocStructure, A: QftFunctor,
                 max_degree: int | None = None):
        self.fm = fm
        self.loc = loc
        self.A = A
        self.max_degree = check_max_degree(
            default_max_degree() if max_degree is None else max_degree)
        self._objects = {}
        self._ext = {}
        self._witnesses = {}

    # --- objects -----------------------------------------------------------

    def hou_object(self, M: str) -> CochainData:
        """Normalized cochains of the fiber over M."""
        return self._cochains(("hou", M), self.fm.fiber(M), self.A.algebra,
                              self.A.matrix)

    def horan_object(self, M: str) -> CochainData:
        """Normalized cochains of the category of objects under M."""
        under = self.fm.under(M)
        return self._cochains(
            ("horan", M), under.cat,
            lambda obj: self.A.algebra(under.obj_info[obj][0]),
            lambda name: self.A.matrix(under.mor_info[name][0]))

    def _cochains(self, key, cat, alg_of, mat_of) -> CochainData:
        if key not in self._objects:
            diagram = dg.algebra_diagram(cat, alg_of, mat_of)
            self._objects[key] = CochainData(
                dg.holim_dgalg(diagram, self.max_degree), cat)
        return self._objects[key]

    # --- comparison with the under-category --------------------------------

    def kappa(self, M: str) -> GradedLinearMap:
        """Restriction of an under-category cochain to the fiber slots."""
        hou = self.hou_object(M)
        ran = self.horan_object(M)
        under = self.fm.under(M)
        id_M = self.fm.loc.id_of(M)

        def rule(n, anchor):
            if n == 0:
                yield ONE, under.obj_name(anchor, id_M), None
            else:
                yield ONE, tuple(f"({g},{id_M})" for g in anchor), None

        return _rule_map(ran.dga, hou.dga, 0, rule)

    def zeta(self, M: str) -> GradedLinearMap:
        """Extension of a fiber cochain by cleavage transport."""
        hou = self.hou_object(M)
        ran = self.horan_object(M)
        under = self.fm.under(M)
        fiber = hou.cat

        def rule(n, anchor):
            if n == 0:
                S, h = under.obj_info[anchor]
                pb, lift = self.fm.lift(S, h)
                yield ONE, pb, self.A.matrix(lift)
                return
            tgt = under.cat.target(anchor[0])
            S0, h0 = under.obj_info[tgt]
            _, lift0 = self.fm.lift(S0, h0)
            pulled = under_pullback_tuple(self.fm, under, anchor)
            if any(fiber.is_identity(g) for g in pulled):
                return
            yield ONE, pulled, self.A.matrix(lift0)

        return _rule_map(hou.dga, ran.dga, 0, rule)

    def eta_homotopy(self, M: str) -> GradedLinearMap:
        """Cochain homotopy between zeta after kappa and the identity."""
        ran = self.horan_object(M)
        under = self.fm.under(M)
        strcat = self.fm.strcat
        id_M = self.fm.loc.id_of(M)

        def obj_at(anchor, i):
            name = under.cat.target(anchor[0]) if i == 0 \
                else under.cat.source(anchor[i - 1])
            return under.obj_info[name]

        def rule(n, anchor):
            if n == 0:
                S, h = under.obj_info[anchor]
                _, lift = self.fm.lift(S, h)
                if strcat.is_identity(lift):
                    return
                yield ONE, (f"({lift},{id_M})",), None
                return
            for i in range(n + 1):
                S_i, h_i = obj_at(anchor, i)
                _, lift_i = self.fm.lift(S_i, h_i)
                if strcat.is_identity(lift_i):
                    continue
                pulled = under_pullback_tuple(self.fm, under, anchor[i:])
                if any(strcat.is_identity(g) for g in pulled):
                    continue
                entry = anchor[:i] + (f"({lift_i},{id_M})",) + tuple(
                    f"({g},{id_M})" for g in pulled)
                yield _sign(i), entry, None

        return _rule_map(ran.dga, ran.dga, -1, rule)

    # --- product reversal ---------------------------------------------------

    def rho(self, M: str) -> GradedLinearMap:
        """Order-reversing involution transported along the composite."""
        hou = self.hou_object(M)
        fiber = hou.cat

        def rule(n, anchor):
            if n == 0:
                yield ONE, anchor, None
                return
            rev = tuple(fiber.inverse(g) for g in reversed(anchor))
            chain = fiber.comp_chain(anchor)
            yield _sign(n * (n + 1) // 2), rev, self.A.matrix(chain)

        return _rule_map(hou.dga, hou.dga, 0, rule)

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
                yield _sign(n + k * (k + 1) // 2), entry, None

        return _rule_map(hou.dga, hou.dga, -1, rule)

    # --- induced morphisms ---------------------------------------------------

    def hou_morphism(self, f: str) -> GradedLinearMap:
        """Transport of fiber cochains along a base morphism via the cleavage."""
        base = self.fm.loc
        src = self.hou_object(base.source(f))
        tgt = self.hou_object(base.target(f))
        strcat = self.fm.strcat

        def rule(n, anchor):
            if n == 0:
                pb, lift = self.fm.lift(anchor, f)
                yield ONE, pb, self.A.matrix(lift)
                return
            S0 = strcat.target(anchor[0])
            _, lift = self.fm.lift(S0, f)
            pulled = pullback_tuple(self.fm, f, anchor)
            if any(strcat.is_identity(g) for g in pulled):
                return
            yield ONE, pulled, self.A.matrix(lift)

        return _rule_map(src.dga, tgt.dga, 0, rule)

    def horan_morphism(self, f: str) -> GradedLinearMap:
        """Strict reindexing of under-category cochains along a base morphism."""
        base = self.fm.loc
        src = self.horan_object(base.source(f))
        tgt = self.horan_object(base.target(f))
        under_t = self.fm.under(base.target(f))

        def rename_obj(obj):
            S, h = under_t.obj_info[obj]
            return under_t.obj_name(S, base.comp(h, f))

        def rule(n, anchor):
            if n == 0:
                yield ONE, rename_obj(anchor), None
                return
            entry = []
            for name in anchor:
                g, h = under_t.mor_info[name]
                entry.append(f"({g},{base.comp(h, f)})")
            yield ONE, tuple(entry), None

        return _rule_map(src.dga, tgt.dga, 0, rule)

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

    def gamma2(self, f2: str, f1: str) -> GradedLinearMap:
        """Composition homotopy: hou(f2) after hou(f1) vs hou(f2 after f1)."""
        return self._composition_homotopy(f2, f1)

    def gamma3(self, f3: str, f2: str, f1: str) -> GradedLinearMap:
        """Second-order homotopy for triple compositions."""
        return self._composition_homotopy(f3, f2, f1)

    # --- extension along Cauchy morphisms ------------------------------------

    def extension(self, f: str) -> ExtensionData:
        if f not in self._ext:
            self._ext[f] = extension_data(self.fm, self.loc, f)
        return self._ext[f]

    def witnesses(self, f: str):
        if f not in self._witnesses:
            self._witnesses[f] = lemma_witnesses(
                self.fm, self.loc, f, self.extension(f))
        return self._witnesses[f]

    def ext_pullback(self, f: str) -> GradedLinearMap:
        """Inverse transport along the chosen extensions of a Cauchy morphism."""
        base = self.fm.loc
        ext = self.extension(f)
        src = self.hou_object(base.target(f))
        tgt = self.hou_object(base.source(f))
        fiber_t = src.cat

        def sharp_inverse(S):
            _, f_sharp = ext.obj_map[S]
            inv = invert(self.A.matrix(f_sharp))
            if inv is None:
                raise HoKanError(
                    f"extension map at {S!r} is not invertible")
            return inv

        def rule(n, anchor):
            if n == 0:
                yield ONE, ext.obj_map[anchor][0], sharp_inverse(anchor)
                return
            entry = tuple(ext.mor_map[g] for g in anchor)
            if any(fiber_t.is_identity(g) for g in entry):
                return
            S0 = tgt.cat.target(anchor[0])
            yield ONE, entry, sharp_inverse(S0)

        return _rule_map(src.dga, tgt.dga, 0, rule)

    def phi_homotopy(self, f: str) -> GradedLinearMap:
        """Homotopy between ext_pullback after hou(f) and the identity."""
        base = self.fm.loc
        ext = self.extension(f)
        into, _ = self.witnesses(f)
        hou = self.hou_object(base.source(f))
        fiber = hou.cat

        def obj_at(anchor, i):
            return fiber.target(anchor[0]) if i == 0 \
                else fiber.source(anchor[i - 1])

        def rule(n, anchor):
            if n == 0:
                w = fiber.inverse(into[anchor])
                if fiber.is_identity(w):
                    return
                yield ONE, (w,), None
                return
            for i in range(n + 1):
                w = fiber.inverse(into[obj_at(anchor, i)])
                tail = []
                for g in anchor[i:]:
                    tail.append(pullback_fiber_square(
                        self.fm, f, ext.mor_map[g]))
                entry = anchor[:i] + (w,) + tuple(tail)
                if any(fiber.is_identity(g) for g in entry):
                    continue
                yield _sign(i), entry, None

        return _rule_map(hou.dga, hou.dga, -1, rule)

    def phibar_homotopy(self, f: str) -> GradedLinearMap:
        """Homotopy between hou(f) after ext_pullback and the identity."""
        base = self.fm.loc
        ext = self.extension(f)
        _, outof = self.witnesses(f)
        hou = self.hou_object(base.target(f))
        fiber = hou.cat

        def obj_at(anchor, i):
            return fiber.target(anchor[0]) if i == 0 \
                else fiber.source(anchor[i - 1])

        def rule(n, anchor):
            if n == 0:
                w = fiber.inverse(outof[anchor])
                if fiber.is_identity(w):
                    return
                yield ONE, (w,), None
                return
            for i in range(n + 1):
                w = fiber.inverse(outof[obj_at(anchor, i)])
                tail = []
                for g in anchor[i:]:
                    pulled = pullback_fiber_square(self.fm, f, g)
                    tail.append(ext.mor_map[pulled])
                entry = anchor[:i] + (w,) + tuple(tail)
                if any(fiber.is_identity(g) for g in entry):
                    continue
                yield _sign(i), entry, None

        return _rule_map(hou.dga, hou.dga, -1, rule)

    # --- causality -----------------------------------------------------------

    def _cospan_tensor(self, f1: str, f2: str):
        """(M, hou(M), its tensor square, L) for a cospan f1, f2 into M, where
        L transports a tensor class along the two legs."""
        base = self.fm.loc
        M = base.target(f1)
        if base.target(f2) != M:
            raise HoKanError("cospan legs must share a target")
        src1 = self.hou_object(base.source(f1)).dga
        src2 = self.hou_object(base.source(f2)).dga
        tgt = self.hou_object(M).dga
        t_src = dg.graded_tensor(src1.complex, src2.complex, self.max_degree)
        t_tgt = dg.graded_tensor(tgt.complex, tgt.complex, self.max_degree)
        big_l = dg.tensor_map(self.hou_morphism(f1), self.hou_morphism(f2),
                              t_src, t_tgt)
        return M, tgt, t_tgt, big_l

    def causal_tensor_data(self, f1: str, f2: str):
        """The tensor-product cochain maps entering the commutator homotopy.

        Returns (L, mu, muop, lam) where L transports a tensor class along
        the two cospan legs, mu/muop are the two multiplications after L,
        and lam is the commutator-trivializing homotopy.
        """
        M, tgt, t_tgt, big_l = self._cospan_tensor(f1, f2)
        mu = dg.mu_map(tgt, t_tgt)
        muop = dg.muop_map(tgt, t_tgt)
        rho = self.rho(M)
        beta = self.beta_homotopy(M)
        ident = GradedLinearMap.identity(tgt.complex)
        rho_beta = dg.tensor_map(rho, beta, t_tgt, t_tgt)
        beta_id = dg.tensor_map(beta, ident, t_tgt, t_tgt)
        lam = (muop.after(rho_beta + beta_id) - beta.after(mu)).after(big_l)
        return big_l, mu.after(big_l), muop.after(big_l), lam

    def product_reversal_identity(self, f1: str, f2: str, up_to: int):
        """Degrees where reversal fails to intertwine the two products."""
        M, tgt, t_tgt, big_l = self._cospan_tensor(f1, f2)
        rho = self.rho(M)
        rho_rho = dg.tensor_map(rho, rho, t_tgt, t_tgt)
        lhs = rho.after(dg.mu_map(tgt, t_tgt)).after(big_l)
        rhs = dg.muop_map(tgt, t_tgt).after(rho_rho).after(big_l)
        bad = []
        for n in range(up_to + 1):
            if lhs.matrix(n) != rhs.matrix(n):
                bad.append(n)
        return bad

    def lambda_causality(self, f1: str, f2: str, up_to: int):
        """Degrees where the commutator homotopy identity fails."""
        _, mu_l, muop_l, lam = self.causal_tensor_data(f1, f2)
        return dg.check_homotopy_identity(mu_l, muop_l, lam, up_to)

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
    src, tgt = lhs.source, lhs.target
    bad = []
    for n in range(up_to + 1):
        want = lhs.matrix(n)
        got = -(h.matrix(n + 1) * src.d(n))
        if n >= 2:
            got = got + tgt.d(n - 2) * h.matrix(n)
        if want != got:
            bad.append(n)
    return bad
