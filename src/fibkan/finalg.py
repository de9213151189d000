"""Finite-dimensional unital associative algebras over QQ and the axiom checks.

An algebra is a dg-algebra concentrated in degree 0 (``dg.Dga``), its sparse
product table read from dense structure constants; a morphism is a matrix.
The three axioms checked for algebra-valued functors are: injectivity of
every morphism image, vanishing commutators over declared causal cospans,
and invertibility over declared Cauchy morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dg import Complex, Dga
from .fincat import FinCategory, FiberedModel, LocStructure
from .qlinalg import QMatrix, _rationals, rank


class AlgebraError(ValueError):
    pass


def validate_algebra(dim, structure_constants, unit) -> Dga:
    """The algebra with basis 0..dim-1, products e_i e_j = sum over k of
    structure_constants[i][j][k] e_k and the given unit vector, as a
    dg-algebra concentrated in degree 0, once its laws hold."""
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise AlgebraError(f"dim must be an integer, got {dim!r}")
    sc = _rationals(structure_constants, 3, "structure constants")
    unit = _rationals(unit, 1, "unit vector")
    if len(sc) != dim or any(
        len(row) != dim or any(len(vec) != dim for vec in row) for row in sc
    ):
        raise AlgebraError("structure constant table has wrong shape")
    if len(unit) != dim:
        raise AlgebraError("unit vector has wrong length")
    table = {(i, j): {k: v for k, v in enumerate(vec) if v}
             for i, row in enumerate(sc) for j, vec in enumerate(row)}
    alg = Dga(Complex(0, {0: tuple(range(dim))}, {}), {(0, 0): table},
              {k: v for k, v in enumerate(unit) if v})
    units, triples, _ = alg.law_failures()
    violations = ["unit element is zero"] if not alg.unit else []
    # a basis element fails once, whichever side of the unit it fails on
    violations += [f"unit law fails on basis element {i}"
                   for i in dict.fromkeys(i for _, i, _ in units)]
    violations += [f"associativity fails on triple ({i},{j},{k})"
                   for _, _, _, i, j, k in triples]
    if violations:
        raise AlgebraError("; ".join(violations))
    return alg


_SHAPE_MISMATCH = "matrix shape does not match source/target dimensions"


@dataclass
class AlgMorphism:
    source: Dga
    target: Dga
    matrix: QMatrix

    def violations(self):
        src, tgt, m = self.source, self.target, self.matrix
        dim = src.complex.dim(0)
        if (m.rows, m.cols) != (tgt.complex.dim(0), dim):
            return [_SHAPE_MISMATCH]
        out = []
        if m.apply_sparse(src.unit) != tgt.unit:
            out.append("unit not preserved")
        images = [m.by_col.get(i, {}) for i in range(dim)]
        for i in range(dim):
            for j in range(dim):
                if (m.apply_sparse(src.mul_basis(0, i, 0, j))
                        != tgt.mul(0, images[i], 0, images[j])):
                    out.append(f"multiplicativity fails on basis pair ({i},{j})")
        return out


def noncommuting_pairs(leg1: AlgMorphism, leg2: AlgMorphism) -> list:
    """The basis pairs (i, j) of the two sources, in row-major order, whose
    images under two legs into one algebra do not commute there."""
    tgt = leg1.target
    ys = [leg2.matrix.by_col.get(j, {})
          for j in range(leg2.source.complex.dim(0))]
    out = []
    for i in range(leg1.source.complex.dim(0)):
        x = leg1.matrix.by_col.get(i, {})
        out.extend((i, j) for j, y in enumerate(ys)
                   if tgt.mul(0, x, 0, y) != tgt.mul(0, y, 0, x))
    return out


def is_mono(m: AlgMorphism) -> bool:
    return rank(m.matrix) == m.source.complex.dim(0)


def is_iso(m: AlgMorphism) -> bool:
    dim = m.source.complex.dim(0)
    return dim == m.target.complex.dim(0) and rank(m.matrix) == dim


class QftFunctor:
    """A functor to algebras on Str, a fiber, an under-category or the base."""

    def __init__(self, cat: FinCategory, on_objects, on_morphisms):
        self.cat = cat
        self.on_objects = dict(on_objects)   # obj -> Dga
        self.on_morphisms = dict(on_morphisms)  # mor -> QMatrix

    def algebra(self, S: str) -> Dga:
        return self.on_objects[S]

    def matrix(self, g: str) -> QMatrix:
        return self.on_morphisms[g]

    def morphism(self, g: str) -> AlgMorphism:
        return AlgMorphism(
            self.on_objects[self.cat.source(g)],
            self.on_objects[self.cat.target(g)],
            self.on_morphisms[g],
        )

    def violations(self):
        """Why A is no functor, in listing order. Each arrow's morphism law
        is checked once per distinct (source, target, matrix) and each
        entry's functoriality once per distinct (A(g), A(f), A(h)), told
        apart by object identity, and reported at every arrow or entry."""
        out = []
        cat = self.cat
        for S in cat.objects:
            if S not in self.on_objects:
                out.append(f"no algebra assigned to {S!r}")
        for g in cat.morphisms:
            if g not in self.on_morphisms:
                out.append(f"no matrix assigned to {g!r}")
        if out:
            return out
        for S in cat.objects:
            dim = self.on_objects[S].complex.dim(0)
            if self.on_morphisms[cat.id_of(S)] != QMatrix.identity(dim):
                out.append(f"identity of {S!r} is not the identity matrix")
        units_bad = bool(out)
        shaped, checked = set(), {}
        for g in cat.morphisms:
            m = self.morphism(g)
            key = (id(m.source), id(m.target), id(m.matrix))
            if key not in checked:
                checked[key] = m.violations()
            out.extend(f"morphism {g!r}: {v}" for v in checked[key])
            if _SHAPE_MISMATCH not in checked[key]:
                shaped.add(g)
        # a composition with a mis-shaped matrix, reported above, has no
        # product to compare; A(g)A(f) = A(h) is checked column by column
        mats, broken = self.on_morphisms, {}

        def failures(entries):
            for (g, f), h in entries:
                key = (id(mats[g]), id(mats[f]), id(mats[h]))
                if {g, f, h} <= shaped and key not in broken:
                    broken[key] = any(
                        mats[g].apply_sparse(mats[f].by_col.get(j, {}))
                        != mats[h].by_col.get(j, {})
                        for j in range(mats[f].cols))
                if {g, f, h} <= shaped and broken[key]:
                    yield f"functoriality fails on composition ({g!r},{f!r})"
        # with identity matrices right and every matrix shaped, generators
        # decide as in CatFunctor.violations; a failure makes the full scan
        if (units_bad or len(shaped) < len(cat.morphisms)
                or any(failures(cat.entries_after(cat.generators)))):
            out.extend(failures(cat.compose.items()))
        return out


def validate_qft(cat, on_objects, on_morphisms) -> QftFunctor:
    A = QftFunctor(cat, on_objects, on_morphisms)
    violations = A.violations()
    if violations:
        raise AlgebraError("; ".join(violations))
    return A


@dataclass(frozen=True)
class AxiomReport:
    """The witnesses against each axiom; an axiom holds where its tuple is
    empty."""

    isotony_violations: tuple
    causality_violations: tuple
    timeslice_violations: tuple

    @property
    def all_pass(self) -> bool:
        return not (self.isotony_violations or self.causality_violations
                    or self.timeslice_violations)


def check_axioms(A: QftFunctor, cospans, cauchy) -> AxiomReport:
    """The three axioms of A on its own category: isotony on every arrow,
    causality on the given ordered pairs of arrows with one target, and
    time-slice on the given arrows."""
    arrows = sorted(A.cat.morphisms)
    iso_bad = tuple(g for g in arrows if not is_mono(A.morphism(g)))
    causal_bad = tuple(
        (g1, g2, i, j) for g1, g2 in cospans
        for i, j in noncommuting_pairs(A.morphism(g1), A.morphism(g2)))
    ts_bad = tuple(g for g in sorted(cauchy) if not is_iso(A.morphism(g)))
    return AxiomReport(iso_bad, causal_bad, ts_bad)


def check_axioms_on_str(fm: FiberedModel, loc: LocStructure,
                        A: QftFunctor) -> AxiomReport:
    """The axioms of A on Str: causality on both orientations of every pair
    of arrows with one target over a declared cospan, time-slice on the
    arrows over Cauchy morphisms."""
    strcat, pi = fm.strcat, fm.pi
    arrows = sorted(strcat.morphisms)
    declared = {frozenset(p) for p in loc.causal_cospans}
    into = {T: sorted(strcat.morphisms_into(T)) for T in strcat.objects}
    pairs = [(g1, g2) for g1 in arrows for g2 in into[strcat.target(g1)]
             if frozenset((pi.on_mor(g1), pi.on_mor(g2))) in declared]
    return check_axioms(
        A, pairs, [g for g in arrows if pi.on_mor(g) in loc.cauchy])


def axiom_report(fm: FiberedModel, loc: LocStructure,
                 A: QftFunctor) -> AxiomReport:
    """check_axioms_on_str, run once per model, base structure and functor."""
    return fm.memo(("axioms", loc, A), lambda: check_axioms_on_str(fm, loc, A))
