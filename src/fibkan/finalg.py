"""Finite-dimensional unital associative algebras over QQ and the axiom checks.

An algebra is a structure-constant table in a fixed basis; a morphism is a
matrix. The three axioms checked for algebra-valued functors are: injectivity
of every morphism image, vanishing commutators over declared causal cospans,
and invertibility over declared Cauchy morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import FinCategory, FiberedModel, LocStructure
from .qlinalg import ONE, ZERO, QMatrix, rank, rat


class AlgebraError(ValueError):
    pass


class FinAlgebra:
    """dim, structure constants c[i][j] -> coordinate vector, unit vector."""

    def __init__(self, dim: int, structure_constants, unit):
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise AlgebraError(f"dim must be an integer, got {dim!r}")
        self.dim = dim
        self.sc = tuple(
            tuple(tuple(rat(v) for v in vec) for vec in row)
            for row in structure_constants
        )
        self.unit = tuple(rat(v) for v in unit)
        if len(self.sc) != dim or any(
            len(row) != dim or any(len(vec) != dim for vec in row) for row in self.sc
        ):
            raise AlgebraError("structure constant table has wrong shape")
        if len(self.unit) != dim:
            raise AlgebraError("unit vector has wrong length")

    def mul(self, x, y):
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, v in enumerate(self.sc[i][j]):
                    if v:
                        out[k] += c * v
        return tuple(out)

    def commutator(self, x, y):
        xy = self.mul(x, y)
        yx = self.mul(y, x)
        return tuple(a - b for a, b in zip(xy, yx))

    def basis_vector(self, i: int):
        return tuple(ONE if j == i else ZERO for j in range(self.dim))

    def violations(self):
        out = []
        basis = [self.basis_vector(i) for i in range(self.dim)]
        if all(v == 0 for v in self.unit):
            out.append("unit element is zero")
        for i, e in enumerate(basis):
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                out.append(f"unit law fails on basis element {i}")
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.sc[i][j]
                for k in range(self.dim):
                    left = self.mul(ij, basis[k])
                    right = self.mul(basis[i], self.sc[j][k])
                    if left != right:
                        out.append(f"associativity fails on triple ({i},{j},{k})")
        return out

    def __eq__(self, other):
        if not isinstance(other, FinAlgebra):
            return NotImplemented
        return (self.dim, self.sc, self.unit) == (other.dim, other.sc, other.unit)


def validate_algebra(dim, structure_constants, unit) -> FinAlgebra:
    alg = FinAlgebra(dim, structure_constants, unit)
    violations = alg.violations()
    if violations:
        raise AlgebraError("; ".join(violations))
    return alg


@dataclass
class AlgMorphism:
    source: FinAlgebra
    target: FinAlgebra
    matrix: QMatrix

    def violations(self):
        out = []
        if (self.matrix.rows, self.matrix.cols) != (self.target.dim, self.source.dim):
            return ["matrix shape does not match source/target dimensions"]
        if self.matrix.apply(self.source.unit) != self.target.unit:
            out.append("unit not preserved")
        images = [self.matrix.apply(self.source.basis_vector(i))
                  for i in range(self.source.dim)]
        for i in range(self.source.dim):
            for j in range(self.source.dim):
                lhs = self.matrix.apply(self.source.sc[i][j])
                if lhs != self.target.mul(images[i], images[j]):
                    out.append(f"multiplicativity fails on basis pair ({i},{j})")
        return out


def noncommuting_pairs(leg1: AlgMorphism, leg2: AlgMorphism) -> list:
    """The basis pairs (i, j) of the two sources, in row-major order, whose
    images under two legs into one algebra do not commute there."""
    tgt = leg1.target
    ys = [leg2.matrix.apply(leg2.source.basis_vector(j))
          for j in range(leg2.source.dim)]
    out = []
    for i in range(leg1.source.dim):
        x = leg1.matrix.apply(leg1.source.basis_vector(i))
        out.extend((i, j) for j, y in enumerate(ys) if any(tgt.commutator(x, y)))
    return out


def is_mono(m: AlgMorphism) -> bool:
    return rank(m.matrix) == m.source.dim


def is_iso(m: AlgMorphism) -> bool:
    return m.source.dim == m.target.dim and rank(m.matrix) == m.source.dim


class QftFunctor:
    """Algebra-valued functor on the structured category."""

    def __init__(self, strcat: FinCategory, on_objects, on_morphisms):
        self.strcat = strcat
        self.on_objects = dict(on_objects)   # obj -> FinAlgebra
        self.on_morphisms = dict(on_morphisms)  # mor -> QMatrix

    def algebra(self, S: str) -> FinAlgebra:
        return self.on_objects[S]

    def matrix(self, g: str) -> QMatrix:
        return self.on_morphisms[g]

    def morphism(self, g: str) -> AlgMorphism:
        return AlgMorphism(
            self.on_objects[self.strcat.source(g)],
            self.on_objects[self.strcat.target(g)],
            self.on_morphisms[g],
        )

    def violations(self):
        out = []
        cat = self.strcat
        for S in cat.objects:
            if S not in self.on_objects:
                out.append(f"no algebra assigned to {S!r}")
        for g in cat.morphisms:
            if g not in self.on_morphisms:
                out.append(f"no matrix assigned to {g!r}")
        if out:
            return out
        for S in cat.objects:
            alg = self.on_objects[S]
            if self.on_morphisms[cat.id_of(S)] != QMatrix.identity(alg.dim):
                out.append(f"identity of {S!r} is not the identity matrix")
        for g in cat.morphisms:
            out.extend(
                f"morphism {g!r}: {v}" for v in self.morphism(g).violations()
            )
        for (g, f), h in cat.compose.items():
            if self.on_morphisms[g] * self.on_morphisms[f] != self.on_morphisms[h]:
                out.append(f"functoriality fails on composition ({g!r},{f!r})")
        return out


def validate_qft(strcat, on_objects, on_morphisms) -> QftFunctor:
    A = QftFunctor(strcat, on_objects, on_morphisms)
    violations = A.violations()
    if violations:
        raise AlgebraError("; ".join(violations))
    return A


@dataclass(frozen=True)
class AxiomReport:
    isotony: bool
    isotony_violations: tuple
    causality: bool
    causality_violations: tuple
    timeslice: bool
    timeslice_violations: tuple

    @property
    def all_pass(self) -> bool:
        return self.isotony and self.causality and self.timeslice


def check_axioms_on_str(fm: FiberedModel, loc: LocStructure,
                        A: QftFunctor) -> AxiomReport:
    strcat = fm.strcat
    iso_bad = tuple(
        g for g in sorted(strcat.morphisms) if not is_mono(A.morphism(g))
    )
    causal_bad = []
    declared = {frozenset(p) for p in loc.causal_cospans}
    for g1 in sorted(strcat.morphisms):
        for g2 in sorted(strcat.morphisms):
            if strcat.target(g1) != strcat.target(g2):
                continue
            if frozenset((fm.pi.on_mor(g1), fm.pi.on_mor(g2))) not in declared:
                continue
            causal_bad.extend(
                (g1, g2, i, j)
                for i, j in noncommuting_pairs(A.morphism(g1), A.morphism(g2)))
    ts_bad = tuple(
        g for g in sorted(strcat.morphisms)
        if fm.pi.on_mor(g) in loc.cauchy and not is_iso(A.morphism(g))
    )
    return AxiomReport(
        not iso_bad, iso_bad,
        not causal_bad, tuple(causal_bad),
        not ts_bad, ts_bad,
    )


def axiom_report(fm: FiberedModel, loc: LocStructure,
                 A: QftFunctor) -> AxiomReport:
    """check_axioms_on_str, run once per model, base structure and functor."""
    return fm.memo(("axioms", loc, A), lambda: check_axioms_on_str(fm, loc, A))
