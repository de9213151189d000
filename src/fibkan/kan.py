"""Strict right Kan extension of an algebra-valued functor to the base.

The value at a base object is the invariant subalgebra of the product of
algebras over the fiber (equivalently, over the under-category): the degree-0
case of the limit ``dg.lim_dgalg`` of the algebra diagram, carried by an
explicit subspace with an induced algebra structure. The comparison
isomorphism with the under-category limit and the counit projections are
computed as matrices and checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dg
from .finalg import (
    AlgMorphism,
    AxiomReport,
    QftFunctor,
    axiom_report,
    noncommuting_pairs,
)
from .fincat import (
    FiberedModel,
    FlabbinessReport,
    LocStructure,
    connected_components,
    flabbiness_report,
)
from .qlinalg import QMatrix, Subspace, rank


class KanError(ValueError):
    pass


@dataclass(frozen=True)
class Invariants:
    """A subalgebra of a product of algebras indexed by named objects."""

    objects: tuple        # carrier objects in ambient block order
    ambient_labels: tuple  # (object, basis index) per ambient coordinate
    subspace: Subspace
    algebra: dg.Dga       # induced structure on the subspace basis

    @property
    def dim(self) -> int:
        return self.subspace.dim


def _strict_limit(cat, alg_of, mat_of) -> Invariants:
    """The limit of the algebra diagram on cat, read off in degree 0."""
    lim = dg.lim_dgalg(dg.DgaDiagram(
        cat, {obj: alg_of(obj) for obj in cat.objects},
        {g: mat_of(g) for g in cat.morphisms}))
    return Invariants(tuple(sorted(cat.objects)), lim.ambient_labels,
                      lim.subspace, lim.dga)


def u_object(fm: FiberedModel, A: QftFunctor, M: str) -> Invariants:
    """Invariants of the fiber over M."""
    return _strict_limit(fm.fiber(M), A.algebra, A.matrix)


def u_objects(fm: FiberedModel, A: QftFunctor) -> dict:
    """u_object of every base object, built once per model and functor."""
    return fm.memo(("u_objects", A), lambda: {
        M: u_object(fm, A, M) for M in fm.loc.objects})


@dataclass(frozen=True)
class RanUnder:
    invariants: Invariants
    under: object  # the UnderCategory the limit was taken over


def ran_under(fm: FiberedModel, A: QftFunctor, M: str) -> RanUnder:
    """Limit of A over the category of objects under M."""
    under = fm.under(M)
    inv = _strict_limit(
        under.cat,
        lambda obj: A.algebra(under.obj_info[obj][0]),
        lambda name: A.matrix(under.mor_info[name][0]),
    )
    return RanUnder(inv, under)


def _transport_matrix(src: Invariants, tgt: Invariants, image_of) -> QMatrix:
    """Matrix in subspace coordinates of an ambient-level assignment.

    image_of maps the parts {object: {index: value}} of an ambient vector of
    src to the parts of an ambient vector of tgt lying in its subspace.
    """
    slots = {label: slot for slot, label in enumerate(tgt.ambient_labels)}
    data = {}
    for j, vec in enumerate(src.subspace.rows):
        coords = tgt.subspace.coords({
            slots[(obj, k)]: v
            for obj, part in image_of(
                dg.ambient_parts(src.ambient_labels, vec)).items()
            for k, v in part.items()})
        if coords is None:
            raise KanError("image leaves the invariant subspace")
        data.update(((i, j), v) for i, v in coords.items())
    return QMatrix(tgt.dim, src.dim, data)


def u_morphism(fm: FiberedModel, A: QftFunctor, f: str,
               src: Invariants, tgt: Invariants) -> QMatrix:
    """The induced map on invariants along a base morphism f: M -> M'.

    The value at S' over M' transports the component at the pullback of S'
    along the cartesian lift.
    """
    def image_of(parts):
        out = {}
        for S_prime in tgt.objects:
            pb, lift = fm.lift(S_prime, f)
            out[S_prime] = A.matrix(lift).apply_sparse(parts.get(pb, {}))
        return out

    return _transport_matrix(src, tgt, image_of)


def kappa_iso(fm: FiberedModel, A: QftFunctor, M: str,
              ran: RanUnder, u: Invariants):
    """Mutually inverse comparison matrices between the under-category limit
    and the fiber invariants.

    Forward: restrict to the slots whose augmentation is the identity of M.
    Backward: transport every slot from the pullback along its augmentation.
    """
    under = ran.under
    base = fm.loc
    inv = ran.invariants

    def forward(parts):
        return {S: parts.get(under.obj_name(S, base.id_of(M)), {})
                for S in u.objects}

    def backward(parts):
        out = {}
        for obj in inv.objects:
            S, h = under.obj_info[obj]
            pb, lift = fm.lift(S, h)
            out[obj] = A.matrix(lift).apply_sparse(parts.get(pb, {}))
        return out

    kappa = _transport_matrix(inv, u, forward)
    kappa_inv = _transport_matrix(u, inv, backward)
    if kappa * kappa_inv != QMatrix.identity(u.dim):
        raise KanError("comparison maps do not compose to the identity")
    if kappa_inv * kappa != QMatrix.identity(inv.dim):
        raise KanError("comparison maps do not compose to the identity")
    return kappa, kappa_inv


def counit(fm: FiberedModel, A: QftFunctor, ran: RanUnder, S: str) -> QMatrix:
    """Projection of the under-category limit at the slot (S, identity)."""
    inv = ran.invariants
    M = fm.pi.on_obj(S)
    name = ran.under.obj_name(S, fm.loc.id_of(M))
    if name not in inv.objects:
        raise KanError(f"{S!r} does not lie over the base object of the limit")
    data = {}
    for j, vec in enumerate(inv.subspace.rows):
        part = dg.ambient_parts(inv.ambient_labels, vec).get(name, {})
        data.update(((i, j), v) for i, v in part.items())
    return QMatrix(A.algebra(S).complex.dim(0), inv.dim, data)


def pullback_dimension_check(fm: FiberedModel, A: QftFunctor, M: str,
                             u: Invariants):
    """For a fiberwise-constant functor the invariants have dimension
    (number of fiber components) x (dimension of the common algebra).

    Returns None when the hypothesis does not apply.
    """
    fiber = fm.fiber(M)
    if not fiber.objects:
        return None
    # algebras compare by value: dimension, product table and unit
    values = [(alg.complex.dim(0), alg.products, alg.unit)
              for alg in map(A.algebra, fiber.objects)]
    if any(value != values[0] for value in values):
        return None
    dim = values[0][0]
    if any(A.matrix(g) != QMatrix.identity(dim) for g in fiber.morphisms):
        return None
    expected = len(connected_components(fiber)) * dim
    return u.dim == expected


@dataclass(frozen=True)
class KanReport:
    qft_axioms: AxiomReport
    flabbiness: FlabbinessReport
    u_objects: dict  # base object -> Invariants
    isotony: bool
    isotony_violations: tuple
    causality: bool
    causality_violations: tuple
    timeslice: bool
    timeslice_violations: tuple
    functorial: bool
    isotony_iff_flabby: bool | None

    @property
    def u_dims(self) -> dict:
        return {M: u.dim for M, u in self.u_objects.items()}

    @property
    def all_pass(self) -> bool:
        return (self.isotony and self.causality and self.timeslice
                and self.functorial)


def check_induced_axioms(fm: FiberedModel, loc: LocStructure,
                  A: QftFunctor) -> KanReport:
    """Check the three axioms for the induced functor on the base category.

    Injectivity of the induced maps is equivalent to flabbiness whenever the
    input functor satisfies its own three axioms; the report records both
    sides and their agreement.
    """
    base = fm.loc
    qft = axiom_report(fm, loc, A)
    flab = flabbiness_report(fm, loc)

    u_at = u_objects(fm, A)
    u_maps = {
        f: u_morphism(fm, A, f, u_at[base.source(f)], u_at[base.target(f)])
        for f in base.morphisms
    }

    iso_bad = tuple(
        f for f in sorted(base.morphisms)
        if rank(u_maps[f]) != u_at[base.source(f)].dim
    )
    ts_bad = tuple(
        f for f in sorted(loc.cauchy)
        if u_at[base.source(f)].dim != u_at[base.target(f)].dim
        or rank(u_maps[f]) != u_at[base.source(f)].dim
    )
    causal_bad = []
    for f1, f2 in loc.cospan_pairs():
        legs = (AlgMorphism(u_at[base.source(f)].algebra,
                            u_at[base.target(f)].algebra, u_maps[f])
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

    iff = None
    if qft.all_pass:
        iff = (not iso_bad) == flab.flabby

    return KanReport(
        qft_axioms=qft,
        flabbiness=flab,
        u_objects=u_at,
        isotony=not iso_bad,
        isotony_violations=iso_bad,
        causality=not causal_bad,
        causality_violations=tuple(causal_bad),
        timeslice=not ts_bad,
        timeslice_violations=ts_bad,
        functorial=functorial,
        isotony_iff_flabby=iff,
    )
