"""Strict right Kan extension of an algebra-valued functor to the base.

The value at a base object is the invariant subalgebra of the product of
algebras over the fiber (equivalently, over the under-category): the limit
``dg.lim_dgalg`` of the algebra diagram, an algebra concentrated in degree 0.
The homotopy extension in ``hokan`` takes the homotopy limit of the same
diagrams and transports along the same cleavage. The comparison isomorphism
with the under-category limit and the counit projections are computed as
matrices and checked exactly. With the induced maps on invariants, the
extension is a ``QftFunctor`` on the base (``induced_qft``), so
``finalg.check_axioms`` checks its axioms as it checks the input functor's.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dg
from .finalg import AxiomReport, QftFunctor, axiom_report, check_axioms
from .fincat import (
    FiberedModel,
    FlabbinessReport,
    LocStructure,
    connected_components,
    flabbiness_report,
)
from .qlinalg import QMatrix


class KanError(ValueError):
    pass


def fiber_diagram(fm: FiberedModel, A: QftFunctor, M: str) -> dg.DgaDiagram:
    """A restricted to the fiber over M."""
    fiber = fm.fiber(M)
    return dg.DgaDiagram(fiber, {S: A.algebra(S) for S in fiber.objects},
                         {g: A.matrix(g) for g in fiber.morphisms})


def under_diagram(fm: FiberedModel, A: QftFunctor, M: str) -> dg.DgaDiagram:
    """A pulled back to the category of objects under M."""
    under = fm.under(M)
    cat, proj = under.cat, under.proj
    return dg.DgaDiagram(
        cat, {obj: A.algebra(proj.on_obj(obj)) for obj in cat.objects},
        {g: A.matrix(proj.on_mor(g)) for g in cat.morphisms})


def u_object(fm: FiberedModel, A: QftFunctor, M: str) -> dg.LimDga:
    """Invariants of the fiber over M."""
    return dg.lim_dgalg(fiber_diagram(fm, A, M))


def u_objects(fm: FiberedModel, A: QftFunctor) -> dict:
    """u_object of every base object, built once per model and functor."""
    return fm.memo(("u_objects", A), lambda: {
        M: u_object(fm, A, M) for M in fm.loc.objects})


def ran_under(fm: FiberedModel, A: QftFunctor, M: str) -> dg.LimDga:
    """Limit of A over the category of objects under M."""
    return dg.lim_dgalg(under_diagram(fm, A, M))


def cleavage_transport(fm: FiberedModel, A: QftFunctor, S: str, h: str):
    """(h*S, A(h_*)): the cleavage pullback of S along h and the matrix that
    transports its coefficients to S."""
    pb, lift = fm.lift(S, h)
    return pb, A.matrix(lift)


def _transport_matrix(src: dg.LimDga, tgt: dg.LimDga, vertex) -> QMatrix:
    """Matrix in limit coordinates of the map that reads, at each object t of
    tgt.cat, the component of src at s through m, where vertex(t) = (s, m)
    and m is None for the identity."""
    slots = {label: slot for slot, label in enumerate(tgt.ambient_labels)}
    rules = [(t, *vertex(t)) for t in tgt.cat.objects]
    data = {}
    for j, vec in enumerate(src.subspace.rows):
        parts = dg.ambient_parts(src.ambient_labels, vec)
        image = {}
        for t, s, m in rules:
            part = parts.get(s, {})
            image.update((slots[(t, k)], v) for k, v in (
                part if m is None else m.apply_sparse(part)).items())
        coords = tgt.subspace.coords(image)
        if coords is None:
            raise KanError("image leaves the invariant subspace")
        data.update(((i, j), v) for i, v in coords.items())
    return QMatrix(tgt.dim, src.dim, data)


def u_morphism(fm: FiberedModel, A: QftFunctor, f: str,
               src: dg.LimDga, tgt: dg.LimDga) -> QMatrix:
    """The induced map on invariants along a base morphism f: M -> M'.

    The value at S' over M' transports the component at the pullback of S'
    along the cartesian lift.
    """
    return _transport_matrix(
        src, tgt, lambda S: cleavage_transport(fm, A, S, f))


def kappa_iso(fm: FiberedModel, A: QftFunctor, M: str,
              ran: dg.LimDga, u: dg.LimDga):
    """Mutually inverse comparison matrices between the under-category limit
    and the fiber invariants.

    Forward: restrict to the slots whose augmentation is the identity of M.
    Backward: transport every slot from the pullback along its augmentation.
    """
    under = fm.under(M)
    id_M = fm.loc.id_of(M)
    kappa = _transport_matrix(
        ran, u, lambda S: (under.obj_name(S, id_M), None))
    kappa_inv = _transport_matrix(
        u, ran, lambda obj: cleavage_transport(fm, A, *under.obj_info[obj]))
    if kappa * kappa_inv != QMatrix.identity(u.dim):
        raise KanError("comparison maps do not compose to the identity")
    if kappa_inv * kappa != QMatrix.identity(ran.dim):
        raise KanError("comparison maps do not compose to the identity")
    return kappa, kappa_inv


def counit(fm: FiberedModel, A: QftFunctor, ran: dg.LimDga, S: str) -> QMatrix:
    """Projection of the under-category limit at the slot (S, identity)."""
    M = fm.pi.on_obj(S)
    name = fm.under(M).obj_name(S, fm.loc.id_of(M))
    if name not in ran.cat.objects:
        raise KanError(f"{S!r} does not lie over the base object of the limit")
    data = {}
    for j, vec in enumerate(ran.subspace.rows):
        part = dg.ambient_parts(ran.ambient_labels, vec).get(name, {})
        data.update(((i, j), v) for i, v in part.items())
    return QMatrix(A.algebra(S).complex.dim(0), ran.dim, data)


def pullback_dimension_check(fm: FiberedModel, A: QftFunctor, M: str,
                             u: dg.LimDga):
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


def induced_qft(fm: FiberedModel, A: QftFunctor) -> QftFunctor:
    """The strict extension as a functor on the base: the fiber invariants
    at every object and the induced map along every morphism."""
    base = fm.loc
    u_at = u_objects(fm, A)
    return QftFunctor(base, {M: u.dga for M, u in u_at.items()}, {
        f: u_morphism(fm, A, f, u_at[base.source(f)], u_at[base.target(f)])
        for f in base.morphisms})


@dataclass(frozen=True)
class KanReport:
    qft_axioms: AxiomReport
    flabbiness: FlabbinessReport
    u_dims: dict  # base object -> dimension of its invariants
    axioms: AxiomReport  # of the induced functor on the base
    functorial: bool
    isotony_iff_flabby: bool | None

    @property
    def all_pass(self) -> bool:
        return self.axioms.all_pass and self.functorial


def check_induced_axioms(fm: FiberedModel, loc: LocStructure,
                         A: QftFunctor) -> KanReport:
    """Check the induced functor on the base category: its three axioms, by
    the routine that checks the input functor, and its functor laws.

    Injectivity of the induced maps is equivalent to flabbiness whenever the
    input functor satisfies its own three axioms; the report records both
    sides and their agreement.
    """
    qft = axiom_report(fm, loc, A)
    flab = flabbiness_report(fm, loc)
    U = induced_qft(fm, A)
    axioms = check_axioms(U, loc.causal_cospans, loc.cauchy)
    return KanReport(
        qft_axioms=qft,
        flabbiness=flab,
        u_dims={M: u.dim for M, u in u_objects(fm, A).items()},
        axioms=axioms,
        functorial=not U.violations(),
        isotony_iff_flabby=(axioms.isotony == flab.flabby
                            if qft.all_pass else None),
    )
