"""The laws checked on a generating set of arrows, pinned to the full scans.

FinCategory.violations, CatFunctor.violations, QftFunctor.violations and
dg.lim_dgalg check on FinCategory.generators what the oracles below check
on every arrow or composition entry, and fall back to the library's own
full scan when a check fails.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fincat import violations_oracle
from test_source import load_bench_module

from fibkan.dg import lim_dgalg
from fibkan.finalg import _SHAPE_MISMATCH, QftFunctor
from fibkan.fincat import CatFunctor, FinCategory
from fibkan.fixtures import fixture_names, load_bundled
from fibkan.kan import fiber_diagram, under_diagram
from fibkan.models import model_from_dict
from fibkan.qlinalg import QMatrix, kernel_basis

CHAIN = load_bench_module("chainmodel")
CHAINS = [(n, group) for n in (2, 3, 4) for group in ("Z2", "Z3", "S3")]
MODELS = [*fixture_names(), *(f"chain({n},{group})" for n, group in CHAINS)]


@functools.cache
def model(name):
    """A bundled fixture or chain(n, group), parsed once."""
    if name.startswith("chain("):
        n, group = name[6:-1].split(",")
        return model_from_dict(CHAIN.chain_dict(int(n), group))
    return model_from_dict(load_bundled(name))


def closure(cat, gens):
    """The arrows reached from the identities by composing generators on
    the left, until nothing new is reached."""
    reached = set(cat.identity.values())
    while True:
        more = {cat.comp(a, c) for a in gens for c in reached
                if cat.source(a) == cat.target(c)} - reached
        if not more:
            return reached
        reached |= more


def categories(m):
    fm = m.fibered()
    return [m.strcat, m.loc.base,
            *(fm.fiber(M) for M in m.loc.base.objects),
            *(fm.under(M).cat for M in m.loc.base.objects)]


@pytest.mark.parametrize("name", MODELS)
def test_generators_reach_every_arrow(name):
    for cat in categories(model(name)):
        gens = cat.generators
        assert list(gens) == sorted(gens)
        assert not any(cat.is_identity(a) for a in gens)
        assert closure(cat, gens) == set(cat.morphisms)


@pytest.mark.parametrize("name, count", [
    # two transpositions per fiber, then f0_1, f1_2 and f2_3 over e, of
    # 56 non-identity arrows
    ("chain(4,S3)", 11),
    # the swap of each fiber and the five steps of the chain, of 36
    ("chain(6,Z2)", 11),
])
def test_generator_counts(name, count):
    n, group = name[6:-1].split(",")
    strcat = model_from_dict(CHAIN.chain_dict(int(n), group)).strcat
    assert len(strcat.generators) == count


def nudgeable(cat):
    """The composition entries whose hom-set has another arrow, each with
    those other arrows."""
    return [(key, [x for x in cat.hom(cat.source(key[1]), cat.target(key[0]))
                   if x != h]) for key, h in cat.compose.items()
            if len(cat.hom(cat.source(key[1]), cat.target(key[0]))) > 1]


CATEGORY_CASES = [(name, side) for name in MODELS for side in ("str", "loc")
                  if nudgeable(model(name).strcat if side == "str"
                               else model(name).loc.base)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CATEGORY_CASES), st.data())
def test_a_changed_entry_gives_the_full_scans_violations(case, data):
    name, side = case
    cat = model(name).strcat if side == "str" else model(name).loc.base
    key, others = data.draw(st.sampled_from(nudgeable(cat)))
    changed = FinCategory(cat.objects, cat.morphisms.values(), cat.identity,
                          {**cat.compose, key: data.draw(st.sampled_from(others))})
    assert changed.violations() == violations_oracle(changed)


def functor_violations_oracle(fun):
    """CatFunctor.violations as a scan over every composition entry."""
    out = []
    for obj in fun.source.objects:
        if fun.object_map.get(obj) not in fun.target.objects:
            out.append(f"object {obj!r} has no valid image")
    for g, m in fun.source.morphisms.items():
        img = fun.morphism_map.get(g)
        if img not in fun.target.morphisms:
            out.append(f"morphism {g!r} has no valid image")
            continue
        if (fun.target.source(img) != fun.object_map.get(m.source)
                or fun.target.target(img) != fun.object_map.get(m.target)):
            out.append(f"image of {g!r} has wrong source/target")
    if out:
        return out
    for obj in fun.source.objects:
        if fun.on_mor(fun.source.id_of(obj)) != fun.target.id_of(fun.on_obj(obj)):
            out.append(f"identity of {obj!r} not preserved")
    for (g, f), h in fun.source.compose.items():
        if fun.target.comp(fun.on_mor(g), fun.on_mor(f)) != fun.on_mor(h):
            out.append(f"composition ({g!r},{f!r}) not preserved")
    return out


def functors(name):
    """The projection of a model and the identity functor of its Str."""
    m = model(name)
    return {"pi": m.pi, "id": CatFunctor(
        m.strcat, m.strcat, {S: S for S in m.strcat.objects},
        {g: g for g in m.strcat.morphisms})}


def retargets(fun):
    """Each arrow with the other arrows of its image's hom-set."""
    tgt = fun.target
    out = []
    for g in fun.source.morphisms:
        img = fun.on_mor(g)
        others = [x for x in tgt.hom(tgt.source(img), tgt.target(img))
                  if x != img]
        if others:
            out.append((g, others))
    return out


FUNCTOR_CASES = [(name, kind) for name in MODELS for kind in ("pi", "id")
                 if retargets(functors(name)[kind])]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FUNCTOR_CASES), st.data())
def test_a_changed_image_gives_the_full_scans_violations(case, data):
    name, kind = case
    fun = functors(name)[kind]
    assert fun.violations() == functor_violations_oracle(fun) == []
    g, others = data.draw(st.sampled_from(retargets(fun)))
    changed = CatFunctor(fun.source, fun.target, fun.object_map,
                         {**fun.morphism_map, g: data.draw(st.sampled_from(others))})
    assert changed.violations() == functor_violations_oracle(changed)


def qft_violations_oracle(A):
    """QftFunctor.violations as a scan over every composition entry."""
    out = []
    cat = A.cat
    for S in cat.objects:
        if S not in A.on_objects:
            out.append(f"no algebra assigned to {S!r}")
    for g in cat.morphisms:
        if g not in A.on_morphisms:
            out.append(f"no matrix assigned to {g!r}")
    if out:
        return out
    for S in cat.objects:
        dim = A.on_objects[S].complex.dim(0)
        if A.on_morphisms[cat.id_of(S)] != QMatrix.identity(dim):
            out.append(f"identity of {S!r} is not the identity matrix")
    shaped = set()
    for g in cat.morphisms:
        found = A.morphism(g).violations()
        out.extend(f"morphism {g!r}: {v}" for v in found)
        if _SHAPE_MISMATCH not in found:
            shaped.add(g)
    mats = A.on_morphisms
    for (g, f), h in cat.compose.items():
        if {g, f, h} <= shaped and mats[g] * mats[f] != mats[h]:
            out.append(f"functoriality fails on composition ({g!r},{f!r})")
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODELS), st.data())
def test_a_changed_matrix_gives_the_full_scans_violations(name, data):
    # A(g) becomes the matrix of another arrow, or gets one entry moved by 1
    A = model(name).A
    cat = A.cat
    g = data.draw(st.sampled_from(sorted(cat.morphisms)))
    mat = A.matrix(g)
    others = [A.matrix(x) for x in cat.hom(cat.source(g), cat.target(g))
              if A.matrix(x) != mat]
    if others and data.draw(st.booleans()):
        new = data.draw(st.sampled_from(others))
    else:
        i = data.draw(st.integers(0, mat.rows - 1))
        j = data.draw(st.integers(0, mat.cols - 1))
        entries = mat.data
        entries[i, j] = entries.get((i, j), 0) + data.draw(st.sampled_from([1, -1]))
        new = QMatrix(mat.rows, mat.cols, entries)
    changed = QftFunctor(cat, A.on_objects, {**A.on_morphisms, g: new})
    assert changed.violations() == qft_violations_oracle(changed)


def all_arrow_limit(diagram):
    """(slot labels, kernel) of the constraints A(g) x_s - x_t of every
    non-identity arrow g, slots (object, k) over the sorted objects."""
    cat = diagram.cat
    labels, start = [], {}
    for obj in sorted(cat.objects):
        start[obj] = len(labels)
        labels += [(obj, k) for k in range(diagram.algebra(obj).complex.dim(0))]
    data, row = {}, 0
    for g in sorted(cat.morphisms):
        if cat.is_identity(g):
            continue
        mat, src, tgt = diagram.matrix(g), start[cat.source(g)], start[cat.target(g)]
        for i in range(mat.rows):
            for (r, j), v in mat.data.items():
                if r == i:
                    data[row, src + j] = data.get((row, src + j), 0) + v
            data[row, tgt + i] = data.get((row, tgt + i), 0) - 1
            row += 1
    data = {key: v for key, v in data.items() if v}
    return tuple(labels), kernel_basis(QMatrix(row, len(labels), data))


@pytest.mark.parametrize("order", ["normal", "reversed"])
@pytest.mark.parametrize("name", MODELS)
def test_limits_equal_the_all_arrow_kernel(name, order):
    m = model(name)
    fm = m.fibered(order)
    for M in m.loc.base.objects:
        for diagram in (fiber_diagram(fm, m.A, M), under_diagram(fm, m.A, M)):
            lim = lim_dgalg(diagram)
            labels, kernel = all_arrow_limit(diagram)
            assert lim.ambient.labels[0] == labels
            assert lim.subspace == kernel
