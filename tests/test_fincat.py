import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_source import load_bench_module

from fibkan import fincat
from fibkan.fincat import (
    CategoryError,
    FiberedModelError,
    FinCategory,
    Morphism,
    build_fibered_model,
    classify_flabbiness,
    connected_components,
    extension_data,
    is_cartesian,
    lemma_witnesses,
    nerve,
    pullback_fiber_square,
    UnderCategory,
    under_category,
    validate_functor,
    validate_loc_structure,
)
from fibkan.fixtures import fixture_names, load_bundled
from fibkan.models import model_from_dict


def category(objects, morphisms, identity, compose):
    cat = FinCategory(objects, morphisms, identity, compose)
    assert cat.violations() == []
    return cat


def bz2():
    return category(
        ["x"],
        [("e", "x", "x"), ("g", "x", "x")],
        {"x": "e"},
        {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
    )


def point():
    return category(["pt"], [("i", "pt", "pt")], {"pt": "i"}, {("i", "i"): "i"})


def model(name):
    return model_from_dict(load_bundled(name))


CHAIN = load_bench_module("chainmodel")
CHAINS = {"chain(2,S3)": (2, "S3"), "chain(3,Z2)": (3, "Z2")}
MODELS = [*fixture_names(), *CHAINS]


def any_model(name):
    """A bundled fixture or one of the generated chains."""
    if name in CHAINS:
        return model_from_dict(CHAIN.chain_dict(*CHAINS[name]))
    return model(name)


def test_validate_trivial_category():
    cat = point()
    assert cat.objects == ("pt",)
    assert cat.is_identity("i")


def test_validate_bz2_groupoid():
    cat = bz2()
    assert cat.is_groupoid()
    assert cat.inverse("g") == "g"
    assert cat.comp_chain(("g", "g", "g")) == "g"


def test_invalid_unit_axiom():
    # g * g = g with g not the identity breaks the unit axiom once composed
    cat = FinCategory(
        ["x"],
        [("e", "x", "x"), ("g", "x", "x")],
        {"x": "e"},
        {("e", "e"): "e", ("e", "g"): "e", ("g", "e"): "g", ("g", "g"): "g"},
    )
    assert cat.violations() == ["unit axiom fails: identity after 'g'"]


def test_missing_composition_entry():
    cat = FinCategory(
        ["x"],
        [("e", "x", "x"), ("g", "x", "x")],
        {"x": "e"},
        {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g"},
    )
    assert cat.violations() == ["composition table missing entry ('g','g')"]


def violations_oracle(cat):
    """FinCategory.violations as a scan over every pair and triple of arrow
    names, in listing order: the oracle for the scan over composable ones."""
    out = []
    for obj in cat.objects:
        e = cat.identity.get(obj)
        if e is None or e not in cat.morphisms:
            out.append(f"missing identity for object {obj!r}")
            continue
        m = cat.morphisms[e]
        if m.source != obj or m.target != obj:
            out.append(f"identity {e!r} of {obj!r} is not an endomorphism")
    for m in cat.morphisms.values():
        if m.source not in cat.objects or m.target not in cat.objects:
            out.append(f"morphism {m.name!r} references unknown object")
    names = cat.morphisms
    for (g, f), h in cat.compose.items():
        if g not in names or f not in names or h not in names:
            out.append(f"composition entry ({g!r},{f!r})={h!r} references unknown morphism")
            continue
        if cat.source(g) != cat.target(f):
            out.append(f"composition entry ({g!r},{f!r}) is not composable")
        elif (cat.source(h) != cat.source(f)
              or cat.target(h) != cat.target(g)):
            out.append(f"composition entry ({g!r},{f!r})={h!r} is ill-typed")
    for g in names:
        for f in names:
            if cat.source(g) == cat.target(f) and (g, f) not in cat.compose:
                out.append(f"composition table missing entry ({g!r},{f!r})")
    if out:
        return out
    for m in cat.morphisms.values():
        if cat.comp(m.name, cat.id_of(m.source)) != m.name:
            out.append(f"unit axiom fails: {m.name!r} after identity")
        if cat.comp(cat.id_of(m.target), m.name) != m.name:
            out.append(f"unit axiom fails: identity after {m.name!r}")
    for h in names:
        for g in names:
            if cat.source(h) != cat.target(g):
                continue
            hg = cat.comp(h, g)
            for f in names:
                if cat.source(g) != cat.target(f):
                    continue
                if cat.comp(hg, f) != cat.comp(h, cat.comp(g, f)):
                    out.append(f"associativity fails on ({h!r},{g!r},{f!r})")
    return out


EDITS = ("none", "change", "retype", "drop", "add")


@st.composite
def map_categories(draw, edits=EDITS, max_objects=3):
    """A category of maps between sets of one or two elements: the
    identities and the closure under composition of a few drawn maps, listed
    in a drawn order, with maybe one composition entry changed, dropped or
    added (one of the given edits)."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=max_objects))
    objects = [f"X{i}" for i in range(len(sizes))]
    arrows = {(o, o, tuple(range(n))) for o, n in zip(objects, sizes)}
    for _ in range(draw(st.integers(0, 4))):
        s, t = draw(st.sampled_from(objects)), draw(st.sampled_from(objects))
        values = st.integers(0, sizes[objects.index(t)] - 1)
        arrows.add((s, t, tuple(draw(st.lists(
            values, min_size=sizes[objects.index(s)],
            max_size=sizes[objects.index(s)])))))

    def after(g, f):
        return f[0], g[1], tuple(g[2][x] for x in f[2])

    def name(arrow):
        return f"{arrow[0]}{arrow[1]}:{''.join(map(str, arrow[2]))}"

    while True:
        more = {after(g, f) for g, f in itertools.product(arrows, repeat=2)
                if g[0] == f[1]} - arrows
        if not more:
            break
        arrows |= more
    listed = draw(st.permutations(sorted(arrows)))
    compose = {(name(g), name(f)): name(after(g, f))
               for g, f in itertools.product(listed, repeat=2) if g[0] == f[1]}
    names = [name(a) for a in listed]
    keys = sorted(compose)
    edit = draw(st.sampled_from(edits))
    if edit == "change":
        # another arrow of the same hom, which only the laws can catch, at
        # an entry whose hom has another arrow where there is one
        def others(key):
            ends = compose[key].split(":")[0] + ":"
            return [n for n in names
                    if n.startswith(ends) and n != compose[key]]

        key = draw(st.sampled_from([k for k in keys if others(k)] or keys))
        compose[key] = draw(st.sampled_from(others(key) or [compose[key]]))
    elif edit == "retype":
        compose[draw(st.sampled_from(keys))] = draw(st.sampled_from(names))
    elif edit == "drop":
        del compose[draw(st.sampled_from(keys))]
    elif edit == "add":
        compose[(draw(st.sampled_from(names)), draw(st.sampled_from(names)))] \
            = draw(st.sampled_from(names + ["nowhere"]))
    identity = {o: name((o, o, tuple(range(n))))
                for o, n in zip(objects, sizes)}
    return FinCategory(objects, [(name(a), a[0], a[1]) for a in listed],
                       identity, compose)


@settings(max_examples=200, deadline=None)
@given(map_categories())
def test_violations_match_the_all_pairs_oracle(cat):
    assert sorted(cat.violations()) == sorted(violations_oracle(cat))


@settings(max_examples=200, deadline=None)
@given(map_categories(edits=("change",)))
def test_law_messages_come_in_the_oracles_order(cat):
    # a changed entry breaks only the laws; the associativity scan walks
    # only the pairs (h, g) whose post-composition maps differ, and still
    # reports (h, g, f) in listing order
    assert cat.violations() == violations_oracle(cat)


def listed_in_reverse(cat):
    return FinCategory(cat.objects, reversed(cat.morphisms.values()),
                       cat.identity, cat.compose)


@pytest.mark.parametrize("name", MODELS)
def test_hom_sets_come_in_listing_order(name):
    pi = any_model(name).pi
    for cat in (pi.source, pi.target, listed_in_reverse(pi.source)):
        arrows = list(cat.morphisms.values())
        for b in cat.objects:
            assert cat.morphisms_into(b) == [
                m.name for m in arrows if m.target == b]
            for a in cat.objects:
                assert cat.hom(a, b) == [
                    m.name for m in arrows if (m.source, m.target) == (a, b)]


def test_nerve_counts():
    cat = bz2()
    assert nerve(cat, 0) == ["x"]
    assert nerve(cat, 1) == [("g",)]
    assert nerve(cat, 2) == [("g", "g")]
    discrete = category(
        ["a", "b"],
        [("ia", "a", "a"), ("ib", "b", "b")],
        {"a": "ia", "b": "ib"},
        {("ia", "ia"): "ia", ("ib", "ib"): "ib"},
    )
    assert nerve(discrete, 1) == []


def nerve_oracle(cat, n):
    """The normalized nerve as first written: every tuple extended by a
    filter over all non-identity arrows, then sorted."""
    if n == 0:
        return sorted(cat.objects)
    arrows = sorted(g for g in cat.morphisms if not cat.is_identity(g))
    tuples = [(g,) for g in arrows]
    for _ in range(n - 1):
        tuples = [t + (g,) for t in tuples for g in arrows
                  if cat.target(g) == cat.source(t[-1])]
    return sorted(tuples)


@pytest.mark.parametrize("name", [*fixture_names(), "chain(4,S3)"])
def test_nerve_matches_the_all_arrows_filter(name):
    if name == "chain(4,S3)":
        m = model_from_dict(CHAIN.chain_dict(4, "S3"))
    else:
        m = model(name)
    fm = m.fibered()
    base = m.pi.target.objects
    cats = [fm.fiber(M) for M in base]
    cats += [under_category(m.pi, M).cat for M in base]
    for cat in [*cats, *map(listed_in_reverse, cats)]:
        for n in range(4):
            assert nerve(cat, n) == nerve_oracle(cat, n), n


def test_under_category_bz2_over_point():
    m = model("fix-a")
    under = under_category(m.pi, "pt")
    assert len(under.cat.objects) == 1
    assert len(under.cat.morphisms) == 2
    assert under.cat.is_groupoid()


def test_under_category_fix_c():
    m = model("fix-c")
    under = under_category(m.pi, "M1")
    assert sorted(under.obj_info.values()) == [
        ("S", "id_M1"), ("Sp", "f"), ("T", "id_M1")
    ]
    assert not under.cat.violations()


def under_compose_oracle(pi, under):
    """The composition table of an under-category, built over all pairs of
    its arrows in the order they were made."""
    arrows, cat = list(under.mor_info), under.cat
    compose = {}
    for m2 in arrows:
        for m1 in arrows:
            if cat.source(m2) == cat.target(m1):
                (g2, _), (g1, h1) = under.mor_info[m2], under.mor_info[m1]
                compose[(m2, m1)] = UnderCategory.mor_name(
                    pi.source.comp(g2, g1), h1)
    return compose


@pytest.mark.parametrize("name", MODELS)
def test_under_category_composes_like_all_pairs(name):
    pi = any_model(name).pi
    for M in pi.target.objects:
        under = under_category(pi, M)
        assert list(under.cat.compose.items()) == list(
            under_compose_oracle(pi, under).items()), M


def test_under_category_empty():
    m = model("fix-c")
    under = under_category(m.pi, "M")
    # only the fiber over M is reachable from M
    assert sorted(under.obj_info.values()) == [("Sp", "id_M")]


def test_is_cartesian_identities_and_fiber_isos():
    m = model("fix-d")
    for g in m.strcat.morphisms:
        assert is_cartesian(m.pi, g)


def no_lift_projection():
    """fix-c with a second morphism v: T -> Sp over f."""
    data = load_bundled("fix-c")
    strdata, proj = data["str"], data["projection"]
    strcat = category(
        strdata["objects"],
        [(m["name"], m["source"], m["target"]) for m in strdata["morphisms"]]
        + [("v", "T", "Sp")],
        strdata["identity"],
        {**{(g, f): h for g, f, h in strdata["compose"]},
         ("v", "id_T"): "v", ("id_Sp", "v"): "v"},
    )
    return validate_functor(strcat, model("fix-c").loc.base, proj["objects"],
                            {**proj["morphisms"], "v": "f"})


def test_is_cartesian_fails_without_lift():
    # neither arrow over f stays cartesian
    pi = no_lift_projection()
    assert not is_cartesian(pi, "u")
    assert not is_cartesian(pi, "v")
    with pytest.raises(FiberedModelError):
        build_fibered_model(pi)


def two_lift_projection():
    """A fiber automorphism a with u after a = u."""
    cat = category(
        ["S", "Sp"],
        [("iS", "S", "S"), ("a", "S", "S"), ("iSp", "Sp", "Sp"), ("u", "S", "Sp")],
        {"S": "iS", "Sp": "iSp"},
        {
            ("iS", "iS"): "iS", ("iS", "a"): "a", ("a", "iS"): "a",
            ("a", "a"): "iS", ("iSp", "iSp"): "iSp", ("u", "iS"): "u",
            ("u", "a"): "u", ("iSp", "u"): "u",
        },
    )
    base = model("fix-c").loc.base
    return validate_functor(
        cat, base,
        {"S": "M1", "Sp": "M"},
        {"iS": "id_M1", "a": "id_M1", "iSp": "id_M", "u": "f"},
    )


def test_is_cartesian_fails_with_two_lifts():
    # a gives two competing factorizations
    assert not is_cartesian(two_lift_projection(), "u")


def is_cartesian_oracle(pi, g):
    """is_cartesian by brute force: every arrow g' into the target of g,
    every base arrow f~ with pi(g) after f~ = pi(g'), and a scan of every
    arrow of Str for the lifts of (g', f~)."""
    strcat, loc = pi.source, pi.target
    fg = pi.on_mor(g)
    for g_prime, m in strcat.morphisms.items():
        if m.target != strcat.target(g):
            continue
        for f_tilde, b in loc.morphisms.items():
            if (b.source != pi.on_obj(m.source)
                    or b.target != loc.source(fg)
                    or loc.comp(fg, f_tilde) != pi.on_mor(g_prime)):
                continue
            lifts = [h for h, n in strcat.morphisms.items()
                     if (n.source, n.target) == (m.source, strcat.source(g))
                     and pi.on_mor(h) == f_tilde
                     and strcat.comp(g, h) == g_prime]
            if len(lifts) != 1:
                return False
    return True


PROJECTIONS = {"no-lift": no_lift_projection,
               "two-lift": two_lift_projection}


@pytest.mark.parametrize("name", [*MODELS, *PROJECTIONS])
def test_is_cartesian_matches_the_brute_force_oracle(name):
    pi = PROJECTIONS[name]() if name in PROJECTIONS else any_model(name).pi
    for g in pi.source.morphisms:
        assert is_cartesian(pi, g) == is_cartesian_oracle(pi, g), g


@st.composite
def product_projections(draw):
    """The projection C x E -> C of a map category C onto its first factor,
    E a monoid of maps on a set of one or two elements: a functor whose
    arrows (c, e) are cartesian where e is invertible, and whose base
    composites pi(g) after f~ may repeat."""
    base = draw(map_categories(edits=("none",), max_objects=2))
    monoid = draw(map_categories(edits=("none",), max_objects=1))
    (X,), E = monoid.objects, list(monoid.morphisms)
    arrows = [(f"{c}|{e}", f"{m.source}{X}", f"{m.target}{X}")
              for c, m in base.morphisms.items() for e in E]
    compose = {(f"{c2}|{e2}", f"{c1}|{e1}"):
               f"{base.comp(c2, c1)}|{monoid.comp(e2, e1)}"
               for (c2, c1) in base.compose for e2 in E for e1 in E}
    cat = category([f"{B}{X}" for B in base.objects], arrows,
                   {f"{B}{X}": f"{base.id_of(B)}|{monoid.id_of(X)}"
                    for B in base.objects}, compose)
    return validate_functor(
        cat, base, {f"{B}{X}": B for B in base.objects},
        {a: a.split("|")[0] for a, _, _ in arrows})


@settings(max_examples=60, deadline=None)
@given(product_projections())
def test_is_cartesian_matches_the_oracle_on_products(pi):
    for g in pi.source.morphisms:
        assert is_cartesian(pi, g) == is_cartesian_oracle(pi, g), g


@pytest.mark.parametrize("name", MODELS)
def test_cleavage_matches_the_brute_force_oracle(name, monkeypatch):
    pi = any_model(name).pi
    orders = ("normal", "reversed")
    fast = {order: build_fibered_model(pi, order).cleavage for order in orders}
    monkeypatch.setattr(fincat, "is_cartesian", is_cartesian_oracle)
    for order in orders:
        assert list(build_fibered_model(pi, order).cleavage.items()) \
            == list(fast[order].items())


def test_build_fibered_model_fix_c():
    m = model("fix-c")
    fm = m.fibered()
    assert fm.lift("Sp", "f") == ("S", "u")
    assert fm.lift("Sp", "id_M") == ("Sp", "id_Sp")
    fiber = fm.fiber("M1")
    assert fiber.objects == ("S", "T")
    assert len(fiber.morphisms) == 2


def test_build_fibered_model_rejects_noninvertible_fiber():
    cat = category(
        ["S"],
        [("iS", "S", "S"), ("n", "S", "S")],
        {"S": "iS"},
        {("iS", "iS"): "iS", ("iS", "n"): "n", ("n", "iS"): "n", ("n", "n"): "n"},
    )
    pi = validate_functor(cat, point(), {"S": "pt"}, {"iS": "i", "n": "i"})
    with pytest.raises(FiberedModelError):
        build_fibered_model(pi)


def test_pullback_tuple_z2():
    m = model("fix-d")
    fm = m.fibered()
    # the fiber automorphism over Np pulls back to the one over N
    assert pullback_fiber_square(fm, "f", "id_Np.g") == "id_N.g"
    assert pullback_fiber_square(fm, "f", "id_Np.e") == "id_N.e"


def under_pullback_arrow_oracle(fm, under, name):
    """The fiber arrow h1*S1 -> h0*S0 closing the cleavage square of the
    under-category arrow g: (S1, h1) -> (S0, h0), solved from its two ends."""
    strcat = fm.strcat
    g, h1 = under.mor_info[name]
    _, lift0 = fm.lift(*under.obj_info[under.cat.target(name)])
    _, lift1 = fm.lift(strcat.source(g), h1)
    return fm.solve_cartesian(lift0, strcat.comp(g, lift1),
                              fm.loc.id_of(fm.loc.source(h1)))


def test_pullback_fiber_square_closes_every_under_arrow():
    off_fiber = 0
    for name in fixture_names():
        for order in ("normal", "reversed"):
            fm = model(name).fibered(order)
            for M in fm.loc.objects:
                under = fm.under(M)
                for arrow, (g, h) in under.mor_info.items():
                    assert pullback_fiber_square(fm, h, g) == \
                        under_pullback_arrow_oracle(fm, under, arrow), \
                        (name, order, arrow)
                    off_fiber += not fm.loc.is_identity(fm.pi.on_mor(g))
    # the squares include arrows that leave their fiber
    assert off_fiber


def test_classify_flabbiness_z2():
    m = model("fix-d")
    report = classify_flabbiness(m.fibered(), m.loc)
    assert report.flabby_counterexample is None
    assert report.cauchy_counterexample is None
    assert report.strong_counterexample is None


def test_classify_flabbiness_fix_c():
    m = model("fix-c")
    report = classify_flabbiness(m.fibered(), m.loc)
    assert report.flabby_counterexample == ("T", "f")
    # with only identity Cauchy morphisms the Cauchy conditions hold trivially
    assert report.cauchy_counterexample is None
    assert report.strong_counterexample is None


def test_extension_data_z2():
    m = model("fix-d")
    fm = m.fibered()
    ext = extension_data(fm, m.loc, "f")
    assert ext.obj_map == {"N": ("Np", "f.e")}
    assert ext.mor_map == {"id_N.e": "id_Np.e", "id_N.g": "id_Np.g"}


def test_extension_data_requires_cauchy():
    m = model("fix-c")
    with pytest.raises(FiberedModelError):
        extension_data(m.fibered(), m.loc, "f")


def test_extension_data_identity():
    m = model("fix-d")
    fm = m.fibered()
    ext = extension_data(fm, m.loc, "id_N")
    assert ext.obj_map["N"] == ("N", "id_N.e")
    assert ext.mor_map["id_N.g"] == "id_N.g"


def test_lemma_witnesses_z2():
    m = model("fix-d")
    fm = m.fibered()
    ext = extension_data(fm, m.loc, "f")
    into, outof = lemma_witnesses(fm, "f", ext)
    assert into == {"N": "id_N.e"}
    assert outof == {"Np": "id_Np.e"}


def test_lemma_witnesses_identity_morphism():
    m = model("fix-d")
    fm = m.fibered()
    ext = extension_data(fm, m.loc, "id_Np")
    into, outof = lemma_witnesses(fm, "id_Np", ext)
    assert into == {"Np": "id_Np.e"}


def test_connected_components():
    assert connected_components(bz2()) == [("x",)]
    m = model("fix-c")
    fm = m.fibered()
    assert connected_components(fm.fiber("M1")) == [("S",), ("T",)]
    iso_pair = category(
        ["a", "b"],
        [("ia", "a", "a"), ("ib", "b", "b"), ("j", "a", "b"), ("k", "b", "a")],
        {"a": "ia", "b": "ib"},
        {
            ("ia", "ia"): "ia", ("ib", "ib"): "ib", ("j", "ia"): "j",
            ("ib", "j"): "j", ("k", "ib"): "k", ("ia", "k"): "k",
            ("k", "j"): "ia", ("j", "k"): "ib",
        },
    )
    assert connected_components(iso_pair) == [("a", "b")]


def test_connected_components_rejects_non_groupoid():
    m = model("fix-c")
    with pytest.raises(CategoryError):
        connected_components(m.strcat)


def test_loc_structure_closure():
    cat = model("fix-d").loc.base
    with pytest.raises(CategoryError):
        validate_loc_structure(cat, [], ["f"])  # identities missing


def test_cleavage_order_flip():
    m = model("fix-d")
    normal = m.fibered("normal")
    reversed_ = m.fibered("reversed")
    assert normal.lift("Np", "f") == ("N", "f.e")
    assert reversed_.lift("Np", "f") == ("N", "f.g")
    # identity lifts stay identities under either tie-break
    assert reversed_.lift("Np", "id_Np") == ("Np", "id_Np.e")
