import pytest

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


def test_under_category_empty():
    m = model("fix-c")
    under = under_category(m.pi, "M")
    # only the fiber over M is reachable from M
    assert sorted(under.obj_info.values()) == [("Sp", "id_M")]


def test_is_cartesian_identities_and_fiber_isos():
    m = model("fix-d")
    for g in m.strcat.morphisms:
        assert is_cartesian(m.pi, g)


def test_is_cartesian_fails_without_lift():
    # add a second morphism T -> Sp over f: neither arrow over f stays cartesian
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
    pi = validate_functor(strcat, model("fix-c").loc.base, proj["objects"],
                          {**proj["morphisms"], "v": "f"})
    assert not is_cartesian(pi, "u")
    assert not is_cartesian(pi, "v")
    with pytest.raises(FiberedModelError):
        build_fibered_model(pi)


def test_is_cartesian_fails_with_two_lifts():
    # fiber automorphism a with u * a = u gives two competing factorizations
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
    pi = validate_functor(
        cat, base,
        {"S": "M1", "Sp": "M"},
        {"iS": "id_M1", "a": "id_M1", "iSp": "id_M", "u": "f"},
    )
    assert not is_cartesian(pi, "u")


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
    assert report.flabby
    assert report.cauchy_flabby
    assert report.strongly_cauchy_flabby


def test_classify_flabbiness_fix_c():
    m = model("fix-c")
    report = classify_flabbiness(m.fibered(), m.loc)
    assert not report.flabby
    assert report.flabby_counterexample == ("T", "f")
    # with only identity Cauchy morphisms the Cauchy conditions hold trivially
    assert report.cauchy_flabby
    assert report.strongly_cauchy_flabby


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
