import contextlib
import io
import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_source import load_bench_module

from fibkan import cli, finalg, qlinalg
from fibkan.fixtures import fixture_names, load_bundled
from fibkan.models import Model, ModelError, model_from_dict, parse_model
from fibkan.qlinalg import QMatrix


def test_all_fixtures_parse():
    for name in fixture_names():
        m = model_from_dict(load_bundled(name))
        assert m.name
        assert m.strcat.objects


def test_fixture_names():
    assert fixture_names() == [
        "fix-a", "fix-b", "fix-bprime", "fix-c", "fix-d", "fix-e"
    ]


def test_unknown_fixture():
    # a name outside the bundled list never reaches the filesystem
    for name in ("nope", "../pyproject"):
        with pytest.raises(KeyError) as err:
            load_bundled(name)
        assert "known: fix-a, fix-b, fix-bprime, fix-c, fix-d, fix-e" \
            in str(err.value)


def test_parse_model_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(load_bundled("fix-a")))
    m = parse_model(path)
    assert m.name == "bz2-matrix"


def test_parse_model_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelError) as err:
        parse_model(path)
    assert err.value.errors[0].startswith("$:")


def algebra_text(spec):
    return json.dumps([spec["dim"], spec["structure_constants"], spec["unit"]])


def test_each_scalar_entry_is_read_once(monkeypatch):
    # structure constants, units and map matrices all go through rat, once
    # per entry of each distinct spec: specs with the same JSON text share
    # one parse
    calls = []
    rat = qlinalg.rat
    monkeypatch.setattr(qlinalg, "rat", lambda v: calls.append(v) or rat(v))
    data = load_bundled("fix-d")
    model_from_dict(data)
    algebras = {algebra_text(alg): alg for alg in data["algebras"].values()}
    maps = {json.dumps(spec): spec for spec in data["algebra_maps"].values()}
    entries = sum(
        len(alg["unit"]) + sum(len(row) for sc in alg["structure_constants"]
                               for row in sc)
        for alg in algebras.values())
    entries += sum(len(row) for spec in maps.values() for row in spec)
    assert len(calls) == entries


def test_model_requires_format():
    with pytest.raises(ModelError) as err:
        model_from_dict({"metadata": {}})
    assert "$.format" in err.value.errors[0]


def test_model_missing_algebra():
    data = load_bundled("fix-c")
    del data["algebras"]["T"]
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert any("$.algebras.T" in e for e in err.value.errors)


def test_model_missing_matrix():
    data = load_bundled("fix-c")
    del data["algebra_maps"]["u"]
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert any("$.algebra_maps.u" in e for e in err.value.errors)


def test_model_invalid_category():
    data = load_bundled("fix-c")
    data["str"]["compose"] = data["str"]["compose"][:-1]
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert any(e.startswith("$.str") for e in err.value.errors)


@pytest.mark.parametrize("section", [
    "metadata", "loc", "str", "projection", "algebras", "algebra_maps"])
def test_model_section_of_wrong_type(section):
    data = load_bundled("fix-a")
    data[section] = [data[section]]
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert err.value.errors == [f"$.{section}: expected a JSON object"]


def test_model_non_functorial_matrices():
    data = load_bundled("fix-a")
    data["algebra_maps"]["g"] = [
        ["1", "0", "0", "0"], ["0", "1", "0", "0"],
        ["0", "0", "-1", "0"], ["0", "0", "0", "1"],
    ]
    with pytest.raises(ModelError):
        model_from_dict(data)


def test_one_wrong_entry_of_a_composite_breaks_functoriality(tmp_path, capsys):
    # functoriality is compared column by column; the dense products of the
    # matrices are the oracle for which compositions fail
    doc = load_bench_module("chainmodel").chain_dict(2, "S3")
    identities = set(doc["str"]["identity"].values())
    g, f, h = next(entry for entry in doc["str"]["compose"]
                   if identities.isdisjoint(entry[:2]))
    doc["algebra_maps"][h][0][0] = "2"
    mats = {name: QMatrix.from_rows(rows)
            for name, rows in doc["algebra_maps"].items()}
    want = [f"functoriality fails on composition ({left!r},{right!r})"
            for left, right, composite in doc["str"]["compose"]
            if mats[left] * mats[right] != mats[composite]]
    assert f"functoriality fails on composition ({g!r},{f!r})" in want
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    assert cli.run(["validate", str(path)]) == 2
    [error] = json.loads(capsys.readouterr().out)["errors"]
    assert error.startswith("$.algebra_maps: ")
    assert [found for found in error.split("; ")
            if found.startswith("functoriality")] == want


def test_misshaped_map_keeps_every_other_finding():
    # a composition with a mis-shaped matrix is skipped, not multiplied, so
    # the shape finding and the findings on the other maps all stay
    data = load_bundled("fix-a")
    data["algebra_maps"]["g"] = [["1", "0"], ["0", "1"]]
    data["algebra_maps"]["id_x"] = [
        ["2" if i == j else "0" for j in range(4)] for i in range(4)]
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    pairs = ("0,0", "0,1", "1,2", "1,3", "2,0", "2,1", "3,2", "3,3")
    assert err.value.errors == ["$.algebra_maps: " + "; ".join([
        "identity of 'x' is not the identity matrix",
        "morphism 'g': matrix shape does not match source/target dimensions",
        "morphism 'id_x': unit not preserved",
        *(f"morphism 'id_x': multiplicativity fails on basis pair ({p})"
          for p in pairs),
        "functoriality fails on composition ('id_x','id_x')"])]


@pytest.mark.parametrize("name", ["fix-e", "chain(2,S3)"])
def test_equal_specs_share_one_parsed_object(name, monkeypatch):
    # one Dga per distinct algebra spec and one QMatrix per distinct map
    # spec; each arrow's morphism law is then checked once per distinct
    # (source spec, target spec, map spec)
    doc = load_bundled(name) if name.startswith("fix") \
        else load_bench_module("chainmodel").chain_dict(2, "S3")
    checked = []
    check = finalg.AlgMorphism.violations
    monkeypatch.setattr(finalg.AlgMorphism, "violations",
                        lambda m: checked.append(m) or check(m))
    A = model_from_dict(doc).A
    maps = {g: json.dumps(spec) for g, spec in doc["algebra_maps"].items()}
    algebras = {S: algebra_text(spec) for S, spec in doc["algebras"].items()}
    assert len({id(A.matrix(g)) for g in A.strcat.morphisms}) \
        == len(set(maps.values()))
    assert len({id(A.algebra(S)) for S in A.strcat.objects}) \
        == len(set(algebras.values()))
    assert len(checked) == len({
        (algebras[m["source"]], algebras[m["target"]], maps[m["name"]])
        for m in doc["str"]["morphisms"]})


def test_isotony_eliminates_each_distinct_matrix_once(monkeypatch):
    doc = load_bench_module("chainmodel").chain_dict(2, "S3")
    model = model_from_dict(doc)
    calls = []
    echelon = qlinalg._echelon
    monkeypatch.setattr(qlinalg, "_echelon",
                        lambda *args: calls.append(args) or echelon(*args))
    report = finalg.check_axioms_on_str(model.fibered(), model.loc, model.A)
    assert report.isotony
    assert 0 < len(calls) <= len(
        {json.dumps(spec) for spec in doc["algebra_maps"].values()})


# the expected error lists below were recorded before specs were shared:
# a failing datum is reported at every path, arrow or entry that has it


def test_shared_bad_algebra_is_reported_at_every_object():
    data = load_bundled("fix-d")
    bad = data["algebras"]["N"]
    bad["structure_constants"][1][1][1] = "1"
    data["algebras"]["Np"] = json.loads(json.dumps(bad))
    triples = ("1,0,1", "1,1,2", "1,3,1", "2,1,1")
    found = "; ".join(f"associativity fails on triple ({t})" for t in triples)
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert err.value.errors == [f"$.algebras.{S}: {found}" for S in ("N", "Np")]


def test_shared_non_multiplicative_map_is_reported_at_every_arrow():
    data = load_bundled("fix-e")
    for g, spec in data["algebra_maps"].items():
        if g.endswith(".g"):
            spec[2][2] = "1"
    arrows = [f"{base}.g" for base in (
        "f01", "f02", "f03", "f12", "f13", "f23",
        "id_M0", "id_M1", "id_M2", "id_M3")]
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert err.value.errors == ["$.algebra_maps: " + "; ".join(
        f"morphism {g!r}: multiplicativity fails on basis pair ({pair})"
        for g in arrows for pair in ("1,2", "2,1"))]


def test_shared_wrong_composite_is_reported_at_every_entry():
    data = load_bundled("fix-e")
    for g in ("f01.g", "f02.g", "f03.g"):
        data["algebra_maps"][g] = data["algebra_maps"]["f01.e"]
    entries = [
        *((f"{f}.{x}", "id_M0.g") for f in ("f01", "f02", "f03")
          for x in "eg"),
        *((f"{g}.g", f"{f}.{x}") for g, f in (
            ("f12", "f01"), ("f13", "f01"), ("f23", "f02"),
            ("id_M1", "f01"), ("id_M2", "f02"), ("id_M3", "f03"))
          for x in "eg")]
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert err.value.errors == ["$.algebra_maps: " + "; ".join(
        f"functoriality fails on composition ({g!r},{f!r})"
        for g, f in entries)]


class Whole(int):
    """An int subclass, which no JSON file decodes to."""


def test_a_tuple_spec_is_parsed_on_its_own():
    # f02.g repeats the text of an earlier accepted map, as a tuple of rows
    data = load_bundled("fix-e")
    rows = tuple(data["algebra_maps"]["f02.g"])
    data["algebra_maps"]["f02.g"] = rows
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert err.value.errors == [
        f"$.algebra_maps.f02.g: matrix: expected a JSON array, got {rows!r}"]


def test_an_int_subclass_entry_is_parsed_on_its_own():
    # f01.g in whole numbers is accepted; f02.g repeats its text with one
    # entry an int subclass
    data = load_bundled("fix-e")
    maps = data["algebra_maps"]
    assert [list(m["name"] for m in data["str"]["morphisms"]).index(g)
            for g in ("f01.g", "f02.g")] == [1, 3]
    maps["f01.g"] = [[int(x) for x in row] for row in maps["f01.g"]]
    maps["f02.g"] = [list(row) for row in maps["f01.g"]]
    maps["f02.g"][0][0] = Whole(maps["f02.g"][0][0])
    assert json.dumps(maps["f02.g"]) == json.dumps(maps["f01.g"])
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert err.value.errors == [
        "$.algebra_maps.f02.g: cannot interpret 1 as a rational"]


@pytest.mark.parametrize("key, value, errors", [
    ("causal_cospans", [["c1", "c2", "id_M1"]],
     ["causal cospan ['c1', 'c2', 'id_M1'] is not an array of two morphism "
      "names"]),
    ("causal_cospans", [["c1"]],
     ["causal cospan ['c1'] is not an array of two morphism names"]),
    ("causal_cospans", ["c1c2"],
     ["causal cospan 'c1c2' is not an array of two morphism names"]),
    ("causal_cospans", "c1c2", ["causal_cospans is not an array"]),
    ("cauchy", "id_M", ["cauchy is not an array of morphism names"]),
    ("causal_cospans", [["nope", "c1"]],
     ["causal cospan ['c1', 'nope'] references unknown morphism"]),
    ("cauchy", ["zz", "id_M", "aa", "id_M1", "id_M2", "mm"],
     [f"cauchy morphism {f!r} unknown" for f in ("aa", "mm", "zz")]),
])
def test_loc_structure_is_read_in_a_fixed_order(key, value, errors):
    # a cospan is an array of exactly two names and the Cauchy set an array
    # of names; a string is not read character by character, and messages
    # name a cospan by its sorted list, in an order no hash seed changes
    data = load_bundled("fix-b")
    data["loc"][key] = value
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert err.value.errors == [f"$.loc: {e}" for e in errors]


def test_cospan_may_repeat_a_leg():
    data = load_bundled("fix-b")
    data["loc"]["causal_cospans"] = [["c2", "c1"], ["c1", "c1"]]
    assert model_from_dict(data).loc.causal_cospans == (
        ("c1", "c2"), ("c1", "c1"))


def test_model_without_cartesian_lift():
    # a second arrow T -> Sp over f leaves f with no cartesian lift into Sp
    data = load_bundled("fix-c")
    data["str"]["morphisms"].append({"name": "v", "source": "T", "target": "Sp"})
    data["str"]["compose"] += [["v", "id_T", "v"], ["id_Sp", "v", "v"]]
    data["projection"]["morphisms"]["v"] = "f"
    data["algebra_maps"]["v"] = [["1"]]
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert err.value.errors == [
        "$.projection: no cartesian lift of 'f' with target 'Sp'"]


@pytest.mark.parametrize("name, path, value, error", [
    ("fix-a", ("algebras", "x", "unit"), "1001",
     "$.algebras.x: unit vector: expected a JSON array, got '1001'"),
    ("fix-a", ("algebra_maps", "id_x"), ["1000", "0100", "0010", "0001"],
     "$.algebra_maps.id_x: matrix: expected a JSON array, got '1000'"),
    ("fix-c", ("algebra_maps", "u"), {"1": "1"},
     "$.algebra_maps.u: matrix: expected a JSON array, got {'1': '1'}"),
    ("fix-c", ("algebras", "S"),
     {"dim": 1, "structure_constants": ["1"], "unit": "1"},
     "$.algebras.S: structure constants: expected a JSON array, got '1'"),
])
def test_string_or_object_is_no_array(name, path, value, error):
    # a string or an object where the model needs an array is refused, not
    # read character by character or key by key
    data = load_bundled(name)
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert err.value.errors == [error]


def value_paths(node, prefix=()):
    """The key path of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


def json_type(value):
    for kind, types in (("boolean", bool), ("number", (int, float)),
                        ("string", str), ("array", list), ("object", dict)):
        if isinstance(value, types):
            return kind
    return "null"


json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from([0.5, 1e9]),
    st.sampled_from(["", "x", "1/0", "id_x", "pt", "10"]),
    st.lists(st.one_of(st.integers(0, 2), st.sampled_from(["1", "x"])),
             max_size=2),
    st.dictionaries(st.sampled_from(["x", "dim", "name"]), st.integers(0, 2),
                    max_size=2),
    st.just({"1": "1"}))

FIXTURE_PATHS = {name: list(value_paths(load_bundled(name)))
                 for name in fixture_names()}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_fixture_is_a_model_or_a_model_error(data):
    # one value replaced by a value of another JSON type never escapes as a
    # bare exception: the model parses, or every message names its place;
    # a model that parses goes through axioms, classify and kan, each of
    # which returns findings and no fail, which only an implementation bug
    # gives, and through every CLI command, each of which ends with an exit
    # code and no traceback
    name = data.draw(st.sampled_from(fixture_names()))
    doc = load_bundled(name)
    path = data.draw(st.sampled_from(FIXTURE_PATHS[name]))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = data.draw(json_values.filter(
        lambda v: json_type(v) != json_type(node[last])))
    try:
        model = model_from_dict(doc)
    except ModelError as exc:
        assert exc.errors
        assert all(e.startswith("$") for e in exc.errors), exc.errors
        return
    assert isinstance(model, Model)
    for checks in (cli.checks_axioms, cli.checks_classify, cli.checks_kan):
        findings = checks(model, "normal", 2)
        assert findings
        assert all(f["status"] != cli.FAIL for f in findings), findings
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "model.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "axioms", "classify", "kan", "hokan",
                        "verify"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.run([command, str(path), "--max-degree", "2"])
            assert code in (0, 1, 2), (command, code)
