import json

import pytest

from fibkan.fixtures import fixture, fixture_json, fixture_names, load_bundled
from fibkan.models import ModelError, model_from_dict, parse_model


def test_all_fixtures_parse():
    for name in fixture_names():
        m = model_from_dict(fixture(name))
        assert m.name
        assert m.strcat.objects


def test_fixture_names():
    assert fixture_names() == [
        "fix-a", "fix-b", "fix-bprime", "fix-c", "fix-d", "fix-e"
    ]


def test_unknown_fixture():
    with pytest.raises(KeyError):
        fixture("nope")


def test_bundled_json_matches_builders():
    for name in fixture_names():
        assert load_bundled(name) == fixture(name)


def test_fixture_json_deterministic():
    for name in fixture_names():
        blob = fixture_json(name)
        assert blob == fixture_json(name)
        assert json.loads(blob) == fixture(name)


def test_parse_model_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(fixture_json("fix-a"))
    m = parse_model(path)
    assert m.name == "bz2-matrix"


def test_parse_model_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelError) as err:
        parse_model(path)
    assert err.value.errors[0].startswith("$:")


def test_model_requires_format():
    with pytest.raises(ModelError) as err:
        model_from_dict({"metadata": {}})
    assert "$.format" in err.value.errors[0]


def test_model_missing_algebra():
    data = fixture("fix-c")
    del data["algebras"]["T"]
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert any("$.algebras.T" in e for e in err.value.errors)


def test_model_missing_matrix():
    data = fixture("fix-c")
    del data["algebra_maps"]["u"]
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert any("$.algebra_maps.u" in e for e in err.value.errors)


def test_model_invalid_category():
    data = fixture("fix-c")
    data["str"]["compose"] = data["str"]["compose"][:-1]
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert any(e.startswith("$.str") for e in err.value.errors)


@pytest.mark.parametrize("section", [
    "metadata", "loc", "str", "projection", "algebras", "algebra_maps"])
def test_model_section_of_wrong_type(section):
    data = fixture("fix-a")
    data[section] = [data[section]]
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert err.value.errors == [f"$.{section}: expected a JSON object"]


def test_model_non_functorial_matrices():
    data = fixture("fix-a")
    data["algebra_maps"]["g"] = [
        ["1", "0", "0", "0"], ["0", "1", "0", "0"],
        ["0", "0", "-1", "0"], ["0", "0", "0", "1"],
    ]
    with pytest.raises(ModelError):
        model_from_dict(data)


def test_model_without_cartesian_lift():
    # a second arrow T -> Sp over f leaves f with no cartesian lift into Sp
    data = fixture("fix-c")
    data["str"]["morphisms"].append({"name": "v", "source": "T", "target": "Sp"})
    data["str"]["compose"] += [["v", "id_T", "v"], ["id_Sp", "v", "v"]]
    data["projection"]["morphisms"]["v"] = "f"
    data["algebra_maps"]["v"] = [["1"]]
    with pytest.raises(ModelError) as err:
        model_from_dict(data)
    assert err.value.errors == [
        "$.projection: no cartesian lift of 'f' with target 'Sp'"]
