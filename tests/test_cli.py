import ast
import hashlib
import json
import pathlib

import pytest

from fibkan import cli
from fibkan.fixtures import fixture_names, load_bundled

# the model properties each bundled fixture violates on purpose
EXPECT = {
    "fix-bprime": ["--expect", "product-reversal-causality"],
}


def run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def statuses(out):
    report = json.loads(out)
    return {c["name"]: c["status"] for c in report["checks"]}


def test_axioms_pass(capsys):
    code, out = run(capsys, "axioms", "--fixture", "fix-a")
    assert code == 0
    assert statuses(out) == {
        "qft-isotony": "pass",
        "qft-causality": "pass",
        "qft-timeslice": "pass",
    }


def test_axioms_violation_needs_expect(capsys):
    code, out = run(capsys, "axioms", "--fixture", "fix-bprime")
    assert code == 1
    assert statuses(out)["qft-causality"] == "violation"
    code, _ = run(capsys, "axioms", "--fixture", "fix-bprime",
                  "--expect", "qft-causality")
    assert code == 0


def test_expect_is_not_required_to_match(capsys):
    # an expectation that does not materialize does not flip the exit code
    code, _ = run(capsys, "axioms", "--fixture", "fix-a",
                  "--expect", "qft-causality")
    assert code == 0


def test_classify_nonflabby(capsys):
    code, out = run(capsys, "classify", "--fixture", "fix-c")
    assert code == 1
    report = json.loads(out)
    byname = {c["name"]: c for c in report["checks"]}
    assert byname["flabby"]["status"] == "violation"
    assert byname["flabby"]["details"]["counterexample"] == ["T", "f"]
    assert byname["cauchy-flabby"]["status"] == "pass"
    code, _ = run(capsys, "classify", "--fixture", "fix-c",
                  "--expect", "flabby")
    assert code == 0


def test_kan_reports_induced_axioms(capsys):
    code, out = run(capsys, "kan", "--fixture", "fix-c",
                    "--expect", "kan-isotony")
    assert code == 0
    report = json.loads(out)
    byname = {c["name"]: c for c in report["checks"]}
    assert byname["kan-isotony"]["status"] == "violation"
    assert "f" in byname["kan-isotony"]["details"]["violations"]
    assert byname["kappa-iso"]["status"] == "pass"
    assert byname["kan-dimensions"]["details"]["u_dims"] == {"M": 1, "M1": 2}


def test_verify_builds_each_fiber_invariant_once(capsys, monkeypatch):
    # the kan checks and the hokan h0-comparison share one u_object per
    # base object
    from fibkan import kan
    built = []
    real = kan.u_object

    def counting(fm, A, M):
        built.append(M)
        return real(fm, A, M)

    monkeypatch.setattr(kan, "u_object", counting)
    # the axiom and flabbiness reports are each built once per model, under
    # every name a module binds them to
    from fibkan import finalg, fincat
    reports = []
    for name, owner in (("check_axioms_on_str", finalg),
                        ("classify_flabbiness", fincat)):
        real_report = getattr(owner, name)

        def counting_report(*args, name=name, real_report=real_report):
            reports.append(name)
            return real_report(*args)

        for module in (cli, kan, finalg, fincat):
            if getattr(module, name, None) is real_report:
                monkeypatch.setattr(module, name, counting_report)
    code, out = run(capsys, "verify", "--fixture", "fix-e", "--max-degree", "2")
    assert code == 0
    assert statuses(out)["h0-comparison"] == "pass"
    assert sorted(built) == ["M0", "M1", "M2", "M3"]
    assert sorted(reports) == ["check_axioms_on_str", "classify_flabbiness"]


def test_hokan_witnesses_pass(capsys):
    code, out = run(capsys, "hokan", "--fixture", "fix-d", "--max-degree", "3")
    assert code == 0
    got = statuses(out)
    for name in ("dga-structure", "kappa-zeta-identity", "eta-homotopy",
                 "kappa-weak-equivalence", "rho-involution", "beta-homotopy",
                 "hou-identity", "h0-comparison", "gamma2-homotopy",
                 "gamma3-coherence", "ext-phi-homotopy",
                 "ext-phibar-homotopy"):
        assert got[name] == "pass", name
    # no causal cospans declared on this model
    assert got["product-reversal-causality"] == "blocked"
    assert got["lambda-homotopy"] == "blocked"


def test_hokan_causal_cospan(capsys):
    code, out = run(capsys, "hokan", "--fixture", "fix-b", "--max-degree", "3")
    assert code == 0
    got = statuses(out)
    assert got["product-reversal-causality"] == "pass"
    assert got["lambda-homotopy"] == "pass"


def test_hokan_blocked_without_causality(capsys):
    code, out = run(capsys, "hokan", "--fixture", "fix-bprime",
                    "--max-degree", "3",
                    "--expect", "product-reversal-causality")
    assert code == 0
    got = statuses(out)
    assert got["product-reversal-causality"] == "violation"
    assert got["lambda-homotopy"] == "blocked"


BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def bench_constant(name):
    """A literal module constant of bench/workloads.py, read from its AST."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) == name for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    raise KeyError(name)


@pytest.mark.parametrize("name", fixture_names())
def test_verify_matches_recorded_bench_digest(capsys, name):
    # the fixtures-verify bench gate as a test: exit code and stdout sha256
    want = json.loads((BENCH / "expected.json").read_text())["fixtures-verify"]
    expect = bench_constant("FIXTURE_EXPECT").get(name)
    code, out = run(capsys, "verify", "--fixture", name, "--max-degree",
                    str(bench_constant("FIXTURE_DEGREE")),
                    *(["--expect", *expect] if expect else []))
    assert [code, hashlib.sha256(out.encode()).hexdigest()] == want[name]


def test_verify_reports_are_byte_identical(capsys):
    _, first = run(capsys, "verify", "--fixture", "fix-d")
    _, second = run(capsys, "verify", "--fixture", "fix-d")
    assert first == second


def test_seed_order_flag(capsys):
    for order in ("normal", "reversed"):
        code, out = run(capsys, "kan", "--fixture", "fix-d",
                        "--seed-order", order)
        assert code == 0
        report = json.loads(out)
        assert report["seed_order"] == order
        byname = {c["name"]: c for c in report["checks"]}
        assert byname["kan-dimensions"]["details"]["u_dims"] \
            == {"N": 2, "Np": 2}


def test_model_file_path(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(load_bundled("fix-a")))
    code, out = run(capsys, "axioms", str(path))
    assert code == 0
    assert json.loads(out)["model"] == "bz2-matrix"


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run(capsys, "axioms", str(path))
    assert code == 2
    assert json.loads(out)["errors"]


@pytest.mark.parametrize("content", [
    b'{"format": "\xff"}',  # not UTF-8
    b"[" * 100_000,  # nested deeper than the decoder recurses
    b"1" + b"0" * 5000,  # above the int-string conversion limit
], ids=["not-utf8", "deep-nesting", "long-integer"])
def test_unreadable_model_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    errors = json.loads(out)["errors"]
    assert len(errors) == 1 and errors[0].startswith("$: invalid JSON (")


def test_invalid_model_exits_2(tmp_path, capsys):
    doc = load_bundled("fix-a")
    del doc["algebras"]["x"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "axioms", str(path))
    assert code == 2
    assert any("x" in e for e in json.loads(out)["errors"])


@pytest.mark.parametrize("name, path, value", [
    ("fix-a", ("algebras", "x"), [1]),
    ("fix-a", ("algebras", "x", "structure_constants"), 3),
    ("fix-a", ("algebras", "x", "unit"), 3),
    ("fix-a", ("algebra_maps", "g", 0), 3),
    ("fix-a", ("loc", "cauchy"), 3),
    ("fix-a", ("loc", "identity", "pt"), [1]),
    ("fix-a", ("projection", "objects"), [1]),
    ("fix-b", ("loc", "causal_cospans", 0), {}),
    # a JSON true is no number, although Python compares it equal to 1
    ("fix-a", ("algebra_maps", "g", 0, 0), True),
    ("fix-a", ("format",), True),
    ("fix-c", ("algebras", "S", "dim"), True),
    # a string or an object where an array belongs is no array
    ("fix-a", ("algebras", "x", "unit"), "1001"),
    ("fix-a", ("algebra_maps", "id_x"), ["1000", "0100", "0010", "0001"]),
    ("fix-c", ("algebras", "S", "structure_constants"), ["1"]),
    ("fix-c", ("algebra_maps", "u"), {"1": "1"}),
], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None)
def test_malformed_value_in_a_section_exits_2(tmp_path, capsys, name, path,
                                              value):
    doc = load_bundled(name)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    model = tmp_path / "malformed.json"
    model.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(model))
    assert code == 2
    errors = json.loads(out)["errors"]
    assert errors and all(e.startswith(f"$.{path[0]}") for e in errors)


def non_groupoid_model():
    """Two objects over a point joined by the non-invertible fiber arrow a."""
    one = {"dim": 1, "structure_constants": [[["1"]]], "unit": ["1"]}
    arrows = (("a", "x", "y"), ("id_x", "x", "x"), ("id_y", "y", "y"))
    return {
        "format": 1,
        "metadata": {"name": "non-groupoid"},
        "loc": {"objects": ["pt"],
                "morphisms": [{"name": "i", "source": "pt", "target": "pt"}],
                "identity": {"pt": "i"}, "compose": [["i", "i", "i"]],
                "cauchy": ["i"]},
        "str": {"objects": ["x", "y"],
                "morphisms": [{"name": g, "source": s, "target": t}
                              for g, s, t in arrows],
                "identity": {"x": "id_x", "y": "id_y"},
                "compose": [["a", "id_x", "a"], ["id_y", "a", "a"],
                            ["id_x", "id_x", "id_x"], ["id_y", "id_y", "id_y"]]},
        "projection": {"objects": {"x": "pt", "y": "pt"},
                       "morphisms": {g: "i" for g, _, _ in arrows}},
        "algebras": {"x": one, "y": one},
        "algebra_maps": {g: [["1"]] for g, _, _ in arrows},
    }


@pytest.mark.parametrize("order", ["normal", "reversed"])
@pytest.mark.parametrize("command", ["validate", "axioms"])
def test_non_groupoid_model_exits_2(tmp_path, capsys, command, order):
    path = tmp_path / "non-groupoid.json"
    path.write_text(json.dumps(non_groupoid_model()))
    code, out = run(capsys, command, str(path), "--seed-order", order)
    assert code == 2
    assert json.loads(out)["errors"] == [
        "$.projection: fiber morphism 'a' is not invertible in its fiber"]


def test_requires_exactly_one_source(capsys):
    assert cli.run(["axioms"]) == 2
    assert cli.run(["axioms", "x.json", "--fixture", "fix-a"]) == 2
    capsys.readouterr()


def test_markdown_format(capsys):
    code, out = run(capsys, "classify", "--fixture", "fix-d", "--format", "md")
    assert code == 0
    assert out.startswith("# fibkan classify report")
    assert "| flabby | pass |" in out


def test_validate(capsys):
    code, out = run(capsys, "validate", "--fixture", "fix-e")
    assert code == 0
    assert statuses(out) == {"model-valid": "pass"}


@pytest.mark.parametrize("value", ["-1", "0"])
def test_max_degree_below_one_exits_2(capsys, value):
    assert cli.run(["verify", "--fixture", "fix-a", "--max-degree", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max degree must be at least 1, got {value}\n"


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_max_degree_environment_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("FIBKAN_MAX_DEGREE", value)
    assert cli.run(["verify", "--fixture", "fix-a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_max_degree_one_works(capsys):
    for name in fixture_names():
        code, out = run(capsys, "hokan", "--fixture", name, "--max-degree", "1",
                        *EXPECT.get(name, []))
        assert code == 0, name
        assert "fail" not in statuses(out).values(), name


def test_unknown_fixture_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["axioms", "--fixture", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()
