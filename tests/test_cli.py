import argparse
import ast
import collections
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from fibkan import cli, dg, kan
from fibkan.fincat import FiberedModelError, extension_data, nerve
from fibkan.fixtures import fixture_names, load_bundled
from fibkan.hokan import HoKan
from fibkan.models import model_from_dict
from fibkan.qlinalg import QMatrix, Subspace

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


def cauchy_f_fix_c():
    """fix-c with f declared Cauchy: T over M1 has no extension along f."""
    data = load_bundled("fix-c")
    data["loc"]["cauchy"] = sorted(["id_M", "id_M1", "f"])
    return data


def doubly_closed_arrow():
    """One arrow g: S -> T over a Cauchy f: M1 -> M, with T's fiber BZ2
    (e after e is the identity of T) and e after g = g: g extends S along
    f, and both arrows of T's fiber close the triangle of g with itself."""
    one = {"dim": 1, "structure_constants": [[["1"]]], "unit": ["1"]}

    def cat(objects, arrows, compose):
        return {"objects": objects,
                "morphisms": [{"name": g, "source": s, "target": t}
                              for g, s, t in arrows],
                "identity": {o: f"id_{o}" for o in objects},
                "compose": compose}
    loc = cat(["M", "M1"], [("f", "M1", "M"), ("id_M", "M", "M"),
                            ("id_M1", "M1", "M1")],
              [["f", "id_M1", "f"], ["id_M", "f", "f"],
               ["id_M", "id_M", "id_M"], ["id_M1", "id_M1", "id_M1"]])
    str_cat = cat(["S", "T"], [("g", "S", "T"), ("e", "T", "T"),
                               ("id_S", "S", "S"), ("id_T", "T", "T")],
                  [["id_S", "id_S", "id_S"], ["id_T", "id_T", "id_T"],
                   ["id_T", "e", "e"], ["e", "id_T", "e"], ["e", "e", "id_T"],
                   ["g", "id_S", "g"], ["id_T", "g", "g"], ["e", "g", "g"]])
    return {
        "format": 1,
        "loc": {**loc, "causal_cospans": [], "cauchy": ["f", "id_M", "id_M1"]},
        "str": str_cat,
        "projection": {"objects": {"S": "M1", "T": "M"},
                       "morphisms": {"g": "f", "e": "id_M", "id_S": "id_M1",
                                     "id_T": "id_M"}},
        "algebras": {"S": one, "T": one},
        "algebra_maps": {g: [["1"]] for g in ("g", "e", "id_S", "id_T")},
    }


def timeslice_failure_model():
    """Str equal to the base N -> Np, with f Cauchy, and Q^2 (two orthogonal
    idempotents) at both objects, mapped along f by e0 -> 1, e1 -> 0: a
    valid, strongly Cauchy flabby model whose map over the Cauchy arrow f is
    not invertible, so it breaks time-slice."""
    def cat(objects, arrows):
        ids = {o: f"id_{o}" for o in objects}
        return {"objects": objects,
                "morphisms": [{"name": g, "source": s, "target": t} for g, s, t
                              in arrows + [(i, o, o) for o, i in ids.items()]],
                "identity": ids,
                "compose": [[ids[t], g, g] for g, _, t in arrows]
                + [[g, ids[s], g] for g, s, _ in arrows]
                + [[i, i, i] for i in ids.values()]}
    base = cat(["N", "Np"], [("f", "N", "Np")])
    q2 = {"dim": 2, "unit": ["1", "1"],
          "structure_constants": [[["1", "0"], ["0", "0"]],
                                  [["0", "0"], ["0", "1"]]]}
    return {
        "format": 1,
        "loc": {**base, "causal_cospans": [], "cauchy": ["f", "id_N", "id_Np"]},
        "str": base,
        "projection": {"objects": {"N": "N", "Np": "Np"},
                       "morphisms": {g: g for g in ("f", "id_N", "id_Np")}},
        "algebras": {"N": q2, "Np": q2},
        "algebra_maps": {"f": [["1", "0"], ["1", "0"]],
                         "id_N": [["1", "0"], ["0", "1"]],
                         "id_Np": [["1", "0"], ["0", "1"]]},
    }


@pytest.mark.parametrize("data, counterexamples", [
    (cauchy_f_fix_c(), {"flabby": ["T", "f"], "cauchy-flabby": ["T", "f"],
                        "strongly-cauchy-flabby": ["T", "f"]}),
    (doubly_closed_arrow(), {"flabby": None, "cauchy-flabby": None,
                             "strongly-cauchy-flabby": ["S", "f", "g", "g"]}),
], ids=["fix-c-with-cauchy-f", "doubly-closed-arrow"])
def test_cauchy_flabbiness_failures_block_the_extension(
        capsys, tmp_path, data, counterexamples):
    # a model that is not strongly Cauchy flabby has no extension along its
    # Cauchy arrow, so the phi and phibar checks are blocked
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "classify", str(path))
    assert code == 1
    assert {c["name"]: (c["status"], c["details"])
            for c in json.loads(out)["checks"]} == {
        name: ("pass" if example is None else "violation",
               {"counterexample": example})
        for name, example in counterexamples.items()}
    _, out = run(capsys, "hokan", str(path), "--max-degree", "1")
    byname = {c["name"]: c for c in json.loads(out)["checks"]}
    for name in ("ext-phi-homotopy", "ext-phibar-homotopy"):
        assert byname[name] == {
            "name": name, "status": "blocked",
            "details": {"reason": "model is not strongly Cauchy flabby"}}
    m = model_from_dict(data)
    with pytest.raises(FiberedModelError,
                       match="model is not strongly Cauchy flabby"):
        extension_data(m.fibered(), m.loc, "f")


@pytest.mark.parametrize("order", ["normal", "reversed"])
def test_a_timeslice_failure_blocks_the_extension(capsys, tmp_path, order):
    # the model is strongly Cauchy flabby, but the extension would invert
    # A(f), which is not invertible: the phi and phibar checks are blocked
    path = tmp_path / "model.json"
    path.write_text(json.dumps(timeslice_failure_model()))
    assert run(capsys, "validate", str(path))[0] == 0
    code, out = run(capsys, "classify", str(path), "--seed-order", order)
    assert code == 0
    assert set(statuses(out).values()) == {"pass"}
    code, out = run(capsys, "axioms", str(path), "--seed-order", order)
    assert statuses(out)["qft-timeslice"] == "violation"
    expect = ["--expect", "qft-isotony", "qft-timeslice", "kan-isotony",
              "kan-timeslice"]
    for command in ("hokan", "verify"):
        code, out = run(capsys, command, str(path), "--seed-order", order,
                        "--max-degree", "2", *expect)
        assert code == 0, command
        byname = {c["name"]: c for c in json.loads(out)["checks"]}
        for name in ("ext-phi-homotopy", "ext-phibar-homotopy"):
            assert byname[name] == {
                "name": name, "status": "blocked",
                "details": {"reason": "input functor violates time-slice"}}
    # the expected names split over two --expect flags add up
    assert run(capsys, "verify", str(path), "--seed-order", order,
               "--max-degree", "2", *expect[:3], "--expect",
               *expect[3:]) == (0, out)


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


def test_kan_dimensions_reads_a_violation_on_invariants_of_wrong_dimension(
        capsys, monkeypatch):
    # over M1 of fix-c the functor is fiberwise constant, Q on each of the
    # two components S and T, so the invariants there have dimension 2;
    # invariants that miss the component of T have dimension 1
    argv = ("kan", "--fixture", "fix-c", "--expect", "kan-isotony")
    _, out = run(capsys, *argv)
    assert statuses(out)["kan-dimensions"] == "pass"
    real = kan.u_object

    def without_t(fm, A, M):
        u = real(fm, A, M)
        if M != "M1":
            return u
        assert u.ambient.labels[0] == (("S", 0), ("T", 0))
        return dg.LimDga(A.algebra("S"), u.ambient,
                         Subspace(2, u.subspace.rows[:1], u.subspace.pivots[:1]))

    monkeypatch.setattr(kan, "u_object", without_t)
    code, out = run(capsys, *argv)
    assert code == 1
    byname = {c["name"]: c for c in json.loads(out)["checks"]}
    assert byname["kan-dimensions"] == {
        "name": "kan-dimensions", "status": "violation",
        "details": {"u_dims": {"M": 1, "M1": 1}}}


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
    # the axiom and flabbiness reports are each built once per model, one
    # axiom checker serves the input functor and the induced one, the
    # under-categories once per base object, and the extension data and
    # triangle witnesses once per Cauchy arrow, under every name a module
    # binds them to
    from fibkan import finalg, fincat, hokan
    reports = []
    for name, owner in (("check_axioms_on_str", finalg),
                        ("check_axioms", finalg),
                        ("classify_flabbiness", fincat),
                        ("under_category", fincat),
                        ("extension_data", fincat),
                        ("lemma_witnesses", fincat)):
        real_report = getattr(owner, name)

        def counting_report(*args, name=name, real_report=real_report):
            reports.append(name)
            return real_report(*args)

        for module in (cli, kan, finalg, fincat, hokan):
            if getattr(module, name, None) is real_report:
                monkeypatch.setattr(module, name, counting_report)
    code, out = run(capsys, "verify", "--fixture", "fix-e", "--max-degree", "2")
    assert code == 0
    assert statuses(out)["h0-comparison"] == "pass"
    assert sorted(built) == ["M0", "M1", "M2", "M3"]
    assert collections.Counter(reports) == {
        "check_axioms_on_str": 1, "check_axioms": 2, "classify_flabbiness": 1,
        "under_category": 4, "extension_data": 6, "lemma_witnesses": 6}


def test_verify_scans_the_extensions_of_each_pair_once(capsys, monkeypatch):
    # the flabby and Cauchy scans of the classification and the extension
    # data read one list of the arrows out of S over f per (S, f), built by
    # one scan; every list read is kept here, so no two share an id by reuse
    from fibkan import fincat
    read = collections.defaultdict(list)
    real = fincat._extensions

    def recording(fm, S, f):
        read[(S, f)].append(real(fm, S, f))
        return read[(S, f)][-1]

    monkeypatch.setattr(fincat, "_extensions", recording)
    code, _ = run(capsys, "verify", "--fixture", "fix-e", "--max-degree", "2")
    assert code == 0
    assert len(read) == 10
    assert sum(map(len, read.values())) == 26
    assert {pair: len({id(exts) for exts in lists})
            for pair, lists in read.items()} == dict.fromkeys(read, 1)


def empty_fiber_model(arrow):
    """fix-a with a base object q that no structured object lies over, the
    case of a spacetime with no spin structure; with arrow, also a base
    arrow f: pt -> q, which no arrow of Str lies over."""
    doc = load_bundled("fix-a")
    loc = doc["loc"]
    loc["objects"].append("q")
    loc["identity"]["q"] = "id_q"
    loc["morphisms"].append({"name": "id_q", "source": "q", "target": "q"})
    loc["compose"].append(["id_q", "id_q", "id_q"])
    loc["cauchy"].append("id_q")
    if arrow:
        loc["morphisms"].append({"name": "f", "source": "pt", "target": "q"})
        loc["compose"] += [["f", "id_pt", "f"], ["id_q", "f", "f"]]
    return doc


@pytest.mark.parametrize("degree", ["1", "2", "3"])
@pytest.mark.parametrize("order", ["normal", "reversed"])
def test_an_empty_fiber_gets_the_zero_algebra_on_both_sides(
        capsys, tmp_path, order, degree):
    # the strict and the homotopy limits over the empty fiber and the empty
    # under-category are the zero algebra, whose unit is 0
    path = tmp_path / "empty-fiber.json"
    path.write_text(json.dumps(empty_fiber_model(arrow=False)))
    code, out = run(capsys, "kan", str(path), "--seed-order", order)
    assert code == 0
    byname = {c["name"]: c for c in json.loads(out)["checks"]}
    assert byname["kan-dimensions"]["details"]["u_dims"] == {"pt": 2, "q": 0}
    for command in ("hokan", "verify"):
        code, out = run(capsys, command, str(path), "--seed-order", order,
                        "--max-degree", degree)
        assert code == 0, command
        byname = {c["name"]: c for c in json.loads(out)["checks"]}
        assert byname["dga-structure"] == {
            "name": "dga-structure", "status": "pass", "details": {
                "violation_counts": {"pt": {"fiber": 0, "under": 0},
                                     "q": {"fiber": 0, "under": 0}}}}


@pytest.mark.parametrize("degree", ["1", "2", "3"])
@pytest.mark.parametrize("order", ["normal", "reversed"])
def test_an_arrow_into_an_empty_fiber_breaks_only_flabbiness_and_isotony(
        capsys, tmp_path, order, degree):
    # x has no extension along f, and the induced map along f, into the
    # zero algebra, is not injective; nothing else fails
    path = tmp_path / "arrow-into-empty-fiber.json"
    path.write_text(json.dumps(empty_fiber_model(arrow=True)))
    argv = ("verify", str(path), "--seed-order", order, "--max-degree", degree)
    code, out = run(capsys, *argv)
    assert code == 1
    outcomes = {c["name"]: (c["status"], c.get("details"))
                for c in json.loads(out)["checks"]
                if c["status"] not in ("pass", "blocked")}
    assert outcomes == {
        "flabby": ("violation", {"counterexample": ["x", "f"]}),
        "kan-isotony": ("violation", {"violations": ["f"]})}
    code, _ = run(capsys, *argv, "--expect", "flabby", "kan-isotony")
    assert code == 0


def test_verify_builds_each_cospan_tensor_data_once(capsys, monkeypatch):
    # the product reversal and the commutator homotopy share the tensor
    # squares and the two multiplications of fix-b's one cospan
    built = []
    for name in ("tensor_complex", "mu_map", "muop_map"):
        def counting(*args, name=name, real=getattr(dg, name)):
            built.append(name)
            return real(*args)
        monkeypatch.setattr(dg, name, counting)
    code, _ = run(capsys, "verify", "--fixture", "fix-b", "--max-degree", "2")
    assert code == 0
    assert collections.Counter(built) == {
        "tensor_complex": 2, "mu_map": 1, "muop_map": 1}


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


def run_bench_verify(capsys, name, *argv):
    """verify on a bundled fixture at the bench's degree, with the violations
    the bench expects there."""
    expect = bench_constant("FIXTURE_EXPECT").get(name)
    return run(capsys, "verify", "--fixture", name, "--max-degree",
               str(bench_constant("FIXTURE_DEGREE")), *argv,
               *(["--expect", *expect] if expect else []))


@pytest.mark.parametrize("name", fixture_names())
def test_verify_matches_recorded_bench_digest(capsys, name):
    # the fixtures-verify bench gate as a test: exit code and stdout sha256
    want = json.loads((BENCH / "expected.json").read_text())["fixtures-verify"]
    code, out = run_bench_verify(capsys, name)
    assert [code, hashlib.sha256(out.encode()).hexdigest()] == want[name]


# stdout sha256 of verify --format md --seed-order reversed at the bench's
# degree, recorded before the per-key findings shared one runner
VERIFY_MD_REVERSED = {
    "fix-a": "aaa704d28cac76919da4bb3232a0bf35f770be8f81dc0eb30be2fd791227f533",
    "fix-b": "a7d09d2962d12ad41b38625837e9ea7735185bae405b796365c87c6909776b1b",
    "fix-bprime":
        "c05ff46ff1336db73f7fa88e4694e0766a1c67857beed970de7d355ee69202bb",
    "fix-c": "c3522afb6cee712721d57e620ad3fa52ba8e5e89f13a1b159ff97d595212b11b",
    "fix-d": "ea57365392d16473835f13afb05c3b4f4e0bb98d09f2e0b8a408875c7576f27f",
    "fix-e": "4e7b6d28fcf96edeaa588f18f3d2a00c5dc246d3e811ead39102f1689f8967ec",
}


@pytest.mark.parametrize("name", fixture_names())
def test_verify_markdown_reversed_matches_recorded_digest(capsys, name):
    code, out = run_bench_verify(capsys, name, "--format", "md",
                                 "--seed-order", "reversed")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_MD_REVERSED[name]


def test_failing_checks_are_reported_at_their_key(capsys, monkeypatch):
    # no fixture fails a per-key check: break the comparison isomorphism at
    # one object and one composition homotopy, and read both whole findings
    kappa_iso, gamma2 = kan.kappa_iso, HoKan.gamma2

    def broken_kappa_iso(fm, A, M, ran, u):
        if M == "M2":
            raise kan.KanError(
                "comparison maps do not compose to the identity")
        return kappa_iso(fm, A, M, ran, u)

    def wrong_gamma2(self, f2, f1):
        h = gamma2(self, f2, f1)
        if (f2, f1) != ("f23", "f12"):
            return h
        # d*K + K*d is nonzero in degrees 0 and 1 for this K
        return h + dg.GradedLinearMap(h.source, h.target, -1, {
            1: QMatrix(h.target.dim(0), h.source.dim(1), {(1, 1): 1})})

    monkeypatch.setattr(kan, "kappa_iso", broken_kappa_iso)
    monkeypatch.setattr(HoKan, "gamma2", wrong_gamma2)
    code, out = run(capsys, "verify", "--fixture", "fix-e",
                    "--max-degree", "2")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["kappa-iso"] == {
        "name": "kappa-iso", "status": "fail", "details": {"objects": {
            "M0": "pass", "M1": "pass",
            "M2": "comparison maps do not compose to the identity",
            "M3": "pass"}}}
    assert checks["gamma2-homotopy"] == {
        "name": "gamma2-homotopy", "status": "fail", "details": {"pairs": {
            "f12 after f01": "pass", "f13 after f01": "pass",
            "f23 after f02": "pass",
            "f23 after f12": "failing degrees [0, 1]"}}}
    assert [name for name, c in checks.items() if c["status"] == "fail"] \
        == ["kappa-iso", "gamma2-homotopy"]


def test_gamma2_check_reaches_nonzero_homotopies(capsys, monkeypatch):
    # under the reversed seed order the composition homotopies of fix-e are
    # nonzero at every composable pair, so the finding checks real
    # homotopies there: a zero one fails in every degree it checks
    m = model_from_dict(load_bundled("fix-e"))
    hk = HoKan(m.fibered("reversed"), m.loc, m.A, 4)
    pairs = {" after ".join(t): t for t in nerve(m.loc.base, 2)}
    assert len(pairs) == 4
    for g, f in pairs.values():
        assert any(not h.is_zero() for h in hk.gamma2(g, f).maps.values())
    argv = ("hokan", "--fixture", "fix-e", "--seed-order", "reversed")

    def gamma2_finding():
        _, out = run(capsys, *argv)
        return next(c for c in json.loads(out)["checks"]
                    if c["name"] == "gamma2-homotopy")

    assert gamma2_finding() == {
        "name": "gamma2-homotopy", "status": "pass",
        "details": {"pairs": {key: "pass" for key in pairs}}}
    gamma2 = HoKan.gamma2

    def zero_gamma2(self, g, f):
        h = gamma2(self, g, f)
        return dg.GradedLinearMap.zero(h.source, h.target, h.shift)

    monkeypatch.setattr(HoKan, "gamma2", zero_gamma2)
    assert gamma2_finding() == {
        "name": "gamma2-homotopy", "status": "fail",
        "details": {"pairs": {key: "failing degrees [0, 1, 2, 3]"
                              for key in pairs}}}


def test_failure_messages_stand_as_the_outcome(capsys, monkeypatch):
    # no fixture fails these two checks: a failure reads as its message, not
    # as a list of failing degrees; a held homotopy-equivalence certificate
    # decides the weak equivalence of kappa without dg.is_weak_equivalence,
    # so the certificate is broken too, and the message comes through the
    # kernel route
    monkeypatch.setattr(HoKan, "eta_failures", lambda self, M: [0])
    monkeypatch.setattr(dg, "is_weak_equivalence", lambda f, up_to: False)
    monkeypatch.setattr(HoKan, "h0_subspace",
                        lambda self, M: Subspace(0, (), ()))
    code, out = run(capsys, "verify", "--fixture", "fix-a",
                    "--max-degree", "2")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["kappa-weak-equivalence"] == {
        "name": "kappa-weak-equivalence", "status": "fail",
        "details": {"objects": {"pt": "not a weak equivalence"}}}
    assert checks["h0-comparison"] == {
        "name": "h0-comparison", "status": "fail", "details": {"objects": {
            "pt": "degree-0 cocycles differ from the invariants"}}}


def test_verify_reports_are_byte_identical(capsys):
    _, first = run(capsys, "verify", "--fixture", "fix-d")
    _, second = run(capsys, "verify", "--fixture", "fix-d")
    assert first == second


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # sets of names iterate in an order that PYTHONHASHSEED picks, so a
    # report must come out the same from processes with different seeds
    doc = load_bundled("fix-b")
    doc["loc"]["causal_cospans"] = [["c1", "c2", "id_M1"]]
    model = tmp_path / "three-legs.json"
    model.write_text(json.dumps(doc))
    # three composites missing from Str's table, found in listing order
    dropped = {("f12.e", "f01.e"), ("f13.g", "f01.g"), ("f23.e", "f12.g")}
    doc = load_bundled("fix-e")
    doc["str"]["compose"] = [entry for entry in doc["str"]["compose"]
                             if tuple(entry[:2]) not in dropped]
    gaps = tmp_path / "three-gaps.json"
    gaps.write_text(json.dumps(doc))
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    commands = (("validate", str(model)), ("kan", "--fixture", "fix-b"),
                ("validate", str(gaps)))
    procs = {
        (command, seed): subprocess.Popen(
            [sys.executable, "-m", "fibkan.cli", *command],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)})
        for command in commands for seed in ("0", "3")}
    runs = {key: (proc.communicate()[0], proc.returncode)
            for key, proc in procs.items()}
    for command in commands:
        assert runs[(command, "0")] == runs[(command, "3")], command
    (invalid, invalid_code), (_, kan_code), (missing, missing_code) = (
        runs[(command, "0")] for command in commands)
    assert (invalid_code, kan_code, missing_code) == (2, 0, 2)
    assert json.loads(invalid)["errors"] == [
        "$.loc: causal cospan ['c1', 'c2', 'id_M1'] is not an array of two "
        "morphism names"]
    assert json.loads(missing)["errors"] == [
        f"$.str: composition table missing entry ({g!r},{f!r})"
        for g, f in sorted(dropped)]


def test_one_parser_serves_every_run_in_a_process(capsys, tmp_path):
    # the parser is built once per process: runs with and without --expect,
    # with it repeated, and runs that exit 2, read in one process what fresh
    # processes read
    unreadable = tmp_path / "empty.json"
    unreadable.write_text("{}")
    commands = (("classify", "--fixture", "fix-c", "--expect", "flabby"),
                ("classify", "--fixture", "fix-c"),
                ("validate", str(unreadable)),
                ("kan", "--fixture", "fix-a", "--max-degree", "0"),
                ("classify", "--fixture", "fix-c", "--expect", "flabby",
                 "--expect", "qft-causality"),
                ("classify", "--fixture", "fix-c"),
                ("classify", "--fixture", "fix-c", "--expect", "flabby"))
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    procs = [subprocess.Popen(
        [sys.executable, "-m", "fibkan.cli", *command],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}) for command in commands]
    fresh = []
    for proc in procs:
        out, _ = proc.communicate()
        fresh.append((proc.returncode, out))
    assert [code for code, _ in fresh] == [0, 1, 2, 2, 0, 1, 0]
    assert cli.build_parser() is cli.build_parser()
    assert [run(capsys, *command) for command in commands] == fresh


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


def number_named(doc):
    """doc with the base morphism f renamed to the JSON number 5."""
    loc = doc["loc"]
    for m in loc["morphisms"]:
        if m["name"] == "f":
            m["name"] = 5
    loc["compose"] = [[5 if x == "f" else x for x in entry]
                      for entry in loc["compose"]]
    doc["projection"]["morphisms"] = {
        g: 5 if h == "f" else h
        for g, h in doc["projection"]["morphisms"].items()}
    return doc


def pairs(name, *path):
    """A JSON object of a bundled fixture as an array of [key, value]."""
    node = load_bundled(name)
    for key in path:
        node = node[key]
    return [list(item) for item in node.items()]


def renamed(name, old, new):
    """A bundled fixture with every string old written new."""
    return json.loads(
        json.dumps(load_bundled(name)).replace(f'"{old}"', f'"{new}"'))


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
    # a name is a JSON string, never a number
    ("fix-c", ("loc",), number_named(load_bundled("fix-c"))["loc"]),
    # an array of pairs where an object belongs is no object, and a string
    # of one-letter names is no array
    ("fix-b", ("loc", "identity"), pairs("fix-b", "loc", "identity")),
    ("fix-b", ("str", "identity"), pairs("fix-b", "str", "identity")),
    ("fix-b", ("projection", "objects"),
     pairs("fix-b", "projection", "objects")),
    ("fix-b", ("projection", "morphisms"),
     pairs("fix-b", "projection", "morphisms")),
    (renamed("fix-a", "pt", "p"), ("loc", "objects"), "p"),
    ("fix-a", ("str", "objects"), "x"),
], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None)
def test_malformed_value_in_a_section_exits_2(tmp_path, capsys, name, path,
                                              value):
    # name is a bundled fixture, or a model document itself
    doc = load_bundled(name) if isinstance(name, str) else name
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


@pytest.mark.parametrize(
    "command", ["validate", "axioms", "classify", "kan", "hokan", "verify"])
def test_number_named_morphism_exits_2(tmp_path, capsys, command):
    path = tmp_path / "number.json"
    path.write_text(json.dumps(number_named(load_bundled("fix-c"))))
    code, out = run(capsys, command, str(path), "--max-degree", "2")
    assert code == 2
    assert json.loads(out)["errors"] == [
        "$.loc: malformed category data (name 5 is not a string)"]


@pytest.mark.parametrize("section, entry", [
    # the repeat names another arrow of the hom-set than the table does
    ("str", ["f01.e", "id_M0.e", "f01.g"]),
    # the repeat agrees with the table, and is refused all the same
    ("loc", ["f12", "f01", "f02"]),
])
@pytest.mark.parametrize("position", ["first", "last"])
def test_a_repeated_composition_pair_exits_2(tmp_path, capsys, section,
                                             entry, position):
    # a pair listed twice has no one composite, wherever the repeat stands:
    # a repeat before the table's own entry was once overwritten by it
    doc = load_bundled("fix-e")
    compose = doc[section]["compose"]
    compose.insert(0 if position == "first" else len(compose), entry)
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    g, f, _ = entry
    assert json.loads(out)["errors"] == [
        f"$.{section}: composition entry ({g!r},{f!r}) is listed more than once"]


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


DEFAULT_SETTINGS = {"model": None, "fixture": None, "max_degree": 4,
                    "format": "json", "expect": [], "seed_order": "normal"}


@pytest.mark.parametrize("argv, parsed", [
    (["verify", "--fixture", "fix-a"], {"command": "verify", "fixture": "fix-a"}),
    (["--fixture", "fix-c", "classify"],
     {"command": "classify", "fixture": "fix-c"}),
    (["kan", "m.json"], {"command": "kan", "model": "m.json"}),
    (["hokan", "m.json", "--max-degree", "2", "--format", "md",
      "--seed-order", "reversed", "--expect", "a", "b"],
     {"command": "hokan", "model": "m.json", "max_degree": 2, "format": "md",
      "seed_order": "reversed", "expect": ["a", "b"]}),
    (["--max-degree", "2", "--format", "md", "--seed-order", "reversed",
      "hokan", "m.json", "--expect", "a", "b"],
     {"command": "hokan", "model": "m.json", "max_degree": 2, "format": "md",
      "seed_order": "reversed", "expect": ["a", "b"]}),
    (["verify", "--max-degree", "3", "m.json"],
     {"command": "verify", "model": "m.json", "max_degree": 3}),
    (["axioms", "--fixture", "fix-a", "--expect"],
     {"command": "axioms", "fixture": "fix-a"}),
    (["validate", "--expect", "a", "--", "m.json"],
     {"command": "validate", "model": "m.json", "expect": ["a"]}),
    (["verify", "m.json", "--expect", "a", "--expect", "b", "c"],
     {"command": "verify", "model": "m.json", "expect": ["a", "b", "c"]}),
], ids=["fixture", "options-first", "path", "every-flag-after",
        "every-flag-before", "option-between", "empty-expect", "dash-dash",
        "repeated-expect"])
def test_command_lines_parse_to_their_settings(argv, parsed):
    args = cli.build_parser().parse_intermixed_args(argv)
    assert vars(args) == {**DEFAULT_SETTINGS, **parsed}


@pytest.mark.parametrize("argv", [
    [], ["--fixture", "fix-a"], ["frobnicate", "--fixture", "fix-a"],
    ["verify", "--fixture", "fix-a", "--frobnicate"],
    ["verify", "--fixture", "fix-a", "--max-degree", "x"],
    ["verify", "m.json", "--fixture", "fix-a"], ["verify"],
    ["verify", "--expect", "a", "m.json"], ["verify", "m.json", "n.json"],
], ids=["nothing", "no-command", "unknown-command", "unknown-option",
        "degree-not-a-number", "model-and-fixture", "neither",
        "model-read-as-a-name", "two-models"])
def test_bad_command_lines_exit_2(capsys, argv):
    try:
        code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


def test_options_may_come_before_between_or_after(capsys, tmp_path):
    path = tmp_path / "fix-c.json"
    path.write_text(json.dumps(load_bundled("fix-c")))
    options = ["--format", "md", "--max-degree", "1", "--expect", "flabby"]
    after = run(capsys, "classify", str(path), *options)
    assert after[0] == 0
    assert run(capsys, *options[:4], "classify", str(path),
               *options[4:]) == after
    assert run(capsys, "classify", *options[:4], str(path),
               *options[4:]) == after


def test_one_flat_parser_serves_every_command():
    assert not any(isinstance(action, argparse._SubParsersAction)
                   for action in cli.build_parser()._actions)


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
