"""Tests of the benchmark's own code: generator, tracer and correctness gate.

Run from the root of a checkout: python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import pathlib
import sys
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import fibtrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from chainmodel import GROUPS, chain_dict, chain_json  # noqa: E402
from tracer import Tracer  # noqa: E402

from fibkan import dg, hokan, qlinalg  # noqa: E402
from fibkan.models import model_from_dict  # noqa: E402


# --- generator -------------------------------------------------------------------


@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("n", range(2, 13))
def test_chain_models_validate(n, group):
    model = model_from_dict(chain_dict(n, group, seed=n))
    assert len(model.loc.base.objects) == n
    assert len(model.loc.base.morphisms) == n * (n + 1) // 2
    assert len(model.strcat.morphisms) == \
        n * (n + 1) // 2 * len(GROUPS[group][1])


def test_chain_json_is_deterministic():
    assert chain_json(5, "S3", seed=7) == chain_json(5, "S3", seed=7)
    assert chain_json(5, "S3") == chain_json(5, "S3")


def test_seed_only_permutes_listing_order():
    canonical = chain_dict(4, "Z3")
    permuted = chain_dict(4, "Z3", seed=3)
    assert permuted != canonical
    for key in ("loc", "str"):
        for field in ("objects", "morphisms", "compose"):
            lists = (canonical[key][field], permuted[key][field])
            assert sorted(map(json.dumps, lists[0])) == \
                sorted(map(json.dumps, lists[1]))
            canonical[key][field] = permuted[key][field] = None
    assert permuted == canonical


# --- tracer --------------------------------------------------------------------


def test_self_time_of_nested_calls():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        inner()
        inner()
        now[0] += 3.0

    inner = tracer.span("inner", inner)
    outer = tracer.span("outer", outer)
    outer()
    assert tracer.self_times() == {"outer": 4.0, "inner": 4.0}
    assert tracer.calls == {"outer": 1, "inner": 2}
    durations = {sid: end - start for sid, _, _, start, end in tracer.spans}
    parents = {name: parent for _, parent, name, _, _ in tracer.spans}
    outer_id = next(sid for sid, _, name, _, _ in tracer.spans if name == "outer")
    assert parents == {"inner": outer_id, "outer": 0}
    assert durations[outer_id] == 8.0


def test_calls_nested_in_same_name_count_once():
    tracer = Tracer()
    inner = tracer.span("group", lambda: None, size=lambda: 5)
    outer = tracer.span("group", lambda: inner(), size=lambda: 7)
    outer()
    assert tracer.calls["group"] == 1
    assert tracer.entries["group"] == 7


def test_install_rebinds_every_reference_and_uninstalls():
    def target():
        return "original"

    home = types.ModuleType("home")
    user = types.ModuleType("user")
    home.target = user.alias = target
    user.TABLE = {"run": [target]}
    tracer = Tracer()
    wrapper = tracer.span("target", target)
    tracer.install_function(target, wrapper, [home, user])
    assert home.target is wrapper and user.alias is wrapper
    assert user.TABLE["run"] == [wrapper]
    assert user.TABLE["run"][0]() == "original"
    tracer.uninstall()
    assert home.target is target and user.alias is target
    assert user.TABLE["run"] == [target]


def test_fibkan_wrappers_reach_import_time_bindings():
    original = qlinalg.kernel_basis
    tracer = Tracer()
    complexes = fibtrace.install(tracer)
    try:
        assert dg.kernel_basis is qlinalg.kernel_basis is not original
        assert hokan.kernel_basis is qlinalg.kernel_basis
        model = model_from_dict(chain_dict(2, "Z2"))
        hk = hokan.HoKan(model.fibered(), model.loc, model.A, 2)
        cx = hk.horan_object("M0").dga.complex
        assert dg.cohomology_dim(cx, 1) == 0
    finally:
        tracer.uninstall()
    assert qlinalg.kernel_basis is original and dg.kernel_basis is original
    numbers = fibtrace.layer_numbers(tracer, complexes)
    assert numbers["dg.cohomology_dim.calls"] == 1
    assert numbers["qlinalg.elim.calls"] == 2  # kernel and coboundary space
    assert numbers["dg.holim_dgalg.calls"] == 1
    assert numbers["dg.coboundary_space.reuse_ratio"] == 1.0
    assert numbers["size.cochain_dim.d0"] >= cx.dim(0)
    assert "dg.Dga.violations.calls" not in numbers


# --- aggregation ---------------------------------------------------------------


def test_wall_ref_takes_each_item_at_its_fastest():
    passes = [{"item_s": [1.0, 4.0], "ref_s": 0.5},
              {"item_s": [2.0, 3.0], "ref_s": 0.25}]
    assert run.fastest_pass_s(passes) == 4.0
    assert run.wall_ref(passes) == 16.0


def test_tail_percentile_needs_ten_samples_above_it():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(20))) == (50.0, 9)


# --- correctness gate ----------------------------------------------------------


def test_gate_flags_an_altered_report_digest(tmp_path):
    spec = workloads.prepare_fixtures_verify(1, tmp_path)
    argv = dict(spec["argv"])["fix-a"]
    expected = workloads.expected_outputs("fixtures-verify")["fix-a"]
    output = workloads.run_cli(argv)
    assert workloads.cli_gate(expected)(output) is None
    code, digest = expected
    altered = [code, ("0" if digest[0] != "0" else "1") + digest[1:]]
    assert workloads.cli_gate(altered)(output) is not None
    assert workloads.cli_gate([1, digest])(output) is not None


def test_cohomology_gates(tmp_path):
    spec = workloads._prepare_chains(1, tmp_path, [("Z2", 2, 2)])
    items = workloads.cohomology_items(spec)
    assert [label.rsplit(":", 1)[1] for label, _, _ in items] == \
        ["build", "weak-equivalence", "cohomology"] * 2
    outputs = [call() for _, call, _ in items]
    assert all(check(out) is None for (_, _, check), out in zip(items, outputs))
    (_, _, is_complex), (_, _, is_true), (_, _, maschke) = items[:3]
    built, _, dims = outputs[:3]
    assert is_true(False) is not None
    assert maschke([dims[0] + 1] + dims[1:]) is not None
    assert maschke(dims[:1] + [1]) is not None
    broken = dg.Complex(1, {0: ("a",), 1: ("b",)}, {0: qlinalg.QMatrix(2, 1)})
    assert is_complex(built) is None and is_complex([broken]) is not None
