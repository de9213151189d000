"""The benchmark's workloads.

A workload has two halves:

- ``prepare(seed, workdir)`` runs once per benchmark run, in the parent. It
  writes the inputs made from the seed into ``workdir``, validates every
  model through ``fibkan.models.model_from_dict`` and returns a JSON-able
  spec;
- ``items(spec)`` runs at the start of every pass, in a fresh worker
  process. It returns ``(label, call, check)`` triples: ``call()`` is the
  timed call into fibkan, and ``check(output)`` is the correctness gate,
  returning ``None`` or a reason the output is wrong. The gate runs after the
  timed region.

A seed only permutes the listing order of objects, morphisms and composition
entries in the model files; fibkan's reports do not depend on that order.

fibkan is imported inside the functions, so that the runner can report
missing sources before anything imports the library.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib

from chainmodel import chain_dict, permute_listing

BENCH_DIR = pathlib.Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

FIXTURE_DEGREE = 2
FIXTURE_EXPECT = {
    "fix-bprime": ["qft-causality", "product-reversal-causality"],
    "fix-c": ["flabby", "cauchy-flabby", "strongly-cauchy-flabby", "kan-isotony"],
}
COHOMOLOGY_MODELS = (("Z2", 4, 3), ("Z3", 2, 3))  # (group, chain length, degree)
COHERENCE_MODEL = ("Z2", 6, 2)
STRICT_MODEL = ("S3", 4)
STRICT_COMMANDS = ("axioms", "classify", "kan")


def _write_model(workdir, name, model):
    from fibkan.models import model_from_dict

    model_from_dict(model)  # raises ModelError on an invalid model
    path = pathlib.Path(workdir) / f"{name}.json"
    path.write_text(json.dumps(model, sort_keys=True) + "\n")
    return str(path)


# --- CLI workloads: exit code and report digest --------------------------------


def run_cli(argv):
    """(exit code, sha256 of stdout) of one ``fibkan.cli.run`` call."""
    from fibkan import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def cli_gate(expected):
    """Gate for a CLI item: exit code and report digest must match."""
    want = tuple(expected)

    def check(output):
        if tuple(output) != want:
            return f"got exit {output[0]} digest {output[1][:12]}, " \
                   f"want exit {want[0]} digest {want[1][:12]}"
        return None

    return check


def _cli_items(spec, expected):
    items = []
    for label, argv in spec["argv"]:
        items.append((label, lambda argv=argv: run_cli(argv),
                      cli_gate(expected[label])))
    return items


def prepare_fixtures_verify(seed, workdir):
    from fibkan.fixtures import fixture_names, load_bundled

    argv = []
    for name in fixture_names():
        path = _write_model(workdir, name,
                            permute_listing(load_bundled(name), seed))
        expect = FIXTURE_EXPECT.get(name)
        argv.append((name, ["verify", path, "--max-degree", str(FIXTURE_DEGREE),
                            *(["--expect", *expect] if expect else [])]))
    return {"argv": argv}


def prepare_chain_strict(seed, workdir):
    group, n = STRICT_MODEL
    path = _write_model(workdir, f"chain-{n}-{group}", chain_dict(n, group, seed))
    return {"argv": [(c, [c, path]) for c in STRICT_COMMANDS]}


def expected_outputs(workload):
    return json.loads(EXPECTED_PATH.read_text())[workload]


# --- library workloads ---------------------------------------------------------


def _prepare_chains(seed, workdir, models):
    return {"models": [
        (_write_model(workdir, f"chain-{n}-{group}", chain_dict(n, group, seed)),
         degree)
        for group, n, degree in models]}


def prepare_chain_cohomology(seed, workdir):
    return _prepare_chains(seed, workdir, COHOMOLOGY_MODELS)


def prepare_chain_coherence(seed, workdir):
    return _prepare_chains(seed, workdir, [COHERENCE_MODEL])


def _hokan(path, degree):
    from fibkan.hokan import HoKan
    from fibkan.models import model_from_dict

    model = model_from_dict(json.loads(pathlib.Path(path).read_text()))
    fm = model.fibered()
    return model, fm, HoKan(fm, model.loc, model.A, degree)


def cohomology_items(spec):
    """Three items per base object: build both cochain algebras, test that
    kappa is a weak equivalence, and compute the under-category cohomology
    below the truncation degree. Gates: the built cochains form complexes
    (d after d is zero), kappa is a weak equivalence, and Maschke's theorem
    (H^0 = fiber invariants, H^n = 0 for n >= 1), with the invariants taken
    from the strict extension in ``kan``."""
    from fibkan import dg, kan

    def is_complex(complexes):
        return "; ".join(v for cx in complexes for v in cx.violations()) or None

    def is_true(ok):
        return None if ok else "kappa is not a weak equivalence"

    items = []
    for path, degree in spec["models"]:
        model, fm, hk = _hokan(path, degree)
        for M in sorted(model.loc.base.objects):
            def build(hk=hk, M=M):
                return (hk.hou_object(M).dga.complex,
                        hk.horan_object(M).dga.complex)

            def weak_equivalence(hk=hk, M=M, degree=degree):
                return dg.is_weak_equivalence(hk.kappa(M), degree - 1)

            def cohomology(hk=hk, M=M, degree=degree):
                cx = hk.horan_object(M).dga.complex
                return [dg.cohomology_dim(cx, n) for n in range(degree)]

            def maschke(dims, fm=fm, A=model.A, M=M, degree=degree):
                want = [kan.u_object(fm, A, M).dim] + [0] * (degree - 1)
                if dims != want:
                    return f"cohomology dims {dims}, Maschke oracle {want}"
                return None

            label = f"{model.name}:{M}"
            items += [(f"{label}:build", build, is_complex),
                      (f"{label}:weak-equivalence", weak_equivalence, is_true),
                      (f"{label}:cohomology", cohomology, maschke)]
    return items


def _empty_list(output):
    return None if output == [] else f"failing degrees {output}"


def coherence_items(spec):
    """The homotopy identities of ``cli.checks_hokan`` without the structure
    suite or cohomology: eta and beta per object, gamma2 per composable pair,
    gamma3 per composable triple, phi and phibar per arrow. Gate: every
    identity reports no failing degree."""
    from fibkan import dg
    from fibkan.hokan import check_square_homotopy

    (path, degree), = spec["models"]
    model, fm, hk = _hokan(path, degree)
    base = model.loc.base
    top = degree
    identity = dg.GradedLinearMap.identity
    items = []
    for M in sorted(base.objects):
        items.append((f"eta:{M}", lambda M=M: dg.check_homotopy_identity(
            hk.zeta(M).after(hk.kappa(M)),
            identity(hk.horan_object(M).dga.complex),
            hk.eta_homotopy(M), top - 1), _empty_list))
        items.append((f"beta:{M}", lambda M=M: dg.check_homotopy_identity(
            hk.rho(M), identity(hk.hou_object(M).dga.complex),
            hk.beta_homotopy(M), top - 1), _empty_list))
    arrows = sorted(g for g in base.morphisms if not base.is_identity(g))
    for g in arrows:
        for f in arrows:
            if base.source(g) != base.target(f):
                continue

            def gamma2(g=g, f=f):
                lhs = hk.hou_morphism(g).after(hk.hou_morphism(f)) \
                    - hk.hou_morphism(base.comp(g, f))
                return dg.check_homotopy_identity(
                    lhs, dg.GradedLinearMap.zero(lhs.source, lhs.target),
                    hk.gamma2(g, f), top - 1)

            items.append((f"gamma2:{g}:{f}", gamma2, _empty_list))
    for h in arrows:
        for g in arrows:
            for f in arrows:
                if base.source(h) != base.target(g) \
                        or base.source(g) != base.target(f):
                    continue

                def gamma3(h=h, g=g, f=f):
                    lhs = (hk.gamma2(h, base.comp(g, f))
                           + hk.hou_morphism(h).after(hk.gamma2(g, f))
                           - hk.gamma2(base.comp(h, g), f)
                           - hk.gamma2(h, g).after(hk.hou_morphism(f)))
                    return check_square_homotopy(lhs, hk.gamma3(h, g, f), top - 2)

                items.append((f"gamma3:{h}:{g}:{f}", gamma3, _empty_list))
    for f in arrows:
        def phi(f=f):
            src = hk.hou_object(base.source(f)).dga.complex
            return dg.check_homotopy_identity(
                hk.ext_pullback(f).after(hk.hou_morphism(f)), identity(src),
                hk.phi_homotopy(f), top - 1)

        def phibar(f=f):
            tgt = hk.hou_object(base.target(f)).dga.complex
            return dg.check_homotopy_identity(
                hk.hou_morphism(f).after(hk.ext_pullback(f)), identity(tgt),
                hk.phibar_homotopy(f), top - 1)

        items.append((f"phi:{f}", phi, _empty_list))
        items.append((f"phibar:{f}", phibar, _empty_list))
    return items


class Workload:
    def __init__(self, prepare, items):
        self.prepare = prepare
        self.items = items


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "fixtures-verify": Workload(
        prepare_fixtures_verify,
        lambda spec: _cli_items(spec, expected_outputs("fixtures-verify"))),
    "chain-cohomology": Workload(prepare_chain_cohomology, cohomology_items),
    "chain-coherence": Workload(prepare_chain_coherence, coherence_items),
    "chain-strict": Workload(
        prepare_chain_strict,
        lambda spec: _cli_items(spec, expected_outputs("chain-strict"))),
}
