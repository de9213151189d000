"""Command line interface: deterministic machine-checked reports.

Commands take a model (bundled fixture or JSON file), run a family of exact
checks, and emit a report whose JSON form is byte-identical across runs.
Exit code 0 means every hard assertion passed and every violated model
property was declared via --expect; 1 means an unexpected outcome; 2 means
the input could not be parsed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import dg, hokan, kan
from .finalg import axiom_report
from .fincat import FiberedModelError, flabbiness_report, nerve
from .fixtures import fixture_names, load_bundled
from .hokan import HoKan, check_square_homotopy
from .models import Model, ModelError, model_from_dict, parse_model

PASS = "pass"
FAIL = "fail"          # a theorem-level assertion broke; never expected
VIOLATION = "violation"  # a model property does not hold; may be expected
BLOCKED = "blocked"    # prerequisites failed, check not meaningful


def _finding(name, status, **details):
    out = {"name": name, "status": status}
    if details:
        out["details"] = {k: v for k, v in sorted(details.items())}
    return out


def _bool_status(ok):
    return PASS if ok else FAIL


def _viol_status(ok):
    return PASS if ok else VIOLATION


# --- per-command check runners ----------------------------------------------


def _axiom_findings(prefix, report):
    return [
        _finding(f"{prefix}-isotony", _viol_status(report.isotony),
                 violations=list(report.isotony_violations)),
        _finding(f"{prefix}-causality", _viol_status(report.causality),
                 violations=[list(v) for v in report.causality_violations]),
        _finding(f"{prefix}-timeslice", _viol_status(report.timeslice),
                 violations=list(report.timeslice_violations)),
    ]


def checks_axioms(model: Model, order: str, max_degree: int):
    return _axiom_findings(
        "qft", axiom_report(model.fibered(order), model.loc, model.A))


def checks_classify(model: Model, order: str, max_degree: int):
    report = flabbiness_report(model.fibered(order), model.loc)
    return [
        _finding(name, _viol_status(ok),
                 counterexample=list(example) if example else None)
        for name, ok, example in (
            ("flabby", report.flabby, report.flabby_counterexample),
            ("cauchy-flabby", report.cauchy_flabby,
             report.cauchy_counterexample),
            ("strongly-cauchy-flabby", report.strongly_cauchy_flabby,
             report.strong_counterexample))
    ]


def _per_key(name, kind, keys, check, failed=FAIL):
    """The finding name with its outcome under kind at each key.

    check(key) gives what fails at the key: a list of failing degrees, or a
    message that stands as the outcome there. An empty list or None means
    the key passes. The finding reads failed if any key does not pass.
    """
    detail = {}
    for key in keys:
        bad = check(key)
        detail[key] = (PASS if not bad else bad if isinstance(bad, str)
                       else f"failing degrees {bad}")
    ok = all(v == PASS for v in detail.values())
    return _finding(name, PASS if ok else failed, **{kind: detail})


def checks_kan(model: Model, order: str, max_degree: int):
    fm = model.fibered(order)
    report = kan.check_induced_axioms(fm, model.loc, model.A)
    out = _axiom_findings("kan", report.axioms)
    out.append(_finding("kan-functorial", _bool_status(report.functorial)))
    # the invariants of a fiberwise-constant functor have a known dimension
    dims_ok = all(
        kan.pullback_dimension_check(fm, model.A, M, u) is not False
        for M, u in kan.u_objects(fm, model.A).items())
    out.append(_finding("kan-dimensions", _viol_status(dims_ok),
                        u_dims=report.u_dims))
    if report.isotony_iff_flabby is None:
        out.append(_finding("isotony-iff-flabby", BLOCKED,
                            reason="input functor violates its own axioms"))
    else:
        out.append(_finding("isotony-iff-flabby",
                            _bool_status(report.isotony_iff_flabby)))

    # comparison isomorphism with the under-category limit, both seeds
    def kappa_failure(M):
        try:
            kan.kappa_iso(fm, model.A, M, kan.ran_under(fm, model.A, M),
                          kan.u_objects(fm, model.A)[M])
        except kan.KanError as exc:
            return str(exc)

    out.append(_per_key("kappa-iso", "objects",
                        sorted(model.loc.base.objects), kappa_failure))
    return out


def checks_hokan(model: Model, order: str, max_degree: int):
    fm = model.fibered(order)
    base = model.loc.base
    hk = HoKan(fm, model.loc, model.A, max_degree)
    top = max_degree
    out = []

    objects = sorted(base.objects)
    flab = flabbiness_report(fm, model.loc)

    # structural suite on every constructed dg-algebra
    structural = {M: {"fiber": len(hk.hou_object(M).dga.violations()),
                      "under": len(hk.horan_object(M).dga.violations())}
                  for M in objects}
    ok = all(v["fiber"] == 0 and v["under"] == 0 for v in structural.values())
    out.append(_finding("dga-structure", _bool_status(ok),
                        violation_counts=structural))

    def identity(M):
        return dg.GradedLinearMap.identity(hk.hou_object(M).dga.complex)

    per_object = {
        "kappa-zeta-identity": hk.kappa_zeta_failures,
        "eta-homotopy": hk.eta_failures,
        "kappa-weak-equivalence": lambda M: None
        if hk.kappa_is_weak_equivalence(M) else "not a weak equivalence",
        "rho-involution": lambda M: dg.failing_degrees(
            hk.rho(M).after(hk.rho(M)), identity(M), top),
        "beta-homotopy": lambda M: dg.check_homotopy_identity(
            hk.rho(M), identity(M), hk.beta_homotopy(M), top - 1),
        "hou-identity": lambda M: dg.failing_degrees(
            hk.hou_morphism(base.id_of(M)), identity(M), top),
        "h0-comparison": lambda M: None if hk.h0_subspace(M)
        == kan.u_objects(fm, model.A)[M].subspace
        else "degree-0 cocycles differ from the invariants",
    }
    out.extend(_per_key(name, "objects", objects, check)
               for name, check in per_object.items())

    pairs = {" after ".join(t): t for t in nerve(base, 2)}

    def gamma2_check(key):
        g, f = pairs[key]
        lhs = hk.hou_morphism(g).after(hk.hou_morphism(f)) \
            - hk.hou_morphism(base.comp(g, f))
        return dg.check_homotopy_identity(
            lhs, dg.GradedLinearMap.zero(lhs.source, lhs.target),
            hk.gamma2(g, f), top - 1)
    out.append(_per_key("gamma2-homotopy", "pairs", pairs, gamma2_check))

    triples = {" after ".join(t): t for t in nerve(base, 3)}

    def gamma3_check(key):
        h, g, f = triples[key]
        lhs = (hk.gamma2(h, base.comp(g, f))
               + hk.hou_morphism(h).after(hk.gamma2(g, f))
               - hk.gamma2(base.comp(h, g), f)
               - hk.gamma2(h, g).after(hk.hou_morphism(f)))
        return check_square_homotopy(lhs, hk.gamma3(h, g, f), top - 2)
    out.append(_per_key("gamma3-coherence", "triples", triples, gamma3_check))

    cauchy = sorted(f for f in model.loc.cauchy if not base.is_identity(f))
    if not flab.strongly_cauchy_flabby or not cauchy:
        reason = ("no non-identity Cauchy morphisms"
                  if flab.strongly_cauchy_flabby
                  else "model is not strongly Cauchy flabby")
        out.extend(_finding(name, BLOCKED, reason=reason)
                   for name in ("ext-phi-homotopy", "ext-phibar-homotopy"))
    else:
        out.append(_per_key(
            "ext-phi-homotopy", "morphisms", cauchy,
            lambda f: dg.check_homotopy_identity(
                hk.ext_pullback(f).after(hk.hou_morphism(f)),
                identity(base.source(f)), hk.phi_homotopy(f), top - 1)))
        out.append(_per_key(
            "ext-phibar-homotopy", "morphisms", cauchy,
            lambda f: dg.check_homotopy_identity(
                hk.hou_morphism(f).after(hk.ext_pullback(f)),
                identity(base.target(f)), hk.phibar_homotopy(f), top - 1)))

    cospans = {f"({f1},{f2})": (f1, f2) for f1, f2 in model.loc.causal_cospans}
    if not cospans:
        out.extend(_finding(name, BLOCKED, reason="no causal cospans declared")
                   for name in ("product-reversal-causality",
                                "lambda-homotopy"))
        return out
    reversal = {key: hk.product_reversal_identity(*legs, top)
                for key, legs in cospans.items()}
    out.append(_per_key("product-reversal-causality", "cospans", cospans,
                        reversal.get, VIOLATION))
    # the commutator homotopy is built on the product reversal
    blocked = {key for key, bad in reversal.items() if bad}
    out.append(_per_key(
        "lambda-homotopy", "cospans", cospans,
        lambda key: "blocked: product reversal fails" if key in blocked
        else hk.lambda_causality(*cospans[key], top - 1),
        BLOCKED if blocked else FAIL))
    return out


COMMANDS = {
    "axioms": [checks_axioms],
    "classify": [checks_classify],
    "kan": [checks_kan],
    "hokan": [checks_hokan],
    "verify": [checks_axioms, checks_classify, checks_kan, checks_hokan],
}


# --- report rendering ---------------------------------------------------------


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_markdown(report: dict) -> str:
    lines = [
        f"# {report['tool']} {report['command']} report",
        "",
        f"- model: {report['model']}",
        f"- max degree: {report['max_degree']}",
        f"- seed order: {report['seed_order']}",
        "",
        "| check | status |",
        "| --- | --- |",
    ]
    for finding in report["checks"]:
        lines.append(f"| {finding['name']} | {finding['status']} |")
    lines.append("")
    for finding in report["checks"]:
        details = finding.get("details")
        if details:
            lines.append(f"## {finding['name']}")
            lines.append("")
            lines.append("```json")
            lines.append(json.dumps(details, indent=2, sort_keys=True))
            lines.append("```")
            lines.append("")
    return "\n".join(lines) + "\n"


def _exit_code(checks, expect):
    expect = set(expect)
    violated = {c["name"] for c in checks if c["status"] == VIOLATION}
    if any(c["status"] == FAIL for c in checks):
        return 1
    if violated - expect:
        return 1
    return 0


# --- argument handling --------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it
    is, and no run changes a default it returns (--expect's is a tuple)."""
    parser = argparse.ArgumentParser(
        prog="fibkan",
        description="exact checks for algebra-valued functors on fibered "
                    "categories and their (homotopy) extensions to the base",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "axioms", "classify", "kan", "hokan", "verify"):
        p = sub.add_parser(name)
        p.add_argument("model", nargs="?", help="path to a model JSON file")
        p.add_argument("--fixture", choices=fixture_names(),
                       help="use a bundled example model")
        p.add_argument("--max-degree", type=int, default=4,
                       help="truncation degree, at least 1 (default: 4)")
        p.add_argument("--format", choices=("json", "md"), default="json")
        p.add_argument("--expect", nargs="*", default=(),
                       metavar="CHECK",
                       help="names of checks expected to report a violation")
        p.add_argument("--seed-order", choices=("normal", "reversed"),
                       default="normal",
                       help="tie-break order for the chosen cartesian lifts")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if bool(args.model) == bool(args.fixture):
        print("error: provide exactly one of a model path or --fixture",
              file=sys.stderr)
        return 2
    try:
        max_degree = hokan.check_max_degree(args.max_degree)
    except hokan.HoKanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.fixture:
            model = model_from_dict(load_bundled(args.fixture))
            source = f"fixture:{args.fixture}"
        else:
            model = parse_model(args.model)
            source = args.model
    except ModelError as exc:
        print(render_json({
            "tool": "fibkan",
            "command": args.command,
            "model": args.fixture or args.model,
            "errors": exc.errors,
        }), end="")
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        checks = [_finding("model-valid", PASS, source=source)]
    else:
        checks = []
        try:
            for runner in COMMANDS[args.command]:
                checks.extend(runner(model, args.seed_order, max_degree))
        except FiberedModelError as exc:
            checks.append(_finding("fibered-model", FAIL, error=str(exc)))

    report = {
        "tool": "fibkan",
        "command": args.command,
        "model": model.name,
        "max_degree": max_degree,
        "seed_order": args.seed_order,
        "checks": checks,
        "summary": {
            status: sum(1 for c in checks if c["status"] == status)
            for status in (PASS, FAIL, VIOLATION, BLOCKED)
        },
    }
    if args.format == "json":
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(render_markdown(report))
    return _exit_code(checks, args.expect)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
