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

from . import dg, hokan, kan
from .finalg import check_axioms_on_str
from .fincat import FiberedModelError, classify_flabbiness
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


def checks_axioms(model: Model, order: str, max_degree: int):
    fm = model.fibered(order)
    report = check_axioms_on_str(fm, model.loc, model.A)
    return [
        _finding("qft-isotony", _viol_status(report.isotony),
                 violations=list(report.isotony_violations)),
        _finding("qft-causality", _viol_status(report.causality),
                 violations=[list(v) for v in report.causality_violations]),
        _finding("qft-timeslice", _viol_status(report.timeslice),
                 violations=list(report.timeslice_violations)),
    ]


def checks_classify(model: Model, order: str, max_degree: int):
    fm = model.fibered(order)
    report = classify_flabbiness(fm, model.loc)

    def ce(value):
        return list(value) if value else None

    return [
        _finding("flabby", _viol_status(report.flabby),
                 counterexample=ce(report.flabby_counterexample)),
        _finding("cauchy-flabby", _viol_status(report.cauchy_flabby),
                 counterexample=ce(report.cauchy_counterexample)),
        _finding("strongly-cauchy-flabby",
                 _viol_status(report.strongly_cauchy_flabby),
                 counterexample=ce(report.strong_counterexample)),
    ]


def checks_kan(model: Model, order: str, max_degree: int):
    fm = model.fibered(order)
    out = []
    report = kan.check_induced_axioms(fm, model.loc, model.A)
    out.append(_finding("kan-isotony", _viol_status(report.isotony),
                        violations=list(report.isotony_violations)))
    out.append(_finding("kan-causality", _viol_status(report.causality),
                        violations=[list(v) for v in
                                    report.causality_violations]))
    out.append(_finding("kan-timeslice", _viol_status(report.timeslice),
                        violations=list(report.timeslice_violations)))
    out.append(_finding("kan-functorial", _bool_status(report.functorial)))
    out.append(_finding(
        "kan-dimensions", PASS,
        u_dims={M: report.u_dims[M] for M in sorted(report.u_dims)}))
    if report.isotony_iff_flabby is None:
        out.append(_finding("isotony-iff-flabby", BLOCKED,
                            reason="input functor violates its own axioms"))
    else:
        out.append(_finding("isotony-iff-flabby",
                            _bool_status(report.isotony_iff_flabby)))
    # comparison isomorphism with the under-category limit, both seeds
    kappa_ok = True
    detail = {}
    for M in sorted(model.loc.base.objects):
        try:
            kan.kappa_iso(fm, model.A, M, kan.ran_under(fm, model.A, M),
                          report.u_objects[M])
            detail[M] = PASS
        except kan.KanError as exc:
            kappa_ok = False
            detail[M] = str(exc)
    out.append(_finding("kappa-iso", _bool_status(kappa_ok), objects=detail))
    return out


def _per_object(hk: HoKan, model: Model, check):
    detail = {}
    ok = True
    for M in sorted(model.loc.base.objects):
        bad = check(M)
        detail[M] = PASS if not bad else f"failing degrees {bad}"
        ok = ok and not bad
    return ok, detail


def checks_hokan(model: Model, order: str, max_degree: int):
    fm = model.fibered(order)
    base = model.loc.base
    hk = HoKan(fm, model.loc, model.A, max_degree)
    top = max_degree
    out = []

    flab = classify_flabbiness(fm, model.loc)

    # structural suite on every constructed dg-algebra
    structural = {}
    for M in sorted(base.objects):
        structural[M] = {
            "fiber": len(hk.hou_object(M).dga.violations()),
            "under": len(hk.horan_object(M).dga.violations()),
        }
    ok = all(v["fiber"] == 0 and v["under"] == 0 for v in structural.values())
    out.append(_finding("dga-structure", _bool_status(ok),
                        violation_counts=structural))

    def maps_equal(f, g, up_to):
        return [n for n in range(up_to + 1) if f.matrix(n) != g.matrix(n)]

    ok, detail = _per_object(hk, model, lambda M: maps_equal(
        hk.kappa(M).after(hk.zeta(M)),
        dg.GradedLinearMap.identity(hk.hou_object(M).dga.complex), top))
    out.append(_finding("kappa-zeta-identity", _bool_status(ok),
                        objects=detail))

    ok, detail = _per_object(hk, model, lambda M: dg.check_homotopy_identity(
        hk.zeta(M).after(hk.kappa(M)),
        dg.GradedLinearMap.identity(hk.horan_object(M).dga.complex),
        hk.eta_homotopy(M), top - 1))
    out.append(_finding("eta-homotopy", _bool_status(ok), objects=detail))

    ok, detail = _per_object(hk, model, lambda M: [] if dg.is_weak_equivalence(
        hk.kappa(M), top - 1) else ["not a weak equivalence"])
    out.append(_finding("kappa-weak-equivalence", _bool_status(ok),
                        objects=detail))

    ok, detail = _per_object(hk, model, lambda M: maps_equal(
        hk.rho(M).after(hk.rho(M)),
        dg.GradedLinearMap.identity(hk.hou_object(M).dga.complex), top))
    out.append(_finding("rho-involution", _bool_status(ok), objects=detail))

    ok, detail = _per_object(hk, model, lambda M: dg.check_homotopy_identity(
        hk.rho(M),
        dg.GradedLinearMap.identity(hk.hou_object(M).dga.complex),
        hk.beta_homotopy(M), top - 1))
    out.append(_finding("beta-homotopy", _bool_status(ok), objects=detail))

    ok, detail = _per_object(hk, model, lambda M: maps_equal(
        hk.hou_morphism(base.id_of(M)),
        dg.GradedLinearMap.identity(hk.hou_object(M).dga.complex), top))
    out.append(_finding("hou-identity", _bool_status(ok), objects=detail))

    def h0_check(M):
        return [] if hk.h0_subspace(M) == kan.u_objects(fm, model.A)[M].subspace \
            else ["degree-0 cocycles differ from the invariants"]
    ok, detail = _per_object(hk, model, h0_check)
    out.append(_finding("h0-comparison", _bool_status(ok), objects=detail))

    arrows = sorted(g for g in base.morphisms if not base.is_identity(g))
    pairs = [
        (g, f) for g in arrows for f in arrows if base.source(g) == base.target(f)
    ]
    detail = {}
    ok = True
    for g, f in pairs:
        lhs = hk.hou_morphism(g).after(hk.hou_morphism(f)) \
            - hk.hou_morphism(base.comp(g, f))
        bad = dg.check_homotopy_identity(
            lhs, dg.GradedLinearMap.zero(lhs.source, lhs.target),
            hk.gamma2(g, f), top - 1)
        detail[f"{g} after {f}"] = PASS if not bad else f"failing degrees {bad}"
        ok = ok and not bad
    out.append(_finding("gamma2-homotopy", _bool_status(ok), pairs=detail))

    triples = [
        (h, g, f) for h in arrows for g in arrows for f in arrows
        if base.source(h) == base.target(g) and base.source(g) == base.target(f)
    ]
    detail = {}
    ok = True
    for h, g, f in triples:
        lhs = (hk.gamma2(h, base.comp(g, f))
               + hk.hou_morphism(h).after(hk.gamma2(g, f))
               - hk.gamma2(base.comp(h, g), f)
               - hk.gamma2(h, g).after(hk.hou_morphism(f)))
        bad = check_square_homotopy(lhs, hk.gamma3(h, g, f), top - 2)
        detail[f"{h} after {g} after {f}"] = \
            PASS if not bad else f"failing degrees {bad}"
        ok = ok and not bad
    out.append(_finding("gamma3-coherence", _bool_status(ok), triples=detail))

    cauchy = sorted(f for f in model.loc.cauchy if not base.is_identity(f))
    if not flab.strongly_cauchy_flabby:
        reason = "model is not strongly Cauchy flabby"
        out.append(_finding("ext-phi-homotopy", BLOCKED, reason=reason))
        out.append(_finding("ext-phibar-homotopy", BLOCKED, reason=reason))
    elif not cauchy:
        reason = "no non-identity Cauchy morphisms"
        out.append(_finding("ext-phi-homotopy", BLOCKED, reason=reason))
        out.append(_finding("ext-phibar-homotopy", BLOCKED, reason=reason))
    else:
        phi_detail, phibar_detail = {}, {}
        phi_ok = phibar_ok = True
        for f in cauchy:
            src = hk.hou_object(base.source(f)).dga.complex
            tgt = hk.hou_object(base.target(f)).dga.complex
            ext_star = hk.ext_pullback(f)
            hou_f = hk.hou_morphism(f)
            bad = dg.check_homotopy_identity(
                ext_star.after(hou_f), dg.GradedLinearMap.identity(src),
                hk.phi_homotopy(f), top - 1)
            phi_detail[f] = PASS if not bad else f"failing degrees {bad}"
            phi_ok = phi_ok and not bad
            bad = dg.check_homotopy_identity(
                hou_f.after(ext_star), dg.GradedLinearMap.identity(tgt),
                hk.phibar_homotopy(f), top - 1)
            phibar_detail[f] = PASS if not bad else f"failing degrees {bad}"
            phibar_ok = phibar_ok and not bad
        out.append(_finding("ext-phi-homotopy", _bool_status(phi_ok),
                            morphisms=phi_detail))
        out.append(_finding("ext-phibar-homotopy", _bool_status(phibar_ok),
                            morphisms=phibar_detail))

    cospans = model.loc.cospan_pairs()
    if not cospans:
        out.append(_finding("product-reversal-causality", BLOCKED,
                            reason="no causal cospans declared"))
        out.append(_finding("lambda-homotopy", BLOCKED,
                            reason="no causal cospans declared"))
    else:
        rev_detail, lam_detail = {}, {}
        rev_ok = True
        lam_ok = True
        lam_blocked = False
        for f1, f2 in cospans:
            key = f"({f1},{f2})"
            bad = hk.product_reversal_identity(f1, f2, top)
            rev_detail[key] = PASS if not bad else f"failing degrees {bad}"
            rev_ok = rev_ok and not bad
            if bad:
                lam_detail[key] = "blocked: product reversal fails"
                lam_blocked = True
                continue
            bad = hk.lambda_causality(f1, f2, top - 1)
            lam_detail[key] = PASS if not bad else f"failing degrees {bad}"
            lam_ok = lam_ok and not bad
        out.append(_finding("product-reversal-causality",
                            _viol_status(rev_ok), cospans=rev_detail))
        if lam_blocked:
            out.append(_finding("lambda-homotopy", BLOCKED, cospans=lam_detail))
        else:
            out.append(_finding("lambda-homotopy", _bool_status(lam_ok),
                                cospans=lam_detail))
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


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--max-degree", type=int, default=None,
                       help="truncation degree, at least 1 "
                            "(default: FIBKAN_MAX_DEGREE or 4)")
        p.add_argument("--format", choices=("json", "md"), default="json")
        p.add_argument("--expect", nargs="*", default=[],
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
        max_degree = hokan.check_max_degree(
            hokan.default_max_degree() if args.max_degree is None
            else args.max_degree)
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
