"""Bundled example models, generated programmatically and shipped as JSON.

Each fixture is a complete model dictionary in the CLI file format: a base
category with causal/Cauchy annotations, a structured category, a projection
functor, and an algebra assignment.
"""

from __future__ import annotations

import json
from importlib import resources


def _category(objects, morphisms, compose_rule):
    """Build a category dict; compose_rule(g, f) names g after f.

    morphisms: list of (name, source, target) excluding identities; identity
    of obj X is named "id_" + X. compose_rule receives full morphism records.
    """
    morph = {f"id_{obj}": (obj, obj) for obj in objects}
    for name, src, tgt in morphisms:
        morph[name] = (src, tgt)
    compose = []
    for g, (gs, gt) in morph.items():
        for f, (fs, ft) in morph.items():
            if gs != ft:
                continue
            if g == f"id_{gs}":
                h = f
            elif f == f"id_{fs}":
                h = g
            else:
                h = compose_rule(g, f)
            compose.append([g, f, h])
    return {
        "objects": list(objects),
        "morphisms": [
            {"name": name, "source": src, "target": tgt}
            for name, (src, tgt) in sorted(morph.items())
        ],
        "identity": {obj: f"id_{obj}" for obj in objects},
        "compose": sorted(compose),
    }


def _chain_category(n):
    """Poset chain M0 -> ... -> M{n-1}; morphism Mi -> Mj is f{i}{j}."""
    objects = [f"M{i}" for i in range(n)]
    morphisms = [
        (f"f{i}{j}", f"M{i}", f"M{j}")
        for i in range(n) for j in range(i + 1, n)
    ]

    def rule(g, f):
        i = f[1]
        j = g[2]
        return f"f{i}{j}"

    return _category(objects, morphisms, rule)


def _cross_z2(loc):
    """The structured category Loc x Z2 over a base category dict."""
    endpoints = {m["name"]: (m["source"], m["target"]) for m in loc["morphisms"]}
    identities = set(loc["identity"].values())
    objects = list(loc["objects"])
    morph = {}
    for name, (src, tgt) in endpoints.items():
        for z in ("e", "g"):
            morph[f"{name}.{z}"] = (src, tgt, name, z)
    compose = []
    base_comp = {(g, f): h for g, f, h in loc["compose"]}
    for gname, (gs, gt, gb, gz) in morph.items():
        for fname, (fs, ft, fb, fz) in morph.items():
            if gs != ft:
                continue
            z = "e" if gz == fz else "g"
            compose.append([gname, fname, f"{base_comp[(gb, fb)]}.{z}"])
    return {
        "objects": objects,
        "morphisms": [
            {"name": name, "source": src, "target": tgt}
            for name, (src, tgt, _, _) in sorted(morph.items())
        ],
        "identity": {obj: f"{loc['identity'][obj]}.e" for obj in objects},
        "compose": sorted(compose),
    }, {name: base for name, (_, _, base, _) in morph.items()}


# --- algebra blocks -------------------------------------------------------

_M2 = {
    # basis E11, E12, E21, E22 of the 2x2 matrix algebra
    "dim": 4,
    "structure_constants": [
        [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0"] * 4, ["0"] * 4],
        [["0"] * 4, ["0"] * 4, ["1", "0", "0", "0"], ["0", "1", "0", "0"]],
        [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["0"] * 4, ["0"] * 4],
        [["0"] * 4, ["0"] * 4, ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    ],
    "unit": ["1", "0", "0", "1"],
}

# conjugation by diag(1, -1): fixes E11, E22, negates E12, E21
_AD = [["1", "0", "0", "0"], ["0", "-1", "0", "0"],
       ["0", "0", "-1", "0"], ["0", "0", "0", "1"]]

_I4 = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
       ["0", "0", "1", "0"], ["0", "0", "0", "1"]]

_Q = {"dim": 1, "structure_constants": [[["1"]]], "unit": ["1"]}

_Q2 = {
    "dim": 2,
    "structure_constants": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
    "unit": ["1", "1"],
}

_SWAP = [["0", "1"], ["1", "0"]]
_I2 = [["1", "0"], ["0", "1"]]
_DIAG = [["1"], ["1"]]
_I1 = [["1"]]


def _z2_model(name, description, loc, causal_cospans, cauchy,
              algebras_by_object, matrix_for):
    strcat, base_of = _cross_z2(loc)
    loc = dict(loc)
    loc["causal_cospans"] = causal_cospans
    loc["cauchy"] = sorted(cauchy)
    algebra_maps = {}
    for m in strcat["morphisms"]:
        base = base_of[m["name"]]
        z = m["name"].rsplit(".", 1)[1]
        algebra_maps[m["name"]] = matrix_for(base, z, m["source"], m["target"])
    return {
        "format": 1,
        "metadata": {"name": name, "description": description},
        "loc": loc,
        "str": strcat,
        "projection": {
            "objects": {obj: obj for obj in strcat["objects"]},
            "morphisms": base_of,
        },
        "algebras": {obj: algebras_by_object[obj] for obj in strcat["objects"]},
        "algebra_maps": algebra_maps,
    }


def fix_a():
    """One-point base; one fiber object with a Z2 automorphism acting on M2(Q)."""
    loc = _category(["pt"], [], None)
    loc["causal_cospans"] = []
    loc["cauchy"] = ["id_pt"]
    strcat = _category(["x"], [("g", "x", "x")],
                       lambda g, f: "id_x")
    return {
        "format": 1,
        "metadata": {
            "name": "bz2-matrix",
            "description": "Z2 gauge automorphism of the 2x2 matrix algebra over a point",
        },
        "loc": loc,
        "str": strcat,
        "projection": {
            "objects": {"x": "pt"},
            "morphisms": {"id_x": "id_pt", "g": "id_pt"},
        },
        "algebras": {"x": _M2},
        "algebra_maps": {"id_x": _I4, "g": _AD},
    }


def fix_b():
    """Causal cospan into a commutative two-dimensional algebra, Z2 fibers."""
    loc = _category(
        ["M", "M1", "M2"],
        [("c1", "M1", "M"), ("c2", "M2", "M")],
        None,
    )
    algebras = {"M": _Q2, "M1": _Q, "M2": _Q}

    def matrix_for(base, z, src, tgt):
        if base in ("c1", "c2"):
            return _DIAG
        if tgt == "M":
            return _I2 if z == "e" else _SWAP
        return _I1

    return _z2_model(
        "disjoint-wedge",
        "two causally disjoint embeddings into a commutative algebra",
        loc, [["c1", "c2"]],
        {f"id_{o}" for o in ("M", "M1", "M2")},
        algebras, matrix_for,
    )


def fix_b_prime():
    """Negative variant: both embeddings hit all of M2(Q), so causality fails."""
    loc = _category(
        ["M", "M1", "M2"],
        [("c1", "M1", "M"), ("c2", "M2", "M")],
        None,
    )
    algebras = {"M": _M2, "M1": _M2, "M2": _M2}

    def matrix_for(base, z, src, tgt):
        return _I4 if z == "e" else _AD

    return _z2_model(
        "disjoint-wedge-noncommutative",
        "same cospan with noncommuting images: violates the causality axiom",
        loc, [["c1", "c2"]],
        {f"id_{o}" for o in ("M", "M1", "M2")},
        algebras, matrix_for,
    )


def fix_c():
    """Two-object discrete fiber over M1 mapping onto a one-object fiber over M."""
    loc = _category(["M", "M1"], [("f", "M1", "M")], None)
    loc["causal_cospans"] = []
    loc["cauchy"] = ["id_M", "id_M1"]
    strcat = _category(["S", "Sp", "T"], [("u", "S", "Sp")], None)
    return {
        "format": 1,
        "metadata": {
            "name": "nonflabby",
            "description": "object T admits no extension along f, so flabbiness fails",
        },
        "loc": loc,
        "str": strcat,
        "projection": {
            "objects": {"S": "M1", "T": "M1", "Sp": "M"},
            "morphisms": {"id_S": "id_M1", "id_T": "id_M1",
                          "id_Sp": "id_M", "u": "f"},
        },
        "algebras": {"S": _Q, "T": _Q, "Sp": _Q},
        "algebra_maps": {"id_S": _I1, "id_T": _I1, "id_Sp": _I1, "u": _I1},
    }


def fix_d():
    """A single Cauchy morphism with Z2 fibers acting on M2(Q) by conjugation."""
    loc = _category(["N", "Np"], [("f", "N", "Np")], None)
    algebras = {"N": _M2, "Np": _M2}

    def matrix_for(base, z, src, tgt):
        return _I4 if z == "e" else _AD

    return _z2_model(
        "cauchy-z2",
        "invertible time evolution along a Cauchy morphism with a Z2 gauge action",
        loc, [],
        {"id_N", "id_Np", "f"},
        algebras, matrix_for,
    )


def fix_e():
    """Chain of four base objects with Z2 fibers; exercises composition homotopies."""
    loc = _chain_category(4)
    algebras = {f"M{i}": _M2 for i in range(4)}

    def matrix_for(base, z, src, tgt):
        return _I4 if z == "e" else _AD

    morph_names = [m["name"] for m in loc["morphisms"]]
    return _z2_model(
        "chain",
        "four spacetimes in a chain; all base morphisms are Cauchy",
        loc, [],
        set(morph_names),
        algebras, matrix_for,
    )


_BUILDERS = {
    "fix-a": fix_a,
    "fix-b": fix_b,
    "fix-bprime": fix_b_prime,
    "fix-c": fix_c,
    "fix-d": fix_d,
    "fix-e": fix_e,
}


def fixture_names():
    return sorted(_BUILDERS)


def fixture(name: str) -> dict:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")


def fixture_json(name: str) -> str:
    return json.dumps(fixture(name), indent=2, sort_keys=True) + "\n"


def load_bundled(name: str) -> dict:
    """Read the shipped JSON copy (kept in sync with the builders by a test)."""
    path = resources.files(__package__).joinpath(f"fixtures/{name}.json")
    return json.loads(path.read_text())
