"""Generated chain models for the benchmark: ``chain(n, group)``.

The base is the poset chain M0 -> M1 -> ... -> M{n-1}. The morphism Mi -> Mj
(i < j) is named ``f{i}_{j}`` and every base morphism is Cauchy. The
structured category is the base times a finite group G, so every fiber is
the one-object groupoid G. The algebra on every object is the matrix algebra
M_k(Q), and a structured morphism (f, s) acts by conjugation with the
permutation matrix of s.

Groups: Z2 (k = 2, the swap), Z3 (k = 3, the cyclic shifts) and S3 (k = 3,
all permutations). Composition tables are computed from indices, never by
parsing names, so any chain length gives a valid category.

``chain_dict(n, group, seed)`` returns the model in the CLI file format. A
seed only permutes the listing order of objects, morphisms and composition
entries; ``None`` keeps the canonical order.
"""

from __future__ import annotations

import itertools
import json
import random

GROUPS = {
    "Z2": (2, [(0, 1), (1, 0)]),
    "Z3": (3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)]),
    "S3": (3, sorted(itertools.permutations(range(3)))),
}


def _elem_name(perm):
    if perm == tuple(range(len(perm))):
        return "e"
    return "p" + "".join(str(x) for x in perm)


def _compose_perm(s, t):
    """s after t, as maps i -> s[t[i]]."""
    return tuple(s[i] for i in t)


def _matrix_algebra(k):
    """M_k(Q) in the basis E_ij (index i*k + j), as strings."""
    dim = k * k
    sc = []
    for a in range(dim):
        i, j = divmod(a, k)
        row = []
        for b in range(dim):
            l, m = divmod(b, k)
            vec = ["0"] * dim
            if j == l:
                vec[i * k + m] = "1"
            row.append(vec)
        sc.append(row)
    unit = ["1" if a // k == a % k else "0" for a in range(dim)]
    return {"dim": dim, "structure_constants": sc, "unit": unit}


def _conjugation(perm):
    """Matrix of X -> P X P^-1 on M_k(Q): sends E_ij to E_{s(i) s(j)}."""
    k = len(perm)
    dim = k * k
    rows = [["0"] * dim for _ in range(dim)]
    for a in range(dim):
        i, j = divmod(a, k)
        rows[perm[i] * k + perm[j]][a] = "1"
    return rows


def _chain_base(n):
    """Objects, {name: (src, tgt)} and composition of the chain of length n."""
    objects = [f"M{i}" for i in range(n)]
    ends = {}
    for i in range(n):
        ends[f"id_M{i}"] = (i, i)
        for j in range(i + 1, n):
            ends[f"f{i}_{j}"] = (i, j)

    def name(i, j):
        return f"id_M{i}" if i == j else f"f{i}_{j}"

    compose = {}
    for g, (gs, gt) in ends.items():
        for f, (fs, ft) in ends.items():
            if gs == ft:
                compose[(g, f)] = name(fs, gt)
    return objects, ends, compose


def _category_dict(objects, ends, identity, compose):
    return {
        "objects": list(objects),
        "morphisms": [{"name": m, "source": s, "target": t}
                      for m, (s, t) in sorted(ends.items())],
        "identity": identity,
        "compose": [[g, f, h] for (g, f), h in sorted(compose.items())],
    }


def permute_listing(model: dict, seed: int) -> dict:
    """A copy of a model dict whose objects, morphisms and composition
    entries are listed in an order drawn from ``seed``; nothing else moves."""
    rng = random.Random(seed)
    out = json.loads(json.dumps(model))
    for key in ("loc", "str"):
        for field in ("objects", "morphisms", "compose"):
            rng.shuffle(out[key][field])
    return out


def chain_dict(n: int, group: str, seed=None) -> dict:
    """The model ``chain(n, group)`` as a CLI model dictionary."""
    if n < 1:
        raise ValueError("a chain needs at least one object")
    k, perms = GROUPS[group]
    objects, base_ends, base_comp = _chain_base(n)
    loc_ends = {m: (f"M{s}", f"M{t}") for m, (s, t) in base_ends.items()}
    loc = _category_dict(objects, loc_ends,
                         {o: f"id_{o}" for o in objects}, base_comp)
    loc["causal_cospans"] = []
    loc["cauchy"] = sorted(base_ends)

    str_ends = {}
    lift_of = {}  # structured morphism -> (base morphism, permutation)
    for m, ends in loc_ends.items():
        for p in perms:
            name = f"{m}.{_elem_name(p)}"
            str_ends[name] = ends
            lift_of[name] = (m, p)
    str_comp = {}
    for g, (gb, gp) in lift_of.items():
        for f, (fb, fp) in lift_of.items():
            if (gb, fb) in base_comp:
                h = base_comp[(gb, fb)]
                str_comp[(g, f)] = f"{h}.{_elem_name(_compose_perm(gp, fp))}"
    strcat = _category_dict(objects, str_ends,
                            {o: f"id_{o}.e" for o in objects}, str_comp)

    algebra = _matrix_algebra(k)
    model = {
        "format": 1,
        "metadata": {
            "name": f"chain-{n}-{group}",
            "description": f"chain of {n} base objects with {group} fibers "
                           f"acting on M{k}(Q) by conjugation",
        },
        "loc": loc,
        "str": strcat,
        "projection": {
            "objects": {o: o for o in objects},
            "morphisms": {m: b for m, (b, _) in lift_of.items()},
        },
        "algebras": {o: algebra for o in objects},
        "algebra_maps": {m: _conjugation(p) for m, (_, p) in lift_of.items()},
    }
    return model if seed is None else permute_listing(model, seed)


def chain_json(n: int, group: str, seed=None) -> str:
    """Deterministic JSON bytes of ``chain_dict(n, group, seed)``."""
    return json.dumps(chain_dict(n, group, seed), sort_keys=True) + "\n"
