"""Which fibkan functions the tracer wraps, and the per-layer numbers it yields.

Every public module-level function of the eight library modules gets a span,
named ``<module>.<function>``, except the scalar helpers ``rat``/``rat_str``
and the ``cli.main`` entry point. Methods are wrapped where a per-layer metric
names them (``QMatrix.__mul__`` as ``qlinalg.QMatrix.mul``). Some functions
are folded into one group name:

- ``qlinalg.elim``: every routine that runs an elimination (``rank``,
  ``kernel_basis``, ``row_space``, ``solve``, ``invert``, ``intersect`` and
  ``Subspace.from_vectors``); its ``entries`` is the nonzero count of the
  input of each call not nested in another elimination;
- ``cli.checks``: the ``checks_*`` runners; ``cli.render``: the renderers.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict

MODULES = ("models", "fincat", "finalg", "kan", "dg", "hokan", "qlinalg", "cli")
MAX_DEGREE = 4  # sizes are reported per degree 0..MAX_DEGREE

SKIP = {"qlinalg.rat", "qlinalg.rat_str", "cli.main"}

GROUPS = {
    **{f"qlinalg.{f}": "qlinalg.elim" for f in (
        "rank", "kernel_basis", "row_space", "solve", "invert", "intersect",
        "Subspace.from_vectors")},
    **{f"cli.checks_{c}": "cli.checks" for c in (
        "axioms", "classify", "kan", "hokan")},
    "cli.render_json": "cli.render",
    "cli.render_markdown": "cli.render",
    "qlinalg.QMatrix.__mul__": "qlinalg.QMatrix.mul",
}

# class -> wrapped methods; "*" means every public method
METHODS = {
    "dg.Dga": ("violations", "mul"),
    "dg.GradedLinearMap": ("after",),
    "qlinalg.QMatrix": ("__mul__",),
    "qlinalg.Subspace": ("coords", "from_vectors"),
    "fincat.FinCategory": ("violations",),
    "hokan.HoKan": "*",
}

COUNT_ONLY = {"dg.Dga.mul", "qlinalg.Subspace.coords"}


def _nnz_vectors(vectors):
    if not isinstance(vectors, (list, tuple)):
        return 0  # an iterator must not be consumed here
    return sum(1 for vec in vectors for v in vec if v)


def _nnz(m, *_):
    return len(m.data)


ENTRIES = {
    "qlinalg.rank": _nnz,
    "qlinalg.kernel_basis": _nnz,
    "qlinalg.row_space": _nnz,
    "qlinalg.invert": _nnz,
    "qlinalg.solve": lambda m, b: len(m.data) + sum(1 for v in b if v),
    "qlinalg.intersect": lambda a, b: _nnz_vectors(a.basis) + _nnz_vectors(b.basis),
    "qlinalg.Subspace.from_vectors": lambda cls, dim, vectors: _nnz_vectors(vectors),
}

KEYS = {"dg.coboundary_space": lambda cx, n: (id(cx), n)}


def _wrapper(tracer, qualname):
    name = GROUPS.get(qualname, qualname)

    def make(fn):
        if qualname in COUNT_ONLY:
            return tracer.count(name, fn)
        return tracer.span(name, fn, size=ENTRIES.get(qualname),
                           key=KEYS.get(qualname))

    return make


def install(tracer) -> list:
    """Install wrappers on the fibkan modules; return the list into which
    every complex built while installed is appended."""
    modules = [importlib.import_module(f"fibkan.{m}")
               for m in MODULES]
    for short, module in zip(MODULES, modules):
        for attr, fn in list(vars(module).items()):
            qualname = f"{short}.{attr}"
            if (attr.startswith("_") or qualname in SKIP
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            tracer.install_function(fn, _wrapper(tracer, qualname)(fn), modules)
    for owner, methods in METHODS.items():
        short, cls_name = owner.split(".")
        cls = getattr(modules[MODULES.index(short)], cls_name)
        if methods == "*":
            methods = [a for a, v in vars(cls).items()
                       if not a.startswith("_") and inspect.isfunction(v)]
        for attr in methods:
            tracer.install_method(cls, attr, _wrapper(tracer, f"{owner}.{attr}"))

    complexes = []

    def record(init):
        def recording(self, *args, **kwargs):
            complexes.append(self)
            return init(self, *args, **kwargs)
        return recording

    tracer.install_method(modules[MODULES.index("dg")].Complex, "__init__", record)
    return complexes


def sizes(complexes) -> dict:
    """Basis dimensions and differential nonzeros per degree, summed over
    every distinct complex."""
    out = defaultdict(int)
    seen = set()
    for cx in complexes:
        if id(cx) in seen:
            continue
        seen.add(id(cx))
        for n in range(min(cx.max_degree, MAX_DEGREE) + 1):
            d = cx.differentials.get(n)
            out[f"size.cochain_dim.d{n}"] += cx.dim(n)
            out[f"size.d_nnz.d{n}"] += len(d.data) if d is not None else 0
    out["size.cochain_dim.total"] = sum(
        v for k, v in out.items() if k.startswith("size.cochain_dim.d"))
    out["size.d_nnz.total"] = sum(
        v for k, v in out.items() if k.startswith("size.d_nnz.d"))
    return dict(out)


def layer_numbers(tracer, complexes) -> dict:
    """Every per-layer number of one traced pass, by metric name."""
    out = {}
    self_times = tracer.self_times()
    for name, value in self_times.items():
        out[f"{name}.self_s"] = value
    for name, value in tracer.calls.items():
        out[f"{name}.calls"] = value
    for name, value in tracer.entries.items():
        out[f"{name}.entries"] = value
    for name, value in tracer.reuse_ratios().items():
        out[f"{name}.reuse_ratio"] = value
    for short in MODULES:
        out[f"layer.{short}.self_s"] = sum(
            v for k, v in self_times.items() if k.startswith(short + "."))
    out["dg.total.calls"] = sum(
        v for k, v in tracer.calls.items() if k.startswith("dg."))
    out.update(sizes(complexes))
    return out
