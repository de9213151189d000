"""Checks on the library source itself."""

import ast
import importlib
import pathlib
import sys
import types

import fibkan
from fibkan import dg, qlinalg

SOURCE = pathlib.Path(fibkan.__file__).resolve().parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_has_no_unused_imports():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def inexact_or_foreign(source, name):
    """Float constants, float() calls, true division (which turns two ints
    into a float), imports from outside the standard library, and outside
    qlinalg.py any mention of Fraction, in a module's source: an integral
    scalar is an int, and only qlinalg.rat and qlinalg._quotient (behind
    _echelon and a built Dga's tables) make the Fractions that a
    non-integral one needs."""
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"{name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{where} float constant {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"{where} float()")
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Div)):
            found.append(f"{where} true division")
        elif isinstance(node, ast.Import):
            found += [f"{where} import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] not in sys.stdlib_module_names]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] not in sys.stdlib_module_names):
            found.append(f"{where} from {node.module} import")
        if name != "qlinalg.py" and {"Fraction", "fractions"} & {
                getattr(node, key, None) for key in ("id", "attr", "name",
                                                     "module")}:
            found.append(f"{where} Fraction outside qlinalg")
    return found


def test_library_is_exact_and_stdlib_only():
    # every identity is checked in int and Fraction arithmetic, and the
    # library runs on a bare Python
    assert inexact_or_foreign("import numpy.linalg\nfrom scipy import sparse\n"
                              "from . import dg\nx = float(1) + 0.5\n"
                              "x /= 2; y = x // 2 / 3\n", "m") == [
        "m:1 import numpy.linalg", "m:2 from scipy import",
        "m:5 true division", "m:5 true division",
        "m:4 float()", "m:4 float constant 0.5"]
    fractions = ("from fractions import Fraction\nimport fractions\n"
                 "z = Fraction(1, 2) + fractions.Fraction(1)\n")
    assert inexact_or_foreign(fractions, "qlinalg.py") == []
    assert inexact_or_foreign(fractions, "dg.py") == [
        f"dg.py:{line} Fraction outside qlinalg" for line in (1, 1, 2, 3, 3, 3)]
    assert [finding for path in sorted(SOURCE.glob("*.py"))
            for finding in inexact_or_foreign(path.read_text(), path.name)] == []


def unread_parameters(source, name):
    """Parameters of a function or lambda that its body never reads, other
    than self, cls and _-prefixed names. The cli.py runners checks_* are
    exempt: cli.COMMANDS calls every runner as (model, order, max_degree)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        label = getattr(node, "name", "lambda")
        if name == "cli.py" and label.startswith("checks_"):
            continue
        args = node.args
        params = [arg.arg for arg in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg, args.kwarg)
                  if arg and arg.arg not in ("self", "cls")
                  and not arg.arg.startswith("_")]
        body = node.body if isinstance(node, ast.FunctionDef) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        found += [f"{name}:{node.lineno} {label} {param}"
                  for param in params if param not in read]
    return found


def test_library_functions_read_their_parameters():
    # a parameter that nothing reads is dead weight every caller still passes
    source = ("def f(a, b, _c, *args, **kw):\n    return a, kw\n"
              "class K:\n    def m(self, x):\n        return lambda y, z: y\n"
              "def checks_x(model, order, max_degree):\n    return model\n")
    assert unread_parameters(source, "m") == [
        "m:1 f b", "m:1 f args", "m:6 checks_x order",
        "m:6 checks_x max_degree", "m:4 m x", "m:5 lambda z"]
    assert unread_parameters(source, "cli.py") == [
        "cli.py:1 f b", "cli.py:1 f args", "cli.py:4 m x", "cli.py:5 lambda z"]
    assert [finding for path in sorted(SOURCE.glob("*.py"))
            for finding in unread_parameters(path.read_text(), path.name)] == []


def load_bench_module(name):
    """A bench module executed from its source, without writing bytecode."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_bench_tracer_installs_and_uninstalls():
    # the bench tracer wraps library functions and methods by name, so a
    # rename or deletion it depends on fails here
    fibtrace = load_bench_module("fibtrace")
    tracer = load_bench_module("tracer").Tracer()
    modules = {m: importlib.import_module(f"fibkan.{m}") for m in fibtrace.MODULES}
    classes = [getattr(modules[m], cls)
               for m, cls in (owner.split(".") for owner in fibtrace.METHODS)]
    namespaces = [*modules.values(), *classes]

    def bindings():
        return [dict(vars(ns)) for ns in namespaces]

    before = bindings()
    original = dg.is_weak_equivalence
    try:
        fibtrace.install(tracer)
        assert dg.is_weak_equivalence is not original
        assert dg.kernel_basis is qlinalg.kernel_basis
    finally:
        tracer.uninstall()
    assert bindings() == before


def loaded_names(node):
    """Every name and attribute name read below an AST node."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
        and isinstance(sub.ctx, ast.Load)
    }


def units(tree):
    """(definition, nodes it reads) per top-level statement; a class is split
    into its header and each of its members, so that a method counts as used
    only where something other than itself reads it."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            yield stmt, [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
            yield from ((member, [member]) for member in stmt.body)
        else:
            yield stmt, [stmt]


def test_library_has_no_test_only_entry_points():
    # a public function, class or method that only tests reach is an entry
    # point kept for the tests; the paper's own maps are the exception
    paper_maps = {"canonical_e", "counit"}
    statements = [
        (path, node, set().union(*map(loaded_names, reads)))
        for path in [*sorted(SOURCE.glob("*.py")), *sorted(BENCH.glob("*.py"))]
        for node, reads in units(ast.parse(path.read_text()))
    ]
    found = [
        f"{path.name}:{stmt.lineno} {stmt.name}"
        for path, stmt, _ in statements
        if path.parent == SOURCE
        and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_") and stmt.name not in paper_maps
        and not any(stmt.name in names
                    for _, other, names in statements if other is not stmt)
    ]
    assert found == []


def dataclass_fields(source):
    """(class, field) for each public field of each dataclass in a source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in loaded_names(dec) for dec in node.decorator_list):
            yield from ((node.name, stmt.target.id) for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)
                        and not stmt.target.id.startswith("_"))


def attributes_read(source):
    """Every attribute name read (not assigned) in a source."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_library_dataclass_fields_are_read():
    # a field that no library or bench code reads is state that every
    # constructor still fills; Subspace.ambient_dim is read only by the
    # dataclass == that the h0-comparison check compares subspaces with
    exempt = {"Subspace.ambient_dim"}
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    _y: int = 0\n"
              "    def f(self):\n        return self.x\n"
              "@dataclass\nclass B:\n    z: int\nclass C:\n    w: int\n")
    assert list(dataclass_fields(source)) == [("A", "x"), ("B", "z")]
    assert attributes_read("a.b.c = d.e\n") == {"b", "e"}
    read = set().union(*(attributes_read(path.read_text()) for path in
                         [*SOURCE.glob("*.py"), *BENCH.glob("*.py")]))
    found = [f"{cls}.{name}" for path in sorted(SOURCE.glob("*.py"))
             for cls, name in dataclass_fields(path.read_text())
             if name not in read and f"{cls}.{name}" not in exempt]
    assert found == []
