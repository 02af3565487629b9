"""The package's public names and source rules."""

import ast
from pathlib import Path

import nakayama


def test_every_export_resolves_and_the_list_is_sorted():
    names = nakayama.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(nakayama, name)]
    assert not missing, missing
    namespace = {}
    exec("from nakayama import *", namespace)
    assert set(names) <= set(namespace)


def test_package_has_no_assert_statements():
    # an invariant check must survive python -O, which strips asserts
    found = []
    for path in sorted(Path(nakayama.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_package_divides_only_through_fraction():
    # a value is an exact int or Fraction: "/" on two ints gives a float,
    # so the package divides only as Fraction(a, b)
    found = []
    for path in sorted(Path(nakayama.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div)]
    assert not found, found


def test_package_has_no_unused_imports():
    # every module-level import of the package, the tests and the tools
    # must be used in its module; the names in the package's __all__ are
    # its exports, so they count as used there
    package = Path(nakayama.__file__).parent
    tests = Path(__file__).parent
    found = []
    for path in sorted([*package.glob("*.py"), *tests.glob("*.py"),
                        *(tests.parent / "tools").glob("*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        if path == package / "__init__.py":
            used |= set(nakayama.__all__)
        found += [f"{path.parent.name}/{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert not found, found


def test_no_package_module_names_exact_matrix():
    # arrows and map blocks are sparse views and a birep's matrices are int
    # lists laid out from its triples; the dense Fraction matrix is a test
    # oracle only
    found = set()
    for path in sorted(Path(nakayama.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                names = [getattr(node, "id", None)]
            if "ExactMatrix" in names:
                found.add(path.name)
    assert not found, sorted(found)
    assert "ExactMatrix" not in nakayama.__all__


def test_only_bimodules_reads_the_hom_unknown_layout():
    # the offsets of a hom space's unknowns are a layout private to
    # bimodules; other modules ask HomSpace for blocks or coordinates
    found = set()
    for path in sorted(Path(nakayama.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(isinstance(node, ast.Attribute) and node.attr == "_offsets"
               for node in ast.walk(tree)):
            found.add(path.name)
    assert found == {"bimodules.py"}


def test_every_package_function_has_a_package_use():
    # a function or method only the tests call is surface the package
    # carries for nothing: each one must be a dunder, an export, or a name
    # some package code reads
    defined, used = [], set(nakayama.__all__)
    for path in sorted(Path(nakayama.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{name}:{line} {fn}" for name, line, fn in defined
              if fn not in used
              and not (fn.startswith("__") and fn.endswith("__"))]
    assert not unused, unused


def _bireps_callers():
    """Each name called in bireps, mapped to the functions that call it."""
    path = Path(nakayama.__file__).parent / "bireps.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    callers = {}

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            callers.setdefault(name, set()).add(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, None)
    return callers


def test_bireps_runs_each_orbit_sweep_from_one_place():
    # the core decomposes only the generators at 1|1 and tensors only on
    # the canonical arrow, so a per-generator sweep must not creep back:
    # in bireps only _object_action calls product_summands and only
    # _arrow_scalars calls tensor_map
    callers = _bireps_callers()
    assert callers["product_summands"] == {"_object_action"}
    assert callers["tensor_map"] == {"_arrow_scalars"}


def test_classify_reads_the_blocks_without_a_localized_birep():
    # classify decides every subset from the merged family blocks, so it
    # must not localize, run the birep-level check or build a birep; and
    # the one merge rule is applied only where a birep is laid out and in
    # classify
    callers = _bireps_callers()
    for name in ("localize", "is_simple_transitive", "FinitaryBirep"):
        assert "classify" not in callers.get(name, set()), name
    assert callers["_merged"] == {"_layout", "classify"}
