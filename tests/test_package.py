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
