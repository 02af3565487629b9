"""The package's public names."""

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
