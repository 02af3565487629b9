"""clear_caches empties every process-wide cache and changes no answer."""

import copy
import dataclasses
import importlib
import json
import pkgutil
import re
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

import pytest

import nakayama
from nakayama import classify, clear_caches, compute_cells, multable_check
from nakayama.bimodules import (
    StringLabel,
    _CONSTRUCT_CACHE,
    adjunction_command,
    construct,
)
from nakayama.bireps import (
    _CORE_CACHE,
    cell_birep,
    is_simple_transitive,
    localize,
)
from nakayama.decomposition import _CANDIDATE_CACHE, _SCAN_CACHE
from nakayama.tensoring import _PIECE_CACHE, tensor

from dense_helpers import identity, identity_map, rescaled, zeros

CACHES = {
    "construct": _CONSTRUCT_CACHE,
    "piece": _PIECE_CACHE,
    "candidate": _CANDIDATE_CACHE,
    "scan": _SCAN_CACHE,
    "core": _CORE_CACHE,
}


@pytest.fixture
def restored_caches():
    """Hand the test the caches and put their old entries back after it,
    so the rest of the suite keeps its warm caches."""
    saved = {name: dict(cache) for name, cache in CACHES.items()}
    yield CACHES
    for name, cache in CACHES.items():
        cache.clear()
        cache.update(saved[name])


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def test_clear_caches_empties_every_cache(restored_caches):
    assert "clear_caches" in nakayama.__all__
    compute_cells(1, 1)
    classify(2, 1)
    adjunction_command(2, 1)
    for name, cache in restored_caches.items():
        assert cache, f"{name} cache was not filled"
    clear_caches()
    for name, cache in restored_caches.items():
        assert not cache, f"{name} cache is not empty"


def test_answers_equal_cold_and_warm(restored_caches):
    clear_caches()
    cold_cells = _dump(compute_cells(2, 1).to_json())
    cold_classify = _dump(classify(3, 1).to_json())
    cold_adjunction = _dump(adjunction_command(3, 2))
    assert all(restored_caches.values())
    assert _dump(compute_cells(2, 1).to_json()) == cold_cells
    assert _dump(classify(3, 1).to_json()) == cold_classify
    assert _dump(adjunction_command(3, 2)) == cold_adjunction


def test_shared_action_data_rejects_writes(restored_caches):
    clear_caches()
    cold = _dump(classify(3, 1).to_json())
    b = cell_birep(3, 1)
    loc = localize(b, {2})
    u = StringLabel("N", 1, 1, 1)
    assert b.action is b.core.action_entries
    for mapping in (b.core.action_entries, b.core.scalars, b.core.verdicts,
                    b.core.qhoms, b.core.position, b.core.blocks, b.action,
                    loc.action):
        with pytest.raises(TypeError):
            mapping[u] = ()
    assert all(type(block) is tuple and all(type(row) is tuple
                                            for row in block)
               for block in b.core.blocks.values())
    assert type(b.core.modules) is tuple
    assert type(b.core.object_labels) is tuple
    assert _dump(classify(3, 1).to_json()) == cold


def test_cached_scans_hold_only_tuples(restored_caches):
    # a scan is a tuple of its int residual and a tuple of labels, and a
    # label rejects writes
    clear_caches()
    compute_cells(2, 1)
    multable_check(1, 2)
    assert restored_caches["scan"]
    labels = set()
    for key, scan in restored_caches["scan"].items():
        assert type(scan) is tuple and len(scan) == 2, key
        residual, summands = scan
        assert type(residual) is int and type(summands) is tuple, key
        assert all(type(label) is StringLabel for label in summands), key
        labels.update(summands)
    assert labels
    for label in labels:
        with pytest.raises(dataclasses.FrozenInstanceError):
            label.k = 99


def _read_only(value) -> bool:
    """value is made of tuples, ints, Fractions and mapping proxies alone;
    a ``Piece`` is a named tuple."""
    if isinstance(value, MappingProxyType):
        return all(_read_only(key) and _read_only(item)
                   for key, item in value.items())
    if isinstance(value, tuple):
        return all(_read_only(item) for item in value)
    return type(value) in (int, Fraction)


def test_cached_pieces_hold_only_tuples_and_proxies(restored_caches):
    clear_caches()
    compute_cells(2, 1)
    classify(2, 1)
    # an arrow of 2 gives a piece with a hit of 2
    doubled = rescaled(StringLabel("S", 1, 1, 0), 2, ("v", 1, 1),
                       Fraction(2))
    tensor(construct(StringLabel("P", 1, 2), 2), doubled)
    pieces = restored_caches["piece"].values()
    assert pieces
    assert any(h != 1 for piece in pieces for column in piece.hits
               for _, h in column)
    for piece in pieces:
        assert _read_only(piece), piece
        assert type(piece.index) is MappingProxyType
        with pytest.raises(TypeError):
            piece.index[(0, 0, 0)] = 0


def _snapshot(value):
    """A copy of value's contents to compare with later; an object that
    compares by identity is taken by its attributes."""
    if isinstance(value, Mapping):
        return dict(value)
    if type(value).__eq__ is object.__eq__:
        return {name: _snapshot(v) for name, v in vars(value).items()}
    return copy.copy(value)


def test_a_cached_core_is_unchanged_by_its_callers(restored_caches):
    clear_caches()
    core = cell_birep(3, 1).core
    before = {name: (value, _snapshot(value))
              for name, value in vars(core).items()}
    classify(3, 1)
    loc = localize(cell_birep(3, 1), {1, 3})
    assert is_simple_transitive(loc)
    assert is_simple_transitive(cell_birep(3, 1))
    assert loc.core is core
    assert vars(core).keys() == before.keys()
    for name, value in vars(core).items():
        old, snapshot = before[name]
        assert value is old, name
        assert _snapshot(value) == snapshot, name


@pytest.mark.parametrize("attr", ["n", "dims", "total_dim", "arrow_views",
                                  "strips"])
def test_constructed_modules_reject_writes(attr):
    label = StringLabel("M", 1, 1, 1)
    x = construct(label, 2)
    dims, views = dict(x.dims), dict(x.arrow_views)
    vertex, key = next(iter(dims)), next(iter(views))
    # no attribute of a shared module can be rebound or deleted
    with pytest.raises(AttributeError):
        setattr(x, attr, 99)
    with pytest.raises(AttributeError):
        delattr(x, attr)
    with pytest.raises(TypeError):
        x.dims[vertex] = 5
    with pytest.raises(TypeError):
        del x.dims[vertex]
    with pytest.raises(TypeError):
        x.arrow_views[key] = zeros(1, 1)
    with pytest.raises(TypeError):
        identity_map(x).components[vertex] = identity(1)
    again = construct(label, 2)
    assert again is x
    assert (again.n, again.total_dim) == (2, sum(dims.values()))
    assert dict(again.dims) == dims and dict(again.arrow_views) == views


def _module_caches():
    """Every module-level dict of the package named like _NAME_CACHE."""
    found = {}
    for info in pkgutil.iter_modules(nakayama.__path__):
        module = importlib.import_module(f"nakayama.{info.name}")
        for attr, value in vars(module).items():
            if re.fullmatch(r"_\w+_CACHE", attr) and isinstance(value, dict):
                found[f"{info.name}.{attr}"] = value
    return found


def test_clear_caches_reaches_every_module_cache(restored_caches):
    found = _module_caches()
    assert "bimodules._CONSTRUCT_CACHE" in found
    registered = [id(cache) for cache in restored_caches.values()]
    for name, cache in found.items():
        assert id(cache) in registered, f"{name} is missing from CACHES"
        cache[("sentinel", name)] = None
    clear_caches()
    for name, cache in found.items():
        assert not cache, f"clear_caches leaves {name} filled"
