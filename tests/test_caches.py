"""clear_caches empties every process-wide cache and changes no answer."""

import json

import pytest

import nakayama
from nakayama import classify, clear_caches, compute_cells
from nakayama.bimodules import (
    StringLabel,
    _CONSTRUCT_CACHE,
    construct,
)
from nakayama.bireps import _CORE_CACHE, cell_birep, localize
from nakayama.decomposition import _CANDIDATE_CACHE, _PRODUCT_CACHE
from nakayama.linalg import ExactMatrix

from dense_helpers import identity_map

CACHES = {
    "construct": _CONSTRUCT_CACHE,
    "product": _PRODUCT_CACHE,
    "candidate": _CANDIDATE_CACHE,
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
    for name, cache in restored_caches.items():
        assert cache, f"{name} cache was not filled"
    clear_caches()
    for name, cache in restored_caches.items():
        assert not cache, f"{name} cache is not empty"


def test_answers_equal_cold_and_warm(restored_caches):
    clear_caches()
    cold_cells = _dump(compute_cells(2, 1).to_json())
    cold_classify = _dump(classify(3, 1).to_json())
    assert all(restored_caches.values())
    assert _dump(compute_cells(2, 1).to_json()) == cold_cells
    assert _dump(classify(3, 1).to_json()) == cold_classify


def test_shared_action_data_rejects_writes(restored_caches):
    clear_caches()
    cold = _dump(classify(3, 1).to_json())
    b = cell_birep(3, 1)
    loc = localize(b, {2})
    u = StringLabel("N", 1, 1, 1)
    assert b.action is b.core.action_entries
    for mapping in (b.core.action_entries, b.core.by_column, b.action,
                    loc.action, loc.action_obj):
        with pytest.raises(TypeError):
            mapping[u] = ()
    assert _dump(classify(3, 1).to_json()) == cold


def test_constructed_modules_reject_writes():
    label = StringLabel("M", 1, 1, 1)
    x = construct(label, 2)
    dims, views = dict(x.dims), dict(x.arrow_views)
    vertex, key = next(iter(dims)), next(iter(views))
    with pytest.raises(TypeError):
        x.dims[vertex] = 5
    with pytest.raises(TypeError):
        del x.dims[vertex]
    with pytest.raises(TypeError):
        x.arrow_views[key] = ExactMatrix.zeros(1, 1)
    with pytest.raises(TypeError):
        identity_map(x).components[vertex] = ExactMatrix.identity(1)
    again = construct(label, 2)
    assert again is x
    assert dict(again.dims) == dims and dict(again.arrow_views) == views
