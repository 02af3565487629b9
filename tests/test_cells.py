"""Tests for the cell structure computation."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import nakayama
from nakayama.bimodules import StringLabel, catalog_labels
from nakayama import cells, decomposition
from nakayama.cells import (
    _line_classes,
    _orbit_cells,
    _product_steps,
    _state_reach,
    compute_cells,
    is_idempotent_cell,
)
from nakayama.decomposition import (
    _label_sort_key,
    canonical_summands,
    cell_chain_position,
    cell_name,
    cell_of,
    chain_cell,
    product_summands,
)

from cells_oracle import (
    _close_reachability,
    _divisibility_edges,
    oracle_classes,
    oracle_compute_cells,
)


@pytest.fixture(scope="module")
def structures():
    return {n: compute_cells(n, 2) for n in (1, 2, 3)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_sided_chain(structures, n):
    cs = structures[n]
    assert cs.chain_is_total
    assert cs.chain() == ["J_split", "J_M0", "J_1", "J_2"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_sided_cell_sizes(structures, n):
    cs = structures[n]
    sizes = [len(c) for c in cs.two_sided_cells]
    assert sizes == [4 * n * n, n * n, 4 * n * n, 4 * n * n]
    assert sum(sizes) == len(cs.elements) == 13 * n * n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cells_are_family_uniform(structures, n):
    cs = structures[n]
    for cell in cs.two_sided_cells:
        tags = {cell_of(x) for x in cell}
        assert len(tags) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_m0_is_the_unique_non_idempotent_cell(structures, n):
    cs = structures[n]
    flags = {cell_name(cell_of(cell[0])): is_idempotent_cell(cell, cs)
             for cell in cs.two_sided_cells}
    assert flags == {"J_split": True, "J_M0": False, "J_1": True, "J_2": True}


def _idempotent_by_pairs(cell, n):
    """Whether a member divides a product of two members, one product of
    every ordered pair after another."""
    members = set(cell)
    return any(s in members for g in cell for h in cell
               for s in product_summands(g, h, n))


@pytest.mark.parametrize("n, max_valleys", [(1, 3), (2, 2), (3, 2), (4, 1)])
def test_idempotent_cells_match_the_pairwise_products(monkeypatch, n,
                                                      max_valleys):
    # cold and warm, with each canonical product looked up once per call,
    # whichever module the lookup goes through
    cs = compute_cells(n, max_valleys)
    wants = [_idempotent_by_pairs(cell, n) for cell in cs.two_sided_cells]
    calls = []

    def counting(*key):
        calls.append(key)
        return canonical_summands(*key)

    monkeypatch.setattr(cells, "canonical_summands", counting)
    monkeypatch.setattr(decomposition, "canonical_summands", counting)
    for cell, want in zip(cs.two_sided_cells, wants):
        nakayama.clear_caches()
        for _ in ("cold", "warm"):
            calls.clear()
            assert is_idempotent_cell(cell, cs) == want
            assert calls and len(calls) == len(set(calls))


def _as_written(x):
    """x with both anchors moved by the torus period 2, and L as W^(0)."""
    fam, k = ("W", 0) if x.family == "L" else (x.family, x.k)
    return StringLabel(fam, x.i + 2, x.j + 2, k)


def test_idempotent_cells_normalize_their_labels():
    cs = compute_cells(2, 1)
    flags = {name: is_idempotent_cell(
                 [_as_written(x) for x in cs.cell_with_name(name)], cs)
             for name in cs.chain()}
    assert any(x.family == "L" for x in cs.cell_with_name("J_split"))
    assert flags == {"J_split": True, "J_M0": False, "J_1": True}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cells_are_named_by_chain_position(structures, n):
    cs = structures[n]
    for pos, (name, cell) in enumerate(zip(cs.cell_names,
                                           cs.two_sided_cells)):
        assert name == cell_name(chain_cell(pos))
        assert cell_chain_position(chain_cell(pos)) == pos
        assert all(cell_chain_position(cell_of(x)) == pos for x in cell)
        assert cs.cell_with_name(name) is cell
    with pytest.raises(KeyError):
        cs.cell_with_name("J_9")


def test_a_cell_off_its_predicted_position_raises(monkeypatch):
    # predict the one-valley strings one cell too deep: the computed
    # chain no longer agrees with the prediction
    def shifted(label):
        tag = cell_of(label)
        return ("J", 2) if tag == ("J", 1) else tag

    monkeypatch.setattr(cells, "cell_of", shifted)
    with pytest.raises(RuntimeError, match="chain position 2"):
        compute_cells(2, 1)


def test_chain_refuses_an_order_that_is_not_total(structures):
    partial = dataclasses.replace(structures[1], chain_is_total=False)
    with pytest.raises(ValueError, match="not total"):
        partial.chain()


def test_egg_box_refuses_a_member_in_no_left_cell(structures):
    # drop the left cell of one J_1 member: that member lands in no column
    cs = structures[2]
    lost = cs.cell_with_name("J_1")[0]
    broken = dataclasses.replace(cs, left_cells=[
        c for c in cs.left_cells if lost not in c])
    with pytest.raises(RuntimeError, match="misplaces elements"):
        broken.egg_box("J_1")


def test_partitions_cover_and_are_disjoint(structures):
    cs = structures[2]
    for cells in (cs.left_cells, cs.right_cells, cs.two_sided_cells):
        seen = [x for cell in cells for x in cell]
        assert sorted(seen, key=str) == sorted(cs.elements, key=str)
        assert len(seen) == len(set(seen))


def test_left_and_right_cells_refine_two_sided(structures):
    cs = structures[3]
    two_sided = [set(c) for c in cs.two_sided_cells]
    for cell in cs.left_cells + cs.right_cells:
        assert sum(set(cell) <= big for big in two_sided) == 1


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1)])
def test_valley_cell_columns_and_rows(structures, n, k):
    """Left cells of the k-valley cell fix the second index, rights the first."""
    cs = structures[n]
    members = set(cs.cell_with_name(f"J_{k}"))

    expected_cols = []
    for j in range(1, n + 1):
        expected_cols.append({StringLabel(f, i, j, k)
                              for f in "WS" for i in range(1, n + 1)})
        expected_cols.append({StringLabel(f, i, j, k)
                              for f in "NM" for i in range(1, n + 1)})
    got_cols = [set(c) for c in cs.left_cells if set(c) <= members]
    assert len(got_cols) == 2 * n
    for col in expected_cols:
        assert col in got_cols

    expected_rows = []
    for i in range(1, n + 1):
        expected_rows.append({StringLabel(f, i, j, k)
                              for f in "WN" for j in range(1, n + 1)})
        expected_rows.append({StringLabel(f, i, j, k)
                              for f in "SM" for j in range(1, n + 1)})
    got_rows = [set(c) for c in cs.right_cells if set(c) <= members]
    assert len(got_rows) == 2 * n
    for row in expected_rows:
        assert row in got_rows


@pytest.mark.parametrize("n", [1, 2, 3])
def test_egg_box_is_regular(structures, n):
    cs = structures[n]
    for k in (1, 2):
        rows, cols, grid = cs.egg_box(f"J_{k}")
        assert len(rows) == 2 * n and len(cols) == 2 * n
        for line in grid:
            assert all(len(entry) == 1 for entry in line)


def test_smaller_catalog_range():
    cs = compute_cells(2, 1)
    assert cs.chain() == ["J_split", "J_M0", "J_1"]
    members = set(cs.cell_with_name("J_1"))
    lefts = [c for c in cs.left_cells if set(c) <= members]
    rights = [c for c in cs.right_cells if set(c) <= members]
    assert len(lefts) == 4 and all(len(c) == 4 for c in lefts)
    assert len(rights) == 4 and all(len(c) == 4 for c in rights)


def test_order_pairs_list_every_strict_comparison(structures):
    cs = structures[2]
    names = cs.chain()
    expected = {(names[a], names[b])
                for a in range(len(names)) for b in range(a + 1, len(names))}
    assert set(cs.two_sided_order) == expected


def test_json_round_trip_is_deterministic(structures):
    import json

    cs = structures[2]
    blob = cs.to_json()
    again = compute_cells(2, 2).to_json()
    assert json.dumps(blob, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert blob["chain"] == ["J_split", "J_M0", "J_1", "J_2"]
    assert blob["chain_is_total"] is True
    assert blob["catalog_relative"] is True
    assert "below every listed cell" in blob["band_note"]
    assert len(blob["elements"]) == 52


def _all_pairs_edges(labels, n):
    """The sweep as it was before orbits: one product per ordered pair."""
    index = {lab: i for i, lab in enumerate(labels)}
    up_left = [1 << i for i in range(len(labels))]
    up_right = [1 << i for i in range(len(labels))]
    for a in labels:
        for b in labels:
            for summand in product_summands(a, b, n):
                gi = index.get(summand)
                if gi is None:
                    continue
                up_left[index[b]] |= 1 << gi
                up_right[index[a]] |= 1 << gi
    return up_left, up_right


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("max_valleys", [1, 2])
def test_orbit_sweep_matches_all_pairs_sweep(n, max_valleys):
    labels = catalog_labels(n, max_valleys)
    assert _divisibility_edges(labels, n) == _all_pairs_edges(labels, n)


def _warshall_closure(adjacency):
    """Reflexive-transitive closure by Floyd-Warshall over bitmask rows."""
    reach = [row | 1 << i for i, row in enumerate(adjacency)]
    for m in range(len(reach)):
        for i in range(len(reach)):
            if reach[i] >> m & 1:
                reach[i] |= reach[m]
    return reach


@st.composite
def _digraphs(draw):
    """Bitmask adjacency lists of up to 40 nodes; cycles and self-loops
    arise freely."""
    count = draw(st.integers(1, 40))
    node = st.integers(0, count - 1)
    adjacency = [0] * count
    for a, b in draw(st.lists(st.tuples(node, node), max_size=2 * count)):
        adjacency[a] |= 1 << b
    return adjacency


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_digraphs())
def test_close_reachability_matches_floyd_warshall(adjacency):
    assert (_close_reachability(adjacency, len(adjacency))
            == _warshall_closure(adjacency))


def _step_edges(left_steps, right_steps, n):
    """One-step bitmasks of every node, with each step expanded to the n
    nodes of the state it reaches."""
    size = n * n
    up_left, up_right = [], []
    for kind in range(len(left_steps)):
        for i in range(n):
            for j in range(n):
                b = kind * size + i * n + j
                up_left.append(1 << b)
                up_right.append(1 << b)
                for g, d in left_steps[kind]:
                    for o in range(n):
                        up_left[b] |= 1 << g * size + o * n + (j + d) % n
                for g, d in right_steps[kind]:
                    for o in range(n):
                        up_right[b] |= 1 << g * size + (i + d) % n * n + o
    return up_left, up_right


def _canonical(classes):
    left, right, two_sided, above, total = classes
    return (sorted(sorted(c) for c in left), sorted(sorted(c) for c in right),
            [sorted(c) for c in two_sided], above, total)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("max_valleys", [1, 2])
def test_product_steps_expand_to_the_divisibility_edges(n, max_valleys):
    labels = catalog_labels(n, max_valleys)
    assert (_step_edges(*_product_steps(labels, n), n)
            == _divisibility_edges(labels, n))


@pytest.mark.parametrize("max_valleys, n",
                         [(v, n) for v in (1, 2) for n in range(1, 7)]
                         + [(4, 12), (1, 24)])
def test_orbit_cells_match_per_node_closures(n, max_valleys):
    # every cell list, order pair and the totality flag
    assert (compute_cells(n, max_valleys)
            == oracle_compute_cells(n, max_valleys))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("max_valleys", [-1, 0])
def test_compute_cells_refuses_a_bound_below_one(n, max_valleys):
    # as the cells command does; without the one-valley strings the
    # computed chain would not be the predicted one
    with pytest.raises(ValueError, match=f"max_valleys must be at least 1, "
                                         f"not {max_valleys}"):
        compute_cells(n, max_valleys)


@st.composite
def _step_tables(draw):
    """Random left and right steps over 1-4 kinds and n <= 4: empty
    tables, self-loops, cycles and acyclic tables all arise."""
    kinds = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    state = st.tuples(st.integers(0, kinds - 1), st.integers(0, n - 1))
    table = st.lists(st.sets(state, max_size=3),
                     min_size=kinds, max_size=kinds)
    return draw(table), draw(table), n


def _kinds_reach_their_nodes(up, kinds, n):
    """Whether each kind's node 0 reaches every node of its kind, by the
    per-node closure of the one-step bitmasks ``up``."""
    size = n * n
    reach = _close_reachability(up, kinds * size)
    whole = (1 << size) - 1
    return all(reach[kind * size] >> kind * size & whole == whole
               for kind in range(kinds))


@settings(max_examples=550, deadline=None, derandomize=True, database=None)
@given(_step_tables())
def test_state_closure_matches_per_node_closures(tables):
    # the left and right classes on every table; the two-sided ones, their
    # order and totality where they are unions of kinds, else a raise
    left_steps, right_steps, n = tables
    size = n * n
    up_left, up_right = _step_edges(left_steps, right_steps, n)
    want = _canonical(oracle_classes(up_left, up_right))
    left = _line_classes(_state_reach(left_steps, n), n,
                         lambda kind, t, o: kind * size + o * n + t)
    right = _line_classes(_state_reach(right_steps, n), n,
                          lambda kind, t, o: kind * size + t * n + o)
    assert [sorted(sorted(c) for c in left),
            sorted(sorted(c) for c in right)] == list(want[:2])
    merged = [a | b for a, b in zip(up_left, up_right)]
    if _kinds_reach_their_nodes(merged, len(left_steps), n):
        assert (_canonical(_orbit_cells(left_steps, right_steps, n))
                == want)
    else:
        with pytest.raises(RuntimeError, match="not unions of kinds"):
            _orbit_cells(left_steps, right_steps, n)


def test_a_kind_that_misses_its_own_nodes_raises():
    # with no steps, node 0|0 reaches only itself, not the other three
    # nodes of its kind
    with pytest.raises(RuntimeError,
                       match=r"node 0\|0 of kind 0 does not reach"):
        _orbit_cells([set()], [set()], 2)


@pytest.mark.parametrize("n, max_valleys",
                         [(n, v) for n in range(1, 7) for v in range(4)]
                         + [(48, 1)])
def test_catalog_lists_labels_in_label_order(n, max_valleys):
    # compute_cells sorts catalog indices in place of labels
    labels = catalog_labels(n, max_valleys)
    assert labels == sorted(labels, key=_label_sort_key)
