"""Decomposition, split pairs, cached products, multiplication table."""

import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nakayama.bimodules import (
    FAMILIES,
    Bimodule,
    BimoduleMap,
    HomSpace,
    StringLabel,
    catalog_labels,
    construct,
    direct_sum,
    is_isomorphic,
    regular_bimodule,
    trace_pairing,
)
from nakayama.decomposition import (
    _CANDIDATE_CACHE,
    _SCAN_CACHE,
    _candidate_key,
    _candidates,
    _pieces,
    _scan_bound,
    canonical_summands,
    cell_chain_position,
    cell_name,
    cell_of,
    decompose,
    decompose_product,
    expected_product_family,
    multable_check,
    product_summands,
)
import nakayama
from nakayama import decomposition, tensoring
from nakayama.algebras import arrow_target
from nakayama.cells import compute_cells
from nakayama.linalg import sparse_rank
from nakayama.tensoring import TensorSpace, tensor

from decompose_oracle import whole_module_decompose
from dense_helpers import (
    ExactMatrix,
    dense_arrow,
    dense_block,
    dense_split_pair,
    identity,
    module_from_matrices,
    rescaled,
)


def lab(fam, i, j, k=None):
    return StringLabel(fam, i, j, k)


def _is_identity(m):
    """The identity test of a map component, compared entry by entry."""
    return m == identity(m.rows)


@pytest.fixture
def cold_caches():
    """Empty every cache before and after the test: a test that counts
    calls sees a cold scan, and one that fakes a helper leaves no scan it
    made behind."""
    nakayama.clear_caches()
    yield
    nakayama.clear_caches()


# -- cell tagging ------------------------------------------------------------

def test_cell_of_catalog():
    assert cell_of(lab("P", 1, 1)) == ("split",)
    assert cell_of(lab("L", 2, 1)) == ("split",)
    assert cell_of(lab("W", 1, 1, 0)) == ("split",)
    assert cell_of(lab("S", 1, 1, 0)) == ("split",)
    assert cell_of(lab("N", 2, 2, 0)) == ("split",)
    assert cell_of(lab("M", 2, 1, 0)) == ("M0",)
    assert cell_of(lab("S", 1, 2, 3)) == ("J", 3)
    assert cell_of(lab("W", 1, 1, 1)) == ("J", 1)


def test_cell_chain_order():
    chain = [("split",), ("M0",), ("J", 1), ("J", 2)]
    positions = [cell_chain_position(c) for c in chain]
    assert positions == sorted(positions)
    assert positions[0] < positions[1] < positions[2] < positions[3]
    assert [cell_name(c) for c in chain] == ["J_split", "J_M0", "J_1", "J_2"]


# -- split pairs -------------------------------------------------------------

def _split_pair_of(label, t, max_valleys):
    """The split pair that decompose keeps for label, against t."""
    rep = decompose(t, max_valleys)
    return next((sig, pi) for found, sig, pi in rep.split_pairs
                if found == label)


def test_split_pair_on_itself():
    label = lab("S", 1, 1, 1)
    x = construct(label, 2)
    sig, pi = _split_pair_of(label, x, 1)
    comp = pi.compose(sig)
    for v, d in x.dims.items():
        assert _is_identity(dense_block(comp, *v))


@pytest.mark.parametrize("n", [1, 2])
def test_split_pairs_match_the_dense_reference(n):
    # every product of two catalog members with at most one valley, up to
    # translation: u anchored in row 1 and v at 1|1
    labels = catalog_labels(n, 1)
    products = {tensor(construct(u, n), construct(v, n))
                for u in labels if u.i == 1 for v in labels
                if (v.i, v.j) == (1, 1)}
    checked = 0
    for t in products:
        for label, sig, pi in decompose(t, 1).split_pairs:
            x = construct(label, n)
            want_sig, want_pi = dense_split_pair(x, *trace_pairing(x, t))
            assert sig.components == want_sig.components
            for v in t.dims:
                assert dense_block(pi, *v) == dense_block(want_pi, *v)
            checked += 1
    assert checked


def test_split_pair_raises_unless_the_composite_is_invertible():
    # End(L + L) is all 2 x 2 matrices, whose first basis map is a matrix
    # unit; a pairing that points at it and itself gives p sig of rank 1
    x = direct_sum(*[construct(lab("L", 1, 1), 1)] * 2)
    space = HomSpace(x, x)
    with pytest.raises(RuntimeError, match="no split pair"):
        decomposition._split_pair(x, space, space, [{0: Fraction(1)}])


def test_split_pair_absent_when_hom_vanishes():
    n = 2
    _, _, g = trace_pairing(construct(lab("L", 1, 1), n),
                            construct(lab("L", 1, 2), n))
    assert not any(g)


def test_split_pair_in_tensor_square_of_n():
    n = 2
    label = lab("N", 1, 1, 1)
    x = construct(label, n)
    sig, pi = _split_pair_of(label, tensor(x, x), 1)
    comp = pi.compose(sig)
    for v, d in x.dims.items():
        assert _is_identity(dense_block(comp, *v))


# -- decompose ---------------------------------------------------------------

def test_decompose_zero():
    rep = decompose(Bimodule(2, {}, {}), 1)
    assert not rep.summands
    assert rep.residual_dim == 0


def test_decompose_explicit_sum_of_simples():
    n = 2
    s = construct(lab("L", 1, 1), n)
    rep = decompose(direct_sum(s, s), 1)
    assert rep.multiset() == Counter({lab("L", 1, 1): 2})
    assert rep.residual_dim == 0


@pytest.mark.parametrize("n,u,v", [
    (1, lab("L", 1, 1), lab("L", 1, 1)),
    (2, lab("L", 1, 1), lab("L", 1, 1)),
    # many candidates fit at n = 1, and most of them pair to rank 0
    (1, lab("W", 1, 1, 1), lab("M", 1, 1, 1)),
])
@pytest.mark.usefixtures("cold_caches")
def test_decompose_builds_only_the_split_pairs(monkeypatch, n, u, v):
    t = tensor(construct(u, n), construct(v, n))
    built = []
    init = BimoduleMap.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BimoduleMap, "__init__", counting_init)
    rep = decompose(t, 1)
    assert rep.split_pairs and rep.residual_dim == 0
    assert len(built) <= 2 * len(rep.multiset())


@pytest.mark.parametrize("sweep, n, k", [
    (multable_check, 1, 2),
    (compute_cells, 3, 2),
    (compute_cells, 6, 2),
], ids=["multable-1-2", "cells-3-2", "cells-6-2"])
@pytest.mark.usefixtures("cold_caches")
def test_products_are_tallied_with_no_map(monkeypatch, sweep, n, k):
    # the table and the cells read only the summands of each product
    built = []
    init = BimoduleMap.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BimoduleMap, "__init__", counting_init)
    sweep(n, k)
    assert _SCAN_CACHE and not built


@pytest.mark.parametrize("n, u, v, max_valleys", [
    (1, lab("L", 1, 1), lab("L", 1, 1), 1),
    (2, lab("L", 1, 1), lab("L", 1, 1), 1),
    # one of the products the cells workload decomposes
    (6, lab("M", 1, 1, 2), lab("S", 1, 1, 2), 2),
])
@pytest.mark.usefixtures("cold_caches")
def test_decompose_pairs_no_candidate_larger_than_what_is_left(
        monkeypatch, n, u, v, max_valleys):
    # the pairing scan itself: the scan reads these pieces as walks
    t = tensor(construct(u, n), construct(v, n))
    calls = []

    def counting_pairing(x, y):
        out = trace_pairing(x, y)
        calls.append((x.total_dim, sparse_rank(out[2], len(out[1]))))
        return out

    monkeypatch.setattr(decomposition, "trace_pairing", counting_pairing)
    residual, _ = decomposition._pairing_scan(t, max_valleys)
    assert calls and residual == 0
    remaining = t.total_dim
    for dim, mult in calls:
        assert dim <= remaining
        remaining -= mult * dim
    assert remaining == 0


def test_decompose_single_catalog_member():
    n = 3
    rep = decompose(construct(lab("P", 2, 1), n), 2)
    assert rep.summands == [lab("P", 2, 1)]
    assert rep.residual_dim == 0
    label, sig, pi = rep.split_pairs[0]
    comp = pi.compose(sig)
    for v in comp.source.dims:
        assert _is_identity(dense_block(comp, *v))


def test_decompose_w_square_spec_example():
    # the only valley-1 part of W^(1) at 1|1 squared is W^(1) at 1|1 itself
    n = 2
    w = construct(lab("W", 1, 1, 1), n)
    rep = decompose(tensor(w, w), 1)
    assert rep.residual_dim == 0
    apex = [label for label in rep.summands if cell_of(label) == ("J", 1)]
    assert apex == [lab("W", 1, 1, 1)]
    for other in rep.summands:
        if other != lab("W", 1, 1, 1):
            assert cell_of(other) in (("split",), ("M0",))


def test_decompose_soundness_certificate():
    n = 2
    t = tensor(construct(lab("M", 1, 1, 1), n),
               construct(lab("N", 1, 2, 1), n))
    rep = decompose(t, 2)
    dim_sum = sum(l.dimension for l in rep.summands) + rep.residual_dim
    assert dim_sum == t.total_dim
    for label, sig, pi in rep.split_pairs:
        assert sig.target == t
        assert pi.source == t
        comp = pi.compose(sig)
        for v in comp.source.dims:
            assert _is_identity(dense_block(comp, *v))


def test_decompose_idempotence():
    n = 2
    t = tensor(construct(lab("S", 1, 1, 1), n),
               construct(lab("N", 1, 1, 1), n))
    rep = decompose(t, 2)
    assert rep.residual_dim == 0
    rebuilt = direct_sum(*[construct(l, n) for l in rep.summands])
    rep2 = decompose(rebuilt, 2)
    assert rep2.multiset() == rep.multiset()


def test_decompose_counts_repeated_string():
    n = 2
    w = construct(lab("W", 1, 1, 1), n)
    t = direct_sum(w, construct(lab("L", 2, 1), n), w, w)
    rep = decompose(t, 1)
    assert rep.multiset() == Counter({lab("W", 1, 1, 1): 3,
                                      lab("L", 2, 1): 1})
    assert rep.residual_dim == 0
    pairs = {label: (sig, pi) for label, sig, pi in rep.split_pairs}
    assert set(pairs) == set(rep.multiset())
    sig, pi = pairs[lab("W", 1, 1, 1)]
    assert sig.target == t and pi.source == t
    sig.check()
    pi.check()
    comp = pi.compose(sig)
    for v in w.dims:
        assert _is_identity(dense_block(comp, *v))


def test_decompose_order_independent_on_sums():
    n = 2
    a = construct(lab("P", 1, 1), n)
    b = construct(lab("W", 1, 1, 1), n)
    c = construct(lab("L", 2, 1), n)
    one = decompose(direct_sum(a, b, c), 1).multiset()
    two = decompose(direct_sum(c, a, b), 1).multiset()
    assert one == two


@st.composite
def _catalog_members(draw, n, max_valleys):
    """A catalog label at any anchor, reduced mod n or not, W^(0) too."""
    fam = draw(st.sampled_from(FAMILIES))
    k = None if fam in ("P", "L") else draw(st.integers(0, max_valleys))
    return StringLabel(fam, draw(st.integers(-3, 6)),
                       draw(st.integers(-3, 6)), k)


def _assert_same_report(got, want):
    """got and want name the same summands in the same order, leave the
    same residual and keep the same split pairs, block for block."""
    assert got.summands == want.summands
    assert got.residual_dim == want.residual_dim
    assert got.to_json() == want.to_json()
    assert len(got.split_pairs) == len(want.split_pairs)
    for (label, sig, pi), (want_label, want_sig, want_pi) in zip(
            got.split_pairs, want.split_pairs):
        assert label == want_label
        assert sig.source == want_sig.source and sig.target == want_sig.target
        assert sig.components == want_sig.components
        assert pi.components == want_pi.components


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_decompose_recovers_random_direct_sums(data):
    # pairing multiplicities against dimension balance: a direct sum of
    # catalog members splits into exactly those members, nothing left over
    n, max_valleys = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
    labels = data.draw(st.lists(_catalog_members(n, max_valleys),
                                min_size=1, max_size=4))
    t = direct_sum(*(construct(u, n) for u in labels))
    rep = decompose(t, max_valleys)
    assert rep.multiset() == Counter(u.normalized(n) for u in labels)
    assert rep.residual_dim == 0
    _assert_same_report(rep, whole_module_decompose(t, max_valleys))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_pieces_split_random_direct_sums(data):
    n, max_valleys = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
    labels = data.draw(st.lists(_catalog_members(n, max_valleys),
                                min_size=1, max_size=4))
    t = direct_sum(*(construct(u, n) for u in labels))
    pieces = decomposition._pieces(t)
    assert sum((Counter(dict(piece.dims)) for piece in pieces),
               Counter()) == Counter(dict(t.dims))
    # each piece is connected, so it is its own one piece
    for piece in pieces:
        assert decomposition._pieces(piece) == [piece]
    # the pieces share out t's arrow entries
    assert sum((_arrow_entries(piece) for piece in pieces),
               Counter()) == _arrow_entries(t)
    assert is_isomorphic(direct_sum(*pieces), t)
    # an equal module rebuilt from scratch splits the same way
    again = decomposition._pieces(
        direct_sum(*(construct(u, n) for u in labels)))
    assert again == pieces


def _arrow_entries(t):
    """The nonzero arrow entries of t, counted by arrow and value."""
    return Counter((arrow, e) for arrow, cols in t.arrow_views.items()
                   for col in cols for _, e in col)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_band_is_residual_beside_strings(n):
    band = regular_bimodule(n)
    _assert_same_report(decompose(band, 2), whole_module_decompose(band, 2))
    label = lab("S", 1, 2, 1).normalized(n)
    t = direct_sum(construct(label, n), band, construct(label, n))
    rep = decompose(t, 2)
    _assert_same_report(rep, whole_module_decompose(t, 2))
    assert rep.summands == [label, label]
    assert rep.residual_dim == band.total_dim == 2 * n


def _mixed(t, v, r, s):
    """t moved along the change of coordinates g = I + E_{s,r} at v, the
    identity elsewhere, which adds coordinate r to coordinate s: each
    arrow A becomes g A g^-1, an isomorphic module."""
    d = t.dims[v]
    g = ExactMatrix.from_entries(d, d, [(q, q, 1) for q in range(d)]
                                 + [(s, r, 1)])
    g_inv = ExactMatrix.from_entries(d, d, [(q, q, 1) for q in range(d)]
                                     + [(s, r, -1)])
    mats = {}
    for kind, i, j in t.arrow_views:
        mat = dense_arrow(t, kind, i, j)
        if arrow_target(kind, i, j, t.n) == v:
            mat = g.mul(mat)
        if (i, j) == v:
            mat = mat.mul(g_inv)
        mats[(kind, i, j)] = mat
    out = module_from_matrices(t.n, dict(t.dims), mats)
    out.check_relations()
    return out


@pytest.mark.parametrize("n, label", [
    (1, lab("M", 1, 1, 1)),
    (2, lab("S", 1, 1, 1)),
    (3, lab("N", 2, 1, 2)),
])
def test_a_connected_sum_of_two_copies_still_splits(n, label):
    # a basis change that mixes the two copies at one vertex joins their
    # pieces, so the scan runs on the whole module and must still find
    # both copies, each certified by a split pair
    x = construct(label, n)
    v = min(x.dims)
    t = _mixed(direct_sum(x, x), v, 0, x.dims[v])
    assert is_isomorphic(t, direct_sum(x, x))
    assert len(decomposition._pieces(t)) == 1
    rep = decompose(t, 2)
    assert rep.multiset() == Counter({label: 2})
    assert rep.residual_dim == 0
    (found, sig, pi), = rep.split_pairs
    assert found == label and sig.target == t and pi.source == t
    sig.check()
    pi.check()
    comp = pi.compose(sig)
    for w in x.dims:
        assert _is_identity(dense_block(comp, *w))


@pytest.mark.parametrize("n, u, v", [
    (1, lab("S", 1, 1, 2), lab("S", 1, 1, 2)),
    # P and N^(0) lie in two pieces each, and the first piece is not the
    # one whose split pair a scan of the whole module takes
    (2, lab("M", 1, 1, 2), lab("P", 1, 1)),
    (2, lab("N", 1, 1, 2), lab("N", 1, 1, 2)),
    (3, lab("W", 1, 3, 2), lab("M", 1, 1, 2)),
])
def test_one_piece_gives_the_same_report(monkeypatch, n, u, v):
    t = tensor(construct(u, n), construct(v, n))
    assert len(decomposition._pieces(t)) > 1
    split = decompose(t, 2)
    monkeypatch.setattr(decomposition, "_pieces", lambda t: [t])
    _assert_same_report(split, decompose(t, 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cold_and_warm_scans_give_the_oracle_report(n):
    # every canonical product with at most two valleys, decomposed with no
    # piece scan cached and again with all of its scans cached
    kinds = sorted({(x.family, x.k) for x in catalog_labels(n, 2)},
                   key=lambda fk: (fk[1] is not None, fk))
    for fam_u, k_u in kinds:
        for fam_v, k_v in kinds:
            for e in range(1, n + 1):
                t, max_valleys = _canonical_product(n, fam_u, k_u, e,
                                                    fam_v, k_v)
                _SCAN_CACHE.clear()
                cold = decompose(t, max_valleys)
                warm = decompose(t, max_valleys)
                _assert_same_report(cold, whole_module_decompose(
                    t, max_valleys))
                _assert_same_report(warm, cold)


@pytest.mark.usefixtures("cold_caches")
def test_a_piece_is_scanned_once_across_valley_bounds():
    # S^(1) + N^(1) has two pieces of dimension 4, which hold no string
    # with two valleys, so each is scanned under the bound 1 for every
    # bound from 1 to 3, with the same report as the whole-module scan;
    # the whole module, of dimension 8, has a key under each bound
    n = 2
    t = direct_sum(construct(lab("S", 1, 1, 1), n),
                   construct(lab("N", 1, 2, 1), n))
    for max_valleys in (3, 1, 2):
        _assert_same_report(decompose(t, max_valleys),
                            whole_module_decompose(t, max_valleys))
    assert sorted(bound for m, bound in _SCAN_CACHE if m != t) == [1, 1]
    assert sorted(bound for m, bound in _SCAN_CACHE if m == t) == [1, 2, 3]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_sums_in_either_order_share_their_scans(data):
    # x + y and y + x hold the same pieces under different index maps, so
    # the second is decomposed from the scans of the first
    n, max_valleys = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
    u = data.draw(_catalog_members(n, max_valleys))
    w = data.draw(_catalog_members(n, max_valleys))
    x, y = construct(u, n), construct(w, n)
    for t in (direct_sum(x, y), direct_sum(y, x)):
        _assert_same_report(decompose(t, max_valleys),
                            whole_module_decompose(t, max_valleys))
    # x + x is two equal pieces: x is listed twice, with the first copy's
    # split pair, whose maps touch no basis vector of the second copy
    t = direct_sum(x, x)
    rep = decompose(t, max_valleys)
    _assert_same_report(rep, whole_module_decompose(t, max_valleys))
    assert rep.summands == [u.normalized(n)] * 2
    (_, sig, pi), = rep.split_pairs
    for v, d in x.dims.items():
        sig_cols, pi_cols = sig.components[v], pi.components[v]
        assert all(r < d for col in sig_cols for r, _ in col)
        assert not any(pi_cols[d:])


@pytest.mark.usefixtures("cold_caches")
def test_a_cold_multable_pairs_each_piece_once(monkeypatch):
    calls = []

    def counting_pairing(x, y):
        calls.append((x, y))
        return trace_pairing(x, y)

    monkeypatch.setattr(decomposition, "trace_pairing", counting_pairing)
    assert multable_check(1, 3)["ok"]
    assert calls and len(calls) == len(set(calls))


def test_regular_bimodule_is_honest_residual():
    # the algebra itself is a band-type bimodule, outside the string
    # catalog; the decomposer must refuse to force it
    for n in (1, 2):
        rep = decompose(regular_bimodule(n), 3)
        assert not rep.summands
        assert rep.residual_dim == 2 * n


def test_report_json_shape():
    n = 2
    rep = decompose(tensor(construct(lab("S", 1, 1, 0), n),
                           construct(lab("N", 1, 1, 0), n)), 1)
    doc = rep.to_json()
    assert set(doc) == {"n", "summands", "residual_dim", "cells"}
    assert doc["residual_dim"] == 0
    assert len(doc["cells"]) == len(doc["summands"])
    for item in doc["summands"]:
        assert set(item) == {"family", "i", "j", "k", "multiplicity"}


# -- cached products ---------------------------------------------------------

def test_product_summands_matches_direct_decomposition():
    n = 3
    u, v = lab("W", 2, 2, 1), lab("S", 2, 1, 1)
    via_cache = Counter(product_summands(u, v, n))
    t = tensor(construct(u, n), construct(v, n))
    direct = decompose(t, max(1, (t.total_dim - 1) // 2)).multiset()
    assert via_cache == direct


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_products_leave_no_residual(n):
    # U anchored at 1|e and V at 1|1, for every pair of kinds of the
    # catalog with at most two valleys, P and L included; the report is
    # that of the whole-module scan
    kinds = sorted({(x.family, x.k) for x in catalog_labels(n, 2)},
                   key=lambda fk: (fk[1] is not None, fk))
    for fam_u, k_u in kinds:
        for fam_v, k_v in kinds:
            for e in range(1, n + 1):
                u, v = lab(fam_u, 1, e, k_u), lab(fam_v, 1, 1, k_v)
                rep = decompose_product(u, v, n)
                assert rep.residual_dim == 0, (u, v)
                _assert_same_report(rep, whole_module_decompose(
                    *_canonical_product(n, fam_u, k_u, e, fam_v, k_v)))


def _canonical_product(n, fam_u, k_u, e, fam_v, k_v):
    """The canonical product module and its valley bound, built afresh."""
    u, v = lab(fam_u, 1, e, k_u), lab(fam_v, 1, 1, k_v)
    return (tensor(construct(u, n), construct(v, n)),
            max(k_u or 0, k_v or 0, 1))


def _canonical_keys(n, max_valleys):
    """The canonical_summands arguments of every pair of kinds of the
    catalog and every offset."""
    kinds = sorted({(x.family, x.k) for x in catalog_labels(n, max_valleys)},
                   key=lambda fk: (fk[1] is not None, fk))
    return [(n, fam_u, k_u, e, fam_v, k_v) for fam_u, k_u in kinds
            for fam_v, k_v in kinds for e in range(1, n + 1)]


def _effective(t, max_valleys):
    """The scan-cache key of t under a valley bound."""
    return t, _scan_bound(t.total_dim, max_valleys)


def test_cells_decompose_each_distinct_product_once(monkeypatch):
    # every scan miss, with whether it came from a product (the top level)
    # or from a piece; a product equal to an earlier piece is a hit
    misses, depth = [], [0]
    scan = decomposition._scan

    def counting(t, max_valleys, *pieces):
        if _effective(t, max_valleys) not in _SCAN_CACHE:
            misses.append((_effective(t, max_valleys), not depth[0]))
        depth[0] += 1
        try:
            return scan(t, max_valleys, *pieces)
        finally:
            depth[0] -= 1

    nakayama.clear_caches()
    monkeypatch.setattr(decomposition, "_scan", counting)
    compute_cells(3, 2)
    keys = _canonical_keys(3, 2)
    products = {key: _canonical_product(*key) for key in keys}
    # a zero product is neither scanned nor a key, and has no summands
    distinct = {_effective(*product) for product in products.values()
                if product[0].total_dim}
    scanned = [key for key, _ in misses]
    assert len(scanned) == len(set(scanned)) == len(_SCAN_CACHE)
    assert {key for key, top in misses if top} <= distinct <= set(scanned)
    assert not any(t.is_zero() for t, _ in scanned)
    zeros = [key for key, (t, _) in products.items() if t.is_zero()]
    assert zeros and all(canonical_summands(*key) == () for key in zeros)
    assert len(distinct) < len(keys)


@pytest.mark.usefixtures("cold_caches")
def test_cold_cells_check_each_scanned_connected_module_once(monkeypatch):
    # the relations are checked once per connected module that a scan
    # misses on, and once per catalog walk that construct builds, never
    # for a product that hits the scan cache; only the 530 nonzero
    # products of the 1,014 are assembled
    checked, products = [], []
    check_relations = Bimodule.check_relations
    assemble = TensorSpace.assemble

    def counting_check(self):
        checked.append(self)
        return check_relations(self)

    def recording_assemble(self):
        out = assemble(self)
        products.append(out)
        return out

    monkeypatch.setattr(Bimodule, "check_relations", counting_check)
    monkeypatch.setattr(TensorSpace, "assemble", recording_assemble)
    compute_cells(6, 2)
    monkeypatch.undo()
    walks = [x for (label, _), x in nakayama.bimodules._CONSTRUCT_CACHE.items()
             if (label.i, label.j) == (1, 1)]
    scanned = [t for t, _ in _SCAN_CACHE
               if len(decomposition._pieces(t)) < 2]
    assert sorted(map(id, checked)) == sorted(map(id, walks + scanned))
    keys = {id(t) for t, _ in _SCAN_CACHE}
    hits = [t for t in products if id(t) not in keys]
    assert all(t.total_dim for t in products)
    assert len(products) == 530 and len(hits) > 480
    assert not {id(t) for t in hits} & set(map(id, checked))
    assert len(checked) <= 60


def _counting(monkeypatch, function):
    """The argument tuples of every call of a package function, which is
    replaced in each package module that holds it."""
    calls = []

    def counting(*args):
        calls.append(args)
        return function(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nakayama":
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.usefixtures("cold_caches")
@pytest.mark.parametrize("n, max_valleys, assemblies, builds",
                         [(6, 2, 530, 164), (48, 1, 178, 466)])
def test_cold_cells_build_each_factor_once_and_no_zero_product(
        monkeypatch, n, max_valleys, assemblies, builds):
    # of the 1,014 canonical products at (6, 2), 484 are zero, and of the
    # 3,888 at (48, 1), 3,710; only the nonzero ones are assembled, and
    # each factor is built once, not once per product
    constructs = _counting(monkeypatch, construct)
    assembled = []
    assemble = TensorSpace.assemble

    def recording_assemble(self):
        assembled.append(self)
        return assemble(self)

    monkeypatch.setattr(TensorSpace, "assemble", recording_assemble)
    compute_cells(n, max_valleys)
    assert len(assembled) == assemblies
    assert len(constructs) <= builds
    assert not any(t.is_zero() for t, _ in _SCAN_CACHE)


@pytest.mark.usefixtures("cold_caches")
@pytest.mark.parametrize("key, paired", [((3, "L", None, 2, "L", None), False),
                                         ((2, "P", None, 2, "L", None), True)])
def test_a_zero_product_builds_no_module(monkeypatch, key, paired):
    # L_1|2 (x) L_1|1 at n = 3 has no pair basis; P_1|2 (x) L_1|1 at n = 2
    # has one, but its balancing quotient is zero at every vertex
    n, fam_u, k_u, e, fam_v, k_v = key
    space = TensorSpace(construct(lab(fam_u, 1, e, k_u), n),
                        construct(lab(fam_v, 1, 1, k_v), n))
    assert bool(space.pieces) == paired and not space.qdims
    scans = dict(_SCAN_CACHE)
    built = []
    init = Bimodule.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Bimodule, "__init__", counting_init)
    assert canonical_summands(*key) == ()
    assert not built and _SCAN_CACHE == scans


@pytest.mark.usefixtures("cold_caches")
@pytest.mark.parametrize("fam_v, k_v, pieces", [("M", 0, 1), ("M", 1, 2)])
def test_a_product_that_breaks_a_square_is_refused(monkeypatch, fam_v, k_v,
                                                   pieces):
    # at n = 2, P_1|1 (x) M^(0)_1|1 is connected and P_1|1 (x) M^(1)_1|1
    # has two pieces; doubling the v arrows out of the graded piece at 1|1
    # breaks the square there, in the product and in the piece that holds it
    n = 2
    x, y = construct(lab("P", 1, 1), n), construct(lab(fam_v, 1, 1, k_v), n)
    assert len(decomposition._pieces(tensor(x, y))) == pieces
    at_1_1 = TensorSpace(x, y).pieces[(1, 1)]
    moved = tensoring._moved

    def doubled(src, tgt, views, left):
        out = moved(src, tgt, views, left)
        if src is at_1_1 and left:
            return [(q, c, 2 * h) for q, c, h in out]
        return out

    monkeypatch.setattr(tensoring, "_moved", doubled)
    broken = r"square does not commute at 1\|1"
    with pytest.raises(ValueError, match=broken):
        canonical_summands(n, "P", None, 1, fam_v, k_v)
    with pytest.raises(ValueError, match=broken):
        tensor(x, y)
    monkeypatch.undo()
    assert canonical_summands(n, "P", None, 1, fam_v, k_v)


@pytest.mark.usefixtures("cold_caches")
def test_cells_keep_one_scan_entry_per_module():
    # every nonzero canonical product is a key under its effective bound,
    # the zero module is no key, and no module is a key under a bound
    # that _scan_bound maps to another one
    compute_cells(6, 2)
    products = {_effective(*_canonical_product(*key))
                for key in _canonical_keys(6, 2)}
    assert any(t.is_zero() for t, _ in products)
    assert not any(t.is_zero() for t, _ in _SCAN_CACHE)
    products = {(t, bound) for t, bound in products if t.total_dim}
    assert products <= set(_SCAN_CACHE)
    assert all(_effective(t, bound) == (t, bound) for t, bound in _SCAN_CACHE)
    keys_of = Counter(t for t, _ in _SCAN_CACHE)
    bounds_of = Counter(t for t, _ in products)
    assert all(keys_of[t] == bounds_of[t] for t in bounds_of)


def _whole_torus(n, max_valleys):
    """A dimension vector that every catalog member up to max_valleys
    fits inside: P has 4 points and a string with k valleys at most
    2k+3."""
    return {(i, j): 2 * max_valleys + 4
            for i in range(1, n + 1) for j in range(1, n + 1)}


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_candidates_run_largest_first_in_label_order(n):
    # candidate order, by which a scan runs and the summands of pieces
    # merge, is the catalog sorted stably by the dimension of the module
    for max_valleys in range(4):
        whole = _whole_torus(n, max_valleys)
        cands = list(_candidates(n, max_valleys, whole))
        assert [label for label, _ in cands] == sorted(
            catalog_labels(n, max_valleys),
            key=lambda label: -construct(label, n).total_dim)
        assert all(x == construct(label, n) for label, x in cands)


def _fits(x, dims):
    return all(dims.get(v, 0) >= d for v, d in x.dims.items())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_candidates_are_the_sorted_catalog_members_that_fit(n):
    # the walk over kinds drops no member that fits and keeps the order of
    # the whole catalog, for every catalog module, every canonical product
    # and every piece of those products
    modules = {construct(label, n) for label in catalog_labels(n, 2)}
    for key in _canonical_keys(n, 2):
        t, _ = _canonical_product(*key)
        modules.add(t)
        modules.update(_pieces(t))
    for max_valleys in range(3):
        catalog = sorted(catalog_labels(n, max_valleys), key=_candidate_key)
        for t in modules:
            want = [label for label in catalog
                    if _fits(construct(label, n), t.dims)]
            assert [label for label, _ in _candidates(
                n, max_valleys, t.dims)] == want, t


@pytest.mark.usefixtures("cold_caches")
def test_decompose_refuses_a_multiplicity_past_the_dimension(monkeypatch):
    # a pairing rank read twice too high claims two copies of the one
    # summand, which no longer fit in the module's dimension vector; P's
    # square is no walk, so it is paired
    x = construct(lab("P", 1, 1), 2)

    def doubled(rows, ncols):
        return 2 * sparse_rank(rows, ncols)

    monkeypatch.setattr(decomposition, "sparse_rank", doubled)
    with pytest.raises(RuntimeError, match="dimension balance fails"):
        decompose(x, 1)


@pytest.mark.usefixtures("cold_caches")
def test_decompose_refuses_a_tally_the_whole_module_does_not_pair_to(
        monkeypatch):
    # one copy too many in the pieces' tally disagrees with the rank of
    # the summand's pairing with the whole module
    x = construct(lab("N", 1, 1, 1), 2)
    t = direct_sum(x, x)
    scan = decomposition._scan

    def one_too_many(m, max_valleys, *pieces):
        residual, summands = scan(m, max_valleys, *pieces)
        return residual, summands + summands[:1] if m is t else summands

    monkeypatch.setattr(decomposition, "_scan", one_too_many)
    with pytest.raises(RuntimeError, match="pairs to rank 2 with the whole "
                                           "module, but its pieces hold 3"):
        decompose(t, 1)


@pytest.mark.usefixtures("cold_caches")
def test_canonical_summands_refuse_a_residual(monkeypatch):
    # with no catalog to search and no walk read, the whole product is
    # residual, and a cached scan keeps that residual, so a second call
    # refuses it too
    monkeypatch.setattr(decomposition, "_candidates",
                        lambda n, k, dims: iter(()))
    monkeypatch.setattr(decomposition, "_walk_scan", lambda t, bound: None)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="unexpected residual"):
            canonical_summands(2, "N", 1, 1, "N", 1)
    t, max_valleys = _canonical_product(2, "N", 1, 1, "N", 1)
    assert t.total_dim
    assert _SCAN_CACHE[_effective(t, max_valleys)] == (t.total_dim, ())


# -- pieces read as walks -----------------------------------------------------

@pytest.mark.parametrize("sweep, n, k", [
    (multable_check, 1, 1),
    (multable_check, 1, 2),
    (multable_check, 1, 3),
    (multable_check, 1, 4),
    (compute_cells, 1, 4),
    (compute_cells, 2, 3),
    (compute_cells, 3, 2),
])
@pytest.mark.usefixtures("cold_caches")
def test_every_walk_read_agrees_with_the_pairing_scan(sweep, n, k):
    # every connected module a sweep scans, read as a walk and scanned by
    # trace pairing; each sweep meets P's square, which is paired
    sweep(n, k)
    connected = [key for key in _SCAN_CACHE if len(_pieces(key[0])) == 1]
    walks = 0
    for t, bound in connected:
        label = decomposition._walk_scan(t, bound)
        paired = decomposition._pairing_scan(t, bound)
        assert _SCAN_CACHE[t, bound] == paired, t
        if label is not None:
            walks += 1
            assert paired == (0, (label,)), t
    assert 0 < walks < len(connected)


def _walk_of(x, bound=8):
    walk = decomposition._read_walk(x)
    assert walk is not None
    return decomposition._name_walk(walk, x.n, bound)


@pytest.mark.parametrize("n, label", [
    (3, lab("W", 1, 1, 2)),
    (1, lab("M", 1, 1, 2)),
    (2, lab("S", 2, 1, 1)),
    (2, lab("N", 1, 2, 0)),
    (1, lab("L", 1, 1)),
])
def test_a_string_reads_as_its_own_walk(n, label):
    x = construct(label, n)
    found, walk = _walk_of(x)
    assert found == label
    decomposition._certify(x, walk, label)
    # read from its other end, a walk's steps are greater, so the end it
    # is read from does not depend on the order of the arrow views
    read = decomposition._read_walk(x)
    back = decomposition._reversed_walk(read)
    assert back[1] > read[1] or not read[1]
    assert back[0][::-1] == read[0] and back[2][::-1] == read[2]
    turned = Bimodule(n, dict(x.dims), {}, views=dict(
        reversed(list(x.arrow_views.items()))))
    assert turned == x and decomposition._read_walk(turned) == read


def test_a_walk_with_other_scalars_rebases_onto_the_catalog():
    # the rebasing scales each node, so a step entry of 2/3 reads as 1
    x = rescaled(lab("W", 1, 1, 2), 3, ("v", 1, 1), Fraction(2, 3))
    assert x != construct(lab("W", 1, 1, 2), 3)
    label, walk = _walk_of(x)
    assert label == lab("W", 1, 1, 2)
    assert Fraction(2, 3) in walk[2]
    decomposition._certify(x, walk, label)
    nakayama.clear_caches()
    assert decomposition._scan(x, 2) == (0, (label,))


@pytest.mark.parametrize("n, label, wrong", [
    # a wrong anchor
    (3, lab("W", 1, 1, 2), lab("W", 2, 1, 2)),
    (1, lab("M", 1, 1, 2), lab("M", 1, 1, 1)),
    # a wrong kind of the same dimension
    (3, lab("W", 1, 1, 2), lab("M", 1, 1, 1)),
    (1, lab("M", 1, 1, 2), lab("W", 1, 1, 3)),
    (2, lab("S", 1, 1, 1), lab("N", 1, 1, 1)),
    (1, lab("N", 1, 1, 1), lab("S", 1, 1, 1)),
])
def test_the_certificate_refuses_a_wrong_label(n, label, wrong):
    x = construct(label, n)
    found, walk = _walk_of(x)
    assert found == label
    with pytest.raises(RuntimeError, match="does not rebase onto"):
        decomposition._certify(x, walk, wrong)


def test_the_certificate_refuses_a_wrong_scalar():
    x = construct(lab("W", 1, 1, 2), 3)
    label, (nodes, steps, scalars) = _walk_of(x)
    with pytest.raises(RuntimeError, match="does not rebase onto"):
        decomposition._certify(x, (nodes, steps, [2] + scalars[1:]), label)


def test_a_walk_past_the_bound_is_paired():
    x = construct(lab("W", 1, 1, 3), 1)
    assert _walk_of(x, 2) is None
    assert _walk_of(x, 3)[0] == lab("W", 1, 1, 3)


@pytest.mark.parametrize("t, summands", [
    # P's square, the regular bimodule's band, and strings in a basis that
    # is no longer monomial
    (construct(lab("P", 2, 1), 3), (lab("P", 2, 1),)),
    (regular_bimodule(2), None),
    (_mixed(construct(lab("N", 1, 1, 1), 1), (1, 1), 0, 1),
     (lab("N", 1, 1, 1),)),
    (_mixed(construct(lab("M", 1, 1, 2), 1), (1, 1), 2, 0),
     (lab("M", 1, 1, 2),)),
], ids=["P", "regular", "mixed-N", "mixed-M"])
@pytest.mark.usefixtures("cold_caches")
def test_a_module_that_is_no_walk_is_paired(monkeypatch, t, summands):
    calls = []

    def counting_pairing(x, y):
        calls.append(x)
        return trace_pairing(x, y)

    monkeypatch.setattr(decomposition, "trace_pairing", counting_pairing)
    assert len(_pieces(t)) == 1
    assert decomposition._read_walk(t) is None
    scan = decomposition._scan(t, 2)
    assert calls
    assert scan == (decomposition._pairing_scan(t, 2) if summands is None
                    else (0, summands))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_memoized_summands_match_a_fresh_decomposition(n):
    # the summands of every product, read through the cache, then each
    # product, the zero ones too, decomposed afresh with no scan cached;
    # a zero product is no key of the scan cache and has no summands
    nakayama.clear_caches()
    keys = _canonical_keys(n, 2)
    memo = {key: canonical_summands(*key) for key in keys}
    products = {_effective(*_canonical_product(*key)) for key in keys}
    assert len(products) < len(keys)
    assert not any(t.is_zero() for t, _ in _SCAN_CACHE)
    assert all(memo[key] == () for key in keys
               if _canonical_product(*key)[0].is_zero())
    assert {(t, bound) for t, bound in products if t.total_dim} \
        <= set(_SCAN_CACHE)
    for key in keys:
        _SCAN_CACHE.clear()
        fresh = decompose(*_canonical_product(*key))
        assert memo[key] == tuple(fresh.summands), key


def test_product_summands_translation_consistency():
    # shifting both anchors shifts the summands; exercised across a cache hit
    n = 3
    base = Counter(product_summands(lab("N", 1, 1, 1), lab("M", 1, 1, 1), n))
    shifted = Counter(
        l.shifted(-1, -2, n)
        for l in product_summands(lab("N", 2, 2, 1), lab("M", 2, 3, 1), n))
    assert base == shifted


def test_expected_product_family_table():
    # rows U, columns V
    table = {
        ("W", "W"): "W", ("W", "S"): "W", ("W", "N"): "N", ("W", "M"): "N",
        ("S", "W"): "S", ("S", "S"): "S", ("S", "N"): "M", ("S", "M"): "M",
        ("N", "W"): "W", ("N", "S"): "W", ("N", "N"): "N", ("N", "M"): "N",
        ("M", "W"): "S", ("M", "S"): "S", ("M", "N"): "M", ("M", "M"): "M",
    }
    for (fu, fv), want in table.items():
        assert expected_product_family(fu, fv) == want


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1)])
def test_multiplication_table_small(n, k):
    result = multable_check(n, k)
    assert result["ok"], result["mismatches"][:3]
    assert result["products"] == 16 * n ** 4


def _per_anchor_multable(n, k):
    """``multable_check`` as one product per anchor quadruple, the sweep
    it was before it went over canonical products."""
    families = ("W", "S", "N", "M")
    mismatches = []
    total = 0
    rng = range(1, n + 1)
    for fam_u in families:
        for fam_v in families:
            want_fam = decomposition.expected_product_family(fam_u, fam_v)
            for i in rng:
                for j in rng:
                    for r in rng:
                        for s in rng:
                            u = StringLabel(fam_u, i, j, k)
                            v = StringLabel(fam_v, r, s, k)
                            apex = [x for x in product_summands(u, v, n)
                                    if decomposition.cell_of(x) == ("J", k)]
                            want = [StringLabel(want_fam, i, s,
                                                k).normalized(n)] \
                                if j == r else []
                            total += 1
                            if sorted(apex) != sorted(want):
                                mismatches.append({
                                    "u": u.literal(), "v": v.literal(),
                                    "got": [x.literal() for x in apex],
                                    "want": [x.literal() for x in want]})
    return {"n": n, "k": k, "products": total,
            "mismatches": mismatches, "ok": not mismatches}


@pytest.mark.parametrize("n,k", [(1, 2), (3, 1), (2, 0)])
def test_multable_matches_the_per_anchor_sweep(n, k):
    # at k = 0 the apex lies in no valley cell, so every product with
    # j = r mismatches: the W^(0) factors fold into L
    assert multable_check(n, k) == _per_anchor_multable(n, k)


@pytest.mark.parametrize("n", [2, 3])
def test_a_wrong_table_entry_lists_every_anchor_in_sweep_order(
        monkeypatch, n):
    # two family pairs expect the wrong entry, so their anchors with
    # j = r mismatch, interleaved with the matching ones
    table = decomposition.expected_product_family

    def wrong(fam_u, fam_v):
        if (fam_u, fam_v) in (("S", "N"), ("M", "W")):
            return "W"
        return table(fam_u, fam_v)

    monkeypatch.setattr(decomposition, "expected_product_family", wrong)
    result = multable_check(n, 1)
    assert not result["ok"]
    assert len(result["mismatches"]) == 2 * n ** 3
    assert result == _per_anchor_multable(n, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_a_wrong_apex_lists_every_anchor_in_sweep_order(monkeypatch, n):
    # count the summands of the greatest cell as valley-1 apex too, so
    # products off the table (j != r) mismatch with a nonempty apex
    real = decomposition.cell_of

    def widened(label):
        tag = real(label)
        return ("J", 1) if tag == ("split",) else tag

    monkeypatch.setattr(decomposition, "cell_of", widened)
    result = multable_check(n, 1)
    assert any(m["got"] and not m["want"] for m in result["mismatches"])
    assert result == _per_anchor_multable(n, 1)


def test_f_ij_tensor_f_jl_gives_four_of_each():
    n, k, i, j, l = 2, 1, 1, 2, 1
    fams = ("W", "S", "N", "M")
    apex = Counter()
    for fu in fams:
        for fv in fams:
            for s in product_summands(lab(fu, i, j, k), lab(fv, j, l, k), n):
                if cell_of(s) == ("J", k):
                    apex[s] += 1
    assert apex == Counter({lab(f, i, l, k): 4 for f in fams})


@pytest.mark.usefixtures("cold_caches")
def test_candidate_cache_is_immutable_and_largest_first():
    # one entry per kind: its label at 1|1, construct's module of it and
    # the module's least vertex, in candidate order
    whole = _whole_torus(2, 1)
    cands = list(_candidates(2, 1, whole))
    kinds = _CANDIDATE_CACHE[(2, 1)]
    assert list(_candidates(2, 1, whole)) == cands
    assert _CANDIDATE_CACHE[(2, 1)] is kinds
    for entries in _CANDIDATE_CACHE.values():
        assert isinstance(entries, tuple)
        assert all(isinstance(entry, tuple) for entry in entries)
    assert [label for label, _, _ in kinds] == sorted(
        {lab(x.family, 1, 1, x.k) for x in catalog_labels(2, 1)},
        key=_candidate_key)
    assert all(x is construct(label, 2) and low == min(x.dims)
               for label, x, low in kinds)
    dims = [x.total_dim for _, x in cands]
    assert dims == sorted(dims, reverse=True)
    assert {label for label, _ in cands} == set(catalog_labels(2, 1))
