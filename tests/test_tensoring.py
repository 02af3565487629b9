"""Tensor calculus: unit laws, frozen products, functoriality.

The frozen expectations were computed by hand on the pair bases (walk by
walk); they pin down both the dimensions and the anchor indices.
"""

from fractions import Fraction

import pytest

from nakayama import linalg
from nakayama.algebras import residue
from nakayama.bimodules import (
    Bimodule,
    HomSpace,
    StringLabel,
    catalog_labels,
    construct,
    is_isomorphic,
    regular_bimodule,
)
from nakayama.linalg import ONE, ZERO, ExactMatrix, sparse_rref
from nakayama.tensoring import TensorSpace, tensor, tensor_map

from dense_helpers import dense_arrow, identity_map, rescaled


def lab(fam, i, j, k=None):
    return StringLabel(fam, i, j, k)


# -- unit laws ---------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_algebra_is_the_tensor_unit(n):
    reg = regular_bimodule(n)
    probes = [lab("P", 1, 1), lab("L", 1, n), lab("S", 1, 1, 1),
              lab("M", n, 1, 1)]
    for label in probes:
        x = construct(label, n)
        assert is_isomorphic(tensor(reg, x), x), f"left unit on {label}"
        assert is_isomorphic(tensor(x, reg), x), f"right unit on {label}"


def test_unit_squared():
    for n in (1, 2, 3):
        reg = regular_bimodule(n)
        assert is_isomorphic(tensor(reg, reg), reg)


def test_tensor_with_zero():
    n = 2
    x = construct(lab("S", 1, 1, 1), n)
    assert tensor(x, Bimodule(n, {}, {})).is_zero()
    assert tensor(Bimodule(n, {}, {}), x).is_zero()


# -- frozen products ---------------------------------------------------------

def test_w_string_is_idempotent_without_wraparound():
    # at n = 3 the product of W^(1) at 1|1 with itself has no room to wrap,
    # so it comes back exactly as W^(1) at 1|1
    n = 3
    w = construct(lab("W", 1, 1, 1), n)
    t = tensor(w, w)
    assert t.total_dim == 3
    assert is_isomorphic(t, w)


def test_half_strings_compose_to_the_square():
    # S^(0) at 1|1 followed by N^(0) at 1|1 glue into the square at 1|1
    n = 2
    s = construct(lab("S", 1, 1, 0), n)
    nn = construct(lab("N", 1, 1, 0), n)
    t = tensor(s, nn)
    assert t == construct(lab("P", 1, 1), n)


def test_m0_squares_to_the_projective():
    n = 3
    m0 = construct(lab("M", 1, 1, 0), n)
    t = tensor(m0, m0)
    assert t == construct(lab("P", 1, 1), n)


def test_squares_absorb_or_annihilate():
    # P at i|j times P at r|s survives only when j lands on r or r+1
    n = 3
    p11 = construct(lab("P", 1, 1), n)
    p21 = construct(lab("P", 2, 1), n)
    assert is_isomorphic(tensor(p11, p11), p11)
    assert tensor(p11, p21).is_zero()
    # j = 2 hits r + 1 for r = 1
    p12 = construct(lab("P", 1, 2), n)
    assert is_isomorphic(tensor(p12, p11), p11)


def test_mismatched_anchors_need_not_vanish_but_dims_drop():
    # a wraparound case: at n = 1 every anchor matches every other
    n = 1
    w = construct(lab("W", 1, 1, 1), n)
    m = construct(lab("M", 1, 1, 1), n)
    t = tensor(w, m)
    assert t.total_dim == 8  # 15 pairs, 7 independent balancing rows
    t.check_relations()


# -- associativity -----------------------------------------------------------

@pytest.mark.parametrize("labels", [
    (lab("S", 1, 1, 0), lab("N", 1, 1, 0), lab("P", 1, 1)),
    (lab("W", 1, 1, 1), lab("W", 1, 1, 1), lab("S", 1, 2, 1)),
    (lab("M", 1, 2, 0), lab("M", 2, 1, 0), lab("M", 1, 1, 0)),
])
def test_associativity_samples(labels):
    n = 2
    x, y, z = (construct(l, n) for l in labels)
    left = tensor(tensor(x, y), z)
    right = tensor(x, tensor(y, z))
    assert left.dim_vector() == right.dim_vector()
    assert is_isomorphic(left, right)


# -- induced maps ------------------------------------------------------------

def test_tensor_map_of_identity():
    n = 2
    x = construct(lab("S", 1, 1, 1), n)
    y = construct(lab("N", 1, 1, 1), n)
    t = tensor(x, y)
    g = tensor_map(x, identity_map(y))
    assert g.source == t
    assert g.target == t
    for v, d in t.dims.items():
        assert g.component(*v) == ExactMatrix.identity(d)


def test_tensor_map_intertwines_and_matches_tensor():
    n = 3
    x = construct(lab("W", 1, 1, 1), n)
    m = construct(lab("M", 1, 1, 1), n)
    nn = construct(lab("N", 1, 1, 1), n)
    fs = HomSpace(m, nn).maps
    assert fs
    for f in fs:
        g = tensor_map(x, f)
        assert g.source == tensor(x, m)
        assert g.target == tensor(x, nn)
        g.check()


def test_tensor_map_respects_composition():
    n = 2
    x = construct(lab("S", 1, 2, 1), n)
    m = construct(lab("M", 2, 1, 1), n)
    nn = construct(lab("N", 2, 1, 1), n)
    fs = HomSpace(m, nn).maps
    gs = HomSpace(nn, nn).maps
    f, g = fs[0], gs[0]
    lhs = tensor_map(x, g.compose(f))
    rhs = tensor_map(x, g).compose(tensor_map(x, f))
    for v in lhs.source.dims:
        assert lhs.component(*v) == rhs.component(*v)


@pytest.mark.parametrize("n,max_valleys", [(1, 2), (2, 1)])
def test_pair_bases_match_full_vertex_scan(n, max_valleys):
    """The support scan gives the pair bases of a scan over all n^3
    (i, j, l), in the same vertex and pair order."""
    mods = [construct(x, n) for x in catalog_labels(n, max_valleys)]
    mods.append(regular_bimodule(n))
    rng = range(1, n + 1)
    for x in mods:
        for y in mods:
            want = {}
            for i in rng:
                for l in rng:
                    basis = [(j, xa, yb) for j in rng
                             for xa in range(x.dim(i, j))
                             for yb in range(y.dim(j, l))]
                    if basis:
                        want[(i, l)] = basis
            got = TensorSpace(x, y).pair_bases
            assert list(got.items()) == list(want.items())


# -- the balancing quotient against its reduced echelon form ----------------

def _reference_quotient(x, y):
    """Pair bases, frees, quotient dimensions and projections of x (x) y by
    a scan over every vertex, dense arrows and one reduced echelon form per
    vertex, with the projection assembled from the reduced rows."""
    n = x.n
    rng = range(1, n + 1)
    bases, frees, qdims, projections = {}, {}, {}, {}
    for i in rng:
        for l in rng:
            basis = [(j, xa, yb) for j in rng for xa in range(x.dim(i, j))
                     for yb in range(y.dim(j, l))]
            if not basis:
                continue
            v = (i, l)
            bases[v] = basis
            idx = {p: t for t, p in enumerate(basis)}
            rows = []
            for a in rng:
                ap = residue(a + 1, n)
                hx, vy = dense_arrow(x, "h", i, ap), dense_arrow(y, "v", a, l)
                for xa in range(x.dim(i, ap)):
                    for yb in range(y.dim(a, l)):
                        row = {}
                        for s in range(x.dim(i, a)):
                            c = hx.get(s, xa)
                            if c:
                                t = idx[(a, s, yb)]
                                row[t] = row.get(t, ZERO) + c
                        for tt in range(y.dim(ap, l)):
                            c = vy.get(tt, yb)
                            if c:
                                t = idx[(ap, xa, tt)]
                                row[t] = row.get(t, ZERO) - c
                        row = {t: c for t, c in row.items() if c}
                        if row:
                            rows.append(row)
            rref_rows, pivots = sparse_rref(rows, len(basis))
            free = [c for c in range(len(basis)) if c not in set(pivots)]
            if not free:
                continue
            pos = {f: t for t, f in enumerate(free)}
            frees[v], qdims[v] = free, len(free)
            projections[v] = ExactMatrix.from_entries(
                len(free), len(basis),
                [(t, f, ONE) for t, f in enumerate(free)]
                + [(pos[col], p, -coef)
                   for rrow, p in zip(rref_rows, pivots)
                   for col, coef in rrow.items() if col != p])
    return bases, frees, qdims, projections


def _assert_quotient_matches_reference(x, y):
    space = TensorSpace(x, y)
    bases, frees, qdims, projections = _reference_quotient(x, y)
    assert list(space.pair_bases.items()) == list(bases.items()), (x, y)
    assert space.frees == frees and space.qdims == qdims, (x, y)
    assert space.projections.keys() == projections.keys(), (x, y)
    for v, hits in space.projections.items():
        # the sparse hits of each pair column, densified
        want = projections[v]
        assert len(hits) == want.cols, (x, y, v)
        assert all(type(h) is Fraction
                   for column in hits for _, h in column), (x, y, v)
        mat = ExactMatrix.from_entries(
            qdims[v], len(hits),
            [(q, t, h) for t, column in enumerate(hits) for q, h in column])
        assert mat.rows == want.rows, (x, y, v)
        assert mat.entries == want.entries, (x, y, v)


@pytest.mark.parametrize("n,max_valleys", [(1, 1), (2, 1), (1, 2)])
def test_tensor_quotient_matches_rref_reference_on_the_catalog(n,
                                                               max_valleys):
    # n = 1 with two valleys gives the long loop products
    mods = [construct(label, n) for label in catalog_labels(n, max_valleys)]
    for x in mods:
        for y in mods:
            _assert_quotient_matches_reference(x, y)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensor_quotient_matches_rref_reference_on_the_unit(n):
    reg = regular_bimodule(n)
    for label in catalog_labels(n, 1):
        x = construct(label, n)
        _assert_quotient_matches_reference(reg, x)
        _assert_quotient_matches_reference(x, reg)
    _assert_quotient_matches_reference(reg, reg)


def test_tensor_quotient_with_non_unit_arrows_matches_rref_reference(
        monkeypatch):
    # a balancing row with a coefficient 2, 3 or 1/3 is not signed, so the
    # kernel falls back to elimination; the arrows of 3 sit where they
    # become pivots, and dividing by an int 3 would leave an inexact float
    fallbacks = []
    rref_kernel = linalg.rref_kernel_with_frees

    def counted(rows, ncols):
        fallbacks.append(len(rows))
        return rref_kernel(rows, ncols)

    monkeypatch.setattr(linalg, "rref_kernel_with_frees", counted)
    scaled = [rescaled(lab("S", 1, 1, 0), 2, ("v", 1, 1), Fraction(2)),
              rescaled(lab("N", 1, 1, 0), 2, ("h", 1, 1), Fraction(1, 3)),
              rescaled(lab("S", 2, 1, 0), 2, ("v", 2, 1), Fraction(3)),
              rescaled(lab("N", 1, 2, 0), 2, ("h", 1, 2), Fraction(3))]
    mods = [construct(label, 2) for label in catalog_labels(2, 1)] + scaled
    for x in scaled:
        for y in mods:
            _assert_quotient_matches_reference(x, y)
            _assert_quotient_matches_reference(y, x)
    assert fallbacks
