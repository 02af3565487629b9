"""Krull-Schmidt decomposition against the string catalog.

Every bimodule arising from tensor products of catalog members decomposes
into projective-injectives, simples, and strings; no bands appear.  Each
catalog member X has a local endomorphism ring with residue field Q, so
the multiplicity of X in T is the rank of the exact trace pairing between
Hom(X, T) and Hom(T, X).  The decomposer reads off those ranks, largest
candidates first, and certifies them twice: by a split pair per summand,
whose retraction is solved on sparse rows with no dense matrix, and by
dimension balance, since the multiplicities times the dimension vectors
must fit inside dim T.  Whatever the catalog does not account for is
reported as a residual dimension, never guessed at.

Cells are tagged by position in the linear chain

    J_split  >  J_M0  >  J_1  >  J_2  >  ...

with J_split containing P, L, S^(0), N^(0), the singleton J_M0 containing
M^(0), and J_k the four families with k valleys.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .algebras import residue
from .bimodules import (
    FAMILIES,
    Bimodule,
    BimoduleMap,
    HomSpace,
    StringLabel,
    catalog_labels,
    construct,
    trace_pairing,
)
from .linalg import ONE, solve, sparse_rank
from .tensoring import tensor

CellTag = Tuple


def cell_of(label: StringLabel) -> CellTag:
    """The two-sided cell tag of a catalog label.

    >>> cell_of(StringLabel("W", 1, 1, 0))
    ('split',)
    >>> cell_of(StringLabel("M", 2, 1, 0))
    ('M0',)
    >>> cell_of(StringLabel("S", 1, 2, 3))
    ('J', 3)
    """
    fam, k = label.family, label.k
    if fam in ("P", "L"):
        return ("split",)
    if k == 0:
        if fam == "M":
            return ("M0",)
        return ("split",)  # S^(0), N^(0), and the alias W^(0)
    return ("J", k)


def cell_chain_position(cell: CellTag) -> int:
    """0 for the greatest cell (J_split), then down the chain."""
    if cell == ("split",):
        return 0
    if cell == ("M0",):
        return 1
    return cell[1] + 1


def chain_cell(position: int) -> CellTag:
    """The cell at a chain position, the inverse of ``cell_chain_position``.

    >>> [chain_cell(p) for p in range(4)]
    [('split',), ('M0',), ('J', 1), ('J', 2)]
    """
    if position == 0:
        return ("split",)
    if position == 1:
        return ("M0",)
    return ("J", position - 1)


def cell_name(cell: CellTag) -> str:
    if cell == ("split",):
        return "J_split"
    if cell == ("M0",):
        return "J_M0"
    return f"J_{cell[1]}"


def _label_sort_key(label: StringLabel):
    return (label.k if label.k is not None else -1,
            FAMILIES.index(label.family), label.i, label.j)


# ---------------------------------------------------------------------------
# split pairs and multiplicities
# ---------------------------------------------------------------------------

def _split_pair(x: Bimodule, sigmas: HomSpace, pis: HomSpace, g: list):
    """(sig, pi) with pi o sig the identity, from the first nonzero g[a][b].

    g is the trace pairing of the two hom spaces, as the sparse rows of
    ``trace_pairing``; a is its first nonempty row and b the least column
    in it.  The nonzero trace makes p sig invertible, for p = pis[b] and
    sig = sigmas[a], when End(x) is local.  One solve of [(p sig)_v | I |
    p_v] per vertex v, with p read off its kernel vector and no map built,
    certifies that (or raises RuntimeError) and gives (p sig)_v^-1 p_v.
    """
    a, row = next((a, row) for a, row in enumerate(g) if row)
    sig, p = sigmas[a], pis.blocks(min(row))
    retraction = {}
    for v, d in x.dims.items():
        # the rows of [(p sig)_v | I | p_v]; m X = I has a solution
        # exactly when the square (p sig)_v is invertible
        sig_v = sig.components.get(v)
        rows: List[dict] = [{d + r: ONE} for r in range(d)]
        for r, c, e in p[v]:
            rows[r][2 * d + c] = e
            for k, s in sig_v[1][c] if sig_v else ():
                rows[r][k] = rows[r].get(k, 0) + e * s
        out = solve([{c: e for c, e in row.items() if e} for row in rows],
                    d, 2 * d + pis.x.dims[v])
        if out is None:
            raise RuntimeError(f"p sig is singular at {v}: no split pair")
        retraction[v] = [(r, c - d, e) for r, c, e in out if c >= d]
    return sig, BimoduleMap(pis.x, x, retraction)


@dataclass
class DecompositionReport:
    """Outcome of a decomposition: summand labels with multiplicity, in
    candidate order; one certifying split pair per distinct label, taken
    against the input; and the dimension the catalog left unaccounted."""

    n: int
    input_dim: int
    summands: List[StringLabel]
    split_pairs: List[Tuple[StringLabel, BimoduleMap, BimoduleMap]]
    residual_dim: int

    def multiset(self) -> Counter:
        return Counter(self.summands)

    def to_json(self) -> dict:
        counts = self.multiset()
        items, cells = [], []
        for lab in sorted(counts, key=_label_sort_key):
            items.append({"family": lab.family, "i": lab.i, "j": lab.j,
                          "k": lab.k, "multiplicity": counts[lab]})
            cells.append(cell_name(cell_of(lab)))
        return {"n": self.n, "summands": items,
                "residual_dim": self.residual_dim, "cells": cells}


Candidates = Tuple[Tuple[StringLabel, Bimodule], ...]

_CANDIDATE_CACHE: Dict[Tuple[int, int], Candidates] = {}


def _candidates(n: int, max_valleys: int) -> Candidates:
    """The catalog as (label, construct(label)) pairs, largest first.

    Built once per (n, max_valleys) and shared; the tuple keeps callers
    from reordering or extending it.
    """
    key = (n, max_valleys)
    cands = _CANDIDATE_CACHE.get(key)
    if cands is None:
        cands = tuple(sorted(
            ((label, construct(label, n))
             for label in catalog_labels(n, max_valleys)),
            key=lambda lx: -lx[1].total_dim))
        _CANDIDATE_CACHE[key] = cands
    return cands


def decompose(t: Bimodule, max_valleys: int) -> DecompositionReport:
    """Multiplicities of the catalog members in t, by pairing rank.

    Candidates run largest dimension first, until nothing of t is left
    unaccounted for.  One whose dimension vector does not fit in what is
    still unaccounted for cannot be a summand and is skipped; its total
    dimension is tested first, as the cheaper half of that test.  The
    multiplicities times the dimension vectors must fit inside dim t
    (dimension balance); the rest is the residual.
    max_valleys bounds the catalog that is searched; any string summand
    has dimension at least 2k+1, so 2*max_valleys + 3 >= dim t always
    suffices.
    """
    left = dict(t.dims)
    remaining = t.total_dim
    summands: List[StringLabel] = []
    pairs: List[Tuple[StringLabel, BimoduleMap, BimoduleMap]] = []
    for label, x in _candidates(t.n, max_valleys):
        if not remaining:
            break
        if x.total_dim > remaining or any(
                d > left.get(v, 0) for v, d in x.dims.items()):
            continue
        sigmas, pis, g = trace_pairing(x, t)
        mult = sparse_rank(g, len(pis))
        if not mult:
            continue
        summands.extend([label] * mult)
        pairs.append((label, *_split_pair(x, sigmas, pis, g)))
        for v, d in x.dims.items():
            left[v] -= mult * d
            if left[v] < 0:
                raise RuntimeError(
                    f"dimension balance fails at {v}: {label} occurs "
                    f"{mult} times in a bimodule of dimension {t.total_dim}")
        remaining -= mult * x.total_dim
    return DecompositionReport(t.n, t.total_dim, summands, pairs, remaining)


def decompose_product(u: StringLabel, v: StringLabel,
                      n: int) -> DecompositionReport:
    """Decompose construct(u) (x) construct(v).

    Products of catalog members never gain valleys beyond the factors, so
    the catalog up to the larger valley count of the two (and at least 1)
    is searched; a residual, if any, is reported.
    """
    return decompose(*_product(u, v, n))


def _product(u: StringLabel, v: StringLabel,
             n: int) -> Tuple[Bimodule, int]:
    """construct(u) (x) construct(v) and the valley bound to search it by."""
    return (tensor(construct(u, n), construct(v, n)),
            max(u.k or 0, v.k or 0, 1))


# ---------------------------------------------------------------------------
# cached products of catalog members
# ---------------------------------------------------------------------------

_PRODUCT_CACHE: Dict[tuple, Tuple[StringLabel, ...]] = {}
_SUMMANDS_CACHE: Dict[Tuple[Bimodule, int], Tuple[StringLabel, ...]] = {}


def canonical_summands(n: int, fam_u: str, k_u: Optional[int], e: int,
                       fam_v: str,
                       k_v: Optional[int]) -> Tuple[StringLabel, ...]:
    """Summands of U (x) V for U = fam_u^(k_u) at 1|e and V = fam_v^(k_v)
    at 1|1, decomposed once and cached.

    The arguments are those of normalized labels.  This is the one place
    that fills the product cache.  Many products are equal as bimodules
    (most of them zero), so a miss looks its product up by value, with
    its valley bound, in the summand cache, and only a product not seen
    before is decomposed and certified; a ``Bimodule`` is read-only and
    hashes by its dimensions and arrow views.
    """
    key = (n, fam_u, k_u, e, fam_v, k_v)
    summands = _PRODUCT_CACHE.get(key)
    if summands is None:
        u0 = StringLabel(fam_u, 1, e, k_u)
        v0 = StringLabel(fam_v, 1, 1, k_v)
        product = _product(u0, v0, n)
        summands = _SUMMANDS_CACHE.get(product)
        if summands is None:
            rep = decompose(*product)
            if rep.residual_dim:
                raise RuntimeError(
                    f"unexpected residual of dim {rep.residual_dim} in "
                    f"{u0} (x) {v0} at n={n}")
            summands = _SUMMANDS_CACHE[product] = tuple(rep.summands)
        _PRODUCT_CACHE[key] = summands
    return summands


def product_summands(u_label: StringLabel, v_label: StringLabel,
                     n: int) -> List[StringLabel]:
    """Summands of construct(u) (x) construct(v), fully decomposed.

    Products are translation equivariant: shifting both anchors by the
    same torus translation shifts every summand accordingly.  Each product
    therefore reduces to a canonical representative anchored at row 1 /
    column 1, and only those get decomposed; everything else is a cache
    hit plus a relabeling.
    """
    u = u_label.normalized(n)
    v = v_label.normalized(n)
    e = residue(u.j - v.i + 1, n)
    di, dj = u.i - 1, v.j - 1
    return [lab.shifted(di, dj, n) for lab in
            canonical_summands(n, u.family, u.k, e, v.family, v.k)]


def expected_product_family(fam_u: str, fam_v: str) -> str:
    """The table: the result keeps u's bottom bar and v's left bar."""
    bottom = fam_u in ("S", "M")
    left = fam_v in ("N", "M")
    if bottom and left:
        return "M"
    if bottom:
        return "S"
    if left:
        return "N"
    return "W"


def multable_check(n: int, k: int) -> dict:
    """Sweep all products of valley-k string pairs against the table.

    For U anchored at i|j and V at r|s the valley-k part of the product
    must be the single table entry anchored at i|s when j = r, and empty
    otherwise; summands in strictly greater cells are ignored.

    Products are translation equivariant, so one canonical product per
    family pair and offset e = j - r + 1 decides every anchor with that
    offset: the apex of U at 1|e times V at 1|1 is compared with the
    table entry at 1|1 when e = 1 and with nothing otherwise, and both
    move by (i-1, s-1) with the anchors.  Only the anchors of a
    mismatching offset are listed, in the order of a sweep over i, j, r
    and s, so ``products`` still counts all 16 n^4 of them.
    """
    families = ("W", "S", "N", "M")
    mismatches = []
    rng = range(1, n + 1)
    for fam_u in families:
        for fam_v in families:
            want_fam = expected_product_family(fam_u, fam_v)
            v0 = StringLabel(fam_v, 1, 1, k).normalized(n)
            apexes = {}  # offset e -> mismatching canonical apex and entry
            for e in rng:
                u0 = StringLabel(fam_u, 1, e, k).normalized(n)
                apex = [lab for lab in canonical_summands(
                            n, u0.family, u0.k, e, v0.family, v0.k)
                        if cell_of(lab) == ("J", k)]
                want = [StringLabel(want_fam, 1, 1, k).normalized(n)] \
                    if e == 1 else []
                if sorted(apex) != sorted(want):
                    apexes[e] = apex, want
            if not apexes:
                continue
            for i in rng:
                for j in rng:
                    for r in rng:
                        for s in rng:
                            e = residue(j - r + 1, n)
                            if e not in apexes:
                                continue
                            apex, want = apexes[e]
                            mismatches.append({
                                "u": StringLabel(fam_u, i, j, k).literal(),
                                "v": StringLabel(fam_v, r, s, k).literal(),
                                "got": [x.shifted(i - 1, s - 1, n).literal()
                                        for x in apex],
                                "want": [x.shifted(i - 1, s - 1, n).literal()
                                         for x in want]})
    return {"n": n, "k": k, "products": len(families) ** 2 * n ** 4,
            "mismatches": mismatches, "ok": not mismatches}
