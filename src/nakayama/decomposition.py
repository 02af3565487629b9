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

Before the scan, T is split into the pieces of its basis graph: the
nodes are T's basis vectors and every nonzero arrow entry is an edge, so
each connected piece is a sub-bimodule and T is their direct sum.  The
string modules act on their walk bases by partial permutations (Butler
and Ringel, Comm. Algebra 15, 1987), and the pair-class bases of the
products ``tensor`` builds keep that, so a product's pieces are as a rule
its summands.  Ranks and residuals add up over the pieces, and each
piece is scanned alone, so a hom system pays for one piece instead of
all of T.  Nothing is assumed of a piece: a connected T is scanned
whole, and a piece that is indecomposable or a band is decomposed or
left as residual just as it would be inside T.

The same few pieces recur across products, so a piece's scan is a
function of the piece alone and is cached by its value: multiplicities,
residual and split-pair entries in the piece's basis, all of them
tuples.  Each piece that is equal to one seen before, in the same
product or an earlier one, costs a lookup and the lifting of its
entries into T's basis.

Cells are tagged by position in the linear chain

    J_split  >  J_M0  >  J_1  >  J_2  >  ...

with J_split containing P, L, S^(0), N^(0), the singleton J_M0 containing
M^(0), and J_k the four families with k valleys.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .algebras import Vertex, arrow_target, residue
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

# a piece's index map: at[v][r] is the index in the whole module of the
# piece's r-th basis vector at v
PieceMap = Dict[Vertex, Tuple[int, ...]]


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
    """The entries of (sig, pi) with pi o sig the identity, from the first
    nonzero g[a][b], in the basis of y = sigmas.y.

    g is the trace pairing of the two hom spaces, as the sparse rows of
    ``trace_pairing``; a is its first nonempty row and b the least column
    in it.  The nonzero trace makes p sig invertible, for p = pis[b] and
    sig = sigmas[a], when End(x) is local.  One solve of [(p sig)_v | I |
    p_v] per vertex v, with p read off its kernel vector and no map built,
    certifies that (or raises RuntimeError) and gives (p sig)_v^-1 p_v.
    Each map is a tuple of (vertex, entries) over x's vertices, and the
    entries of a block are (row, column, value) tuples, so a cached scan
    can hold them; ``decompose`` lifts them into maps.
    """
    y = sigmas.y
    a, row = next((a, row) for a, row in enumerate(g) if row)
    sig, p = sigmas.blocks(a), pis.blocks(min(row))
    section, retraction = [], []
    for v, d in x.dims.items():
        # the rows of [(p sig)_v | I | p_v]; m X = I has a solution
        # exactly when the square (p sig)_v is invertible
        sig_rows: Dict[int, list] = {}
        for r, c, e in sig.get(v, ()):
            sig_rows.setdefault(r, []).append((c, e))
        rows: List[dict] = [{d + r: ONE} for r in range(d)]
        for r, c, e in p[v]:
            rows[r][2 * d + c] = e
            for k, s in sig_rows.get(c, ()):
                rows[r][k] = rows[r].get(k, 0) + e * s
        out = solve([{c: e for c, e in row.items() if e} for row in rows],
                    d, 2 * d + y.dims[v])
        if out is None:
            raise RuntimeError(f"p sig is singular at {v}: no split pair")
        section.append((v, tuple(sig.get(v, ()))))
        retraction.append((v, tuple((r, c - d, e) for r, c, e in out
                                    if c >= d)))
    return tuple(section), tuple(retraction)


def _pieces(t: Bimodule) -> List[Tuple[Bimodule, Optional[PieceMap]]]:
    """The connected pieces of t's basis graph, each with its index map.

    The graph has t's basis vectors as nodes and every nonzero arrow
    entry as an edge.  A piece keeps, at each vertex, the basis vectors
    of one connected part in ascending order, and at[v][r] is the index
    in t of its r-th one.  No edge leaves a piece, so every piece is a
    sub-bimodule and t is their direct sum.  Pieces come in the order of
    their first basis vector, by vertex and then index.  A connected t
    is its own one piece, with map None, and no module is rebuilt.
    """
    base: Dict[Vertex, int] = {}
    nodes: List[Tuple[Vertex, int]] = []
    for v in sorted(t.dims):
        base[v] = len(nodes)
        nodes.extend((v, r) for r in range(t.dims[v]))
    # union-find whose roots are the least node of their class
    parent = list(range(len(nodes)))

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for (kind, i, j), (cols, _) in t.arrow_views.items():
        src, tgt = base[(i, j)], base[arrow_target(kind, i, j, t.n)]
        for c, col in enumerate(cols):
            for r, _ in col:
                a, b = root(src + c), root(tgt + r)
                if a != b:
                    parent[max(a, b)] = min(a, b)
    groups: Dict[int, Dict[Vertex, List[int]]] = {}
    for a, (v, r) in enumerate(nodes):
        groups.setdefault(root(a), {}).setdefault(v, []).append(r)
    if len(groups) == 1:
        return [(t, None)]
    piece_of, local = [0] * len(nodes), [0] * len(nodes)
    for q, at in enumerate(groups.values()):
        for v, rows in at.items():
            for k, r in enumerate(rows):
                piece_of[base[v] + r], local[base[v] + r] = q, k
    arrows: List[dict] = [{} for _ in groups]
    for (kind, i, j), (cols, _) in t.arrow_views.items():
        src, tgt = base[(i, j)], base[arrow_target(kind, i, j, t.n)]
        for c, col in enumerate(cols):
            arrows[piece_of[src + c]].setdefault((kind, i, j), []).extend(
                (local[tgt + r], local[src + c], e) for r, e in col)
    return [(Bimodule(t.n, {v: len(rows) for v, rows in at.items()},
                      arrows[q]), {v: tuple(rows) for v, rows in at.items()})
            for q, at in enumerate(groups.values())]


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


def _pair_site(sigmas: HomSpace, g: list):
    """Where in y = sigmas.y the forward map of ``_split_pair`` sits:
    (vertex, row of y, column of x) of its free unknown, ordered as the
    unknowns of Hom(x, y), which lists its basis in the order of its free
    unknowns."""
    f = sigmas.frees[next(a for a, row in enumerate(g) if row)]
    off, v = max((off, v) for v, off in sigmas._offsets.items() if off <= f)
    r, c = divmod(f - off, sigmas.x.dims[v])
    return v, r, c


# a piece's scan: its residual dimension and, for each candidate index
# with a nonzero multiplicity, in candidate order, (index, multiplicity,
# site, section, retraction), the last three in the piece's basis
Scan = Tuple[int, Tuple[Tuple[int, int, tuple, tuple, tuple], ...]]

_SCAN_CACHE: Dict[Tuple[Bimodule, int], Scan] = {}


def _scan(piece: Bimodule, max_valleys: int) -> Scan:
    """The catalog scan of one piece, cached by the piece's value.

    Candidates run largest dimension first, until nothing of the piece is
    left unaccounted for.  One whose dimension vector does not fit in
    what is still unaccounted for cannot be a summand and is skipped; its
    total dimension is tested first, as the cheaper half of that test.
    The multiplicity of the rest is the rank of their trace pairing with
    the piece, and the multiplicities times the dimension vectors must fit
    inside dim of the piece (dimension balance, or RuntimeError); the rest
    is the piece's residual.  The key keeps max_valleys, since candidate
    indices depend on it.  The scan is all tuples, so no caller can
    change a cached one.
    """
    key = (piece, max_valleys)
    scan = _SCAN_CACHE.get(key)
    if scan is not None:
        return scan
    left = dict(piece.dims)
    remaining = piece.total_dim
    hits = []
    for idx, (label, x) in enumerate(_candidates(piece.n, max_valleys)):
        if not remaining:
            break
        if x.total_dim > remaining or any(
                d > left.get(v, 0) for v, d in x.dims.items()):
            continue
        sigmas, pis, g = trace_pairing(x, piece)
        mult = sparse_rank(g, len(pis))
        if not mult:
            continue
        for v, d in x.dims.items():
            left[v] -= mult * d
            if left[v] < 0:
                raise RuntimeError(
                    f"dimension balance fails at {v}: {label} occurs "
                    f"{mult} times in a piece of dimension "
                    f"{piece.total_dim}")
        remaining -= mult * x.total_dim
        hits.append((idx, mult, _pair_site(sigmas, g),
                     *_split_pair(x, sigmas, pis, g)))
    scan = _SCAN_CACHE[key] = (remaining, tuple(hits))
    return scan


def decompose(t: Bimodule, max_valleys: int) -> DecompositionReport:
    """Multiplicities of the catalog members in t, by pairing rank.

    t is split into the pieces of its basis graph (``_pieces``), and each
    piece is scanned on its own (``_scan``); a piece equal to one scanned
    before, in this product or an earlier one, is not scanned again.
    Multiplicities and residuals add up over the pieces, and the summands
    come in candidate order.  A label found in several pieces gets the
    split pair that a scan of t whole would take: the one whose forward
    map comes first in Hom(x, t), because the hom and pairing systems of
    t are those of its pieces side by side.  The two maps of each split
    pair are built once, in t's basis, from the piece's entries.
    max_valleys bounds the catalog that is searched; any string summand
    has dimension at least 2k+1, so 2*max_valleys + 3 >= dim t always
    suffices.
    """
    found: Counter = Counter()  # candidate index -> multiplicity in t
    pairs: Dict[int, tuple] = {}  # candidate index -> its least split pair
    residual = 0
    for piece, at in _pieces(t):
        at = at or {v: range(d) for v, d in piece.dims.items()}
        remaining, hits = _scan(piece, max_valleys)
        residual += remaining
        for idx, mult, (v, r, c), section, retraction in hits:
            found[idx] += mult
            site = v, at[v][r], c
            if idx not in pairs or site < pairs[idx][0]:
                pairs[idx] = site, section, retraction, at
    cands = _candidates(t.n, max_valleys)
    summands: List[StringLabel] = []
    split_pairs: List[Tuple[StringLabel, BimoduleMap, BimoduleMap]] = []
    for idx in sorted(found):
        label, x = cands[idx]
        summands.extend([label] * found[idx])
        _, section, retraction, at = pairs[idx]
        sig = {v: [(at[v][r], c, e) for r, c, e in entries]
               for v, entries in section}
        pi = {v: [(r, at[v][c], e) for r, c, e in entries]
              for v, entries in retraction}
        split_pairs.append((label, BimoduleMap(x, t, sig),
                            BimoduleMap(t, x, pi)))
    return DecompositionReport(t.n, t.total_dim, summands, split_pairs,
                               residual)


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
    hashes by its dimensions and arrow views.  Such a product still
    shares most of its pieces with products seen before, and their scans
    come from the scan cache (``_scan``).
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
