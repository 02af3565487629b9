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

Only the catalog members whose dimension vector fits inside T's can be
summands, and only those are built (``_candidates``); the birep core
takes its greater-cell objects from the same walk.

Before the scan, T is split into the pieces of its basis graph, whose
nodes are T's basis vectors and whose edges are its nonzero arrow
entries.  No edge leaves a piece, so each piece is a sub-bimodule and T
is their direct sum.  The string modules act on their walk bases by
partial permutations (Butler and Ringel, Comm. Algebra 15, 1987), and so
do the pair-class bases of the products ``tensor`` builds, so a
product's pieces are as a rule its summands.  Ranks and residuals add up
over the pieces, and a hom system pays for one piece instead of all of
T.  Nothing is assumed of a piece: an indecomposable or a band is
decomposed or left as residual just as it would be inside T.

A module's scan, its residual and summand labels in candidate order, is
a function of its value and is cached by it, for a product and a piece
alike, so a module seen before costs a lookup; a connected module's
relations are checked when it is first scanned.  Only ``decompose``
reports split pairs: each distinct summand x is paired with the whole of
T, and the rank of that pairing must be the multiplicity that the scan
holds (or RuntimeError), a second count by an independent hom system.

Cells are tagged by position in the linear chain

    J_split  >  J_M0  >  J_1  >  J_2  >  ...

with J_split containing P, L, S^(0), N^(0), the singleton J_M0 containing
M^(0), and J_k the four families with k valleys.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

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
from .linalg import solve, sparse_rank
from .tensoring import TensorSpace, tensor

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


def _candidate_key(label: StringLabel):
    """Candidate order: largest dimension first, then the label order."""
    return -label.dimension, _label_sort_key(label)


# ---------------------------------------------------------------------------
# split pairs and multiplicities
# ---------------------------------------------------------------------------

def _split_pair(x: Bimodule, sigmas: HomSpace, pis: HomSpace, g: list):
    """The blocks of (sig, pi) with pi o sig the identity, from the first
    nonzero g[a][b], in the basis of y = sigmas.y.

    g is the trace pairing of the two hom spaces, as the sparse rows of
    ``trace_pairing``; a is its first nonempty row and b the least column
    in it.  The nonzero trace makes p sig invertible, for p = pis[b] and
    sig = sigmas[a], when End(x) is local.  One solve of [(p sig)_v | I |
    p_v] per vertex v, with p read off its kernel vector and no map built,
    certifies that (or raises RuntimeError) and gives (p sig)_v^-1 p_v.
    Each map is a dict from x's vertices to the (row, column, value)
    entries of its block there, as ``BimoduleMap`` takes them.
    """
    y = sigmas.y
    a, row = next((a, row) for a, row in enumerate(g) if row)
    sig, p = sigmas.blocks(a), pis.blocks(min(row))
    section, retraction = {}, {}
    for v, d in x.dims.items():
        # the rows of [(p sig)_v | I | p_v]; m X = I has a solution
        # exactly when the square (p sig)_v is invertible
        sig_rows: Dict[int, list] = {}
        for r, c, e in sig.get(v, ()):
            sig_rows.setdefault(r, []).append((c, e))
        rows: List[dict] = [{d + r: 1} for r in range(d)]
        for r, c, e in p[v]:
            rows[r][2 * d + c] = e
            for k, s in sig_rows.get(c, ()):
                rows[r][k] = rows[r].get(k, 0) + e * s
        out = solve([{c: e for c, e in row.items() if e} for row in rows],
                    d, 2 * d + y.dims[v])
        if out is None:
            raise RuntimeError(f"p sig is singular at {v}: no split pair")
        section[v] = sig.get(v, [])
        retraction[v] = [(r, c - d, e) for r, c, e in out if c >= d]
    return section, retraction


def _pieces(t: Bimodule) -> List[Bimodule]:
    """The connected pieces of t's basis graph.

    The graph has t's basis vectors as nodes and every nonzero arrow
    entry as an edge.  A piece keeps, at each vertex, the basis vectors
    of one connected part in ascending order.  No edge leaves a piece, so
    every piece is a sub-bimodule and t is their direct sum.  Pieces come
    in the order of their first basis vector, by vertex and then index.
    A connected t is its own one piece, and no module is rebuilt.
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

    for (kind, i, j), cols in t.arrow_views.items():
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
        return [t]
    piece_of, local = [0] * len(nodes), [0] * len(nodes)
    for q, at in enumerate(groups.values()):
        for v, rows in at.items():
            for k, r in enumerate(rows):
                piece_of[base[v] + r], local[base[v] + r] = q, k
    arrows: List[dict] = [{} for _ in groups]
    for (kind, i, j), cols in t.arrow_views.items():
        src, tgt = base[(i, j)], base[arrow_target(kind, i, j, t.n)]
        for c, col in enumerate(cols):
            arrows[piece_of[src + c]].setdefault((kind, i, j), []).extend(
                (local[tgt + r], local[src + c], e) for r, e in col)
    return [Bimodule(t.n, {v: len(rows) for v, rows in at.items()},
                     arrows[q]) for q, at in enumerate(groups.values())]


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


# a catalog kind (family, k): its label at 1|1, construct's module of that
# label, and the module's least vertex
Kind = Tuple[StringLabel, Bimodule, Vertex]

_CANDIDATE_CACHE: Dict[Tuple[int, int], Tuple[Kind, ...]] = {}


def _candidates(n: int, max_valleys: int, dims: Mapping[Vertex, int],
                fit: bool = True) -> Iterator[Tuple[StringLabel, Bimodule]]:
    """The catalog members up to max_valleys that fit inside dims or,
    unless fit, share a vertex with it, as (label, construct(label)) in
    candidate order (``_candidate_key``), which keeps each kind's
    translates together.  A kind (family, k) is held once, as its 1|1
    module; only the anchors that put a vertex of it (the least one, to
    fit) on a vertex of dims are tried, in (i, j) order, and only the
    members kept are built."""
    key = (n, max_valleys)
    kinds = _CANDIDATE_CACHE.get(key)
    if kinds is None:
        # the catalog at n = 1 lists each kind once, at 1|1
        kinds = _CANDIDATE_CACHE[key] = tuple(
            (label, x, min(x.dims)) for label in sorted(
                catalog_labels(1, max_valleys), key=_candidate_key)
            for x in [construct(label, n)])
    for origin, x, low in kinds:
        anchors = {(residue(1 + a - i, n), residue(1 + b - j, n))
                   for i, j in ([low] if fit else x.dims) for a, b in dims}
        for r, s in sorted(anchors):
            if fit and any(dims.get((residue(i + r - 1, n),
                                     residue(j + s - 1, n)), 0) < d
                           for (i, j), d in x.dims.items()):
                continue
            label = StringLabel(origin.family, r, s, origin.k)
            yield label, (x if label == origin else construct(label, n))


# a module's scan: its residual dimension and its summand labels, each
# repeated by its multiplicity, in candidate order
Scan = Tuple[int, Tuple[StringLabel, ...]]

_SCAN_CACHE: Dict[Tuple[Bimodule, int], Scan] = {}


def _scan(t: Bimodule, max_valleys: int,
          pieces: Optional[List[Bimodule]] = None) -> Scan:
    """The catalog scan of t, cached by t's value and the valley bound
    that ``_scan_bound`` gives t's dimension.

    On a miss, a t of more than one piece (``_pieces``, unless given)
    adds up the scans of its pieces, each scanned as connected under its
    own key: residuals add, and summands merge in candidate order.  A
    connected t has its relations checked (a module of several pieces
    satisfies them when each piece does) and is scanned against the
    candidates, largest first, skipping any whose dimension vector does
    not fit in what is still unaccounted for (total dimension first).
    The multiplicity of the rest is the rank of their trace pairing with
    t, the multiplicities times the dimension vectors must fit inside
    dim t (dimension balance, or RuntimeError), and what is left is t's
    residual.  Each hit is certified by a split pair (``_split_pair``),
    which the scan does not keep.  A scan is an int and a tuple of
    frozen labels, so no caller can change a cached one.
    """
    bound = _scan_bound(t.total_dim, max_valleys)
    key = (t, bound)
    scan = _SCAN_CACHE.get(key)
    if scan is not None:
        return scan
    pieces = pieces or _pieces(t)
    if len(pieces) > 1:
        scans = [_scan(piece, bound, [piece]) for piece in pieces]
        scan = (sum(residual for residual, _ in scans),
                tuple(sorted((label for _, labels in scans
                              for label in labels), key=_candidate_key)))
    else:
        t.check_relations()
        left = dict(t.dims)
        remaining = t.total_dim
        summands: List[StringLabel] = []
        for label, x in _candidates(t.n, bound, t.dims):
            if not remaining:
                break
            if x.total_dim > remaining or any(
                    d > left.get(v, 0) for v, d in x.dims.items()):
                continue
            sigmas, pis, g = trace_pairing(x, t)
            mult = sparse_rank(g, len(pis))
            if not mult:
                continue
            for v, d in x.dims.items():
                left[v] -= mult * d
                if left[v] < 0:
                    raise RuntimeError(
                        f"dimension balance fails at {v}: {label} occurs "
                        f"{mult} times in a piece of dimension "
                        f"{t.total_dim}")
            remaining -= mult * x.total_dim
            _split_pair(x, sigmas, pis, g)
            summands.extend([label] * mult)
        scan = (remaining, tuple(summands))
    _SCAN_CACHE[key] = scan
    return scan


def _scan_bound(dim: int, max_valleys: int) -> int:
    """The valley bound to scan a module of dimension dim by.

    A string with k valleys has dimension at least 2k+1, so a module of
    dimension dim holds none with k > (dim-1)//2: the candidates a scan
    can visit, of dimension at most dim, are the same under this bound
    and under max_valleys.  A bound is at least 1, unless max_valleys is
    lower, so that small pieces of products under every bound share keys.
    """
    return min(max_valleys, max(1, (dim - 1) // 2))


def decompose(t: Bimodule, max_valleys: int) -> DecompositionReport:
    """Multiplicities of the catalog members in t (``_scan``), each
    distinct summand with its split pair against the whole of t.

    The rank of x's trace pairing with t must equal the multiplicity
    that t's scan holds, or RuntimeError; the split pair is then the one
    a scan of t whole takes.  max_valleys bounds the catalog that is
    searched; any string summand has dimension at least 2k+1, so
    2*max_valleys + 3 >= dim t always suffices."""
    residual, summands = _scan(t, max_valleys)
    split_pairs: List[Tuple[StringLabel, BimoduleMap, BimoduleMap]] = []
    for label, mult in Counter(summands).items():
        x = construct(label, t.n)
        sigmas, pis, g = trace_pairing(x, t)
        rank = sparse_rank(g, len(pis))
        if rank != mult:
            raise RuntimeError(
                f"{label} pairs to rank {rank} with the whole module, but "
                f"its pieces hold {mult} copies")
        section, retraction = _split_pair(x, sigmas, pis, g)
        split_pairs.append((label, BimoduleMap(x, t, section),
                            BimoduleMap(t, x, retraction)))
    return DecompositionReport(t.n, t.total_dim, list(summands), split_pairs,
                               residual)


def decompose_product(u: StringLabel, v: StringLabel,
                      n: int) -> DecompositionReport:
    """Decompose construct(u) (x) construct(v), its relations checked.

    Products of catalog members never gain valleys beyond the factors, so
    the catalog up to the larger valley count (at least 1) is searched; a
    residual, if any, is reported."""
    return decompose(tensor(construct(u, n), construct(v, n)),
                     max(u.k or 0, v.k or 0, 1))


# ---------------------------------------------------------------------------
# cached products of catalog members
# ---------------------------------------------------------------------------

def _summands(x: Bimodule, y: Bimodule,
              max_valleys: int) -> Tuple[StringLabel, ...]:
    """Summands of x (x) y, read off its scan.

    A product whose balancing quotient is zero at every vertex has none,
    and no module is assembled or scanned for it.  Any other product is
    assembled unchecked and looked up by value in the scan cache (a
    ``Bimodule`` hashes by its dimensions and arrow views); only one not
    seen before is scanned, with the relations of its new pieces checked
    (``_scan``).  A residual raises RuntimeError."""
    space = TensorSpace(x, y)
    if not space.qdims:
        return ()
    residual, summands = _scan(space.assemble(), max_valleys)
    if residual:
        raise RuntimeError(
            f"unexpected residual of dim {residual} in {x!r} (x) {y!r}")
    return summands


def canonical_summands(n: int, fam_u: str, k_u: Optional[int], e: int,
                       fam_v: str,
                       k_v: Optional[int]) -> Tuple[StringLabel, ...]:
    """Summands of U (x) V for U = fam_u^(k_u) at 1|e and V = fam_v^(k_v)
    at 1|1, named by normalized labels, under the larger valley count, at
    least 1 (``_summands``).  Most such products are zero and build no
    module; the cells sweep, which builds each factor once, calls
    ``_summands`` itself."""
    return _summands(construct(StringLabel(fam_u, 1, e, k_u), n),
                     construct(StringLabel(fam_v, 1, 1, k_v), n),
                     max(k_u or 0, k_v or 0, 1))


def product_summands(u_label: StringLabel, v_label: StringLabel,
                     n: int) -> List[StringLabel]:
    """Summands of construct(u) (x) construct(v), fully decomposed.

    Products are translation equivariant: shifting both anchors by the
    same torus translation shifts every summand accordingly.  Each product
    therefore reduces to a canonical representative anchored at row 1 /
    column 1, and only those get scanned; everything else is a cache
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
