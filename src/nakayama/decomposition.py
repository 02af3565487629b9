"""Krull-Schmidt decomposition against the string catalog.

Every bimodule arising from tensor products of catalog members decomposes
into projective-injectives, simples, and strings; no bands appear.  Each
catalog member X has a local endomorphism ring with residue field Q, so
the multiplicity of X in T is the rank of the exact trace pairing between
Hom(X, T) and Hom(T, X).  For a piece that is not read as a walk
(below), the decomposer reads off those ranks, largest candidates
first, and certifies them twice: by a split pair per summand,
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
T.

A string module is determined by its walk (Butler and Ringel; Wald and
Waschbüsch, J. Algebra 95, 1985), so a piece whose basis graph is a
path, with at most one entry per row and per column of each arrow, is
read as one walk: its steps, each an arrow kind taken along or against
the arrow, from the end whose steps are least, its start vertex and the
entry on each step.  Only the kinds of its dimension can match, and
their steps are read off the catalog walks at 1|1 with no module built;
the anchor moves the kind's start onto the piece's.  The certificate
rebases the piece along its walk, each basis vector moved to its slot in
the catalog member's basis and scaled so that every step's entry is 1,
and the rebased module must equal the catalog member, or RuntimeError:
an exact isomorphism of monomial bases, with no hom solved.  Nothing
else is assumed of a piece: P's square, a band, a string in a basis that
is not monomial, or a walk past the valley bound is scanned by trace
pairing, and an indecomposable that is no catalog member is left as
residual just as it would be inside T.

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
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from .algebras import CoverVertex, Vertex, arrow_target, residue
from .bimodules import (
    FAMILIES,
    ArrowKey,
    Bimodule,
    BimoduleMap,
    HomSpace,
    StringLabel,
    _walk,
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
    # a piece's column keeps its rows in ascending order, so each piece
    # takes its views as they are filled
    dims = [{v: len(rows) for v, rows in at.items()}
            for at in groups.values()]
    views: List[Dict[ArrowKey, list]] = [{} for _ in groups]
    for (kind, i, j), cols in t.arrow_views.items():
        src, tgt = base[(i, j)], base[arrow_target(kind, i, j, t.n)]
        for c, col in enumerate(cols):
            if col:
                q = piece_of[src + c]
                view = views[q].get((kind, i, j))
                if view is None:
                    view = views[q][(kind, i, j)] = [()] * dims[q][(i, j)]
                view[local[src + c]] = tuple((local[tgt + r], e)
                                             for r, e in col)
    return [Bimodule(t.n, dims[q], {}, views={
                key: tuple(view) for key, view in views[q].items()})
            for q in range(len(groups))]


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


# a connected module read as one walk: its basis vectors (vertex, index)
# in walk order, the step from each to the next as (arrow kind, +1 along
# the arrow or -1 against it), and the arrow entry on each step
Node = Tuple[Vertex, int]
Step = Tuple[str, int]
Walk = Tuple[List[Node], List[Step], list]


def _reversed_walk(walk: Walk) -> Walk:
    nodes, steps, scalars = walk
    return (nodes[::-1], [(kind, -way) for kind, way in reversed(steps)],
            scalars[::-1])


def _read_walk(t: Bimodule) -> Optional[Walk]:
    """t's basis graph read as one walk, or None if it is not a path.

    Each arrow view must hold at most one entry per column and per row,
    and the graph must have one edge fewer than nodes, no node of degree
    above 2, and one end from which the walk reaches every node.  The
    walk is read from the end whose steps are least.  A palindrome would
    put two edges of one kind both into or both out of its middle node,
    which is two entries in one row or one column, so that end is unique.
    """
    links: Dict[Node, list] = {}
    edges = 0
    for (kind, i, j), cols in t.arrow_views.items():
        tgt, rows = arrow_target(kind, i, j, t.n), set()
        for c, col in enumerate(cols):
            if len(col) > 1:
                return None
            for r, e in col:
                if r in rows:
                    return None
                rows.add(r)
                links.setdefault(((i, j), c), []).append(
                    ((tgt, r), (kind, 1), e))
                links.setdefault((tgt, r), []).append(
                    (((i, j), c), (kind, -1), e))
                edges += 1
    if edges != t.total_dim - 1 or any(len(x) > 2 for x in links.values()):
        return None
    if t.total_dim == 1:
        return [(min(t.dims), 0)], [], []
    end = next((node for node, near in links.items() if len(near) == 1),
               None)
    if end is None:
        return None
    nodes, steps, scalars = [end], [], []
    while len(nodes) < t.total_dim:
        ahead = [link for link in links[nodes[-1]]
                 if len(nodes) == 1 or link[0] != nodes[-2]]
        if not ahead:
            return None  # the rest of the graph is cycles
        node, step, e = ahead[0]
        nodes.append(node)
        steps.append(step)
        scalars.append(e)
    back = _reversed_walk((nodes, steps, scalars))
    return back if back[1] < steps else (nodes, steps, scalars)


def _catalog_walk(label: StringLabel) -> Tuple[List[Step], CoverVertex,
                                                bool]:
    """The steps of label's walk (``_walk``), read from the end whose
    steps are least, that end's cover point, and whether it is the walk's
    last point.  Each edge of a string's walk joins consecutive points."""
    pts, edges = _walk(label)
    ways = {min(a, b): (kind, 1 if a < b else -1) for a, b, kind in edges}
    steps = [ways[m] for m in range(len(pts) - 1)]
    back = [(kind, -way) for kind, way in reversed(steps)]
    return (back, pts[-1], True) if back < steps else (steps, pts[0], False)


def _name_walk(walk: Walk, n: int,
               bound: int) -> Optional[Tuple[StringLabel, Walk]]:
    """The catalog label, up to bound valleys, whose walk has walk's
    steps, and walk turned to run in that label's walk order.

    Only the kinds of walk's dimension d can match: L when d = 1,
    W^((d-1)/2) and M^((d-3)/2) when d is odd, and S^((d-2)/2) and
    N^((d-2)/2) when it is even.  Each kind's steps are read off its walk
    at 1|1, and the anchor moves its start onto walk's start."""
    d = len(walk[0])
    if d == 1:
        kinds = [("L", None)]
    elif d % 2:
        kinds = [("W", (d - 1) // 2), ("M", (d - 3) // 2)]
    else:
        kinds = [("S", (d - 2) // 2), ("N", (d - 2) // 2)]
    (i, j), _ = walk[0][0]
    for family, k in kinds:
        if k is not None and k > bound:
            continue
        steps, start, last = _catalog_walk(StringLabel(family, 1, 1, k))
        if steps == walk[1]:
            label = StringLabel(family, residue(i - start.a + 1, n),
                                residue(j - start.b + 1, n), k)
            return label, (_reversed_walk(walk) if last else walk)
    return None


def _certify(t: Bimodule, walk: Walk, label: StringLabel) -> None:
    """Raise RuntimeError unless t, rebased along walk, is construct(label).

    walk runs in label's walk order.  Node m of it goes to the slot that
    node m of label's walk takes in construct's basis, the nodes at each
    vertex stacked in walk order as ``_walk_module`` stacks them, and is
    scaled so that every step's entry becomes the catalog's 1.  Every
    entry of t is carried over by that change of basis, which permutes
    and scales basis vectors, so equality is an exact isomorphism and no
    map is built."""
    nodes, steps, scalars = walk
    scale = [Fraction(1)]
    for (_, way), e in zip(steps, scalars):
        scale.append(scale[-1] * e if way > 0 else Fraction(scale[-1], e))
    slot: Dict[Node, Tuple[int, int]] = {}
    dims: Dict[Vertex, int] = {}
    for m, (v, r) in enumerate(nodes):
        slot[v, r] = m, dims.get(v, 0)
        dims[v] = dims.get(v, 0) + 1
    arrows: Dict[ArrowKey, list] = {}
    for (kind, i, j), cols in t.arrow_views.items():
        tgt = arrow_target(kind, i, j, t.n)
        entries = arrows[kind, i, j] = []
        for c, col in enumerate(cols):
            a, col_slot = slot[(i, j), c]
            for r, e in col:
                b, row_slot = slot[tgt, r]
                entries.append((row_slot, col_slot,
                                Fraction(e * scale[a], scale[b])))
    if Bimodule(t.n, dims, arrows) != construct(label, t.n):
        raise RuntimeError(f"a piece read as the walk of {label} does not "
                           "rebase onto it")


def _walk_scan(t: Bimodule, bound: int) -> Optional[StringLabel]:
    """The one summand of a connected t whose basis graph is a walk of a
    catalog member up to bound valleys, certified (``_certify``); None
    for any other t."""
    walk = _read_walk(t)
    named = None if walk is None else _name_walk(walk, t.n, bound)
    if named is None:
        return None
    label, walk = named
    _certify(t, walk, label)
    return label


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
    satisfies them when each piece does).  If its basis graph is a walk
    with the steps of a catalog string up to the bound, t is that one
    string, with residual 0, certified by an exact rebasing onto it
    (``_walk_scan``); any other connected t, such as P's square, a band
    or a string in a basis that is not monomial, is scanned by trace
    pairing (``_pairing_scan``).  A scan is an int and a tuple of frozen
    labels, so no caller can change a cached one.
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
        label = _walk_scan(t, bound)
        scan = (_pairing_scan(t, bound) if label is None
                else (0, (label,)))
    _SCAN_CACHE[key] = scan
    return scan


def _pairing_scan(t: Bimodule, bound: int) -> Scan:
    """t's scan against the candidates up to bound valleys, largest first,
    by trace pairing.

    A candidate whose dimension vector does not fit in what is still
    unaccounted for (total dimension first) is skipped.  The multiplicity
    of the rest is the rank of their trace pairing with t, the
    multiplicities times the dimension vectors must fit inside dim t
    (dimension balance, or RuntimeError), and what is left is t's
    residual.  Each hit is certified by a split pair (``_split_pair``),
    which the scan does not keep."""
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
                    f"{mult} times in a piece of dimension {t.total_dim}")
        remaining -= mult * x.total_dim
        _split_pair(x, sigmas, pis, g)
        summands.extend([label] * mult)
    return remaining, tuple(summands)


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
