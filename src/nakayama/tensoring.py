"""Tensor products of bimodules over the cyclic Nakayama algebra.

The tensor over the algebra is computed gradedwise: the piece of x (x) y at
a torus vertex (i, l) is the direct sum over middle residues j of
x_{i|j} (x) y_{j|l}, divided by the balancing relations for the arrow
generators,

    (m a_j) (x) y  =  m (x) (a_j y),

with m running over a basis of x at (i, j+1) and y over a basis at (j, l).
Idempotent balancing is absorbed by the grading and squares of arrows
vanish, so these rows span every balancing relation.

That graded piece is e_i x (x) y e_l: the tensor of the right module e_i x,
row i of x with its h arrows, and the left module y e_l, column l of y
with its v arrows.  Its pair basis and balancing rows read nothing else,
not the v arrows of x nor the h arrows of y, and not any other row or
column.  The same rows and columns recur across the products of string
bimodules, so a piece is a function of (n, row, column) and is cached by
their values (``_piece``); its basis, index, free columns and projection
are read-only, and every ``TensorSpace`` that meets the same two modules
shares them.  Keys are built only for the vertices where the supports of
row i and column l meet.

Everything is deterministic: pair bases are ordered lexicographically by
(middle residue, left index, right index).  The rows are read off the arrow
views of the two factors, and ``sparse_kernel_with_frees``, the kernel
routine of the hom spaces, gives the quotient: its basis is the classes of
the free columns, and the projection row of a free column is its kernel
vector.  The projection is kept sparse, as the (quotient index, value) hits
of each pair column.  An arrow or map block out of the quotient is built
on the free columns of its source only, as (pair index, col, value)
entries read off views, and ``TensorSpace.project`` reads them into the
target quotient; no dense matrix is built.  Equal inputs always give equal
outputs, and a map produced by ``tensor_map`` has source and target equal
(not merely isomorphic) to the corresponding ``tensor`` results.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import (Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Tuple)

from .algebras import Vertex, arrow_target, residue
from .bimodules import ArrowView, Bimodule, BimoduleMap
from .linalg import sparse_kernel_with_frees

PairKey = Tuple[int, int, int]
# a (row, col, value) entry of a matrix
Entry = Tuple[int, int, Fraction]


# row i of x, a right module, or column l of y, a left module: the
# (residue, dim, view) of each vertex of its support, ascending, where the
# view is of the h arrow of the row or the v arrow of the column there
# (None for a zero arrow)
Strip = Tuple[Tuple[int, int, Optional[ArrowView]], ...]


class Piece(NamedTuple):
    """The balancing quotient e_i x (x) y e_l at one torus vertex.

    ``basis`` is the ordered pair basis and ``index`` its read-only
    inverse; ``frees`` are the pairs whose classes form the quotient
    basis, and ``hits[t]`` lists the (quotient index, value) hits of pair
    column t in the projection.  Everything is a tuple or a mapping proxy,
    so a cached piece cannot be changed by the spaces that share it.
    """

    basis: Tuple[PairKey, ...]
    index: Mapping[PairKey, int]
    frees: Tuple[int, ...]
    hits: Tuple[Tuple[Tuple[int, Fraction], ...], ...]


_PIECE_CACHE: Dict[Tuple[int, Strip, Strip], Piece] = {}


def _piece(n: int, row: Strip, col: Strip) -> Piece:
    """The graded piece of row (x) col over the algebra, cached by value.

    The balancing rows at a middle residue a join the h arrow of the row
    at a+1 to the v arrow of the column at a, so these two strips are all
    that the piece reads.
    """
    key = (n, row, col)
    piece = _PIECE_CACHE.get(key)
    if piece is not None:
        return piece
    x_at = {j: (d, view) for j, d, view in row}
    y_at = {j: (d, view) for j, d, view in col}
    basis = tuple([(j, xa, yb) for j, dx, _ in row if j in y_at
                   for xa in range(dx) for yb in range(y_at[j][0])])
    idx = {p: t for t, p in enumerate(basis)}
    rows = []
    for a in range(1, n + 1):
        ap = residue(a + 1, n)
        if ap not in x_at or a not in y_at:
            continue
        # the h arrow of x at (i, a+1) and the v arrow of y at (a, l)
        (dx, hv), (dy, vv) = x_at[ap], y_at[a]
        hx = hv[0] if hv is not None else ((),) * dx
        vy = vv[0] if vv is not None else ((),) * dy
        for xa in range(dx):
            for yb in range(dy):
                entries: Dict[int, Fraction] = {}
                for s, c in hx[xa]:
                    t = idx[(a, s, yb)]
                    entries[t] = entries.get(t, 0) + c
                for tt, c in vy[yb]:
                    t = idx[(ap, xa, tt)]
                    entries[t] = entries.get(t, 0) - c
                entries = {t: c for t, c in entries.items() if c}
                if entries:
                    rows.append(entries)
    # the projection row of a free column is its kernel vector
    vectors, frees = sparse_kernel_with_frees(rows, len(basis))
    hits: List[List[Tuple[int, Fraction]]] = [[] for _ in basis]
    for q, vec in enumerate(vectors):
        for t, val in vec.items():
            hits[t].append((q, val))
    piece = _PIECE_CACHE[key] = Piece(
        basis, MappingProxyType(idx), tuple(frees),
        tuple(map(tuple, hits)))
    return piece


class TensorSpace:
    """Pair bases and the balancing quotient of x (x) y, vertex by vertex.

    Holds, for every torus vertex whose pair basis is nonempty, the
    ordered pair basis and its index, and for every vertex with a nonzero
    quotient the free columns (the pairs whose classes form the quotient
    basis) and the projection, whose rows are the kernel vectors, so it is
    the identity on the free columns.  ``projections[v][t]`` lists the
    (quotient index, value) hits of pair column t.  All of them are the
    shared, read-only fields of the vertex's cached ``Piece``.
    """

    def __init__(self, x: Bimodule, y: Bimodule) -> None:
        if x.n != y.n:
            raise ValueError("tensor of bimodules over different n")
        self.x, self.y = x, y
        n = x.n
        self.n = n
        self.pair_bases: Dict[Vertex, Tuple[PairKey, ...]] = {}
        self.pair_index: Dict[Vertex, Mapping[PairKey, int]] = {}
        self.frees: Dict[Vertex, Tuple[int, ...]] = {}
        self.projections: Dict[Vertex, tuple] = {}
        self.qdims: Dict[Vertex, int] = {}
        # only the supports are scanned: x by row, y by column
        x_rows: Dict[int, list] = {}
        y_cols: Dict[int, list] = {}
        meets: Dict[int, List[int]] = {}  # row j of y -> its columns
        for (i, j), d in sorted(x.dims.items()):
            x_rows.setdefault(i, []).append(
                (j, d, x.arrow_views.get(("h", i, j))))
        for (j, l), d in sorted(y.dims.items()):
            y_cols.setdefault(l, []).append(
                (j, d, y.arrow_views.get(("v", j, l))))
            meets.setdefault(j, []).append(l)
        cols = {l: tuple(col) for l, col in y_cols.items()}
        for i, row in x_rows.items():
            row = tuple(row)
            for l in sorted({l for j, _, _ in row for l in meets.get(j, ())}):
                piece = _piece(n, row, cols[l])
                v = (i, l)
                self.pair_bases[v] = piece.basis
                self.pair_index[v] = piece.index
                if piece.frees:
                    self.frees[v] = piece.frees
                    self.projections[v] = piece.hits
                    self.qdims[v] = len(piece.frees)

    def project(self, v: Vertex, raw: Iterable[Entry]) -> List[Entry]:
        """The quotient entries at v of raw (pair index, col, value)
        entries; values at a repeated position are left to add up."""
        hits = self.projections[v]
        return [(q, c, h * val) for t, c, val in raw for q, h in hits[t]]

    # -- raw (pair-level) maps --------------------------------------------

    def _raw(self, kind: str, i: int, l: int) -> List[Entry]:
        """Left action of a_i ("v") or right action of a_{l-1} ("h") on
        the free columns of the pair space at (i, l), as (pair index, col,
        value) entries."""
        src = self.pair_bases[(i, l)]
        tgt_idx = self.pair_index.get(arrow_target(kind, i, l, self.n), {})
        triples = []
        for c, (j, xa, yb) in enumerate(src[p] for p in self.frees[(i, l)]):
            if kind == "v":
                view, col = self.x.arrow_views.get(("v", i, j)), xa
            else:
                view, col = self.y.arrow_views.get(("h", j, l)), yb
            if view is None:
                continue
            for s, coef in view[0][col]:
                key = (j, s, yb) if kind == "v" else (j, xa, s)
                triples.append((tgt_idx[key], c, coef))
        return triples

    def assemble(self) -> Bimodule:
        """The tensor product as a torus representation."""
        maps = {}
        for (i, l) in self.qdims:
            for kind in ("v", "h"):
                tv = arrow_target(kind, i, l, self.n)
                if tv in self.qdims:
                    maps[(kind, i, l)] = self.project(
                        tv, self._raw(kind, i, l))
        return Bimodule(self.n, dict(self.qdims), maps)


def tensor(x: Bimodule, y: Bimodule) -> Bimodule:
    """x (x) y over the algebra, as a torus representation.

    >>> from nakayama.bimodules import regular_bimodule
    >>> reg = regular_bimodule(2)
    >>> tensor(reg, reg).total_dim
    4
    """
    out = TensorSpace(x, y).assemble()
    out.check_relations()
    return out


def tensor_map(x: Bimodule, f: BimoduleMap) -> BimoduleMap:
    """The induced map x (x) f.source -> x (x) f.target.

    Its source and target coincide on the nose with the bimodules produced
    by ``tensor(x, f.source)`` and ``tensor(x, f.target)``, so the result
    composes directly with any split maps computed against those.
    """
    src_space = TensorSpace(x, f.source)
    tgt_space = TensorSpace(x, f.target)
    src = src_space.assemble()
    tgt = tgt_space.assemble()
    blocks = {}
    for v, frees in src_space.frees.items():
        if v not in tgt_space.qdims:
            continue
        src_basis = src_space.pair_bases[v]
        tgt_idx = tgt_space.pair_index[v]
        triples = []
        for c, (j, xa, yb) in enumerate(src_basis[p] for p in frees):
            view = f.components.get((j, v[1]))
            if view is not None:
                triples.extend((tgt_idx[(j, xa, cc)], c, coef)
                               for cc, coef in view[0][yb])
        blocks[v] = tgt_space.project(v, triples)
    return BimoduleMap(src, tgt, blocks)
