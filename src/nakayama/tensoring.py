"""Tensor products of bimodules over the cyclic Nakayama algebra.

The tensor over the algebra is computed gradedwise: the piece of x (x) y at
a torus vertex (i, l) is the direct sum over middle residues j of
x_{i|j} (x) y_{j|l}, divided by the balancing relations for the arrow
generators,

    (m a_j) (x) y  =  m (x) (a_j y),

with m running over a basis of x at (i, j+1) and y over a basis at (j, l).
Idempotent balancing is absorbed by the grading and squares of arrows
vanish, so these rows span every balancing relation.

That graded piece is e_i x (x) y e_l: the tensor of row i of x with its
h arrows and column l of y with its v arrows, and it reads nothing else.
The same rows and columns recur across products, so a piece is cached by
the values of (n, row, column) (``_piece``) as a read-only ``Piece`` that
every ``TensorSpace`` meeting them shares.  A factor groups its arrows by
row and by column once, the first time it is tensored
(``Bimodule.strips``), and every product reads that grouping; keys are
built only where the supports of row i and column l meet.

Pair bases are ordered by (middle residue, left index, right index).  The
row of a pair (m, y) joins column m of an h arrow view of x to column y of
a v arrow view of y, and ``sparse_kernel_with_frees``, the kernel routine
of the hom spaces, gives the quotient: the classes of the free columns,
each with its kernel vector as projection row, kept sparse as the
(quotient index, value) hits of each pair column.  Each arrow of the
product and each block of an induced map is a map on one factor moved
across the quotient (``_moved``): read off views on the free pairs of the
source piece and projected into the target piece; no dense matrix is
built.  Equal inputs give equal outputs, and ``tensor_map``'s source and
target equal (not merely are isomorphic to) the ``tensor`` results.
``tensor`` checks the relations of the product; ``TensorSpace.assemble``
does not, so the decomposition checks each distinct module once instead.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .algebras import Vertex, arrow_target, residue
from .bimodules import ArrowView, Bimodule, BimoduleMap, Strip
from .linalg import sparse_kernel_with_frees

PairKey = Tuple[int, int, int]
# a (row, col, value) entry of a matrix
Entry = Tuple[int, int, Fraction]


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
        hx = hv if hv is not None else ((),) * dx
        vy = vv if vv is not None else ((),) * dy
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


def _moved(src: Piece, tgt: Piece, views: Mapping[int, Optional[ArrowView]],
           left: bool) -> List[Entry]:
    """A map on one tensor factor moved across the quotient: views[j] acts
    at middle residue j (zero if missing or None), on the left factor if
    left and else on the right.  Each free pair of src goes to its image
    pairs, projected into tgt's quotient as (quotient index, col, value)
    entries; values at a repeated position add up."""
    basis, idx, hits = src.basis, tgt.index, tgt.hits
    out = []
    for c, p in enumerate(src.frees):
        j, xa, yb = basis[p]
        view = views.get(j)
        if view is None:
            continue
        for s, coef in view[xa if left else yb]:
            for q, h in hits[idx[(j, s, yb) if left else (j, xa, s)]]:
                out.append((q, c, h * coef))
    return out


class TensorSpace:
    """The balancing quotient of x (x) y, vertex by vertex, read off x's
    row strips and y's column strips (``Bimodule.strips``).

    ``pieces`` maps each torus vertex with a nonempty pair basis, in
    ascending order, to the shared, read-only ``Piece`` of the cache, not
    a copy; ``qdims`` holds the nonzero quotient dimensions.
    """

    def __init__(self, x: Bimodule, y: Bimodule) -> None:
        if x.n != y.n:
            raise ValueError("tensor of bimodules over different n")
        self.x, self.y = x, y
        self.n = n = x.n
        self.pieces: Dict[Vertex, Piece] = {}
        # row j of y lists the columns l where row i of x meets y at j
        cols, y_rows = y.strips.cols, y.strips.rows
        for i, row in x.strips.rows.items():
            for l in sorted({l for j, _, _ in row
                             for l, _, _ in y_rows.get(j, ())}):
                self.pieces[(i, l)] = _piece(n, row, cols[l])
        self.qdims: Dict[Vertex, int] = {
            v: len(piece.frees) for v, piece in self.pieces.items()
            if piece.frees}

    def assemble(self) -> Bimodule:
        """The tensor product as a torus representation, its relations
        unchecked: x acts on the left factor by its v arrows, y on the
        right one by its h arrows, each read off its factor's strips."""
        x_v, y_h = self.x.strips.v_by_row, self.y.strips.h_by_col
        maps = {}
        for (i, l) in self.qdims:
            for kind, views, left in (("v", x_v.get(i, {}), True),
                                      ("h", y_h.get(l, {}), False)):
                tv = arrow_target(kind, i, l, self.n)
                if tv in self.qdims:
                    maps[(kind, i, l)] = _moved(
                        self.pieces[(i, l)], self.pieces[tv], views, left)
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
    views: Dict[int, Dict[int, ArrowView]] = {}  # column l -> j -> f_{j|l}
    for (j, l), view in f.components.items():
        views.setdefault(l, {})[j] = view
    blocks = {v: _moved(src_space.pieces[v], tgt_space.pieces[v],
                        views.get(v[1], {}), False)
              for v in src_space.qdims if v in tgt_space.qdims}
    return BimoduleMap(src_space.assemble(), tgt_space.assemble(), blocks)
