"""Tensor products of bimodules over the cyclic Nakayama algebra.

The tensor over the algebra is computed gradedwise: the piece of x (x) y at
a torus vertex (i, l) is the direct sum over middle residues j of
x_{i|j} (x) y_{j|l}, divided by the balancing relations for the arrow
generators,

    (m a_j) (x) y  =  m (x) (a_j y),

with m running over a basis of x at (i, j+1) and y over a basis at (j, l).
Idempotent balancing is absorbed by the grading and squares of arrows
vanish, so these rows span every balancing relation.

Everything is deterministic: pair bases are ordered lexicographically by
(middle residue, left index, right index).  The rows are read off the arrow
views of the two factors, and ``sparse_kernel_with_frees``, the kernel
routine of the hom spaces, gives the quotient: its basis is the classes of
the free columns, and the projection row of a free column is its kernel
vector.  The projection is kept sparse, as the (quotient index, value) hits
of each pair column.  A map out of the quotient is built on the free
columns of its source only, as (pair index, col, value) entries, and
``TensorSpace.project`` reads them into the target quotient; no dense
matrix is multiplied.  Equal inputs always give equal outputs, and a map
produced by ``tensor_map`` has source and target equal (not merely
isomorphic) to the corresponding ``tensor`` results.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .algebras import Vertex, arrow_target, residue
from .bimodules import Bimodule, BimoduleMap
from .linalg import ExactMatrix, sparse_kernel_with_frees

PairKey = Tuple[int, int, int]
# a (row, col, value) entry of a matrix
Entry = Tuple[int, int, Fraction]


class TensorSpace:
    """Pair bases and the balancing quotient of x (x) y, vertex by vertex.

    Holds, for every torus vertex with a nonzero quotient: the ordered pair
    basis, the free columns (the pairs whose classes form the quotient
    basis) and the projection, whose rows are the kernel vectors, so it is
    the identity on the free columns.  ``projections[v][t]`` lists the
    (quotient index, value) hits of pair column t.
    """

    def __init__(self, x: Bimodule, y: Bimodule) -> None:
        if x.n != y.n:
            raise ValueError("tensor of bimodules over different n")
        self.x, self.y = x, y
        n = x.n
        self.n = n
        self.pair_bases: Dict[Vertex, List[PairKey]] = {}
        self.pair_index: Dict[Vertex, Dict[PairKey, int]] = {}
        self.frees: Dict[Vertex, List[int]] = {}
        self.projections: Dict[Vertex, List[List[Tuple[int, Fraction]]]] = {}
        self.qdims: Dict[Vertex, int] = {}
        # only the supports are scanned: x by row, y by row then column
        x_rows: Dict[int, List[Tuple[int, int]]] = {}
        for (i, j), d in sorted(x.dims.items()):
            x_rows.setdefault(i, []).append((j, d))
        y_rows: Dict[int, Dict[int, int]] = {}
        for (j, l), d in y.dims.items():
            y_rows.setdefault(j, {})[l] = d
        for i in sorted(x_rows):
            row_i = x_rows[i]
            ls = sorted({l for j, _ in row_i for l in y_rows.get(j, ())})
            for l in ls:
                basis: List[PairKey] = [
                    (j, xa, yb) for j, dx in row_i for xa in range(dx)
                    for yb in range(y_rows.get(j, {}).get(l, 0))]
                v = (i, l)
                idx = {p: t for t, p in enumerate(basis)}
                self.pair_bases[v] = basis
                self.pair_index[v] = idx
                rows = []
                for a in range(1, n + 1):
                    ap = residue(a + 1, n)
                    dx, dy = x.dims.get((i, ap), 0), y.dims.get((a, l), 0)
                    if not (dx and dy):
                        continue
                    # the columns of the h arrow of x at (i, a+1) and of
                    # the v arrow of y at (a, l)
                    hv = x.arrow_views.get(("h", i, ap))
                    vv = y.arrow_views.get(("v", a, l))
                    hx = hv[0] if hv is not None else ((),) * dx
                    vy = vv[0] if vv is not None else ((),) * dy
                    for xa in range(dx):
                        for yb in range(dy):
                            row = {}
                            for s, c in hx[xa]:
                                t = idx[(a, s, yb)]
                                row[t] = row.get(t, 0) + c
                            for tt, c in vy[yb]:
                                t = idx[(ap, xa, tt)]
                                row[t] = row.get(t, 0) - c
                            row = {t: c for t, c in row.items() if c}
                            if row:
                                rows.append(row)
                # the projection row of a free column is its kernel vector
                vectors, frees = sparse_kernel_with_frees(rows, len(basis))
                if not frees:
                    continue
                hits: List[List[Tuple[int, Fraction]]] = [[] for _ in basis]
                for q, vec in enumerate(vectors):
                    for t, val in vec.items():
                        hits[t].append((q, val))
                self.frees[v] = frees
                self.projections[v] = hits
                self.qdims[v] = len(frees)

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
    comps = {}
    for v, frees in src_space.frees.items():
        if v not in tgt_space.qdims:
            continue
        src_basis = src_space.pair_bases[v]
        tgt_idx = tgt_space.pair_index[v]
        triples = []
        for c, (j, xa, yb) in enumerate(src_basis[p] for p in frees):
            comp = f.components.get((j, v[1]))
            if comp is None:
                continue
            for cc in range(comp.rows):
                coef = comp.get(cc, yb)
                if coef:
                    triples.append((tgt_idx[(j, xa, cc)], c, coef))
        comps[v] = ExactMatrix.from_entries(
            tgt_space.qdims[v], len(frees), tgt_space.project(v, triples))
    return BimoduleMap(src, tgt, comps)
