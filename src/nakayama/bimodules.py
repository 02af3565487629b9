"""Bimodules over the cyclic Nakayama algebra, as torus quiver representations.

A bimodule is stored as one vector space per torus vertex (i, j), namely the
piece e_i X e_j, together with a map for every vertical arrow (left action
of a_i) and every horizontal arrow (right action of a_{j-1}); the three torus
relation families must hold.  Each arrow is kept only as its ``ArrowView``.

The named catalog consists of the projective-injectives P_{i|j}, the simples
L_{i|j}, and the string families W/S/N/M with a valley count k.  Each string
is built as a walk on the universal cover of the torus and pushed down, which
makes one code path work uniformly for n = 1 (where walk points collide on a
single vertex) and for long walks wrapping around the torus several times.

Walk shapes, all anchored at i|j and listed in the stored basis order:

  W^(k):  x_0=(i,j), x_1=(i+1,j), x_2=(i+1,j+1), ..., x_{2k}=(i+k,j+k)
          with vertical maps x_{2m} -> x_{2m+1} and horizontal maps
          x_{2m+2} -> x_{2m+1}; k valleys; W^(0) is the simple L.
  S^(k):  W^(k) followed by z=(i+k+1, j+k), reached vertically from x_{2k}.
  N^(k):  y=(i, j-1) then W^(k), with a horizontal map x_0 -> y.
  M^(k):  both extensions, basis order y, x_0, ..., x_{2k}, z.
  P:      the commuting square on (i,j-1), (i,j), (i+1,j-1), (i+1,j) with
          all four maps the identity.

Both kinds of hom space, bimodule maps in ``HomSpace`` and left-module maps
into the projectives of the algebra in ``_ColumnHom``, are kernels of the
systems that ``_intertwining_rows`` builds, and ``BimoduleMap.check`` asks
every row of the ``HomSpace`` system to vanish on a map.  The rows are read
off the arrow views, as the relation check, restriction, duality, direct
sums and ``hom_to_algebra`` read them, so the equations of a system between
0/1 modules carry int coefficients.  Every producer hands ``Bimodule`` its
arrows as sparse (row, col, value) entries: no dense matrix is built to
make, transpose or check an arrow.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Iterable, List, Optional, Tuple

from .algebras import CoverVertex, Vertex, arrow_target, project, residue
from .linalg import (
    ExactMatrix,
    ZERO,
    rank,
    sparse_kernel_with_frees,
    sparse_rank,
)

FAMILIES = ("P", "L", "W", "S", "N", "M")


@dataclass(frozen=True, order=True)
class StringLabel:
    """Catalog key: family, anchor vertex i|j, and valley count k.

    k is None exactly for the P and L families.  Labels are not
    automatically reduced mod n (they do not know n); ``normalized`` does
    that and also folds the alias W^(0) = L.
    """

    family: str
    i: int
    j: int
    k: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("P", "L"):
            if self.k is not None:
                raise ValueError(f"{self.family} labels carry no valley count")
        else:
            if self.k is None or self.k < 0:
                raise ValueError(
                    f"{self.family} labels need a valley count k >= 0")

    def normalized(self, n: int) -> "StringLabel":
        fam, k = self.family, self.k
        if fam == "W" and k == 0:
            fam, k = "L", None
        return StringLabel(fam, residue(self.i, n), residue(self.j, n), k)

    def shifted(self, di: int, dj: int, n: int) -> "StringLabel":
        return StringLabel(self.family, residue(self.i + di, n),
                           residue(self.j + dj, n), self.k)

    @property
    def dimension(self) -> int:
        if self.family == "P":
            return 4
        if self.family == "L":
            return 1
        if self.k is None:
            raise ValueError(f"{self.family} label without a valley count")
        return {"W": 2 * self.k + 1, "S": 2 * self.k + 2,
                "N": 2 * self.k + 2, "M": 2 * self.k + 3}[self.family]

    def literal(self) -> str:
        """The CLI spelling, e.g. N:1|2:k=1 or P:1|2."""
        base = f"{self.family}:{self.i}|{self.j}"
        return base if self.k is None else f"{base}:k={self.k}"

    def __str__(self) -> str:
        if self.k is None:
            return f"{self.family}_{self.i}|{self.j}"
        return f"{self.family}^({self.k})_{self.i}|{self.j}"


_LITERAL_RE = re.compile(
    r"^([PLWSNM]):(-?\d+)\|(-?\d+)(?::k=(\d+))?$")


def parse_label(text: str) -> StringLabel:
    """Parse a CLI label literal such as ``N:1|2:k=1``.

    >>> parse_label("P:2|1")
    StringLabel(family='P', i=2, j=1, k=None)
    """
    m = _LITERAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse label literal {text!r}")
    fam, i, j, k = m.group(1), int(m.group(2)), int(m.group(3)), m.group(4)
    return StringLabel(fam, i, j, int(k) if k is not None else None)


ArrowKey = Tuple[str, int, int]


# The nonzero entries of an arrow matrix as a pair (cols, rows): cols[c]
# holds the (row, value) pairs of column c and rows[r] the (col, value)
# pairs of row r, both ascending.  A value is an int when it is integral
# and a Fraction otherwise.
ArrowView = Tuple[tuple, tuple]


def _arrow_view(rows: int, cols: int, entries) -> Optional[ArrowView]:
    """The view of the rows x cols matrix with the given (row, col, value)
    entries, or None when it is zero; values at a repeated position add
    up, and an entry outside the shape raises ValueError."""
    sums: Dict[Tuple[int, int], Fraction] = {}
    for r, c, v in entries:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"entry ({r}, {c}) outside {rows}x{cols}")
        sums[(r, c)] = sums.get((r, c), 0) + v
    spots = sorted((rc, e) for rc, e in sums.items() if e)
    if not spots:
        return None
    by_col, by_row = [()] * cols, [()] * rows
    for (r, c), e in spots:
        v = e.numerator if e.denominator == 1 else e
        by_col[c] += ((r, v),)
        by_row[r] += ((c, v),)
    return tuple(by_col), tuple(by_row)


class Bimodule:
    """A representation of the torus quiver.  Each arrow is given as an
    iterable of (row, col, value) entries, with the rules of
    ``ExactMatrix.from_entries``, and kept only in ``arrow_views``, one
    ``ArrowView`` per nonzero arrow; ``dims`` and ``arrow_views`` are
    read-only views, so a shared cached module cannot be changed."""

    def __init__(self, n: int, dims: Dict[Vertex, int],
                 arrows: Dict[ArrowKey, Iterable]) -> None:
        self.n = n
        for (i, j), d in dims.items():
            if not (1 <= i <= n and 1 <= j <= n) or d < 0:
                raise ValueError(f"dimension {d} at vertex {i}|{j} of the "
                                 f"{n} x {n} torus")
        self.dims = MappingProxyType({v: d for v, d in dims.items() if d})
        self.total_dim = sum(self.dims.values())
        views = {}
        for (kind, i, j), entries in arrows.items():
            i, j = residue(i, n), residue(j, n)
            ds = self.dims.get((i, j), 0)
            dt = self.dims.get(arrow_target(kind, i, j, n), 0)
            view = _arrow_view(dt, ds, entries)
            if view is not None:
                views[(kind, i, j)] = view
        self.arrow_views = MappingProxyType(views)

    # -- basic geometry ----------------------------------------------------

    def dim(self, i: int, j: int) -> int:
        return self.dims.get((residue(i, self.n), residue(j, self.n)), 0)

    def dim_vector(self) -> Dict[Vertex, int]:
        return dict(sorted(self.dims.items()))

    def is_zero(self) -> bool:
        return not self.dims

    # -- validation --------------------------------------------------------

    def check_relations(self) -> None:
        """Raise ValueError if any torus relation fails.

        Each length-two path is a sparse product of column views.  A
        missing arrow is the zero map, so a path through one is zero and is
        not built; a square with one stored path commutes exactly when that
        path is zero.
        """
        n, views = self.n, self.arrow_views

        def path(second: ArrowKey, first: ArrowKey) -> Optional[List[dict]]:
            # the columns of second o first as dicts {row: nonzero value}
            outer, inner = views.get(second), views.get(first)
            if outer is None or inner is None:
                return None
            out = []
            for col in inner[0]:
                acc: dict = {}
                for m, a in col:
                    for r, b in outer[0][m]:
                        acc[r] = acc.get(r, 0) + a * b
                out.append({r: v for r, v in acc.items() if v})
            return out

        for (i, j) in self.dims:
            up, left = arrow_target("v", i, j, n), arrow_target("h", i, j, n)
            vv = path(("v", *up), ("v", i, j))
            if vv is not None and any(vv):
                raise ValueError(f"vertical square nonzero at {i}|{j}")
            hh = path(("h", *left), ("h", i, j))
            if hh is not None and any(hh):
                raise ValueError(f"horizontal square nonzero at {i}|{j}")
            one_way = path(("h", *up), ("v", i, j))
            other = path(("v", *left), ("h", i, j))
            if one_way is None or other is None:
                lone = other if one_way is None else one_way
                commutes = lone is None or not any(lone)
            else:
                commutes = one_way == other
            if not commutes:
                raise ValueError(f"square does not commute at {i}|{j}")

    # -- dunder ------------------------------------------------------------

    # a view holds exactly the nonzero entries, an int wherever a value is
    # integral, so equal views mean equal matrices
    def __eq__(self, other) -> bool:
        return (isinstance(other, Bimodule) and self.n == other.n
                and self.dims == other.dims
                and self.arrow_views == other.arrow_views)

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.dims.items())),
                     tuple(sorted(self.arrow_views.items()))))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"Bimodule(n={self.n}, zero)"
        dv = ", ".join(f"{i}|{j}:{d}"
                       for (i, j), d in sorted(self.dims.items()))
        return f"Bimodule(n={self.n}, dim={self.total_dim}, [{dv}])"


class BimoduleMap:
    """A homomorphism of bimodules: one matrix per torus vertex, in the
    read-only view ``components``."""

    def __init__(self, source: Bimodule, target: Bimodule,
                 components: Dict[Vertex, ExactMatrix]) -> None:
        self.source = source
        self.target = target
        comps = {}
        for v, mat in components.items():
            ds, dt = source.dims.get(v, 0), target.dims.get(v, 0)
            if mat.rows != dt or mat.cols != ds:
                raise ValueError(f"component at {v}: wrong shape")
            if ds and dt and not mat.is_zero():
                comps[v] = mat
        self.components = MappingProxyType(comps)

    def component(self, i: int, j: int) -> ExactMatrix:
        n = self.source.n
        v = (residue(i, n), residue(j, n))
        mat = self.components.get(v)
        if mat is None:
            return ExactMatrix.zeros(self.target.dims.get(v, 0),
                                     self.source.dims.get(v, 0))
        return mat

    def compose(self, other: "BimoduleMap") -> "BimoduleMap":
        """self after other."""
        comps = {}
        for v in other.source.dims:
            if self.target.dims.get(v, 0) and other.source.dims.get(v, 0):
                comps[v] = self.component(*v).mul(other.component(*v))
        return BimoduleMap(other.source, self.target, comps)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.components.values())

    def check(self) -> None:
        """Raise ValueError unless every row of the intertwining system
        that ``HomSpace`` solves vanishes on the blocks of this map."""
        offsets, _, rows = _hom_rows(self.source, self.target)
        vec = _unknowns(self, offsets)
        for row in rows:
            if sum(c * vec.get(u, 0) for u, c in row.items()):
                raise ValueError("not a bimodule map: an intertwining "
                                 "equation fails")

    def is_invertible(self) -> bool:
        x, y = self.source, self.target
        if x.dim_vector() != y.dim_vector():
            return False
        for v, d in x.dims.items():
            if rank(self.component(*v)) != d:
                return False
        return True

    def __repr__(self) -> str:
        return (f"BimoduleMap({self.source!r} -> {self.target!r}, "
                f"{'zero' if self.is_zero() else 'nonzero'})")


# ---------------------------------------------------------------------------
# construction of the catalog
# ---------------------------------------------------------------------------

def _walk(label: StringLabel):
    """Cover points and edges of a catalog label, in stored basis order.

    Returns (points, edges); each edge is (src_index, dst_index, kind).
    """
    fam, i, j, k = label.family, label.i, label.j, label.k
    if fam == "P":
        pts = [CoverVertex(i, j - 1), CoverVertex(i, j),
               CoverVertex(i + 1, j - 1), CoverVertex(i + 1, j)]
        edges = [(0, 2, "v"), (1, 3, "v"), (1, 0, "h"), (3, 2, "h")]
        return pts, edges
    if fam == "L":
        return [CoverVertex(i, j)], []
    if k is None:
        raise ValueError(f"{fam} label without a valley count")
    xs = []
    for m in range(2 * k + 1):
        half, odd = divmod(m, 2)
        xs.append(CoverVertex(i + half + odd, j + half))
    edges = []
    for m in range(k):
        edges.append((2 * m, 2 * m + 1, "v"))
        edges.append((2 * m + 2, 2 * m + 1, "h"))
    if fam == "W":
        return xs, edges
    if fam == "S":
        pts = xs + [CoverVertex(i + k + 1, j + k)]
        return pts, edges + [(2 * k, 2 * k + 1, "v")]
    if fam == "N":
        pts = [CoverVertex(i, j - 1)] + xs
        shifted = [(a + 1, b + 1, kind) for a, b, kind in edges]
        return pts, [(1, 0, "h")] + shifted
    # M: both extensions
    pts = [CoverVertex(i, j - 1)] + xs + [CoverVertex(i + k + 1, j + k)]
    shifted = [(a + 1, b + 1, kind) for a, b, kind in edges]
    return pts, [(1, 0, "h")] + shifted + [(2 * k + 1, 2 * k + 2, "v")]


_CONSTRUCT_CACHE: Dict[Tuple[StringLabel, int], Bimodule] = {}


def construct(label: StringLabel, n: int) -> Bimodule:
    """Build the catalog bimodule named by the label, for the given n.

    The walk is laid out on the cover and projected; when several walk
    points land on one torus vertex (small n, long walks) they stack up in
    walk order, so all arrow matrices are 0/1.  Results are cached and
    shared, which is safe because a Bimodule is read-only.
    """
    lab = label.normalized(n)
    cached = _CONSTRUCT_CACHE.get((lab, n))
    if cached is not None:
        return cached
    pts, edges = _walk(lab)
    verts = [project(p, n) for p in pts]
    local: List[int] = []
    dims: Dict[Vertex, int] = {}
    for v in verts:
        local.append(dims.get(v, 0))
        dims[v] = dims.get(v, 0) + 1
    cells: Dict[ArrowKey, List[Tuple[int, int]]] = {}
    for (a, b, kind) in edges:
        cells.setdefault((kind, *verts[a]), []).append((local[b], local[a]))
    out = _CONSTRUCT_CACHE[(lab, n)] = _zero_one_module(n, dims, cells)
    return out


def _zero_one_module(n: int, dims: Dict[Vertex, int],
                     cells: Dict[ArrowKey, List[Tuple[int, int]]]) -> Bimodule:
    """The module whose arrow (kind, i, j) has a 1 at each listed
    (row, col) position and 0 elsewhere, with its relations checked."""
    out = Bimodule(n, dims, {key: [(r, c, 1) for r, c in spots]
                             for key, spots in cells.items()})
    out.check_relations()
    return out


def regular_bimodule(n: int) -> Bimodule:
    """The algebra as a bimodule over itself, the tensor unit.

    Basis item e_j sits at vertex (j, j) and a_j at (j+1, j); left
    multiplication by a_j sends e_j to a_j, right multiplication by a_{j-1}
    sends e_j to a_{j-1}; products of two arrows vanish.
    """
    dims: Dict[Vertex, int] = {}
    a_local: Dict[Vertex, int] = {}
    for j in range(1, n + 1):
        dims[(j, j)] = 1
        va = arrow_target("v", j, j, n)
        a_local[va] = dims.get(va, 0)
        dims[va] = a_local[va] + 1
    # both arrows at (j, j) send e_j, the first item there, to the arrow
    # of the algebra sitting at their target
    cells = {(kind, j, j): [(a_local[arrow_target(kind, j, j, n)], 0)]
             for j in range(1, n + 1) for kind in ("v", "h")}
    return _zero_one_module(n, dims, cells)


def catalog_labels(n: int, max_valleys: int) -> List[StringLabel]:
    """All catalog labels with up to the given number of valleys, in a fixed
    deterministic order."""
    out = []
    for fam in ("P", "L"):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                out.append(StringLabel(fam, i, j))
    for k in range(max_valleys + 1):
        for fam in ("W", "S", "N", "M"):
            if fam == "W" and k == 0:
                continue  # alias of L
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    out.append(StringLabel(fam, i, j, k))
    return out


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------

def _intertwining_rows(src_dims: Dict, tgt_dims: Dict, arrows):
    """The intertwining system between two quiver representations.

    src_dims and tgt_dims give the nonzero dimensions at each vertex.
    arrows yields (s, t, xv, yv) for each arrow s -> t, with xv the
    ``ArrowView`` of its matrix on the source representation and yv that
    on the target, None for zero.  The unknowns are one (dim tgt x dim
    src) block per common vertex, in sorted vertex order, each row-major;
    every arrow gives the equations f_t xa = ya f_s, one for each entry
    (p, q), and only the equations with a nonzero column q of xa or a
    nonzero row p of ya are visited.  Integral arrows give int
    coefficients.  Returns (offsets, total, rows): the block offsets, the
    number of unknowns and the equations as sparse rows.
    """
    offsets: Dict = {}
    total = 0
    for v in sorted(src_dims.keys() & tgt_dims.keys()):
        offsets[v] = total
        total += src_dims[v] * tgt_dims[v]
    rows = []
    for s, t, xv, yv in arrows:
        ds, dt = src_dims.get(s, 0), tgt_dims.get(t, 0)
        t_off = offsets.get(t) if xv is not None else None
        s_off = offsets.get(s) if yv is not None else None
        if not (ds and dt) or (t_off is None and s_off is None):
            continue
        dxt = src_dims.get(t, 0)
        x_cols = xv[0] if t_off is not None else ((),) * ds
        y_rows = yv[1] if s_off is not None else ((),) * dt
        x_live = [q for q, col in enumerate(x_cols) if col]
        for p, y_row in enumerate(y_rows):
            for q in (range(ds) if y_row else x_live):
                row = {t_off + p * dxt + m: e for m, e in x_cols[q]}
                for l, e in y_row:
                    idx = s_off + l * ds + q
                    val = row.get(idx, 0) - e
                    if val:
                        row[idx] = val
                    else:
                        del row[idx]
                if row:
                    rows.append(row)
    return offsets, total, rows


def _hom_rows(x: Bimodule, y: Bimodule):
    """``_intertwining_rows`` for the bimodule maps x -> y."""
    arrows = (((i, j), arrow_target(kind, i, j, x.n),
               x.arrow_views.get((kind, i, j)),
               y.arrow_views.get((kind, i, j)))
              for kind, i, j in sorted(x.arrow_views.keys()
                                       | y.arrow_views.keys()))
    return _intertwining_rows(x.dims, y.dims, arrows)


def _unknowns(f: BimoduleMap, offsets: Dict) -> Dict[int, Fraction]:
    """The blocks of f laid out as the unknowns of its intertwining
    system; an unknown of a zero block is missing."""
    vec: Dict[int, Fraction] = {}
    for v, off in offsets.items():
        mat = f.components.get(v)
        if mat is not None:
            vec.update(enumerate(mat.entries, off))
    return vec


def _block(vec: Dict[int, Fraction], off: int, rows: int,
           cols: int) -> ExactMatrix:
    """The rows x cols block of a kernel vector stored row-major at off."""
    return ExactMatrix(rows, cols, [vec.get(off + k, ZERO)
                                    for k in range(rows * cols)])


class HomSpace(Sequence):
    """Basis of Hom(x, y) with coordinate bookkeeping.

    A read-only sequence of maps: the kernel vectors of the intertwining
    system are kept, and ``space[a]`` builds the a-th basis map from its
    vector on every call, so no shared map exists for a caller to change.
    The kernel basis has an identity pattern on its free unknowns, so
    coordinates of any other intertwiner in this basis can be read off
    directly; ``coords_of`` does that.
    """

    def __init__(self, x: Bimodule, y: Bimodule):
        if x.n != y.n:
            raise ValueError("hom between bimodules over different n")
        self.x, self.y = x, y
        self._offsets, total, rows = _hom_rows(x, y)
        self.vectors, self.frees = sparse_kernel_with_frees(rows, total)

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, a: int) -> BimoduleMap:
        return BimoduleMap(self.x, self.y, self.components(a))

    def components(self, a: int) -> Dict[Vertex, ExactMatrix]:
        """The vertex blocks of the a-th basis map, built fresh."""
        vec, x, y = self.vectors[a], self.x, self.y
        return {v: _block(vec, off, y.dims[v], x.dims[v])
                for v, off in self._offsets.items()}

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def maps(self) -> List[BimoduleMap]:
        """Every basis map, in a fresh list."""
        return list(self)

    def coords_of(self, f: BimoduleMap) -> Tuple[Fraction, ...]:
        """Coordinates of an intertwiner in this basis (reads free slots)."""
        vec = _unknowns(f, self._offsets)
        return tuple(vec.get(fr, ZERO) for fr in self.frees)


def trace_pairing(x: Bimodule, y: Bimodule):
    """Hom spaces both ways and the exact trace pairing between them.

    Returns (fs, gs, g) with fs the HomSpace of Hom(x, y), gs that of
    Hom(y, x), and g the pairing as sparse rows: g[a] is the dict
    {b: tr(gs[b] o fs[a])} of the nonzero traces, one row per forward
    basis vector, so ``sparse_rank(g, len(gs))`` is its rank.  That rank
    counts, with the dimensions of the residue division rings as weights,
    the indecomposable summands x and y share: a composite with nonzero
    trace is not nilpotent, and maps through the radical have trace zero.
    The entries are one sparse product: the back vectors are indexed once
    by unknown, and each forward vector, its x -> y layout transposed onto
    the y -> x one, adds its products into its row, so no map and no
    dense matrix is built here.
    """
    fwd, back = HomSpace(x, y), HomSpace(y, x)
    swap: Dict[int, int] = {}
    for v, off in fwd._offsets.items():
        dx, dy = x.dims[v], y.dims[v]
        for r in range(dy):
            for c in range(dx):
                swap[off + r * dx + c] = off + c * dy + r
    by_unknown: Dict[int, List[Tuple[int, Fraction]]] = {}
    for b, gv in enumerate(back.vectors):
        for idx, val in gv.items():
            by_unknown.setdefault(idx, []).append((b, val))
    pairing: List[Dict[int, Fraction]] = []
    for fv in fwd.vectors:
        row: Dict[int, Fraction] = {}
        for idx, a in fv.items():
            for b, val in by_unknown.get(swap[idx], ()):
                row[b] = row.get(b, ZERO) + a * val
        pairing.append({b: val for b, val in row.items() if val})
    return fwd, back, pairing


def composite_trace(back: HomSpace, b: int, f: BimoduleMap,
                    fwd: HomSpace, a: int) -> Fraction:
    """tr(back[b] o f o fwd[a]), for fwd into f's source and back out of
    f's target, read off the two kernel vectors with no map built."""
    sig, pi, total = fwd.vectors[a], back.vectors[b], ZERO
    for v, mat in f.components.items():
        if v in fwd._offsets and v in back._offsets:
            s_off, p_off, dy = fwd._offsets[v], back._offsets[v], fwd.x.dims[v]
            for idx, e in enumerate(mat.entries):
                j, k = divmod(idx, mat.cols)
                for i in range(dy):
                    if e and (p := pi.get(p_off + i * mat.rows + j)):
                        total += p * e * sig.get(s_off + k * dy + i, 0)
    return total


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

def is_isomorphic(x: Bimodule, y: Bimodule) -> bool:
    """Decide x = y up to isomorphism, exactly.

    Unequal dimension vectors rule it out, and an invertible element of
    the Hom(x, y) basis proves it; the basis maps are built one at a time
    and the search stops at the first invertible one.  Otherwise the
    pairing ranks decide: rank(x, y) is the weighted inner product of the
    multiplicity vectors of x and y, so x = y exactly when
    rank(x, y) = rank(x, x) = rank(y, y).
    """
    if x.dim_vector() != y.dim_vector():
        return False
    if x.is_zero():
        return True
    if any(f.is_invertible() for f in HomSpace(x, y)):
        return True
    ranks = set()
    for a, b in ((x, y), (x, x), (y, y)):
        _, back, g = trace_pairing(a, b)
        ranks.add(sparse_rank(g, len(back)))
    return len(ranks) == 1


# ---------------------------------------------------------------------------
# restriction to the left algebra
# ---------------------------------------------------------------------------

@dataclass
class LeftDecomposition:
    """Multiset of indecomposable left modules: projectives and simples."""

    n: int
    projectives: Counter
    simples: Counter

    @property
    def total_dim(self) -> int:
        return 2 * sum(self.projectives.values()) + sum(self.simples.values())

    def __str__(self) -> str:
        parts = []
        for i in sorted(self.projectives):
            m = self.projectives[i]
            parts.append(f"(Le_{i})^{m}" if m > 1 else f"Le_{i}")
        for i in sorted(self.simples):
            m = self.simples[i]
            parts.append(f"(S_{i})^{m}" if m > 1 else f"S_{i}")
        return " + ".join(parts) if parts else "0"


def restrict_left(x: Bimodule) -> LeftDecomposition:
    """Forget the right action and decompose the left module.

    Over a radical-square-zero algebra the answer is forced by ranks: the
    arrow action a_i contributes rank(a_i) copies of the projective Le_i,
    and what is left of each vertex space splits into simples.
    """
    n = x.n
    col_dims: Counter = Counter()
    for (i, _j), d in x.dims.items():
        col_dims[i] += d
    # a_i acts block-diagonally over the columns; its rank is read off the
    # row view, as Fractions, since elimination divides
    ranks: Counter = Counter()
    for (kind, i, _j), (cols, rows) in x.arrow_views.items():
        if kind == "v":
            ranks[i] += sparse_rank([{c: Fraction(v) for c, v in row}
                                     for row in rows], len(cols))
    projs: Counter = Counter()
    simples: Counter = Counter()
    for i in range(1, n + 1):
        if ranks[i]:
            projs[i] = ranks[i]
        s = col_dims[i] - ranks[i] - ranks[residue(i - 1, n)]
        if s < 0:
            raise ValueError("left restriction is not radical-square-zero")
        if s:
            simples[i] = s
    out = LeftDecomposition(n, projs, simples)
    if out.total_dim != x.total_dim:
        raise ValueError("left restriction does not account for every "
                         "dimension of the bimodule")
    return out


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def dualize(x: Bimodule) -> Bimodule:
    """The linear dual with swapped-side actions, as a torus representation.

    The graded piece of the dual at (i, j) is the dual of the piece of x at
    (j, i); vertical arrows of the dual are transposed horizontal arrows of
    x and vice versa:

        v at (i,j) on the dual  =  transpose of h at (j, i+1) on x,
        h at (i,j) on the dual  =  transpose of v at (j-1, i) on x.

    Each view is passed on as its entries with row and column swapped.
    """
    dims = {(i, j): d for (j, i), d in x.dims.items()}
    maps = {}
    for (kind, p, q), (cols, _rows) in x.arrow_views.items():
        key = ("v", q - 1, p) if kind == "h" else ("h", q, p + 1)
        maps[key] = [(c, r, e) for c, col in enumerate(cols) for r, e in col]
    out = Bimodule(x.n, dims, maps)
    out.check_relations()
    return out


# ---------------------------------------------------------------------------
# Hom(-, algebra) as a bimodule
# ---------------------------------------------------------------------------

# Le_b: e_b at vertex b and a_b at b+1, both at 1 when n = 1; its one
# arrow, a_b, sends e_b to a_b
_LE_ARROW = _arrow_view(1, 1, [(0, 0, 1)])
_LE_ARROW_LOOP = _arrow_view(2, 2, [(1, 0, 1)])


class _ColumnHom:
    """Hom of left modules from column a of x into Le_b, with coordinates."""

    def __init__(self, x: Bimodule, a: int, b: int):
        n = x.n
        bp, bm = residue(b + 1, n), residue(b - 1, n)
        self.tgt_dims = {1: 2} if n == 1 else {b: 1, bp: 1}
        src_dims = {i: x.dims[(i, a)] for i in (bm, b, bp) if (i, a) in x.dims}
        # the arrows into Le_b's support: a_b, and a_{b-1} unless n = 1
        arrows = [(b, bp, x.arrow_views.get(("v", b, a)),
                   _LE_ARROW_LOOP if n == 1 else _LE_ARROW)]
        if n > 1:
            arrows.append((bm, b, x.arrow_views.get(("v", bm, a)), None))
        self.offsets, total, rows = _intertwining_rows(
            src_dims, self.tgt_dims, arrows)
        self.vectors, self.frees = sparse_kernel_with_frees(rows, total)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def coords(self, vec: Dict[int, Fraction]) -> Tuple[Fraction, ...]:
        return tuple(vec.get(fr, ZERO) for fr in self.frees)


def hom_to_algebra(x: Bimodule) -> Bimodule:
    """Hom over the algebra from x into the algebra, with the bimodule
    structure (a . phi . b)(m) = phi(m a) b, returned as a torus
    representation.

    The (a, b) piece is the space of left-module maps from the a-th column
    of x into the left projective Le_b; the vertical arrow precomposes with
    the right action of a_a, the horizontal arrow postcomposes with right
    multiplication a_{b-1} : Le_b -> Le_{b-1}.

    Only the pieces that can be nonzero are built; a missing piece reads
    as zero.  Le_b has simple socle, spanned by a_b at vertex b+1, so the
    image of a nonzero map into it contains a_b, and the (a, b) piece is
    zero unless column a of x is nonzero at b+1.
    """
    n = x.n
    live = sorted({(a, residue(i - 1, n)) for (i, a) in x.dims})
    homs = {(a, b): _ColumnHom(x, a, b) for (a, b) in live}
    dims = {(a, b): h.dim for (a, b), h in homs.items() if h.dim}
    maps: Dict[ArrowKey, list] = {}
    for (a, b), h in homs.items():
        if h.dim == 0:
            continue
        # vertical: phi -> phi o (right action of a_a), lands in Hom(col a+1)
        up = arrow_target("v", a, b, n)
        tgt = homs.get(up)
        if tgt is not None and tgt.dim:
            cols = []
            for vec in h.vectors:
                comp_vec: Dict[int, Fraction] = {}
                for i, off in tgt.offsets.items():
                    # column a+1 -> column a at vertex i: entry (p, q) of
                    # the block is row p of phi_i times column q of step
                    step = x.arrow_views.get(("h", i, up[0]))
                    if step is None:
                        continue
                    h_off, ds, dq = h.offsets[i], x.dims[(i, a)], len(step[0])
                    for p in range(h.tgt_dims[i]):
                        for q, col in enumerate(step[0]):
                            val = sum(vec.get(h_off + p * ds + m, 0) * e
                                      for m, e in col)
                            if val:
                                comp_vec[off + p * dq + q] = val
                cols.append(tgt.coords(comp_vec))
            maps[("v", a, b)] = [(r, c, e) for c, col in enumerate(cols)
                                 for r, e in enumerate(col)]
        # horizontal: phi -> (right mult by a_{b-1}) o phi; e_b a_{b-1}
        # is a_{b-1} at vertex b and a_b a_{b-1} = 0, so only the e_b row
        # of phi at b survives, as the a_{b-1} row of the image, the last
        # item of Le_{b-1} at b
        tgt2 = homs.get(arrow_target("h", a, b, n))
        if tgt2 is not None and tgt2.dim:
            cols = []
            for vec in h.vectors:
                comp_vec = {}
                if b in h.offsets and b in tgt2.offsets:
                    ds = x.dims[(b, a)]
                    off = tgt2.offsets[b] + (tgt2.tgt_dims[b] - 1) * ds
                    for q in range(ds):
                        val = vec.get(h.offsets[b] + q, ZERO)
                        if val:
                            comp_vec[off + q] = val
                cols.append(tgt2.coords(comp_vec))
            maps[("h", a, b)] = [(r, c, e) for c, col in enumerate(cols)
                                 for r, e in enumerate(col)]
    out = Bimodule(n, dims, maps)
    out.check_relations()
    return out


def adjunction_command(n: int, k: int) -> dict:
    """Check the restriction and dual-hom identities for every anchor.

    Restricting the bottom-bar string to a left module gives consecutive
    projectives, and its algebra-valued hom is the left-bar string with
    reflected anchor; both facts are verified for all i, j.
    """
    pairs = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            s_lab = StringLabel("S", i, j, k).normalized(n)
            s_mod = construct(s_lab, n)
            dec = restrict_left(s_mod)
            expected = Counter(residue(i + t, n) for t in range(k + 1))
            restrict_ok = dec.projectives == expected and not dec.simples
            target = construct(StringLabel("N", j, i, k).normalized(n), n)
            hom_ok = is_isomorphic(hom_to_algebra(s_mod), target)
            pairs.append({"i": i, "j": j,
                          "restrict_ok": restrict_ok, "hom_ok": hom_ok})
    ok = all(p["restrict_ok"] and p["hom_ok"] for p in pairs)
    return {"n": n, "k": k, "pairs": pairs, "ok": ok}


# ---------------------------------------------------------------------------
# direct sums (artifact plumbing used by tests and the decomposer)
# ---------------------------------------------------------------------------

def direct_sum(*mods: Bimodule) -> Bimodule:
    if not mods:
        raise ValueError("need at least one summand")
    n = mods[0].n
    if any(m.n != n for m in mods):
        raise ValueError("mixed n")
    # each summand's basis follows those of the summands before it
    entries: Dict[ArrowKey, list] = {}
    offset: Dict[Vertex, int] = {}
    for m in mods:
        for (kind, i, j), (cols, _rows) in m.arrow_views.items():
            ro = offset.get(arrow_target(kind, i, j, n), 0)
            co = offset.get((i, j), 0)
            entries.setdefault((kind, i, j), []).extend(
                (ro + r, co + c, e)
                for c, col in enumerate(cols) for r, e in col)
        for v, d in m.dims.items():
            offset[v] = offset.get(v, 0) + d
    return Bimodule(n, dict(sorted(offset.items())), entries)
