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

A ``HomSpace`` of bimodule maps is the kernel of the system that
``_hom_rows`` builds, and ``BimoduleMap.check`` asks every row of that
system to vanish on a map.  The rows are read off the arrow views, as the
relation check, restriction, duality and direct sums read them, so the
equations of a system between 0/1 modules carry int coefficients.  Hom
into the algebra needs no system: the algebra is self-injective with
Nakayama automorphism the rotation e_j -> e_{j-1}, so ``hom_to_algebra``
is the dual module moved by (0, -1), which one build transposes straight
from the views of x.  The other producers hand ``Bimodule`` sparse (row,
col, value) entries: no dense matrix is built to make, transpose or check
an arrow, and ``BimoduleMap`` keeps its vertex blocks as views too.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .algebras import CoverVertex, Vertex, arrow_target, project, residue
from .linalg import sparse_kernel_with_frees, sparse_rank

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


# The nonzero entries of an arrow matrix, one tuple per column: view[c]
# holds the (row, value) pairs of column c, ascending by row, so every
# entry is stored once.  A value is an int when it is integral and a
# Fraction otherwise.
ArrowView = Tuple[tuple, ...]


def _arrow_view(rows: int, cols: int, entries) -> Optional[ArrowView]:
    """The view of the rows x cols matrix with the given (row, col, value)
    entries, or None when it is zero; values at one position add up, and
    any entry off the shape raises ValueError."""
    sums: Dict[Tuple[int, int], Fraction] = {}
    for r, c, v in entries:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"entry ({r}, {c}) outside {rows}x{cols}")
        sums[(r, c)] = sums.get((r, c), 0) + v
    spots = sorted((rc, e) for rc, e in sums.items() if e)
    if not spots:
        return None
    by_col = [()] * cols
    for (r, c), e in spots:
        by_col[c] += ((r, e.numerator if e.denominator == 1 else e),)
    return tuple(by_col)


# row i of a module, a right module, or column l, a left module: the
# (residue, dim, view) of each vertex of its support, ascending, where the
# view is of the h arrow of the row or the v arrow of the column there
# (None for a zero arrow)
Strip = Tuple[Tuple[int, int, Optional[ArrowView]], ...]


class Strips(NamedTuple):
    """A module's arrows by row and by column: ``rows[i]`` is the strip of
    row i, and ``v_by_row[i]`` maps j to the v arrow at i|j (None for a
    zero arrow); ``cols`` and ``h_by_col`` are the same by column."""

    rows: Mapping[int, Strip]
    v_by_row: Mapping[int, Mapping[int, Optional[ArrowView]]]
    cols: Mapping[int, Strip]
    h_by_col: Mapping[int, Mapping[int, Optional[ArrowView]]]


def _view_product(outer: Optional[ArrowView],
                  inner: Optional[ArrowView]) -> Optional[List[dict]]:
    """The columns of outer times inner, as dicts; None if either is None."""
    if outer is None or inner is None:
        return None
    out = []
    for col in inner:
        acc: dict = {}
        for m, a in col:
            for r, b in outer[m]:
                acc[r] = acc.get(r, 0) + a * b
        out.append({r: v for r, v in acc.items() if v})
    return out


def _view_rank(view: ArrowView, rows: int) -> int:
    """The rank of a view's matrix with the given number of rows: the entry
    count when no row or column holds two, else the rank of the transpose,
    whose rows are the columns."""
    hit = [r for col in view for r, _ in col]
    if len(set(hit)) == len(hit) == sum(map(bool, view)):
        return len(hit)
    return sparse_rank([dict(col) for col in view], rows)


class Bimodule:
    """A representation of the torus quiver.  Each arrow is given as an
    iterable of (row, col, value) entries, under the rule of
    ``_arrow_view``, and kept only in ``arrow_views``, one ``ArrowView``
    of its columns per nonzero arrow.  ``dims`` and ``arrow_views`` are
    read-only views, and no attribute can be set or deleted, so a shared
    cached module cannot be changed.  ``views`` stands in for ``arrows``
    with views that already fit ``dims`` under reduced keys, as
    ``translated`` passes them on."""

    def __init__(self, n: int, dims: Dict[Vertex, int],
                 arrows: Dict[ArrowKey, Iterable], *,
                 views: Optional[Dict[ArrowKey, ArrowView]] = None) -> None:
        for (i, j), d in dims.items():
            if not (1 <= i <= n and 1 <= j <= n) or d < 0:
                raise ValueError(f"dimension {d} at vertex {i}|{j} of the "
                                 f"{n} x {n} torus")
        kept = MappingProxyType({v: d for v, d in dims.items() if d})
        if views is None:
            views = {}
            for (kind, i, j), entries in arrows.items():
                if kind not in ("v", "h"):
                    raise ValueError(f"unknown arrow kind {kind!r}")
                i, j = residue(i, n), residue(j, n)
                ds = kept.get((i, j), 0)
                dt = kept.get(arrow_target(kind, i, j, n), 0)
                view = _arrow_view(dt, ds, entries)
                if view is not None:
                    views[(kind, i, j)] = view
        elif arrows:
            raise ValueError("give a module arrows or views, not both")
        # object.__setattr__ passes the guard below, which refuses every
        # later write
        put = object.__setattr__
        put(self, "n", n)
        put(self, "dims", kept)
        put(self, "total_dim", sum(kept.values()))
        put(self, "arrow_views", MappingProxyType(views))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set {name!r}: a Bimodule is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete {name!r}: a Bimodule is read-only")

    # cached_property writes the instance __dict__ directly, past the guard
    @cached_property
    def strips(self) -> Strips:
        """The arrows grouped by row and by column, built the first time
        the module is tensored, from tuples and mapping proxies."""
        rows, v_by_row, cols, h_by_col = {}, {}, {}, {}
        get = self.arrow_views.get
        for (i, j), d in sorted(self.dims.items()):
            h, v = get(("h", i, j)), get(("v", i, j))
            rows.setdefault(i, []).append((j, d, h))
            v_by_row.setdefault(i, {})[j] = v
            cols.setdefault(j, []).append((i, d, v))
            h_by_col.setdefault(j, {})[i] = h
        seal = MappingProxyType
        return Strips(seal({i: tuple(s) for i, s in rows.items()}),
                      seal({i: seal(m) for i, m in v_by_row.items()}),
                      seal({j: tuple(s) for j, s in cols.items()}),
                      seal({j: seal(m) for j, m in h_by_col.items()}))

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
        n, get = self.n, self.arrow_views.get
        for (i, j) in self.dims:
            up, left = arrow_target("v", i, j, n), arrow_target("h", i, j, n)
            vv = _view_product(get(("v", *up)), get(("v", i, j)))
            if vv is not None and any(vv):
                raise ValueError(f"vertical square nonzero at {i}|{j}")
            hh = _view_product(get(("h", *left)), get(("h", i, j)))
            if hh is not None and any(hh):
                raise ValueError(f"horizontal square nonzero at {i}|{j}")
            one_way = _view_product(get(("h", *up)), get(("v", i, j)))
            other = _view_product(get(("v", *left)), get(("h", i, j)))
            if one_way is None or other is None:
                lone = other if one_way is None else one_way
                commutes = lone is None or not any(lone)
            else:
                commutes = one_way == other
            if not commutes:
                raise ValueError(f"square does not commute at {i}|{j}")

    def translated(self, di: int, dj: int) -> "Bimodule":
        """This module moved by (di, dj) along the torus, a quiver
        automorphism: every view carries over, keys keep their order."""
        n = self.n
        moved = {(i, j): (residue(i + di, n), residue(j + dj, n))
                 for (i, j) in self.dims}  # every arrow starts in dims
        return Bimodule(n, {moved[v]: d for v, d in self.dims.items()}, {},
                        views={(kind, *moved[i, j]): view for (kind, i, j),
                               view in self.arrow_views.items()})

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
    """A homomorphism of bimodules.  Each vertex block is given as (row,
    col, value) entries, under the rule of ``_arrow_view``, and kept as its
    ``ArrowView`` in the read-only view ``components``."""

    def __init__(self, source: Bimodule, target: Bimodule,
                 blocks: Dict[Vertex, Iterable]) -> None:
        if source.n != target.n:
            raise ValueError("map between bimodules over different n")
        self.source = source
        self.target = target
        views = {}
        for v, entries in blocks.items():
            view = _arrow_view(target.dims.get(v, 0), source.dims.get(v, 0),
                               entries)
            if view is not None:
                views[v] = view
        self.components = MappingProxyType(views)

    def compose(self, other: "BimoduleMap") -> "BimoduleMap":
        """self after other, block by block as sparse view products."""
        blocks = {}
        for v, inner in other.components.items():
            cols = _view_product(self.components.get(v), inner)
            if cols is not None:
                blocks[v] = [(r, c, e) for c, col in enumerate(cols)
                             for r, e in col.items()]
        return BimoduleMap(other.source, self.target, blocks)

    def is_zero(self) -> bool:
        return not self.components

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
        if x.dims != y.dims:
            return False
        views = self.components
        return all(v in views and _view_rank(views[v], d) == d
                   for v, d in x.dims.items())

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

    Only the walk at anchor 1|1 is built and checked, once per family, k
    and n; the walk at i|j is that walk moved along the torus, so its
    module is the 1|1 module translated by (i-1, j-1), in the same stored
    order.  Results are cached and shared, which is safe because a
    Bimodule is read-only.
    """
    lab = label.normalized(n)
    cached = _CONSTRUCT_CACHE.get((lab, n))
    if cached is not None:
        return cached
    origin = StringLabel(lab.family, 1, 1, lab.k)
    out = _CONSTRUCT_CACHE.get((origin, n))
    if out is None:
        out = _CONSTRUCT_CACHE[(origin, n)] = _walk_module(origin, n)
    if lab != origin:
        out = _CONSTRUCT_CACHE[(lab, n)] = out.translated(lab.i - 1,
                                                          lab.j - 1)
    return out


def _walk_module(label: StringLabel, n: int) -> Bimodule:
    """The label's walk laid out on the cover and projected: points on one
    torus vertex stack up in walk order, so every arrow matrix is 0/1."""
    pts, edges = _walk(label)
    verts = [project(p, n) for p in pts]
    local: List[int] = []
    dims: Dict[Vertex, int] = {}
    for v in verts:
        local.append(dims.get(v, 0))
        dims[v] = dims.get(v, 0) + 1
    cells: Dict[ArrowKey, List[Tuple[int, int]]] = {}
    for (a, b, kind) in edges:
        cells.setdefault((kind, *verts[a]), []).append((local[b], local[a]))
    return _zero_one_module(n, dims, cells)


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
    """All catalog labels with up to the given number of valleys, in the
    label order of ``decomposition._label_sort_key``: valley count (none
    for P and L first), then family in ``FAMILIES`` order, then i, then j.
    The label at (kind, i, j) has index kind * n * n + (i-1) * n + (j-1),
    each (family, k) being a kind."""
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

def _hom_rows(x: Bimodule, y: Bimodule):
    """The intertwining system of the bimodule maps x -> y.

    The unknowns are one (dim y x dim x) block per common vertex, in
    sorted vertex order, each row-major; every arrow s -> t of the torus,
    taken in sorted key order, gives the equations f_t xa = ya f_s, one
    for each entry (p, q), and only the equations with a nonzero column q
    of xa or a nonzero row p of ya are visited.  Integral arrows give int
    coefficients.  Returns (offsets, total, rows): the block offsets, the
    number of unknowns and the equations as sparse rows.
    """
    offsets: Dict = {}
    total = 0
    for v in sorted(x.dims.keys() & y.dims.keys()):
        offsets[v] = total
        total += x.dims[v] * y.dims[v]
    rows = []
    for kind, i, j in sorted(x.arrow_views.keys() | y.arrow_views.keys()):
        s, t = (i, j), arrow_target(kind, i, j, x.n)
        xv = x.arrow_views.get((kind, i, j))
        yv = y.arrow_views.get((kind, i, j))
        ds, dt = x.dims.get(s, 0), y.dims.get(t, 0)
        t_off = offsets.get(t) if xv is not None else None
        s_off = offsets.get(s) if yv is not None else None
        if not (ds and dt) or (t_off is None and s_off is None):
            continue
        dxt = x.dims.get(t, 0)
        x_cols = xv if t_off is not None else ((),) * ds
        y_rows = [()] * dt  # ya by rows, if it is read
        for l, col in enumerate(yv if s_off is not None else ()):
            for p, e in col:
                y_rows[p] += ((l, e),)
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


def _unknowns(f: BimoduleMap, offsets: Dict) -> Dict[int, Fraction]:
    """The blocks of f laid out as the unknowns of its intertwining
    system; an unknown of a zero block is missing."""
    vec: Dict[int, Fraction] = {}
    for v, off in offsets.items():
        view = f.components.get(v)
        if view is not None:
            ds = len(view)
            vec.update((off + r * ds + c, e)
                       for c, col in enumerate(view) for r, e in col)
    return vec


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
        return BimoduleMap(self.x, self.y, self.blocks(a))

    def blocks(self, a: int) -> Dict[Vertex, List[Tuple[int, int, Fraction]]]:
        """The blocks of the a-th basis map, as entries of its vector."""
        vec, x, y = self.vectors[a], self.x, self.y
        out = {}
        for v, off in self._offsets.items():
            ds = x.dims[v]
            out[v] = [(k // ds, k % ds, e) for k in range(ds * y.dims[v])
                      if (e := vec.get(off + k))]
        return out

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def maps(self) -> List[BimoduleMap]:
        """Every basis map, in a fresh list."""
        return list(self)

    def coords_of(self, f: BimoduleMap) -> Tuple[Fraction, ...]:
        """Coordinates of f in this basis, read off its free unknowns."""
        vec = _unknowns(f, self._offsets)
        return tuple(vec.get(fr, 0) for fr in self.frees)


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
                row[b] = row.get(b, 0) + a * val
        pairing.append({b: val for b, val in row.items() if val})
    return fwd, back, pairing


def composite_trace(back: HomSpace, b: int, f: BimoduleMap,
                    fwd: HomSpace, a: int) -> Fraction:
    """tr(back[b] o f o fwd[a]), for fwd into f's source and back out of
    f's target, read off the two kernel vectors with no map built."""
    sig, pi, total = fwd.vectors[a], back.vectors[b], 0
    for v, cols in f.components.items():
        if v in fwd._offsets and v in back._offsets:
            s_off, p_off, dy = fwd._offsets[v], back._offsets[v], fwd.x.dims[v]
            dt = back.x.dims[v]
            for k, col in enumerate(cols):
                for j, e in col:
                    for i in range(dy):
                        if p := pi.get(p_off + i * dt + j):
                            total += p * e * sig.get(s_off + k * dy + i, 0)
    return total


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

def is_isomorphic(x: Bimodule, y: Bimodule) -> bool:
    """Decide x = y up to isomorphism, exactly.

    Unequal dimension vectors rule it out.  Equal modules are isomorphic
    by the identity map, so no hom is solved for them.  Otherwise an
    invertible element of the Hom(x, y) basis proves it; the basis maps
    are built one at a time and the search stops at the first invertible
    one.  Failing that, the pairing ranks decide: rank(x, y) is the
    weighted inner product of the multiplicity vectors of x and y, so
    x = y exactly when rank(x, y) = rank(x, x) = rank(y, y).
    """
    if x.dims != y.dims:
        return False
    if x == y or x.is_zero():
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
    # a_i acts block-diagonally over the columns
    ranks: Counter = Counter()
    for (kind, i, j), view in x.arrow_views.items():
        if kind == "v":
            ranks[i] += _view_rank(view, x.dims[arrow_target(kind, i, j, n)])
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
    return LeftDecomposition(n, projs, simples)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def _dual(x: Bimodule, dj: int) -> Bimodule:
    """The dual of x moved by (0, dj), relations checked, in one build:
    row r of a view, in ascending column order, is its transpose's column r."""
    n, dims, views = x.n, x.dims, {}
    for (kind, p, q), cols in x.arrow_views.items():
        rows = [[] for _ in range(dims[arrow_target(kind, p, q, n)])]
        for c, col in enumerate(cols):
            for r, e in col:
                rows[r].append((c, e))
        key = (("v", residue(q - 1, n), residue(p + dj, n)) if kind == "h"
               else ("h", q, residue(p + 1 + dj, n)))
        views[key] = tuple(map(tuple, rows))
    out = Bimodule(n, {(q, residue(p + dj, n)): d
                       for (p, q), d in dims.items()}, {}, views=views)
    out.check_relations()
    return out


def dualize(x: Bimodule) -> Bimodule:
    """The linear dual with swapped-side actions, as a torus representation.

    The graded piece of the dual at (i, j) is the dual of the piece of x at
    (j, i); vertical arrows of the dual are transposed horizontal arrows of
    x and vice versa:

        v at (i,j) on the dual  =  transpose of h at (j, i+1) on x,
        h at (i,j) on the dual  =  transpose of v at (j-1, i) on x.

    Each view is transposed straight into the dual's view by ``_dual``.
    """
    return _dual(x, 0)


# ---------------------------------------------------------------------------
# Hom(-, algebra) as a bimodule
# ---------------------------------------------------------------------------

def hom_to_algebra(x: Bimodule) -> Bimodule:
    """Hom over the algebra from x into the algebra, with the bimodule
    structure (a . phi . b)(m) = phi(m a) b, returned as a torus
    representation: the dual of x moved by (0, -1).

    The algebra is self-injective with Nakayama automorphism the rotation
    e_j -> e_{j-1}, so as a bimodule it is its own linear dual D(A) with
    the right action twisted by that rotation.  Hence Hom_A(x, A) is
    Hom_A(x, D(A)) twisted, which is D(x) twisted (Skowronski-Yamagata,
    Frobenius Algebras I, 2011, IV.3); on the torus the twist of the
    right action is the translation by (0, -1), made in the same build.
    """
    return _dual(x, -1)


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
# direct sums (plumbing for building test modules)
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
        for (kind, i, j), cols in m.arrow_views.items():
            ro = offset.get(arrow_target(kind, i, j, n), 0)
            co = offset.get((i, j), 0)
            entries.setdefault((kind, i, j), []).extend(
                (ro + r, co + c, e)
                for c, col in enumerate(cols) for r, e in col)
        for v, d in m.dims.items():
            offset[v] = offset.get(v, 0) + d
    return Bimodule(n, dict(sorted(offset.items())), entries)
