"""Dense matrix helpers for the tests and their reference implementations.

The package builds and reads every bimodule arrow and every block of a
bimodule map as sparse entries, and lays out a birep's matrices as int
lists from its (row, col, multiplicity) triples; the oracles of the tests
are written with the dense Fraction matrices of ``ExactMatrix``, which
only the tests keep, and this module converts between the forms.  It also
keeps the dense forms the package no longer has: identity and zero
matrices, rank, solve and inverse of a dense matrix, the split pair
(p s)^-1 p inverted densely, and ``tensor_map`` with dense blocks.  It
holds no ``assert``: pytest rewrites asserts only in test modules, and
``python -O`` strips the rest, so every failure here is an exception.
"""

from fractions import Fraction

from nakayama import linalg
from nakayama.algebras import arrow_target, residue
from nakayama.bimodules import (
    Bimodule,
    BimoduleMap,
    HomSpace,
    catalog_labels,
    construct,
)
from nakayama.linalg import sparse_rank
from nakayama.tensoring import TensorSpace

# the exact zero and one of the dense matrices the oracles write
ZERO = Fraction(0)
ONE = Fraction(1)


class ExactMatrix:
    """Dense matrix of exact rationals, row-major, immutable after creation."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        ent = tuple(e if isinstance(e, Fraction) else Fraction(e)
                    for e in entries)
        if len(ent) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries, got {len(ent)}")
        self.rows = rows
        self.cols = cols
        self.entries = ent

    @classmethod
    def from_rows(cls, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def from_entries(cls, rows, cols, triples):
        """The rows x cols matrix with the given (row, col, value) entries
        and zeros elsewhere; values at a repeated position add up."""
        flat = [ZERO] * (rows * cols)
        for r, c, v in triples:
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r}, {c}) outside {rows}x{cols}")
            flat[r * cols + c] += v
        return cls(rows, cols, flat)

    def get(self, r, c):
        return self.entries[r * self.cols + c]

    def row(self, r):
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def to_lists(self):
        return [list(self.row(r)) for r in range(self.rows)]

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} times "
                f"{other.rows}x{other.cols}")
        out = []
        orows = [other.row(i) for i in range(other.rows)]
        for r in range(self.rows):
            acc = [ZERO] * other.cols
            for k, a in enumerate(self.row(r)):
                if a:
                    for c, b in enumerate(orows[k]):
                        if b:
                            acc[c] += a * b
            out.extend(acc)
        return ExactMatrix(self.rows, other.cols, out)

    def scale(self, s):
        return ExactMatrix(self.rows, self.cols, [s * a for a in self.entries])

    def is_zero(self):
        return not any(self.entries)

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix)
                and (self.rows, self.cols, self.entries)
                == (other.rows, other.cols, other.entries))


def _from_view(rows, cols, view):
    """The rows x cols dense matrix of a view, zero when view is None."""
    return ExactMatrix.from_entries(rows, cols, (
        (r, c, v) for c, col in enumerate(view or ())
        for r, v in col))


def _entries(mat):
    """The nonzero (row, col, value) entries of a dense matrix."""
    return [(r, c, mat.get(r, c)) for r in range(mat.rows)
            for c in range(mat.cols) if mat.get(r, c)]


def module_from_matrices(n, dims, mats):
    """The module with the given dimensions whose arrow (kind, i, j) is the
    matrix mats[(kind, i, j)]."""
    return Bimodule(n, dims, {key: _entries(mat) for key, mat in mats.items()})


def dense_arrow(mod, kind, i, j):
    """The dense matrix of an arrow, zero where the module keeps no view."""
    n = mod.n
    i, j = residue(i, n), residue(j, n)
    return _from_view(mod.dim(*arrow_target(kind, i, j, n)), mod.dim(i, j),
                      mod.arrow_views.get((kind, i, j)))


def rescaled(label, n, key, scalar):
    """The catalog module of label with its 1x1 arrow at key set to
    scalar, with its relations checked."""
    base = construct(label, n)
    mats = {k: dense_arrow(base, *k) for k in base.arrow_views}
    mats[key] = ExactMatrix(1, 1, [scalar])
    out = module_from_matrices(n, dict(base.dims), mats)
    out.check_relations()
    return out


def add(a, b):
    """The entrywise sum of two matrices of one shape."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in add")
    return ExactMatrix(a.rows, a.cols,
                       [p + q for p, q in zip(a.entries, b.entries)])


# -- dense matrices ----------------------------------------------------------

def identity(n):
    return ExactMatrix.from_entries(n, n, [(i, i, 1) for i in range(n)])


def zeros(rows, cols):
    return ExactMatrix.from_entries(rows, cols, [])


def dense_rank(m):
    """The rank of a dense matrix, by the package's sparse elimination."""
    return sparse_rank([{c: v for c, v in enumerate(m.row(r)) if v}
                        for r in range(m.rows)], m.cols)


def dense_solve(m, b):
    """Some X with m X = b as a dense matrix, or None, by one
    ``linalg.solve`` of the sparse rows of [m | b]."""
    if b.rows != m.rows:
        raise ValueError("right-hand side has the wrong number of rows")
    rows = [{c: v for c, v in enumerate(m.row(r) + b.row(r)) if v}
            for r in range(m.rows)]
    x = linalg.solve(rows, m.cols, m.cols + b.cols)
    return None if x is None else ExactMatrix.from_entries(m.cols, b.cols, x)


def dense_inverse(m):
    """The inverse of a square matrix, the solution of m X = I; a
    singular matrix raises ValueError."""
    inv = dense_solve(m, identity(m.rows)) if m.rows == m.cols else None
    if inv is None:
        raise ValueError("matrix is singular or not square")
    return inv


# -- maps --------------------------------------------------------------------

def dense_block(f, i, j):
    """The dense block of a map at vertex i|j, zero where it keeps no
    view."""
    n = f.source.n
    v = (residue(i, n), residue(j, n))
    return _from_view(f.target.dims.get(v, 0), f.source.dims.get(v, 0),
                      f.components.get(v))


def map_from_matrices(x, y, mats):
    """The map x -> y whose block at v is the dense matrix mats[v]."""
    return BimoduleMap(x, y, {v: _entries(mat) for v, mat in mats.items()})


def kernel_block(vec, off, rows, cols):
    """The rows x cols block of a kernel vector stored row-major at off."""
    return ExactMatrix(rows, cols, [vec.get(off + k, ZERO)
                                    for k in range(rows * cols)])


def identity_map(x):
    return map_from_matrices(x, x, {v: identity(d) for v, d in x.dims.items()})


def combination(maps, coeffs):
    """The map sum of c f over the maps f, which share source and target,
    and the coefficients c, added up as dense blocks."""
    x, y = maps[0].source, maps[0].target
    blocks = {v: zeros(y.dims.get(v, 0), d) for v, d in x.dims.items()}
    for f, c in zip(maps, coeffs):
        for v in f.components:
            blocks[v] = add(blocks[v], dense_block(f, *v).scale(c))
    return map_from_matrices(x, y, blocks)


_CATALOG_HOMS = {}


def catalog_homs(n):
    """Every nonzero Hom(y, z) between catalog members with at most one
    valley, as (y, z, basis maps), built once per n."""
    if n not in _CATALOG_HOMS:
        mods = [construct(label, n) for label in catalog_labels(n, 1)]
        homs = [(y, z, HomSpace(y, z).maps) for y in mods for z in mods]
        _CATALOG_HOMS[n] = [hom for hom in homs if hom[2]]
    return _CATALOG_HOMS[n]


def dense_split_pair(x, sigmas, pis, g):
    """The split pair of the trace pairing g as the dense reference finds
    it: sig = sigmas[a] and p = pis[b] for the first nonzero g[a][b], and
    the retraction (p sig)^-1 p inverted vertex by vertex."""
    a, row = next((a, row) for a, row in enumerate(g) if row)
    sig, p = sigmas[a], pis[min(row)]
    retraction = {}
    for v in x.dims:
        pv = dense_block(p, *v)
        retraction[v] = dense_inverse(pv.mul(dense_block(sig, *v))).mul(pv)
    return sig, map_from_matrices(pis.x, x, retraction)


def dense_tensor_map(x, f):
    """The blocks of x (x) f as dense matrices: each pair column of a free
    source pair is f's dense block applied to its right factor, and the
    target quotient's projection, densified, takes it to the quotient."""
    src, tgt = TensorSpace(x, f.source), TensorSpace(x, f.target)
    out = {}
    for v in src.qdims:
        if v not in tgt.qdims:
            continue
        mine, theirs = src.pieces[v], tgt.pieces[v]
        hits = theirs.hits
        proj = ExactMatrix.from_entries(tgt.qdims[v], len(hits), [
            (q, t, h) for t, column in enumerate(hits) for q, h in column])
        raw = []
        for c, (j, xa, yb) in enumerate(mine.basis[p] for p in mine.frees):
            block = dense_block(f, j, v[1])
            raw += [(theirs.index[(j, xa, cc)], c, block.get(cc, yb))
                    for cc in range(block.rows)]
        out[v] = proj.mul(ExactMatrix.from_entries(
            len(hits), len(mine.frees), raw))
    return out
