"""Exact linear algebra over the rationals.

Everything downstream (hom spaces, tensor quotients, split pairs) reduces to
rank / kernel / solve questions for smallish matrices with Fraction entries.
Two representations coexist here:

* ``ExactMatrix``, a dense immutable matrix, the form of map components
  and birep matrices; ``ExactMatrix.from_entries`` assembles one from
  sparse (row, col, value) triples.  Bimodule arrows never take this
  form: they are built and read as sparse entries;
* sparse row-dicts (column index -> nonzero scalar), the currency of
  systems: the intertwining and balancing systems, trace pairings and
  solves are very sparse and are cheaper to eliminate without
  materialising zeros.  The intertwining systems of hom spaces and the
  balancing systems of tensor products both take their kernels from
  ``sparse_kernel_with_frees``, which turns int coefficients, as 0/1
  modules give, into Fractions before any division; its vectors are
  Fractions either way.

Every elimination goes through one reduced-row-echelon routine, so kernel
bases, ranks, solutions and pivot choices are deterministic everywhere.
That routine keeps its reduced rows keyed by pivot column, each with a 1 at
its own pivot and a 0 at every other pivot column.  Eliminating with one
reduced row therefore never changes a new row's entries at the other pivot
columns, so the pivot hits of a new row are found by looking its columns up
among the pivots, not by scanning every pivot.

One shape of system skips that routine.  When every row has at most two
entries and every two-entry row reads x_a = +-x_b, the kernel is read off a
signed union-find of the columns: a class is zero when a one-entry row or a
cycle of contradicting signs touches it, and otherwise carries one basis
vector of +-1 entries.  The intertwining systems between string modules all
have this shape, since string modules act on their walk basis by partial
permutation matrices, and so do the balancing systems of their tensor
products.  The RREF of such a system has a row x_m -+ x_f for
every member m of a class below its largest column f, and a row x_m for
every member of a zero class, so its free columns are the classes' largest
columns and the signed kernel returns exactly the RREF kernel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class ExactMatrix:
    """Dense matrix of exact rationals, row-major, immutable after creation."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        ent = tuple(map(_frac, entries))
        if len(ent) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries, got {len(ent)}")
        self.rows = rows
        self.cols = cols
        self.entries = ent

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def from_entries(cls, rows: int, cols: int,
                     triples: Iterable) -> "ExactMatrix":
        """The rows x cols matrix with the given (row, col, value) entries
        and zeros elsewhere; values at a repeated position add up."""
        flat = [ZERO] * (rows * cols)
        for r, c, v in triples:
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r}, {c}) outside {rows}x{cols}")
            k = r * cols + c
            flat[k] = flat[k] + v if flat[k] else v
        return cls(rows, cols, flat)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [ONE if i == j else ZERO
                          for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    # -- access ------------------------------------------------------------

    def get(self, r: int, c: int) -> Fraction:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple:
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def to_lists(self) -> list:
        return [list(self.row(r)) for r in range(self.rows)]

    # -- algebra -----------------------------------------------------------

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} times "
                f"{other.rows}x{other.cols}")
        out = []
        orows = [other.row(i) for i in range(other.rows)]
        for r in range(self.rows):
            srow = self.row(r)
            acc = [ZERO] * other.cols
            for k, a in enumerate(srow):
                if a:
                    ok = orows[k]
                    for c in range(other.cols):
                        if ok[c]:
                            acc[c] += a * ok[c]
            out.extend(acc)
        return ExactMatrix(self.rows, other.cols, out)

    def scale(self, s) -> "ExactMatrix":
        s = _frac(s)
        return ExactMatrix(self.rows, self.cols,
                           [s * a for a in self.entries])

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("not square")
        inv = solve(self, ExactMatrix.identity(self.rows))
        if inv is None:
            raise ValueError("matrix is singular")
        return inv

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix)
                and self.rows == other.rows
                and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in self.row(r)) for r in range(self.rows))
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


# ---------------------------------------------------------------------------
# sparse elimination engine
# ---------------------------------------------------------------------------

def sparse_rref(rows: list, ncols: int):
    """Reduced row echelon form of a list of sparse rows.

    Each row is a dict {column index: nonzero Fraction}.  Returns
    (rref_rows, pivot_cols) where rref_rows[i] has leading 1 in column
    pivot_cols[i], pivot columns strictly increasing, and every pivot column
    is cleared from all other rows.  Input rows are not mutated.

    A new row's pivot entries are read once, before elimination, by the
    invariant in the module docstring.  The RREF of a row space is unique,
    so the order of the eliminations does not change the result.
    """
    rref: dict = {}
    for src in rows:
        if not src:
            continue
        row = dict(src)
        # eliminate existing pivots
        for p, c in [(p, row[p]) for p in row if p in rref]:
            for col, val in rref[p].items():
                nv = row.get(col, ZERO) - c * val
                if nv:
                    row[col] = nv
                else:
                    row.pop(col, None)
        if not row:
            continue
        p = min(row)
        inv = row[p]
        if inv != 1:
            row = {col: val / inv for col, val in row.items()}
        # back-clean earlier rows
        for q, prow in rref.items():
            c = prow.get(p)
            if c:
                newr = dict(prow)
                for col, val in row.items():
                    nv = newr.get(col, ZERO) - c * val
                    if nv:
                        newr[col] = nv
                    else:
                        newr.pop(col, None)
                rref[q] = newr
        rref[p] = row
    pivots = sorted(rref)
    return [rref[p] for p in pivots], pivots


def sparse_kernel_with_frees(rows: list, ncols: int):
    """Kernel basis plus the list of free columns it was generated from.

    One basis vector per free column f: entry 1 at f and -coefficient at each
    pivot column, read straight off the RREF.  The identity pattern on free
    columns means the f-coordinates of any kernel element ARE its coordinates
    in this basis, which the hom-space code exploits.  Systems of the shape
    in the module docstring take ``signed_kernel_with_frees``, which gives
    the same vectors without any elimination.  Row values may be ints or
    Fractions; the elimination gets every value as a Fraction, since an
    int divided by an int pivot would give a float.

    >>> sparse_kernel_with_frees([{0: 2, 1: -1}], 2)
    ([{1: Fraction(1, 1), 0: Fraction(1, 2)}], [1])
    """
    signed = signed_kernel_with_frees(rows, ncols)
    if signed is not None:
        return signed
    return rref_kernel_with_frees(
        [{c: _frac(v) for c, v in row.items()} for row in rows], ncols)


def rref_kernel_with_frees(rows: list, ncols: int):
    """``sparse_kernel_with_frees`` by elimination, for rows of any shape."""
    rref, pivots = sparse_rref(rows, ncols)
    pivset = set(pivots)
    basis = {f: {f: ONE} for f in range(ncols) if f not in pivset}
    for p, prow in zip(pivots, rref):
        # a reduced row is zero on the other pivots: its other columns
        # are free
        for f, c in prow.items():
            if f != p:
                basis[f][p] = -c
    return list(basis.values()), list(basis)


def signed_kernel_with_frees(rows: list, ncols: int):
    """``sparse_kernel_with_frees`` by a signed union-find of the columns,
    or None when some row has more than two entries or a two-entry row has
    a coefficient other than +-1.

    Each class that no one-entry row and no odd cycle makes zero gives one
    vector: 1 at its largest column f, the free column of the RREF, and
    the sign of x_m relative to x_f at every other member m, with keys in
    the order f, then the members ascending.  Row values may be ints or
    Fractions, and the vectors hold the Fractions 1 and -1.

    >>> signed_kernel_with_frees([{0: 1, 1: 1}, {2: 5}], 3)
    ([{1: Fraction(1, 1), 0: Fraction(-1, 1)}], [1])
    """
    parent = list(range(ncols))
    sign = [1] * ncols       # x_c = sign[c] * x_parent[c]; 1 at a root
    size = [1] * ncols       # class sizes, meaningful at roots only
    zero = [False] * ncols   # meaningful at roots only
    # union by size keeps every tree O(log ncols) deep, so each lookup is
    # a plain walk up to the root, inlined
    for row in rows:
        if len(row) == 2:
            (a, va), (b, vb) = row.items()
            if not ((va == 1 or va == -1) and (vb == 1 or vb == -1)):
                return None
            # va x_a + vb x_b = 0 says x_a = s x_b; the walks carry s over
            # to the two roots
            s = -1 if va == vb else 1
            while parent[a] != a:
                s *= sign[a]
                a = parent[a]
            while parent[b] != b:
                s *= sign[b]
                b = parent[b]
            if a == b:
                zero[a] |= s != 1
            else:
                # x_a = s x_b is symmetric, so the roots may swap
                if size[a] > size[b]:
                    a, b = b, a
                parent[a], sign[a] = b, s
                size[b] += size[a]
                zero[b] |= zero[a]
        elif len(row) == 1:
            (c,) = row
            while parent[c] != c:
                c = parent[c]
            zero[c] = True
        elif row:
            return None
    members: dict = {}
    for c in range(ncols):
        r, s = c, 1
        while parent[r] != r:
            s *= sign[r]
            r = parent[r]
        # c now hangs off its root, so later walks through it stop there
        parent[c], sign[c] = r, s
        members.setdefault(r, []).append(c)
    minus_one = -ONE
    vectors, frees = [], []
    for r, cols in sorted(members.items(), key=lambda item: item[1][-1]):
        if zero[r]:
            continue
        f = cols.pop()
        sf, vec = sign[f], {f: ONE}
        for m in cols:
            vec[m] = ONE if sign[m] == sf else minus_one
        vectors.append(vec)
        frees.append(f)
    return vectors, frees


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def sparse_rank(rows: list, ncols: int) -> int:
    """Rank over the rationals of a list of sparse rows.

    >>> two = Fraction(2)
    >>> sparse_rank([{0: ONE, 1: two}, {}, {0: two, 1: 2 * two}], 2)
    1
    """
    return len(sparse_rref(rows, ncols)[1])


def rank(m: ExactMatrix) -> int:
    """Rank over the rationals, computed exactly.

    >>> rank(ExactMatrix.from_rows([[1, 2], [2, 4]]))
    1
    """
    return sparse_rank([{c: v for c, v in enumerate(m.row(r)) if v}
                        for r in range(m.rows)], m.cols)


def solve(m: ExactMatrix, b: ExactMatrix) -> Optional[ExactMatrix]:
    """Some exact solution X of m X = b, or None when inconsistent.

    The right-hand sides are the columns of b, and one elimination of the
    sparse rows of [m | b] solves them all: the system is inconsistent
    exactly when a reduced row has its pivot among b's columns, and
    otherwise each pivot row reads its unknown off those columns.  Free
    variables are set to zero, so the answer is deterministic.

    >>> solve(ExactMatrix.from_rows([[2, 0], [0, 1]]),
    ...       ExactMatrix.from_rows([[1, 4], [3, 0]]))
    ExactMatrix(2x2: 1/2 2; 3 0)
    """
    if b.rows != m.rows:
        raise ValueError("right-hand side has the wrong number of rows")
    n = m.cols
    rows = [{c: v for c, v in enumerate(m.row(r) + b.row(r)) if v}
            for r in range(m.rows)]
    rref, pivots = sparse_rref(rows, n + b.cols)
    if pivots and pivots[-1] >= n:
        return None
    return ExactMatrix.from_entries(n, b.cols, (
        (p, c - n, v) for p, row in zip(pivots, rref)
        for c, v in row.items() if c >= n))
