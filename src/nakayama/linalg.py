"""Exact linear algebra over the rationals.

Everything downstream (hom spaces, tensor quotients, split pairs) reduces to
rank / kernel / solve questions for smallish exact systems.
A system is a list of sparse row-dicts (column index -> nonzero scalar):
the intertwining and balancing systems, trace pairings and solves are very
sparse and are cheaper to eliminate without materialising zeros.  No dense
matrix type is kept: bimodule arrows and the blocks of bimodule maps are
sparse entries, and the matrices a birep reports are small int lists.  The
intertwining systems of hom spaces and the balancing systems of tensor
products both take their kernels from ``sparse_kernel_with_frees``.  A
scalar is an exact int or Fraction: the one division, by a pivot, makes a
Fraction, so int rows, as 0/1 modules give, go in as they are.

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
from typing import Optional


# ---------------------------------------------------------------------------
# sparse elimination engine
# ---------------------------------------------------------------------------

def sparse_rref(rows: list, ncols: int):
    """Reduced row echelon form of a list of sparse rows.

    Each row is a dict {column index: nonzero int or Fraction}.  Returns
    (rref_rows, pivot_cols) where rref_rows[i] has leading 1 in column
    pivot_cols[i], pivot columns strictly increasing, and every pivot column
    is cleared from all other rows.  Input rows are not mutated.  Rows are
    scaled as ``Fraction(val, pivot)``, so no value is ever a float.

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
                nv = row.get(col, 0) - c * val
                if nv:
                    row[col] = nv
                else:
                    row.pop(col, None)
        if not row:
            continue
        p = min(row)
        inv = row[p]
        if inv != 1:
            row = {col: Fraction(val, inv) for col, val in row.items()}
        # back-clean earlier rows
        for q, prow in rref.items():
            c = prow.get(p)
            if c:
                newr = dict(prow)
                for col, val in row.items():
                    nv = newr.get(col, 0) - c * val
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
    Fractions, and go to the elimination as they are; a vector entry is an
    int unless a pivot division made it a Fraction.

    >>> sparse_kernel_with_frees([{0: 2, 1: -1}], 2)
    ([{1: 1, 0: Fraction(1, 2)}], [1])
    """
    return (signed_kernel_with_frees(rows, ncols)
            or rref_kernel_with_frees(rows, ncols))


def rref_kernel_with_frees(rows: list, ncols: int):
    """``sparse_kernel_with_frees`` by elimination, for rows of any shape."""
    rref, pivots = sparse_rref(rows, ncols)
    pivset = set(pivots)
    basis = {f: {f: 1} for f in range(ncols) if f not in pivset}
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
    Fractions, and the vectors hold the ints 1 and -1.

    >>> signed_kernel_with_frees([{0: 1, 1: 1}, {2: 5}], 3)
    ([{1: 1, 0: -1}], [1])
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
    vectors, frees = [], []
    for r, cols in sorted(members.items(), key=lambda item: item[1][-1]):
        if zero[r]:
            continue
        f = cols.pop()
        sf, vec = sign[f], {f: 1}
        for m in cols:
            vec[m] = sign[m] * sf
        vectors.append(vec)
        frees.append(f)
    return vectors, frees


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def sparse_rank(rows: list, ncols: int) -> int:
    """Rank over the rationals of a list of sparse rows.

    >>> sparse_rank([{0: 1, 1: 2}, {}, {0: 2, 1: 4}], 2)
    1
    """
    return len(sparse_rref(rows, ncols)[1])


def solve(rows: list, n: int, ncols: int) -> Optional[list]:
    """Some exact solution X of m X = b, as its nonzero (row, col, value)
    entries, or None when the system is inconsistent.

    rows are the sparse rows of [m | b], of ints or Fractions, ncols wide,
    with m in the columns below n.  One elimination solves for every column
    of b: a reduced row with its pivot among b's columns is inconsistent,
    and otherwise each pivot row reads its unknown off them; free ones are
    0.  A value is a Fraction only where a pivot division made it one.

    >>> solve([{0: 2, 2: 1, 3: 4}, {1: 1, 2: 3}], 2, 4)
    [(0, 0, Fraction(1, 2)), (0, 1, Fraction(2, 1)), (1, 0, 3)]
    """
    rref, pivots = sparse_rref(rows, ncols)
    if pivots and pivots[-1] >= n:
        return None
    return [(p, c - n, v) for p, row in zip(pivots, rref)
            for c, v in row.items() if c >= n]
