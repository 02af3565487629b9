"""Dense matrix helpers for the tests and their reference implementations.

The package builds and reads every bimodule arrow as sparse entries; the
oracles of the tests are written with dense ``ExactMatrix`` arrows, and
this module converts between the two.  It holds no ``assert``: pytest
rewrites asserts only in test modules, and ``python -O`` strips the rest,
so every failure here is an exception.
"""

from nakayama.algebras import arrow_target, residue
from nakayama.bimodules import Bimodule, BimoduleMap, construct
from nakayama.linalg import ExactMatrix


def module_from_matrices(n, dims, mats):
    """The module with the given dimensions whose arrow (kind, i, j) is the
    matrix mats[(kind, i, j)]."""
    return Bimodule(n, dims, {
        key: [(r, c, mat.get(r, c)) for r in range(mat.rows)
              for c in range(mat.cols) if mat.get(r, c)]
        for key, mat in mats.items()})


def dense_arrow(mod, kind, i, j):
    """The dense matrix of an arrow, zero where the module keeps no view."""
    n = mod.n
    i, j = residue(i, n), residue(j, n)
    view = mod.arrow_views.get((kind, i, j))
    cols = view[0] if view is not None else ()
    return ExactMatrix.from_entries(
        mod.dim(*arrow_target(kind, i, j, n)), mod.dim(i, j),
        ((r, c, v) for c, col in enumerate(cols) for r, v in col))


def rescaled(label, n, key, scalar):
    """The catalog module of label with its 1x1 arrow at key set to
    scalar, with its relations checked."""
    base = construct(label, n)
    mats = {k: dense_arrow(base, *k) for k in base.arrow_views}
    mats[key] = ExactMatrix(1, 1, [scalar])
    out = module_from_matrices(n, dict(base.dims), mats)
    out.check_relations()
    return out


def identity_map(x):
    return BimoduleMap(x, x, {v: ExactMatrix.identity(d)
                              for v, d in x.dims.items()})


def add(a, b):
    """The entrywise sum of two matrices of one shape."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in add")
    return ExactMatrix(a.rows, a.cols,
                       [p + q for p, q in zip(a.entries, b.entries)])
