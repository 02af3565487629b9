"""Exact linear algebra: frozen small cases plus randomized structural sweeps."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nakayama import linalg
from nakayama.linalg import (
    rref_kernel_with_frees,
    signed_kernel_with_frees,
    sparse_kernel_with_frees,
    sparse_rref,
)

from dense_helpers import (
    ExactMatrix,
    dense_rank,
    dense_solve,
    identity,
    zeros,
)


def _rows(m):
    """The sparse rows of a dense matrix."""
    return [{c: v for c, v in enumerate(m.row(r)) if v}
            for r in range(m.rows)]


def _kernel(m):
    """The kernel basis of m as dense tuples, with its free columns."""
    vecs, frees = sparse_kernel_with_frees(_rows(m), m.cols)
    return [tuple(v.get(c, Fraction(0)) for c in range(m.cols))
            for v in vecs], frees


def _column(*values):
    return ExactMatrix(len(values), 1, values)


def _apply(m, vec):
    """m times a column vector, as a tuple."""
    return m.mul(_column(*vec)).entries


def test_rank_identity():
    assert dense_rank(identity(2)) == 2


def test_rank_zero_matrix():
    assert dense_rank(zeros(3, 4)) == 0


def test_rank_dependent_rows():
    m = ExactMatrix.from_rows([[1, 2], [2, 4]])
    assert dense_rank(m) == 1


def test_rank_frozen_3col():
    # reduced by hand: second row is twice the first
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    assert dense_rank(m) == 1
    assert _kernel(m)[0] == [
        (Fraction(-2), Fraction(1), Fraction(0)),
        (Fraction(-3), Fraction(0), Fraction(1)),
    ]


def test_kernel_identity_empty():
    assert _kernel(identity(2)) == ([], [])


def test_kernel_zero_full():
    vecs, _ = _kernel(zeros(2, 2))
    assert len(vecs) == 2


def test_kernel_one_one():
    (v,), _ = _kernel(ExactMatrix.from_rows([[1, 1]]))
    assert v[0] == -v[1] != 0


def test_solve_identity():
    m = identity(3)
    assert dense_solve(m, _column(1, 2, 3)) == _column(1, 2, 3)


def test_solve_inconsistent():
    assert dense_solve(zeros(2, 2), _column(1, 0)) is None


def test_solve_scalar_half():
    assert dense_solve(ExactMatrix.from_rows([[2]]), _column(1)) == \
        _column(Fraction(1, 2))


def test_solve_underdetermined_is_exact():
    m = ExactMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    x = dense_solve(m, _column(2, 3))
    assert x is not None
    assert m.mul(x) == _column(2, 3)


def test_solve_rejects_a_right_hand_side_of_the_wrong_height():
    with pytest.raises(ValueError):
        dense_solve(identity(2), _column(1, 2, 3))


def test_rank_plus_nullity():
    rng = random.Random(7)
    for _ in range(25):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        m = ExactMatrix(r, c, [rng.randrange(-2, 3) for _ in range(r * c)])
        vecs, _ = _kernel(m)
        assert dense_rank(m) + len(vecs) == c
        for v in vecs:
            assert all(x == 0 for x in _apply(m, v))


def test_solve_satisfies_system():
    rng = random.Random(13)
    for _ in range(25):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        m = ExactMatrix(r, c, [rng.randrange(-3, 4) for _ in range(r * c)])
        xs = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
              for _ in range(c)]
        b = _apply(m, xs)
        x = dense_solve(m, _column(*b))
        assert x is not None
        assert _apply(m, x.entries) == b


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])


def test_from_entries_adds_repeated_positions():
    m = ExactMatrix.from_entries(2, 3, [(0, 1, 2), (1, 2, Fraction(1, 2)),
                                        (0, 1, 3), (1, 2, Fraction(1, 2))])
    assert m == ExactMatrix.from_rows([[0, 5, 0], [0, 0, 1]])
    assert ExactMatrix.from_entries(1, 1, [(0, 0, 1), (0, 0, -1)]).is_zero()


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_from_entries_accepts_empty_shapes(rows, cols):
    m = ExactMatrix.from_entries(rows, cols, [])
    assert (m.rows, m.cols, m.entries) == (rows, cols, ())
    assert m == zeros(rows, cols)


@pytest.mark.parametrize("triple", [(2, 0, 1), (0, 3, 1), (-1, 0, 1)])
def test_from_entries_rejects_positions_outside(triple):
    with pytest.raises(IndexError):
        ExactMatrix.from_entries(2, 3, [triple])


def test_mul_and_inverse():
    m = ExactMatrix.from_rows([[2, 1], [1, 1]])
    inv = dense_solve(m, identity(2))
    assert m.mul(inv) == identity(2)
    assert inv.mul(m) == identity(2)


def test_inverse_singular_raises():
    # m X = I has no solution for a singular m
    singular = ExactMatrix.from_rows([[1, 2], [2, 4]])
    assert dense_solve(singular, identity(2)) is None


def test_inverse_eliminates_once(monkeypatch):
    widths = []
    eliminate = linalg.sparse_rref

    def counting(rows, ncols):
        widths.append(ncols)
        return eliminate(rows, ncols)

    monkeypatch.setattr(linalg, "sparse_rref", counting)
    m = ExactMatrix.from_rows([[2, 1, 0, 0], [1, 1, 0, 0],
                               [0, 0, 1, 3], [0, 0, 0, 1]])
    dense_solve(m, identity(4))
    assert widths == [8]  # one RREF of [m | I]


_ENTRIES = st.one_of(st.just(Fraction(0)),
                     st.fractions(-3, 3, max_denominator=3))


@st.composite
def _matrices(draw, rows, cols):
    return ExactMatrix(rows, cols, draw(st.lists(
        _ENTRIES, min_size=rows * cols, max_size=rows * cols)))


@st.composite
def _square_matrices(draw):
    """Small square matrices; a copied row makes singular ones common."""
    n = draw(st.integers(1, 5))
    rows = draw(_matrices(n, n)).to_lists()
    if n > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, n - 1))] = rows[0]
    return ExactMatrix.from_rows(rows)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_square_matrices())
def test_inverse_is_two_sided_or_singular(m):
    n = m.rows
    if dense_rank(m) < n:
        assert dense_solve(m, identity(n)) is None
        return
    inv = dense_solve(m, identity(n))
    for product in (m.mul(inv), inv.mul(m)):
        assert (product.rows, product.cols) == (n, n)
        for r in range(n):
            for c in range(n):
                assert product.get(r, c) == (1 if r == c else 0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_solve_reproduces_every_right_hand_side(data):
    rows, cols, sides = (data.draw(st.integers(1, 5)) for _ in range(3))
    m = data.draw(_matrices(rows, cols))
    b = m.mul(data.draw(_matrices(cols, sides)))
    x = dense_solve(m, b)
    assert x is not None and (x.rows, x.cols) == (cols, sides)
    assert m.mul(x) == b


def test_sparse_rref_pivots_sorted_and_cleared():
    rows = [{0: Fraction(2), 2: Fraction(4)},
            {0: Fraction(1), 1: Fraction(1)},
            {1: Fraction(1), 2: Fraction(-2)}]
    rref, pivots = sparse_rref(rows, 3)
    assert pivots == sorted(pivots)
    for i, p in enumerate(pivots):
        assert rref[i][p] == 1
        for k, other in enumerate(rref):
            if k != i:
                assert p not in other


def test_kernel_frees_identity_pattern():
    m = ExactMatrix.from_rows([[1, 0, 2, 0], [0, 1, 1, 0]])
    vecs, frees = _kernel(m)
    assert frees == [2, 3]
    for i, f in enumerate(frees):
        for k, v in enumerate(vecs):
            assert v[f] == (1 if k == i else 0)


def _dense_rref(rows, ncols):
    """Textbook Gauss-Jordan on dense lists: the reference for sparse_rref."""
    m = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        hit = next((r for r in range(top, len(m)) if m[r][c]), None)
        if hit is None:
            continue
        m[top], m[hit] = m[hit], m[top]
        m[top] = [v / m[top][c] for v in m[top]]
        for r in range(len(m)):
            if r != top and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[top])]
        pivots.append(c)
    return ([{c: v for c, v in enumerate(row) if v}
             for row in m[:len(pivots)]], pivots)


@st.composite
def _sparse_systems(draw):
    """Sparse rational rows, among them zero rows and duplicate rows."""
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(Fraction(0)),
                      st.fractions(-3, 3, max_denominator=4))
    dense = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                          max_size=7))
    if dense:
        dense += draw(st.lists(st.sampled_from(dense), max_size=3))
    dense += [[Fraction(0)] * ncols] * draw(st.integers(0, 2))
    dense = draw(st.permutations(dense))
    return [{c: v for c, v in enumerate(row) if v} for row in dense], ncols


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sparse_systems())
def test_sparse_rref_matches_dense_gauss_jordan(system):
    rows, ncols = system
    before = copy.deepcopy(rows)
    rref, pivots = sparse_rref(rows, ncols)
    assert rows == before
    assert (rref, pivots) == _dense_rref(rows, ncols)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sparse_systems())
def test_int_rows_reduce_as_their_fractions_do(system):
    # int rows go in as they are: only a pivot division makes a Fraction,
    # so no value is ever a float, and the results equal the Fraction run
    rows, ncols = system
    ints = [{c: int(12 * v) for c, v in row.items()} for row in rows]
    fracs = [{c: Fraction(v) for c, v in row.items()} for row in ints]
    for got, want in ((sparse_rref(ints, ncols), sparse_rref(fracs, ncols)),
                      (rref_kernel_with_frees(ints, ncols),
                       rref_kernel_with_frees(fracs, ncols))):
        assert got == want
        assert all(type(v) in (int, Fraction)
                   for row in got[0] for v in row.values())


_SIGNS = (Fraction(1), Fraction(-1))


@st.composite
def _signed_systems(draw):
    """Rows of one entry, or of two +-1 entries: among them repeated rows,
    rows on the same pair, sign cycles (odd ones half the time) and
    untouched columns, under a random relabelling of the columns."""
    used = draw(st.integers(1, 8))
    ncols = used + draw(st.integers(0, 2))
    col = st.integers(0, used - 1)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        a, b = draw(col), draw(col)
        if a == b:
            rows.append({a: draw(st.sampled_from(
                _SIGNS + (Fraction(2), Fraction(-1, 3))))})
        else:
            rows.append({a: draw(st.sampled_from(_SIGNS)),
                         b: draw(st.sampled_from(_SIGNS))})
    if used >= 2:
        cycle = draw(st.lists(col, min_size=2, max_size=4, unique=True))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            rows.append({a: draw(st.sampled_from(_SIGNS)),
                         b: draw(st.sampled_from(_SIGNS))})
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    perm = draw(st.permutations(range(ncols)))
    rows = [{perm[c]: v for c, v in row.items()}
            for row in draw(st.permutations(rows))]
    return rows, ncols


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_signed_systems())
def test_signed_kernel_matches_rref_kernel(system):
    rows, ncols = system
    before = copy.deepcopy(rows)
    vectors, frees = signed_kernel_with_frees(rows, ncols)
    assert rows == before
    want_vectors, want_frees = rref_kernel_with_frees(rows, ncols)
    assert frees == want_frees
    assert vectors == want_vectors
    assert [list(v) for v in vectors] == [list(v) for v in want_vectors]
    assert all(type(x) is int for v in vectors for x in v.values())
    assert sparse_kernel_with_frees(rows, ncols) == (vectors, frees)


@pytest.mark.parametrize("rows", [
    [{0: Fraction(1), 1: Fraction(1), 2: Fraction(-1)}],
    [{0: Fraction(2), 1: Fraction(1)}, {1: Fraction(1), 3: Fraction(-1)}],
], ids=["three-entry-row", "coefficient-two"])
def test_other_row_shapes_take_the_rref_kernel(rows):
    assert signed_kernel_with_frees(rows, 4) is None
    vectors, frees = sparse_kernel_with_frees(rows, 4)
    assert (vectors, frees) == rref_kernel_with_frees(rows, 4)
    assert len(frees) == 4 - len(rows)
