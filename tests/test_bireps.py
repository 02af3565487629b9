"""Tests for cell birepresentations, localization, and classification."""

import copy
import dataclasses
import itertools
import re
from collections import Counter
from fractions import Fraction
from math import comb
from types import MappingProxyType

import pytest

import nakayama
from nakayama import bireps
from nakayama.algebras import residue
from nakayama.bimodules import (
    Bimodule,
    BimoduleMap,
    HomSpace,
    StringLabel,
    catalog_labels,
    composite_trace,
    construct,
    direct_sum,
    parse_label,
    trace_pairing,
)
from nakayama.bireps import (
    CartanError,
    FinitaryBirep,
    ObjectSlot,
    StabilityError,
    _BirepCore,
    _canonical_epi,
    cell_birep,
    classify,
    is_simple_transitive,
    localize,
    quotient_hom_spaces,
    verify_adjunction_consequences,
    verify_block_structure,
)
from nakayama.decomposition import cell_of, decompose, product_summands
from nakayama.linalg import sparse_rank, sparse_rref
from nakayama.tensoring import tensor, tensor_map

from dense_helpers import (
    ONE,
    ZERO,
    ExactMatrix,
    add,
    dense_block,
    identity_map,
    map_from_matrices,
    zeros,
)

# every (n, k) on which the column-by-column cross-checks run
SMALL_CELLS = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]
# the orbit-derived core against the per-generator path: the small cells,
# the benchmark size, and two sizes whose walks wrap the torus
ORBIT_CELLS = SMALL_CELLS + [(6, 1), (2, 3), (1, 3)]


def dense(b, u):
    """The dense oracle form of u's action matrix on b, from its triples."""
    return ExactMatrix.from_entries(b.rank, b.rank, b.action[u])


def ints(mat):
    return [[int(e) for e in row] for row in mat.to_lists()]


def swept_contractible(core):
    """The components whose N and M columns every generator acts on
    alike, compared generator by generator over the stored action."""
    n = core.n

    def column(entries, c):
        return [(r, m) for r, cc, m in entries if cc == c]

    return {i for i in range(1, n + 1)
            if all(column(entries, i - 1) == column(entries, n + i - 1)
                   for entries in core.action_entries.values())}


def _with_blocks(core, **blocks):
    """A copy of core with the given family blocks in place of its own and
    its uncontracted action laid out from them; the cached core is left
    alone."""
    out = copy.copy(core)
    out.blocks = MappingProxyType({**core.blocks, **blocks})
    out.action_entries = MappingProxyType(bireps._layout(out, frozenset()))
    return out


def _fingerprint(b):
    """The components r whose M and N generators at r|s act identically
    for every s: the birep-level fingerprint, kept as the oracle of the
    one classify reads off the blocks."""
    return [r for r in range(1, b.n + 1)
            if all(b.action[StringLabel("M", r, s, b.k)]
                   == b.action[StringLabel("N", r, s, b.k)]
                   for s in range(1, b.n + 1))]


def qcoords(q, f):
    """The coordinates of f in the quotient q, one per free column of its
    echelon rows; zero exactly when f is radical."""
    vec = list(q.space.coords_of(f))
    for row, p in zip(q._reduced, q._pivots):
        c = vec[p]
        if c:
            for col, v in row.items():
                vec[col] -= c * v
    return tuple(vec[c] for c in range(q.space.dim) if c not in q._pivots)


def test_quotient_hom_dims_form_disjoint_a2():
    n = 2
    greater = [construct(lab, n) for lab in catalog_labels(n, 0)]
    m1 = construct(StringLabel("M", 1, 1, 1), n)
    n1 = construct(StringLabel("N", 1, 1, 1), n)
    n2 = construct(StringLabel("N", 2, 1, 1), n)
    qhoms = quotient_hom_spaces([m1, n1, n2], greater, range(3))
    assert qhoms[(0, 1)].dim == 1
    assert qhoms[(1, 0)].dim == 0
    assert qhoms[(1, 1)].dim == 1
    assert qhoms[(0, 2)].dim == 0


class _ReferenceQuotientHomSpace:
    """The per-pair quotient hom space of the earlier implementation,
    kept as an oracle: every greater object within the dimension bound is
    scanned for this pair alone, with fresh hom spaces."""

    def __init__(self, x, y, greater):
        self.space = HomSpace(x, y)
        bound = x.total_dim + y.total_dim
        rows = []
        for z in greater:
            if z.total_dim > bound:
                continue
            into = HomSpace(x, z).maps
            if not into:
                continue
            for g in HomSpace(z, y).maps:
                for h in into:
                    coords = self.space.coords_of(g.compose(h))
                    row = {c: v for c, v in enumerate(coords) if v}
                    if row:
                        rows.append(row)
        self._reduced, pivots = sparse_rref(rows, self.space.dim)
        self._pivots = list(pivots)
        self.dim = self.space.dim - len(self._pivots)


_ORACLE_QHOMS = {}


def _oracle_qhoms(core):
    """The quotient hom space of every ordered pair of the core's objects,
    each built from its own source as the per-pair sweep did, memoized by
    (n, k)."""
    key = (core.n, core.k)
    if key not in _ORACLE_QHOMS:
        greater = [construct(lab, core.n)
                   for lab in catalog_labels(core.n, core.k - 1)]
        _ORACLE_QHOMS[key] = quotient_hom_spaces(
            core.modules, greater, range(2 * core.n))
    return _ORACLE_QHOMS[key]


@pytest.mark.parametrize("n,k", SMALL_CELLS)
def test_quotient_hom_spaces_match_per_pair_reference(n, k):
    # the core builds the pairs out of N_1 and M_1; those match the
    # reference exactly, and every pair's dimension, read through its
    # canonical pair, matches the reference of that pair
    core = cell_birep(n, k).core
    greater = [construct(lab, n) for lab in catalog_labels(n, k - 1)]
    assert list(core.qhoms) == [(a, b) for a in (0, n) for b in range(2 * n)]
    for a in range(2 * n):
        for b in range(2 * n):
            ref = _ReferenceQuotientHomSpace(core.modules[a], core.modules[b],
                                             greater)
            assert core.qhom(a, b).dim == ref.dim, (a, b)
            q = core.qhoms.get((a, b))
            if q is None:
                continue
            assert q.space.x is core.modules[a], (a, b)
            assert q.space.y is core.modules[b], (a, b)
            assert q.space.vectors == ref.space.vectors, (a, b)
            assert q.dim == ref.dim, (a, b)
            assert q._pivots == ref._pivots, (a, b)
            assert q._reduced == ref._reduced, (a, b)


@pytest.mark.parametrize("m_label,n_label", [
    (StringLabel("N", 1, 1, 1), StringLabel("N", 1, 1, 1)),
    (StringLabel("M", 1, 1, 1), StringLabel("N", 2, 1, 1)),
])
def test_canonical_epi_rejects_mismatched_labels(m_label, n_label):
    with pytest.raises(CartanError):
        _canonical_epi(m_label, n_label, 2)


def test_cell_birep_objects_and_rank():
    b = cell_birep(2, 1)
    assert b.rank == 4
    assert [s.name for s in b.objects] == ["N_1", "N_2", "M_1", "M_2"]
    assert b.contracted == frozenset()


def test_rank_one_component_action_matrices():
    b = cell_birep(1, 1)
    assert ints(dense(b, StringLabel("N", 1, 1, 1))) == [[1, 1], [0, 0]]
    assert ints(dense(b, StringLabel("M", 1, 1, 1))) == [[0, 0], [1, 1]]
    assert ints(dense(b, StringLabel("W", 1, 1, 1))) == [[1, 1], [0, 0]]
    assert ints(dense(b, StringLabel("S", 1, 1, 1))) == [[0, 0], [1, 1]]
    assert b.to_json()["action"]["N:1|1:k=1"] == [[1, 1], [0, 0]]


def test_total_action_matrix_facts():
    b = cell_birep(2, 1)
    assert b.f_matrix() == [[2] * 4 for _ in range(4)]
    f = ExactMatrix.from_rows(b.f_matrix())
    assert f.mul(f) == f.scale(Fraction(8))
    assert sum(f.get(i, i) for i in range(4)) == 8


def test_action_matrix_rejects_non_apex_input():
    # the action is keyed by the normalized labels of the apex alone
    b = cell_birep(2, 1)
    with pytest.raises(KeyError):
        b.action[parse_label("P:1|1")]
    with pytest.raises(KeyError):
        b.action[StringLabel("N", 1, 1, 2)]
    got = b.action[StringLabel("N", 3, 3, 1).normalized(b.n)]
    assert got == b.action[StringLabel("N", 1, 1, 1)]


@pytest.mark.parametrize("r,s", [(1, 1), (2, 2), (1, 2), (2, 1)])
def test_diagonal_generators_idempotent_off_diagonal_nilpotent(r, s):
    b = cell_birep(2, 1)
    for fam in "WSNM":
        mat = dense(b, StringLabel(fam, r, s, 1))
        square = mat.mul(mat)
        if r == s:
            assert square == mat
            assert sum(1 for a in range(4) if mat.get(a, a) == 1) == 1
        else:
            assert square.is_zero()


def test_cell_birep_rejects_zero_valleys():
    with pytest.raises(ValueError):
        cell_birep(2, 0)


def test_other_columns_look_the_same():
    left = cell_birep(2, 1, j=1)
    right = cell_birep(2, 1, j=2)
    assert right.column == 2
    assert left.f_matrix() == right.f_matrix()


def _column_action(n, k, j, generators):
    """Every generator's action on the objects of column j, decomposed on
    that column itself: the per-column build the shared core replaced."""
    labels = [StringLabel(f, i, j, k).normalized(n)
              for f in "NM" for i in range(1, n + 1)]
    position = {lab: p for p, lab in enumerate(labels)}
    action = {}
    for u in generators:
        counts = Counter()
        for c, x in enumerate(labels):
            for summand in product_summands(u, x, n):
                if cell_of(summand) == ("J", k):
                    counts[(position[summand], c)] += 1
        action[u] = tuple((r, c, m) for (r, c), m in sorted(counts.items()))
    return action


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 5)
                                 for k in (1, 2)])
def test_every_column_shares_the_core_of_column_1(n, k):
    # a column shift moves the birep on column 1 onto column j, so every
    # column reads the one core of (n, k), and only "j" tells them apart;
    # each column's action is checked against its own decomposition
    first = cell_birep(n, k, 1)
    want = first.to_json()
    assert want.pop("j") == 1
    for j in range(1, n + 2):
        b = cell_birep(n, k, j)
        assert b.core is first.core, j
        got = b.to_json()
        assert got.pop("j") == residue(j, n), j
        assert got == want, j
        assert b.action == _column_action(n, k, j, first.core.generators), j


def test_localize_empty_set_is_identity():
    b = cell_birep(2, 1)
    assert localize(b, ()) is b


def test_localize_merges_objects():
    b = cell_birep(2, 1)
    loc = localize(b, {1})
    assert loc.rank == 3
    assert [s.name for s in loc.objects] == ["O_1", "N_2", "M_2"]
    assert loc.f_matrix() == [[4, 4, 4], [2, 2, 2], [2, 2, 2]]


def test_localize_rejects_bad_component():
    b = cell_birep(2, 1)
    with pytest.raises(ValueError):
        localize(b, {5})


def test_localizations_compose_by_union():
    b = cell_birep(2, 1)
    two_step = localize(localize(b, {1}), {2})
    one_step = localize(b, {1, 2})
    assert two_step.contracted == one_step.contracted == frozenset({1, 2})
    assert two_step.action == one_step.action
    assert two_step.rank == 2


def _reference_merge(mat, groups):
    """The dense merge: rows summed over each group, first column kept."""
    return ExactMatrix.from_rows(
        [[sum((mat.get(r, cg[0]) for r in rg), ZERO) for cg in groups]
         for rg in groups])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sparse_merge_matches_dense_reference(n):
    b = cell_birep(n, 1)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            loc = localize(b, combo)
            groups = [[i - 1, n + i - 1] if i in combo else [i - 1]
                      for i in range(1, n + 1)]
            groups += [[n + i - 1] for i in range(1, n + 1)
                       if i not in combo]
            for u in b.action:
                assert len(b.core.action_entries[u]) <= 4
                assert all(type(m) is int and m > 0
                           for _, _, m in loc.action[u])
                got = dense(loc, u)
                assert got == _reference_merge(dense(b, u), groups), (combo, u)


def test_sparse_merge_rejects_unequal_contracted_columns(monkeypatch):
    # N's block sends N_1 and M_1 to N_1; dropping the entry in M_1's
    # column leaves no component contractible, as the sweep over every
    # generator finds too, and localize and classify both refuse
    b = cell_birep(2, 1)
    assert b.core.blocks["N"] == ((1, 1), (0, 0))
    core = _with_blocks(b.core, N=((1, 0), (0, 0)))
    assert core.contractible == frozenset()
    assert swept_contractible(core) == set()
    tampered = dataclasses.replace(b, action=core.action_entries, core=core)
    for contract in ({1}, {2}):
        with pytest.raises(StabilityError,
                           match=re.escape(f"components {sorted(contract)}")):
            localize(tampered, contract)
    monkeypatch.setitem(bireps._CORE_CACHE, (2, 1), core)
    with pytest.raises(StabilityError, match=re.escape("components [1]")):
        classify(2, 1)


@pytest.mark.parametrize("n,k", SMALL_CELLS)
def test_contractible_matches_column_comparison(n, k):
    for j in range(1, n + 1):
        b = cell_birep(n, k, j)
        want = {i for i in range(1, n + 1)
                if all([mat.get(r, i - 1) for r in range(2 * n)]
                       == [mat.get(r, n + i - 1) for r in range(2 * n)]
                       for mat in (dense(b, u) for u in b.action))}
        assert b.core.contractible == want, j
        assert want == set(range(1, n + 1)), j


@pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2) for n in range(1, 7)]
                         + [(8, 1)])
def test_contractible_matches_per_generator_sweep(n, k):
    # the core decides from the four generators at 1|1; the sweep compares
    # the two columns of every component under all 4n^2 generators
    core = cell_birep(n, k).core
    assert core.contractible == swept_contractible(core)


def test_contractible_reads_every_component_of_the_generators_at_1_1():
    # one family block at 1|1 whose two columns differ makes every
    # component uncontractible, as the sweep over all its translates finds
    core = cell_birep(3, 1).core
    assert core.contractible == swept_contractible(core) == {1, 2, 3}
    tampered = _with_blocks(core, M=((0, 0), (1, 0)))
    assert tampered.contractible == frozenset()
    assert swept_contractible(tampered) == set()


def test_arrow_scalars_are_keyed_by_normalized_generators():
    core = cell_birep(2, 1).core
    assert list(core.scalars) == list(core.generators)
    assert core.scalars[StringLabel("N", 1, 1, 1)] == 1
    with pytest.raises(KeyError):
        core.scalars[StringLabel("N", 1, 3, 1)]
    assert dict(core.verdicts) == {1: True, 2: True}


# N's action at 1|1 on the objects N_1, N_2, M_1, M_2, and the error each
# one raises
MISSHAPEN = {
    # a second valley-cell row, N_2, outside the block
    ((0, 0, 1), (0, 2, 1), (1, 0, 1)): re.escape(
        f"{StringLabel('N', 1, 1, 1)} has entry (1, 0) outside the block of "
        f"{StringLabel('N', 1, 1, 1)} and {StringLabel('M', 1, 1, 1)}"),
    # the two sides land in different rows, one of them N_2
    ((0, 0, 1), (1, 2, 1)): re.escape("has entry (1, 2) outside the block"),
    # a valley-cell summand occurring twice
    ((0, 0, 2), (0, 2, 2)): "does not join",
    # nothing on the M side
    ((0, 0, 1),): "does not join",
    # N_2, outside the block
    ((1, 0, 1), (1, 2, 1)): re.escape("has entry (1, 0) outside the block"),
    # M_1, in the block but no summand: pairing rank 0
    ((2, 0, 1), (2, 2, 1)): re.escape(
        f"{StringLabel('M', 1, 1, 1)} occurs 0 times"),
    # a column outside the block, N_2's
    ((0, 0, 1), (0, 1, 1), (0, 2, 1)): re.escape(
        "has entry (0, 1) outside the block"),
}


@pytest.mark.parametrize("entries", list(MISSHAPEN))
def test_arrow_scalar_rejects_a_misshapen_valley_cell_summand(monkeypatch,
                                                             entries):
    # N at 1|1, and with it every translate, gets the given action: the
    # block-locality check refuses an entry outside rows and columns N_1
    # and M_1, the shape check a block whose columns are not one unit
    # vector twice, and the rank-1 pairing check the wrong object
    match = MISSHAPEN[entries]
    u = StringLabel("N", 1, 1, 1)
    assert cell_birep(2, 1).core.action_entries[u] == ((0, 0, 1), (0, 2, 1))
    object_action = _BirepCore._object_action

    def tampered(self, v):
        return entries if v == u else object_action(self, v)

    monkeypatch.setattr(_BirepCore, "_object_action", tampered)
    with pytest.raises(CartanError, match=match):
        _BirepCore(2, 1)


def _alpha(core, s):
    """The arrow M_s -> N_s of the core's column: the core's own arrow of
    component 1, which tests may replace, and a fresh epimorphism for the
    other components."""
    if s == 1:
        return core.alpha
    n = core.n
    return _canonical_epi(core.object_labels[n + s - 1],
                          core.object_labels[s - 1], n)


def _reference_arrow_scalar(core, u):
    """The decompose-based arrow scalar of the earlier implementation,
    kept as an oracle: decompose u (x) M_s and u (x) N_s whole, take the
    split pairs of their one valley-cell summand and transport along
    them."""
    u = u.normalized(core.n)
    n, s = core.n, u.j
    alpha = _alpha(core, s)
    umod = construct(u, n)
    t_m = tensor(umod, core.modules[n + s - 1])
    t_n = tensor(umod, core.modules[s - 1])
    phi = tensor_map(umod, alpha)
    rep_m = decompose(t_m, core.k)
    rep_n = decompose(t_n, core.k)
    assert not rep_m.residual_dim and not rep_n.residual_dim
    tops_m = [y for y in rep_m.summands if cell_of(y) == ("J", core.k)]
    tops_n = [y for y in rep_n.summands if cell_of(y) == ("J", core.k)]
    assert len(tops_m) == 1 and tops_m == tops_n
    y_lab = tops_m[0]
    sig_m = next(sig for lab, sig, _ in rep_m.split_pairs if lab == y_lab)
    pi_n = next(pi for lab, _, pi in rep_n.split_pairs if lab == y_lab)
    composite = pi_n.compose(phi).compose(sig_m)
    ypos = core.position[y_lab]
    qend = _oracle_qhoms(core)[(ypos, ypos)]
    target = qcoords(qend, composite)
    unit = qcoords(qend, identity_map(core.modules[ypos]))
    pivot = next(i for i, v in enumerate(unit) if v)
    lam = Fraction(target[pivot], unit[pivot])
    assert all(t == lam * v for t, v in zip(target, unit))
    return lam


@pytest.mark.parametrize("n,k", SMALL_CELLS)
def test_arrow_scalars_match_decompose_reference(n, k):
    core = cell_birep(n, k).core
    for u in core.generators:
        got = core.scalars[u]
        assert type(got) is Fraction
        assert got == _reference_arrow_scalar(core, u), u


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 2)])
def test_arrow_scalar_follows_the_arrow(monkeypatch, n, k):
    # every catalog scalar is 1, so a formula that ignored the arrow could
    # pass the oracle test; 2 alpha + r and r alone, for a radical map r of
    # Hom(M_1, N_1), must read 2 and 0.  A core built on 2 alpha + r
    # reads 2; r alone is refused as a canonical arrow, so its scalars are
    # taken on a copy of the cached core, which is left alone
    core = cell_birep(n, k).core
    qhom = core.qhoms[(n, 0)]
    r = next(f for f in qhom.space if qhom.is_radical(f))
    alpha = core.alpha
    doubled = map_from_matrices(alpha.source, alpha.target, {
        v: add(dense_block(alpha, *v).scale(2), dense_block(r, *v))
        for v in alpha.source.dims})
    doubled.check()
    column_1 = [u for u in core.generators if u.j == 1]
    monkeypatch.setattr(bireps, "_canonical_epi", lambda *args: doubled)
    twice = _BirepCore(n, k)
    for u in column_1:
        assert twice.scalars[u] == 2 == _reference_arrow_scalar(twice, u)
    assert twice.verdicts[1] is True
    radical = copy.copy(core)
    radical.alpha = r
    scalars = radical._arrow_scalars()
    assert all(scalars[u] == 0 for u in column_1)
    assert core.verdicts[1] is True
    # a core given those scalars reads column 1 as not simple
    monkeypatch.setattr(_BirepCore, "_arrow_scalars", lambda self: scalars)
    assert _BirepCore(n, k).verdicts[1] is False


def _per_generator_scalar(core, u):
    """The arrow scalar of the earlier per-generator path, kept as an
    oracle: the trace ratio of u (x) alpha_s on u's own column, paired
    with u's own valley-cell object."""
    n, s = core.n, u.j
    ypos = next(r for r, c, _ in core._object_action(u) if c == s - 1)
    phi = tensor_map(construct(u, n), _alpha(core, s))
    (sigmas, back_m, g_m), (_, pis, g_n) = (
        trace_pairing(core.modules[ypos], t) for t in (phi.source, phi.target))
    assert sparse_rank(g_m, len(back_m)) == sparse_rank(g_n, len(pis)) == 1
    a = next(a for a, row in enumerate(g_m) if row)
    row = next(row for row in g_n if row)
    b = min(row)
    return Fraction(composite_trace(pis, b, phi, sigmas, a), row[b])


@pytest.mark.parametrize("n,k", ORBIT_CELLS)
def test_orbit_action_matches_every_generator(n, k):
    core = cell_birep(n, k).core
    assert set(core.action_entries) == set(core.generators)
    for u in core.generators:
        assert core.action_entries[u] == core._object_action(u), u


@pytest.mark.parametrize("n,k", ORBIT_CELLS)
def test_orbit_quotient_dims_match_every_pair(n, k):
    core = cell_birep(n, k).core
    full = _oracle_qhoms(core)
    assert list(core.qhoms) == [(a, b) for a in (0, n) for b in range(2 * n)]
    for (a, b), q in full.items():
        assert core.qhom(a, b).dim == q.dim, (a, b)


@pytest.mark.parametrize("n,k", ORBIT_CELLS)
def test_orbit_scalars_match_every_generator(n, k):
    core = cell_birep(n, k).core
    for u in core.generators:
        got = core.scalars[u]
        assert type(got) is Fraction
        assert got == _per_generator_scalar(core, u), u


def _localizations(n, k, j):
    base = cell_birep(n, k, j)
    out = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            loc = localize(base, combo)
            out.append((combo, loc.rank, is_simple_transitive(loc),
                        _fingerprint(loc)))
    return out


@pytest.mark.parametrize("n,k", SMALL_CELLS)
def test_localizations_agree_across_left_cells(n, k):
    first = _localizations(n, k, 1)
    assert len(first) == 2 ** n
    for j in range(2, n + 1):
        assert _localizations(n, k, j) == first, j


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rank_drops_by_contracted_count(n):
    b = cell_birep(n, 1)
    import itertools
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            loc = localize(b, combo)
            assert loc.rank == 2 * n - size


def test_mixed_contraction_block_shapes():
    loc = localize(cell_birep(2, 1), {1})
    assert ints(dense(loc, StringLabel("N", 1, 1, 1))) == [
        [1, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert ints(dense(loc, StringLabel("N", 2, 2, 1))) == [
        [0, 0, 0], [0, 1, 1], [0, 0, 0]]
    assert ints(dense(loc, StringLabel("N", 1, 2, 1))) == [
        [0, 1, 1], [0, 0, 0], [0, 0, 0]]
    assert ints(dense(loc, StringLabel("N", 2, 1, 1))) == [
        [0, 0, 0], [1, 0, 0], [0, 0, 0]]
    assert verify_block_structure(loc)["ok"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_structure_for_every_subset(n):
    import itertools
    b = cell_birep(n, 1)
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            loc = localize(b, combo)
            report = verify_block_structure(loc)
            assert report["ok"], report["failures"]
            assert report["f_trace"] == 4 * n
            adj = verify_adjunction_consequences(loc)
            assert adj["ok"], adj["failures"]


def _dense_block_flags(b):
    """The product checks of ``verify_block_structure``, on dense
    matrices: the failures of the generator squares and the flags."""
    f = zeros(b.rank, b.rank)
    for u in b.action:
        f = add(f, dense(b, u))
    subs = [ExactMatrix.from_rows([[f.get(a, c) for c in block]
                                   for a in block])
            for block in bireps._component_blocks(b)]
    idem = nil = True
    messages = []  # the generator failures, in the verifier's order
    for u in b.generator_labels():
        mat = dense(b, u)
        square = mat.mul(mat)
        if u.i == u.j:
            units = sum(mat.get(a, a) == 1 for a in range(b.rank))
            idem = idem and square == mat and units == 1
            if square != mat:
                messages.append(f"{u}: diagonal generator not idempotent")
            if units != 1:
                messages.append(f"{u}: {units} diagonal units")
        else:
            nil = nil and square.is_zero()
            if not square.is_zero():
                messages.append(f"{u}: off-diagonal generator not nilpotent")
    return messages, {"f_trace": sum(f.get(a, a) for a in range(b.rank)),
            "f_squares_to_4n": f.mul(f) == f.scale(4 * b.n),
            "diagonal_blocks_ok": all(s.mul(s) == s.scale(4) for s in subs),
            "idempotent_diagonals_ok": idem,
            "nilpotent_off_diagonals_ok": nil}


def _tampered(b, u, entries):
    action = dict(b.action)
    action[u] = entries
    return dataclasses.replace(b, action=action)


def test_block_checks_match_the_dense_products():
    # a diagonal generator with doubled entries has no unit on the
    # diagonal, one with an entry from N_1 to M_1 keeps its one unit but
    # squares to more than itself, and both break the total and its
    # diagonal block; an entry from N_1 to N_2 makes an off-diagonal
    # generator square to nonzero
    b = cell_birep(2, 1)
    diagonal, off = StringLabel("N", 1, 1, 1), StringLabel("N", 1, 2, 1)
    assert b.action[off] == ((0, 1, 1), (0, 3, 1))
    cases = [localize(b, combo) for combo in ((), (1,), (2,), (1, 2))]
    cases += [_tampered(b, diagonal, ((0, 0, 2), (0, 2, 2))),
              _tampered(b, diagonal, ((0, 0, 1), (0, 2, 1), (2, 0, 1))),
              _tampered(b, off, ((0, 1, 1), (0, 3, 1), (1, 0, 1))),
              _doubled_fixture()]
    failed = set()
    for case in cases:
        report = verify_block_structure(case)
        messages, want = _dense_block_flags(case)
        assert {key: report[key] for key in want} == want
        assert [m for m in report["failures"] if m.endswith(
            ("not idempotent", "diagonal units", "not nilpotent"))] \
            == messages
        failed |= {key for key, ok in want.items() if ok is False}
    assert failed == set(want) - {"f_trace"}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", range(1, 7))
def test_block_checks_match_the_dense_products_on_localizations(n, k):
    # every subset up to n = 4; none, one and all of them beyond
    b = cell_birep(n, k)
    combos = [combo for size in range(n + 1)
              for combo in itertools.combinations(range(1, n + 1), size)]
    if n > 4:
        combos = [(), (1,), tuple(range(1, n + 1))]
    for combo in combos:
        case = localize(b, combo)
        report = verify_block_structure(case)
        messages, want = _dense_block_flags(case)
        assert {key: report[key] for key in want} == want, combo
        assert report["failures"] == messages == [], combo


def test_fully_contracted_blocks_are_units():
    loc = localize(cell_birep(2, 1), {1, 2})
    for u in loc.generator_labels():
        mat = ints(dense(loc, u))
        assert mat[u.i - 1][u.j - 1] == 1
        assert sum(sum(row) for row in mat) == 1
    assert loc.f_matrix() == [[4, 4], [4, 4]]


def test_arrow_scalars_make_the_cell_birep_simple():
    b = cell_birep(1, 1)
    assert b.core.scalars[StringLabel("N", 1, 1, 1)] == 1
    assert b.core.scalars[StringLabel("M", 1, 1, 1)] == 1
    assert b.core.verdicts == {1: True}
    assert is_simple_transitive(b)


@pytest.mark.parametrize("n,contract", [(1, ()), (1, (1,)), (2, (2,)),
                                        (3, (1, 3))])
def test_localized_bireps_stay_simple_transitive(n, contract):
    loc = localize(cell_birep(n, 1), contract)
    assert is_simple_transitive(loc)


def _doubled_fixture():
    base = cell_birep(1, 1)

    def doubled(entries):
        # two disjoint copies, block diagonal; still sorted row-major
        return entries + tuple((r + 2, c + 2, m) for r, c, m in entries)

    return FinitaryBirep(
        n=1, k=1, column=1, contracted=frozenset(),
        objects=[ObjectSlot("N", 1), ObjectSlot("M", 1),
                 ObjectSlot("N", 1), ObjectSlot("M", 1)],
        action={lab: doubled(entries)
                for lab, entries in base.action.items()},
        core=base.core)


def test_disjoint_double_is_not_simple_transitive():
    assert not is_simple_transitive(_doubled_fixture())


def test_object_slot_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown object kind 'X'"):
        ObjectSlot("X", 1)


def test_object_index_refuses_a_missing_slot():
    # contracting component 1 merges N_1 and M_1 into O_1
    loc = localize(cell_birep(2, 1), {1})
    assert loc.object_index("O", 1) == 0
    with pytest.raises(KeyError, match="no object N_1"):
        loc.object_index("N", 1)


def _support_cases():
    for n in (1, 2, 3):
        b = cell_birep(n, 1)
        for size in range(n + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                yield localize(b, combo)
    yield _doubled_fixture()


def test_sparse_support_matches_dense_matrices():
    for b in _support_cases():
        total = zeros(b.rank, b.rank)
        for u in b.action:
            total = add(total, dense(b, u))
        assert ExactMatrix.from_rows(b.f_matrix()) == total
        assert all(type(e) is int for row in b.f_matrix() for e in row)
        want = [r for r in range(1, b.n + 1)
                if all(dense(b, StringLabel("M", r, s, b.k))
                       == dense(b, StringLabel("N", r, s, b.k))
                       for s in range(1, b.n + 1))]
        assert _fingerprint(b) == want


@pytest.mark.parametrize("entry", [(0, 2, 1), (2, 0, 1), (-1, 0, 1)])
def test_action_support_rejects_entries_outside_the_rank(entry):
    b = cell_birep(1, 1)
    u = StringLabel("N", 1, 1, 1)
    action = dict(b.action)
    action[u] = action[u] + (entry,)
    with pytest.raises(ValueError):
        dataclasses.replace(b, action=action).f_matrix()
    with pytest.raises(ValueError):
        dataclasses.replace(b, action=action).to_json()


def _reference_closure(b, s):
    """The closure loop of the dense implementation, kept as an oracle."""
    arrows = {s}
    ids: set = set()
    while True:
        grown = False
        for s2 in sorted(arrows):
            for u in b.core.generators:
                if u.j != s2:
                    continue
                if b.core.scalars[u] == ZERO:
                    continue
                kind = "O" if u.i in b.contracted else \
                    ("N" if u.family in "WN" else "M")
                pos = b.object_index(kind, u.i)
                if pos not in ids:
                    ids.add(pos)
                    grown = True
        for pos in sorted(ids):
            for u in b.core.generators:
                mat = dense(b, u)
                for r in range(mat.rows):
                    if mat.get(r, pos) != ZERO and r not in ids:
                        ids.add(r)
                        grown = True
        if not grown:
            break
    return ids


def _reference_is_simple_transitive(b):
    f = zeros(b.rank, b.rank)
    for u in b.action:
        f = add(f, dense(b, u))
    for r in range(f.rows):
        for c in range(f.cols):
            if f.get(r, c) < ONE:
                return False
    return all(_reference_closure(b, s)
               for s in range(1, b.n + 1) if s not in b.contracted)


def _zeroed_core(core, zeroed):
    """A fresh core of the same (n, k) whose arrow scalars vanish on the
    chosen generators; the core builds its column verdicts from them."""
    arrow_scalars = _BirepCore._arrow_scalars

    def zeroing(self):
        return {u: ZERO if u in zeroed else lam
                for u, lam in arrow_scalars(self).items()}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_BirepCore, "_arrow_scalars", zeroing)
        return _BirepCore(core.n, core.k)


def _closure_cases():
    for n in (1, 2, 3):
        b = cell_birep(n, 1)
        for size in range(n + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                yield localize(b, combo)
    yield _doubled_fixture()
    loc = localize(cell_birep(2, 1), {2})
    for zeroed in ([u for u in loc.core.generators if u.j == 1],
                   [u for u in loc.core.generators
                    if u.j == 1 and u.family in "WN"],
                   [u for u in loc.core.generators if u.i == u.j == 1]):
        yield dataclasses.replace(loc, core=_zeroed_core(loc.core, zeroed))
    # only W and N act, so M_1 reaches N_1 but not back; the seed is M_1
    base = cell_birep(1, 1)
    top = {u: entries if u.family in "WN" else ()
           for u, entries in base.action.items()}
    yield dataclasses.replace(
        base, action=top,
        core=_zeroed_core(base.core, {u for u in top if u.family in "WN"}))


def test_simple_transitivity_matches_reference_loop():
    verdicts = []
    for b in _closure_cases():
        verdict = is_simple_transitive(b)
        assert verdict == _reference_is_simple_transitive(b)
        verdicts.append(verdict)
    assert verdicts.count(False) == 3


def test_column_verdicts_read_the_scalars_of_their_column():
    # a column's verdict holds when some generator of that column, u at
    # r|s, acts on its arrow by a nonzero scalar
    core = cell_birep(2, 1).core
    column_1 = [u for u in core.generators if u.j == 1]
    partly = [u for u in column_1 if u.family in "WN"]
    assert _zeroed_core(core, partly).verdicts == {1: True, 2: True}
    assert _zeroed_core(core, column_1).verdicts == {1: False, 2: True}
    row_1 = [u for u in core.generators if u.i == 1]
    assert _zeroed_core(core, row_1).verdicts == {1: True, 2: True}


def test_arrow_scalars_check_every_column():
    # each family's block stands for all of its generators' columns, and
    # the shape check refuses any one block with a valley-cell summand
    # occurring twice or with unequal columns, although no other family's
    # scalar depends on it
    core = cell_birep(2, 1).core
    for family, block in core.blocks.items():
        twice = tuple(tuple(2 * m for m in row) for row in block)
        for broken in (twice, ((1, 0), (0, 1))):
            tampered = _with_blocks(core, **{family: broken})
            with pytest.raises(CartanError, match=re.escape(
                    f"{StringLabel(family, 1, 1, 1)} (x) arrow 1 "
                    "does not join")):
                tampered._arrow_scalars()


def test_classify_computes_each_arrow_scalar_once(monkeypatch):
    # the core takes the scalar of every generator when it is built, and
    # the trace ratio behind them once per family, on its generator at
    # 1|1 and the arrow of component 1
    n = 3
    tensored, traced = [], []

    def counting_tensor_map(x, f):
        tensored.append((x, f))
        return tensor_map(x, f)

    def counting_trace(*args):
        traced.append(args)
        return composite_trace(*args)

    monkeypatch.setattr(bireps, "tensor_map", counting_tensor_map)
    monkeypatch.setattr(bireps, "composite_trace", counting_trace)
    nakayama.clear_caches()
    report = classify(n, 1)
    assert all(e["simple_transitive"] for e in report.entries)
    core = cell_birep(n, 1).core
    assert list(core.scalars) == list(core.generators)
    assert all(type(lam) is Fraction for lam in core.scalars.values())
    assert dict(core.verdicts) == {s: True for s in range(1, n + 1)}
    bases = {construct(StringLabel(f, 1, 1, 1), n) for f in "WSNM"}
    assert len(tensored) == len(bases) == 4
    assert {x for x, _ in tensored} == bases
    assert all(f is core.alpha for _, f in tensored)
    assert len(traced) == 4


def test_classify_checks_each_distinct_arrow_end_once(monkeypatch):
    pairings, checked = [], []
    check_relations = Bimodule.check_relations

    def counting_pairing(y, t):
        pairings.append((y, t))
        return trace_pairing(y, t)

    def counting_check(self):
        checked.append(self)
        return check_relations(self)

    nakayama.clear_caches()
    monkeypatch.setattr(bireps, "trace_pairing", counting_pairing)
    monkeypatch.setattr(Bimodule, "check_relations", counting_check)
    classify(3, 1)
    core = cell_birep(3, 1).core
    # only the ends of the four generators at 1|1 on arrow 1 are paired
    ends = set()
    for f in "WSNM":
        u = StringLabel(f, 1, 1, 1)
        ypos = next(r for r, c, _ in core.action_entries[u] if c == 0)
        umod = construct(u, 3)
        for obj in (core.modules[3], core.modules[0]):
            ends.add((core.modules[ypos], tensor(umod, obj)))
    assert len(pairings) == len(set(pairings)) == len(ends)
    assert set(pairings) == ends
    assert len(ends) < 2 * 4
    for _, t in pairings:
        assert sum(c is t for c in checked) == 1


def test_arrow_end_of_rank_two_fails_on_every_ask(monkeypatch):
    # y pairs with t (+) y to rank 2, so the core refuses to build; a
    # failed build caches nothing, and every ask builds and fails again
    asked = []

    def doubled(y, t):
        asked.append(t)
        return trace_pairing(y, direct_sum(t, y))

    monkeypatch.setattr(bireps, "trace_pairing", doubled)
    monkeypatch.setattr(bireps, "_CORE_CACHE", {})
    for ask in (1, 2):
        with pytest.raises(CartanError, match="occurs 2 times"):
            cell_birep(2, 1)
        assert len(asked) == ask
        assert not bireps._CORE_CACHE


# -- each certificate of the orbit path shown to fire ------------------------

def test_a_radical_canonical_arrow_is_refused(monkeypatch):
    def zero_epi(m_label, n_label, n):
        return BimoduleMap(construct(m_label, n), construct(n_label, n), {})

    monkeypatch.setattr(bireps, "_canonical_epi", zero_epi)
    with pytest.raises(CartanError, match="canonical arrow 1 is radical"):
        _BirepCore(2, 1)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 5) for k in (1, 2)])
def test_the_core_builds_only_the_greater_objects_that_meet_a_source(
        monkeypatch, n, k):
    # quotient_hom_spaces skips every greater object that shares no vertex
    # with N_1 or M_1, so the core is given exactly the others
    given = []
    real = bireps.quotient_hom_spaces

    def recording(modules, greater, sources):
        given.extend(greater)
        return real(modules, given, sources)

    monkeypatch.setattr(bireps, "quotient_hom_spaces", recording)
    core = _BirepCore(n, k)
    support = core.modules[0].dims.keys() | core.modules[n].dims.keys()
    meeting = [construct(label, n) for label in catalog_labels(n, k - 1)
               if not support.isdisjoint(construct(label, n).dims)]
    assert len(given) == len(meeting)
    assert set(given) == set(meeting)


def test_a_quotient_hom_off_the_cartan_shape_is_refused(monkeypatch):
    # with no greater-cell object nothing is divided out, so some hom
    # between two objects keeps a dimension the A2 shape does not allow
    monkeypatch.setattr(bireps, "_candidates",
                        lambda n, k, dims, fit: iter(()))
    with pytest.raises(CartanError, match="quotient dimension"):
        _BirepCore(2, 1)


def test_a_valley_cell_summand_outside_the_column_is_refused(monkeypatch):
    def other_column(u, x, n):
        return [lab.shifted(0, 1, n) for lab in product_summands(u, x, n)]

    monkeypatch.setattr(bireps, "product_summands", other_column)
    with pytest.raises(CartanError, match="outside the column"):
        _BirepCore(2, 1)


def test_classify_refuses_a_fingerprint_collision(monkeypatch):
    # M's block equal to N's puts every row in every fingerprint
    core = cell_birep(2, 1).core
    monkeypatch.setitem(bireps._CORE_CACHE, (2, 1),
                        _with_blocks(core, M=core.blocks["N"]))
    with pytest.raises(RuntimeError, match=re.escape(
            "fingerprint collision between () and (1,)")):
        classify(2, 1)


def _classified(n, k):
    return [(tuple(e["I"]), e["rank"], e["simple_transitive"],
             e["fingerprint"]) for e in classify(n, k).entries]


@pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2) for n in range(1, 7)]
                         + [(8, 1)])
def test_classify_matches_the_localized_bireps(n, k):
    # classify reads the merged blocks; the oracle localizes by every
    # subset and reads rank, verdict and fingerprint off the laid-out birep
    assert _classified(n, k) == _localizations(n, k, 1)


@pytest.mark.parametrize("n", [1, 3])
def test_classify_matches_the_localized_bireps_without_a_verdict(monkeypatch,
                                                                 n):
    # with the scalars of column 1 zeroed, exactly the subsets that keep
    # component 1 uncontracted are not simple, on both paths
    core = _zeroed_core(cell_birep(n, 1).core,
                        [u for u in cell_birep(n, 1).core.generators
                         if u.j == 1])
    monkeypatch.setitem(bireps._CORE_CACHE, (n, 1), core)
    got = _classified(n, 1)
    assert got == _localizations(n, 1, 1)
    assert [combo for combo, _, simple, _ in got if not simple] == [
        combo for combo, *_ in got if 1 not in combo]


def test_classify_rank_one():
    report = classify(1, 1)
    assert len(report.entries) == 2
    assert sorted(e["rank"] for e in report.entries) == [1, 2]
    assert all(e["simple_transitive"] for e in report.entries)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classify_counts_are_binomial(n):
    report = classify(n, 1)
    assert len(report.entries) == 2 ** n
    for j in range(n + 1):
        assert report.counts.get(n + j, 0) == comb(n, j)


def test_classify_fingerprints_match_contraction_sets():
    report = classify(2, 1)
    prints = {tuple(e["I"]): e["fingerprint"] for e in report.entries}
    for i_set, fingerprint in prints.items():
        assert fingerprint == sorted(i_set)
    assert len({tuple(p) for p in prints.values()}) == 4


def test_classification_json_shape():
    blob = classify(2, 1).to_json()
    assert set(blob) == {"n", "k", "entries", "counts"}
    assert blob["counts"] == {"2": 1, "3": 2, "4": 1}
    for entry in blob["entries"]:
        assert set(entry) == {"I", "rank", "simple_transitive", "fingerprint"}


def test_birep_json_shape():
    blob = localize(cell_birep(2, 1), {2}).to_json()
    assert blob["rank"] == 3
    assert blob["contracted"] == [2]
    assert blob["objects"] == ["N_1", "O_2", "M_1"]
    assert len(blob["action"]) == 16
    assert all(isinstance(v, list) for v in blob["action"].values())
    assert blob["cartan"][blob["objects"].index("M_1")][0] == 1


def test_two_valley_cell_birep_builds():
    b = cell_birep(1, 2)
    assert b.rank == 2
    assert ints(dense(b, StringLabel("N", 1, 1, 2))) == [[1, 1], [0, 0]]
    assert verify_block_structure(b)["ok"]
    assert verify_adjunction_consequences(b)["ok"]
