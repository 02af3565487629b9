"""Tests for cell birepresentations, localization, and classification."""

import copy
import dataclasses
import itertools
from fractions import Fraction
from math import comb

import pytest

import nakayama
from nakayama.bimodules import (
    BimoduleMap,
    HomSpace,
    StringLabel,
    catalog_labels,
    construct,
    parse_label,
)
from nakayama.bireps import (
    CartanError,
    FinitaryBirep,
    ObjectSlot,
    StabilityError,
    _BirepCore,
    _canonical_epi,
    action_matrix,
    cell_birep,
    classify,
    is_simple_transitive,
    localize,
    quotient_hom_spaces,
    verify_adjunction_consequences,
    verify_block_structure,
)
from nakayama.decomposition import cell_of, decompose
from nakayama.linalg import ONE, ExactMatrix, ZERO, sparse_rref
from nakayama.tensoring import tensor, tensor_map

from dense_helpers import add, identity_map

# every (n, k) on which the column-by-column cross-checks run
SMALL_CELLS = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]


def ints(mat):
    return [[int(e) for e in row] for row in mat.to_lists()]


def test_quotient_hom_dims_form_disjoint_a2():
    n = 2
    greater = [construct(lab, n) for lab in catalog_labels(n, 0)]
    m1 = construct(StringLabel("M", 1, 1, 1), n)
    n1 = construct(StringLabel("N", 1, 1, 1), n)
    n2 = construct(StringLabel("N", 2, 1, 1), n)
    qhoms = quotient_hom_spaces([m1, n1, n2], greater)
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


@pytest.mark.parametrize("n,k", SMALL_CELLS)
def test_quotient_hom_spaces_match_per_pair_reference(n, k):
    core = cell_birep(n, k).core
    greater = [construct(lab, n) for lab in catalog_labels(n, k - 1)]
    got = quotient_hom_spaces(core.modules, greater)
    assert list(got) == [(a, b) for a in range(2 * n) for b in range(2 * n)]
    for (a, b), q in got.items():
        ref = _ReferenceQuotientHomSpace(core.modules[a], core.modules[b],
                                         greater)
        assert q.space.vectors == ref.space.vectors, (a, b)
        assert q.dim == ref.dim, (a, b)
        assert q._pivots == ref._pivots, (a, b)
        assert q._reduced == ref._reduced, (a, b)
        assert q.dim == core.qhoms[(a, b)].dim


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
    assert ints(b.action_obj[StringLabel("N", 1, 1, 1)]) == [[1, 1], [0, 0]]
    assert ints(b.action_obj[StringLabel("M", 1, 1, 1)]) == [[0, 0], [1, 1]]
    assert ints(b.action_obj[StringLabel("W", 1, 1, 1)]) == [[1, 1], [0, 0]]
    assert ints(b.action_obj[StringLabel("S", 1, 1, 1)]) == [[0, 0], [1, 1]]


def test_total_action_matrix_facts():
    b = cell_birep(2, 1)
    f = b.f_matrix()
    assert ints(f) == [[2] * 4 for _ in range(4)]
    assert f.mul(f) == f.scale(Fraction(8))
    assert sum(f.get(i, i) for i in range(4)) == 8


def test_action_matrix_rejects_non_apex_input():
    b = cell_birep(2, 1)
    with pytest.raises(ValueError):
        action_matrix(b, parse_label("P:1|1"))
    with pytest.raises(ValueError):
        action_matrix(b, StringLabel("N", 1, 1, 2))
    got = action_matrix(b, StringLabel("N", 3, 3, 1))
    assert got == b.action_obj[StringLabel("N", 1, 1, 1)]


@pytest.mark.parametrize("r,s", [(1, 1), (2, 2), (1, 2), (2, 1)])
def test_diagonal_generators_idempotent_off_diagonal_nilpotent(r, s):
    b = cell_birep(2, 1)
    for fam in "WSNM":
        mat = b.action_obj[StringLabel(fam, r, s, 1)]
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
    assert ints(left.f_matrix()) == ints(right.f_matrix())


def test_localize_empty_set_is_identity():
    b = cell_birep(2, 1)
    assert localize(b, ()) is b


def test_localize_merges_objects():
    b = cell_birep(2, 1)
    loc = localize(b, {1})
    assert loc.rank == 3
    assert [s.name for s in loc.objects] == ["O_1", "N_2", "M_2"]
    assert ints(loc.f_matrix()) == [[4, 4, 4], [2, 2, 2], [2, 2, 2]]


def test_localize_rejects_bad_component():
    b = cell_birep(2, 1)
    with pytest.raises(ValueError):
        localize(b, {5})


def test_localizations_compose_by_union():
    b = cell_birep(2, 1)
    two_step = localize(localize(b, {1}), {2})
    one_step = localize(b, {1, 2})
    assert two_step.contracted == one_step.contracted == frozenset({1, 2})
    assert two_step.action_obj == one_step.action_obj
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
            for u, mat in b.action_obj.items():
                assert len(b.core.action_entries[u]) <= 4
                got = loc.action_obj[u]
                assert isinstance(got, ExactMatrix)
                assert all(isinstance(e, Fraction) for e in got.entries)
                assert got == _reference_merge(mat, groups), (combo, u)


def test_sparse_merge_rejects_unequal_contracted_columns():
    b = cell_birep(2, 1)
    u = StringLabel("N", 1, 1, 1)
    core = copy.copy(b.core)
    core.action_entries = dict(core.action_entries)
    # N_1|1 sends N_1 and M_1 to N_1; drop the entry in M_1's column
    assert core.action_entries[u] == ((0, 0, 1), (0, 2, 1))
    core.action_entries[u] = ((0, 0, 1),)
    core.contractible = core._contractible()
    assert core.contractible == {2}
    tampered = dataclasses.replace(b, core=core)
    with pytest.raises(StabilityError):
        localize(tampered, {1})
    localize(tampered, {2})


@pytest.mark.parametrize("n,k", SMALL_CELLS)
def test_contractible_matches_column_comparison(n, k):
    for j in range(1, n + 1):
        b = cell_birep(n, k, j)
        want = {i for i in range(1, n + 1)
                if all([mat.get(r, i - 1) for r in range(2 * n)]
                       == [mat.get(r, n + i - 1) for r in range(2 * n)]
                       for mat in b.action_obj.values())}
        assert b.core.contractible == want, j
        assert want == set(range(1, n + 1)), j


def test_arrow_scalar_normalizes_its_label():
    core = cell_birep(2, 1).core
    u = StringLabel("N", 1, 3, 1)
    assert core.arrow_scalar(u) == core.arrow_scalar(u.normalized(2)) == 1
    assert u not in core._scalars


@pytest.mark.parametrize("entries", [
    ((0, 0, 1), (0, 2, 1), (1, 0, 1)),  # two valley-cell rows in column s
    ((0, 0, 1), (1, 2, 1)),  # the two sides land in different rows
    ((0, 0, 2), (0, 2, 2)),  # a valley-cell summand occurring twice
    ((0, 0, 1),),  # nothing on the M side
    ((1, 0, 1), (1, 2, 1)),  # N_2, which is no summand: pairing rank 0
])
def test_arrow_scalar_rejects_a_misshapen_valley_cell_summand(entries):
    b = cell_birep(2, 1)
    u = StringLabel("N", 1, 1, 1)
    core = copy.copy(b.core)
    core._scalars = {}
    core.action_entries = dict(core.action_entries)
    assert core.action_entries[u] == ((0, 0, 1), (0, 2, 1))
    core.action_entries[u] = entries
    with pytest.raises(CartanError):
        core.arrow_scalar(u)
    assert b.core.arrow_scalar(u) == 1


def _reference_arrow_scalar(core, u):
    """The decompose-based arrow scalar of the earlier implementation,
    kept as an oracle: decompose u (x) M_s and u (x) N_s whole, take the
    split pairs of their one valley-cell summand and transport along
    them."""
    u = u.normalized(core.n)
    n, s = core.n, u.j
    alpha = core.alphas[s - 1]
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
    qend = core.qhoms[(ypos, ypos)]
    target = qend.qcoords(composite)
    unit = qend.qcoords(identity_map(core.modules[ypos]))
    pivot = next(i for i, v in enumerate(unit) if v)
    lam = target[pivot] / unit[pivot]
    assert all(t == lam * v for t, v in zip(target, unit))
    return lam


@pytest.mark.parametrize("n,k", SMALL_CELLS)
def test_arrow_scalars_match_decompose_reference(n, k):
    for j in range(1, n + 1):
        core = cell_birep(n, k, j).core
        for u in core.generators:
            got = core.arrow_scalar(u)
            assert type(got) is Fraction
            assert got == _reference_arrow_scalar(core, u), (j, u)


def _with_first_arrow(core, arrow):
    """A copy of core whose arrow of component 1 is replaced, with empty
    scalar and verdict tables; the cached core is left alone."""
    out = copy.copy(core)
    out._scalars, out._verdicts = {}, {}
    out.alphas = [arrow] + core.alphas[1:]
    return out


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 2)])
def test_arrow_scalar_follows_the_arrow(n, k):
    # every catalog scalar is 1, so a formula that ignored the arrow could
    # pass the oracle test; 2 alpha + r and r alone, for a radical map r of
    # Hom(M_1, N_1), must read 2 and 0
    core = cell_birep(n, k).core
    qhom = core.qhoms[(n, 0)]
    r = next(f for f in qhom.space if qhom.is_radical(f))
    alpha = core.alphas[0]
    doubled = BimoduleMap(alpha.source, alpha.target, {
        v: add(alpha.component(*v).scale(2), r.component(*v))
        for v in alpha.source.dims})
    doubled.check()
    twice = _with_first_arrow(core, doubled)
    for u in twice.by_column[1]:
        assert twice.arrow_scalar(u) == 2 == _reference_arrow_scalar(twice, u)
    radical = _with_first_arrow(core, r)
    for u in radical.by_column[1]:
        assert radical.arrow_scalar(u) == 0
    assert radical.column_verdict(1) is False
    assert core.column_verdict(1) is True


def _localizations(n, k, j):
    base = cell_birep(n, k, j)
    out = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            loc = localize(base, combo)
            out.append((combo, loc.rank, is_simple_transitive(loc),
                        loc.fingerprint()))
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
    act = loc.action_obj
    assert ints(act[StringLabel("N", 1, 1, 1)]) == [
        [1, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert ints(act[StringLabel("N", 2, 2, 1)]) == [
        [0, 0, 0], [0, 1, 1], [0, 0, 0]]
    assert ints(act[StringLabel("N", 1, 2, 1)]) == [
        [0, 1, 1], [0, 0, 0], [0, 0, 0]]
    assert ints(act[StringLabel("N", 2, 1, 1)]) == [
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


def test_fully_contracted_blocks_are_units():
    loc = localize(cell_birep(2, 1), {1, 2})
    for u in loc.generator_labels():
        mat = loc.action_obj[u]
        assert ints(mat)[u.i - 1][u.j - 1] == 1
        assert sum(sum(row) for row in ints(mat)) == 1
    assert ints(loc.f_matrix()) == [[4, 4], [4, 4]]


def test_arrow_scalars_make_the_cell_birep_simple():
    b = cell_birep(1, 1)
    assert b.arrow_scalar(StringLabel("N", 1, 1, 1)) == 1
    assert b.arrow_scalar(StringLabel("M", 1, 1, 1)) == 1
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


def _support_cases():
    for n in (1, 2, 3):
        b = cell_birep(n, 1)
        for size in range(n + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                yield localize(b, combo)
    yield _doubled_fixture()


def test_sparse_support_matches_dense_matrices():
    for b in _support_cases():
        dense = ExactMatrix.zeros(b.rank, b.rank)
        for mat in b.action_obj.values():
            dense = add(dense, mat)
        support = b._action_support()
        assert support == {idx: e for idx, e in enumerate(dense.entries) if e}
        assert b.f_matrix() == dense
        want = [r for r in range(1, b.n + 1)
                if all(b.action_obj[StringLabel("M", r, s, b.k)]
                       == b.action_obj[StringLabel("N", r, s, b.k)]
                       for s in range(1, b.n + 1))]
        assert b.fingerprint() == want


@pytest.mark.parametrize("entry", [(0, 2, 1), (2, 0, 1), (-1, 0, 1)])
def test_action_support_rejects_entries_outside_the_rank(entry):
    b = cell_birep(1, 1)
    u = StringLabel("N", 1, 1, 1)
    action = dict(b.action)
    action[u] = action[u] + (entry,)
    with pytest.raises(ValueError):
        dataclasses.replace(b, action=action)._action_support()


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
                if b.core.arrow_scalar(u) == ZERO:
                    continue
                kind = "O" if u.i in b.contracted else \
                    ("N" if u.family in "WN" else "M")
                pos = b.object_index(kind, u.i)
                if pos not in ids:
                    ids.add(pos)
                    grown = True
        for pos in sorted(ids):
            for u in b.core.generators:
                mat = b.action_obj[u]
                for r in range(mat.rows):
                    if mat.get(r, pos) != ZERO and r not in ids:
                        ids.add(r)
                        grown = True
        if not grown:
            break
    return ids


def _reference_is_simple_transitive(b):
    f = ExactMatrix.zeros(b.rank, b.rank)
    for mat in b.action_obj.values():
        f = add(f, mat)
    for r in range(f.rows):
        for c in range(f.cols):
            if f.get(r, c) < ONE:
                return False
    return all(_reference_closure(b, s)
               for s in range(1, b.n + 1) if s not in b.contracted)


class _ZeroedScalars:
    """A core stand-in whose arrow scalars vanish on chosen generators;
    its column verdicts are the core's, read from those scalars."""

    def __init__(self, core, zeroed):
        self.generators = core.generators
        self.by_column = core.by_column
        self._core = core
        self._zeroed = zeroed
        self._verdicts = {}

    def arrow_scalar(self, u):
        return ZERO if u in self._zeroed else self._core.arrow_scalar(u)

    column_verdict = _BirepCore.column_verdict


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
        yield dataclasses.replace(
            loc, core=_ZeroedScalars(loc.core, set(zeroed)))
    # only W and N act, so M_1 reaches N_1 but not back; the seed is M_1
    base = cell_birep(1, 1)
    top = {u: entries if u.family in "WN" else ()
           for u, entries in base.action.items()}
    yield dataclasses.replace(
        base, action=top,
        core=_ZeroedScalars(base.core, {u for u in top if u.family in "WN"}))


def test_simple_transitivity_matches_reference_loop():
    verdicts = []
    for b in _closure_cases():
        verdict = is_simple_transitive(b)
        assert verdict == _reference_is_simple_transitive(b)
        verdicts.append(verdict)
    assert verdicts.count(False) == 3


def test_simple_transitivity_checks_every_surviving_column():
    # column 1 has no nonzero scalar, so its verdict alone decides; the
    # shape failure in column 2 must still be raised
    b = cell_birep(2, 1)
    zeroed = {u for u in b.core.generators if u.j == 1}
    broken = b.core.by_column[2][-1]

    class _BrokenColumn(_ZeroedScalars):
        def arrow_scalar(self, u):
            if u == broken:
                raise CartanError(f"{u} is misshapen")
            return super().arrow_scalar(u)

    stand_in = dataclasses.replace(b, core=_BrokenColumn(b.core, zeroed))
    with pytest.raises(CartanError):
        is_simple_transitive(stand_in)


def test_classify_computes_each_arrow_scalar_once(monkeypatch):
    n = 3
    asked = []
    arrow_scalar = _BirepCore.arrow_scalar

    def counting(self, u):
        asked.append(u)
        return arrow_scalar(self, u)

    monkeypatch.setattr(_BirepCore, "arrow_scalar", counting)
    nakayama.clear_caches()
    report = classify(n, 1)
    assert all(e["simple_transitive"] for e in report.entries)
    generators = cell_birep(n, 1).core.generators
    assert sorted(asked) == sorted(generators)


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
    assert ints(b.action_obj[StringLabel("N", 1, 1, 2)]) == [[1, 1], [0, 0]]
    assert verify_block_structure(b)["ok"]
    assert verify_adjunction_consequences(b)["ok"]
