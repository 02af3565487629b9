"""Birepresentations carried by a valley cell, and their localizations.

The objects are the members of one left-cell column: the strings with a
left bar, in the order N_1 .. N_n, M_1 .. M_n.  Tensoring with a cell
member permutes these objects up to summands in greater cells, which the
quotient hom spaces kill.  Contracting the arrows M_i -> N_i for a chosen
set of components produces the localized birepresentations; ranging over
all subsets gives the full classification.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .algebras import project, residue
from .bimodules import (
    Bimodule,
    BimoduleMap,
    HomSpace,
    StringLabel,
    _walk,
    catalog_labels,
    construct,
    identity_map,
)
from .decomposition import _label_sort_key, cell_of, decompose
from .decomposition import product_summands
from .linalg import ONE, ZERO, ExactMatrix, sparse_rref
from .tensoring import tensor, tensor_map


class CartanError(RuntimeError):
    """The computed hom data of a cell birep deviates from the expected
    disjoint-A2 shape.  Raising this means the implementation is wrong
    somewhere upstream, never that the inputs were."""


class StabilityError(RuntimeError):
    """A contraction collection failed its stability check."""


class QuotientHomSpace:
    """Hom space between two catalog bimodules, modulo the maps that
    factor through an indecomposable in a strictly greater cell.

    A factorization through a direct sum refines to factorizations
    through single indecomposable summands, and a summand admitting
    nonzero maps from the source and to the target has dimension at most
    dim(source) + dim(target), so the scan over factoring objects stops
    there.  greater holds the (label, module) pairs of the factoring
    objects.
    """

    def __init__(self, x: Bimodule, y: Bimodule,
                 greater: Sequence[Tuple[StringLabel, Bimodule]],
                 hom_cache: Optional[dict] = None):
        self.space = HomSpace(x, y)
        bound = x.total_dim + y.total_dim
        cache = hom_cache if hom_cache is not None else {}

        def homs(a: Bimodule, b: Bimodule, key):
            # the entry holds both modules, so no other module can take
            # over an id in its key while the entry exists
            if key not in cache:
                cache[key] = (a, b, HomSpace(a, b).maps)
            return cache[key][2]

        rows = []
        for lab, z in greater:
            if z.total_dim > bound:
                continue
            into = homs(x, z, ("in", id(x), lab))
            if not into:
                continue
            for g in homs(z, y, ("out", lab, id(y))):
                for h in into:
                    coords = self.space.coords_of(g.compose(h))
                    row = {c: v for c, v in enumerate(coords) if v}
                    if row:
                        rows.append(row)
        reduced, pivots = sparse_rref(rows, self.space.dim)
        self._reduced = reduced
        self._pivots = list(pivots)
        taken = set(self._pivots)
        self._free = [c for c in range(self.space.dim) if c not in taken]

    @property
    def dim(self) -> int:
        return len(self._free)

    def qcoords(self, f: BimoduleMap) -> Tuple[Fraction, ...]:
        """Coordinates of f in the quotient (zero iff f is radical)."""
        vec = list(self.space.coords_of(f))
        for row, p in zip(self._reduced, self._pivots):
            c = vec[p]
            if c:
                for col, v in row.items():
                    vec[col] -= c * v
        return tuple(vec[c] for c in self._free)

    def is_radical(self, f: BimoduleMap) -> bool:
        return all(v == ZERO for v in self.qcoords(f))


def _canonical_epi(m_label: StringLabel, n_label: StringLabel,
                   n: int) -> BimoduleMap:
    """The epimorphism M -> N that forgets the final bar point.

    Both walks agree point for point except for the last point of M,
    which the map kills.  Local indices stack in walk order on both
    sides, so the matrix entries can be read straight off the walks.
    """
    src = construct(m_label, n)
    tgt = construct(n_label, n)
    pts_m, _ = _walk(m_label.normalized(n))
    pts_n, _ = _walk(n_label.normalized(n))
    if len(pts_m) != len(pts_n) + 1:
        raise CartanError(
            f"{m_label} has {len(pts_m)} walk points and {n_label} has "
            f"{len(pts_n)}; an epimorphism needs exactly one more")

    def layout(points):
        seen: Counter = Counter()
        out = []
        for p in points:
            v = project(p, n)
            out.append((v, seen[v]))
            seen[v] += 1
        return out

    entries: Dict[tuple, List[Tuple[int, int, Fraction]]] = {}
    for (v_m, l_m), (v_n, l_n) in zip(layout(pts_m), layout(pts_n)):
        if v_m != v_n:
            raise CartanError(
                f"the walks of {m_label} and {n_label} part at {v_m} and {v_n}")
        entries.setdefault(v_m, []).append((l_n, l_m, ONE))
    out = BimoduleMap(src, tgt, {
        v: ExactMatrix.from_entries(tgt.dims[v], src.dims[v], here)
        for v, here in entries.items()})
    out.check()
    return out


ActionEntries = Tuple[Tuple[int, int, int], ...]


class _BirepCore:
    """Shared data behind every birep on one column: object bimodules,
    quotient hom spaces, canonical arrows, the uncontracted action as
    integer entries and as matrices, and a lazily filled scalar table for
    the morphism-level action."""

    def __init__(self, n: int, k: int, column: int):
        self.n, self.k, self.column = n, k, column
        self.object_labels = (
            [StringLabel("N", i, column, k).normalized(n)
             for i in range(1, n + 1)]
            + [StringLabel("M", i, column, k).normalized(n)
               for i in range(1, n + 1)])
        self.modules = [construct(lab, n) for lab in self.object_labels]
        self.position = {lab: p for p, lab in enumerate(self.object_labels)}

        greater = [(lab, construct(lab, n))
                   for lab in catalog_labels(n, k - 1)]
        hom_cache: dict = {}
        self.qhoms: Dict[Tuple[int, int], QuotientHomSpace] = {}
        for a, xa in enumerate(self.modules):
            for b, xb in enumerate(self.modules):
                self.qhoms[(a, b)] = QuotientHomSpace(
                    xa, xb, greater, hom_cache)
        self._assert_cartan()

        self.alphas = [
            _canonical_epi(self.object_labels[n + i], self.object_labels[i], n)
            for i in range(n)]
        for i, alpha in enumerate(self.alphas):
            if self.qhoms[(n + i, i)].is_radical(alpha):
                raise CartanError(
                    f"canonical arrow {i + 1} is radical at n={n}, k={k}")

        self.generators = sorted(
            (StringLabel(f, r, s, k).normalized(n)
             for f in "WSNM"
             for r in range(1, n + 1)
             for s in range(1, n + 1)),
            key=_label_sort_key)
        self.action_entries = {u: self._object_action(u)
                               for u in self.generators}
        self.action = {u: ExactMatrix.from_entries(2 * n, 2 * n, entries)
                       for u, entries in self.action_entries.items()}
        self._scalars: Dict[StringLabel, Fraction] = {}

    def _assert_cartan(self):
        n = self.n
        for a in range(2 * n):
            for b in range(2 * n):
                want = 1 if (a == b or a == b + n) else 0
                got = self.qhoms[(a, b)].dim
                if got != want:
                    raise CartanError(
                        f"hom({self.object_labels[a]}, {self.object_labels[b]})"
                        f" has quotient dimension {got}, expected {want}")

    def _object_action(self, u: StringLabel) -> ActionEntries:
        """The nonzero entries (row, col, multiplicity) of u's action on
        the objects, in row-major order."""
        n = self.n
        counts: Counter = Counter()
        for c, xlab in enumerate(self.object_labels):
            for summand in product_summands(u, xlab, n):
                if cell_of(summand) != ("J", self.k):
                    continue
                r = self.position.get(summand)
                if r is None:
                    raise CartanError(
                        f"{u} (x) {xlab} has valley-cell summand {summand} "
                        "outside the column")
                counts[(r, c)] += 1
        return tuple((r, c, m) for (r, c), m in sorted(counts.items()))

    def arrow_scalar(self, u: StringLabel) -> Fraction:
        """The scalar by which u acts on the arrow of its source column.

        Tensoring u with the arrow alpha_s (s = u's column index) gives a
        map between two copies of the same object; transporting along the
        split pairs of both decompositions and reading the result against
        the identity in the quotient endomorphism space yields the scalar.
        """
        u = u.normalized(self.n)
        if u in self._scalars:
            return self._scalars[u]
        n, s = self.n, u.j
        alpha = self.alphas[s - 1]
        umod = construct(u, n)
        t_m = tensor(umod, self.modules[n + s - 1])
        t_n = tensor(umod, self.modules[s - 1])
        phi = tensor_map(umod, alpha)
        rep_m = decompose(t_m, self.k)
        rep_n = decompose(t_n, self.k)
        if rep_m.residual_dim or rep_n.residual_dim:
            raise CartanError(f"{u} (x) arrow {s} leaves a residual")
        tops_m = rep_m.summands_in_cell(("J", self.k))
        tops_n = rep_n.summands_in_cell(("J", self.k))
        if len(tops_m) != 1 or tops_m != tops_n:
            raise CartanError(
                f"{u} (x) arrow {s} does not join two copies of one "
                f"valley-cell summand: {tops_m} and {tops_n}")
        y_lab = tops_m[0]
        sig_m = next(sig for lab, sig, _ in rep_m.split_pairs if lab == y_lab)
        pi_n = next(pi for lab, _, pi in rep_n.split_pairs if lab == y_lab)
        composite = pi_n.compose(phi).compose(sig_m)
        ypos = self.position[y_lab]
        qend = self.qhoms[(ypos, ypos)]
        target = qend.qcoords(composite)
        unit = qend.qcoords(identity_map(self.modules[ypos]))
        pivot = next(i for i, v in enumerate(unit) if v)
        lam = target[pivot] / unit[pivot]
        if any(t != lam * v for t, v in zip(target, unit)):
            raise CartanError(
                f"{u} maps arrow {s} to no multiple of the identity")
        self._scalars[u] = lam
        return lam


_CORE_CACHE: Dict[tuple, _BirepCore] = {}


@dataclass(frozen=True)
class ObjectSlot:
    """One object of a birep: an N or M string, or a contracted pair O."""

    kind: str
    component: int

    def __post_init__(self):
        if self.kind not in ("N", "M", "O"):
            raise ValueError(f"unknown object kind {self.kind!r}")

    @property
    def name(self) -> str:
        return f"{self.kind}_{self.component}"


@dataclass(frozen=True)
class LocalizationSpec:
    """Which components to contract."""

    contract: FrozenSet[int]

    def __init__(self, contract: Iterable[int]):
        object.__setattr__(self, "contract", frozenset(int(i) for i in contract))


@dataclass
class FinitaryBirep:
    """A birepresentation of the k-valley cell on one left-cell column.

    contracted lists the components whose arrow was inverted; their two
    objects merged into a single O slot.  The object order is the N/O
    slots for components 1..n followed by the surviving M slots.
    """

    n: int
    k: int
    column: int
    contracted: FrozenSet[int]
    objects: List[ObjectSlot]
    action_obj: Dict[StringLabel, ExactMatrix]
    core: Optional[_BirepCore] = field(default=None, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.objects)

    def object_index(self, kind: str, component: int) -> int:
        for pos, slot in enumerate(self.objects):
            if slot.kind == kind and slot.component == component:
                return pos
        raise KeyError(f"no object {kind}_{component}")

    def generator_labels(self) -> List[StringLabel]:
        return sorted(self.action_obj, key=_label_sort_key)

    def _action_support(self) -> Dict[int, Fraction]:
        """The nonzero entries of the total action matrix, keyed by flat
        row-major index, from one pass over the generator matrices."""
        size = self.rank
        total: Dict[int, Fraction] = {}
        for mat in self.action_obj.values():
            if (mat.rows, mat.cols) != (size, size):
                raise ValueError(
                    f"action matrix is {mat.rows}x{mat.cols}, "
                    f"expected {size}x{size}")
            for idx, e in enumerate(mat.entries):
                if e:
                    total[idx] = total.get(idx, ZERO) + e
        return total

    def f_matrix(self) -> ExactMatrix:
        total = self._action_support()
        return ExactMatrix(self.rank, self.rank,
                           [total.get(idx, ZERO)
                            for idx in range(self.rank * self.rank)])

    def cartan(self) -> ExactMatrix:
        grid = [[ZERO] * self.rank for _ in range(self.rank)]
        for pos in range(self.rank):
            grid[pos][pos] = ONE
        for i in range(1, self.n + 1):
            if i not in self.contracted:
                grid[self.object_index("M", i)][self.object_index("N", i)] = ONE
        return ExactMatrix.from_rows(grid)

    def fingerprint(self) -> List[int]:
        """Components whose M and N generators act identically."""
        out = []
        for r in range(1, self.n + 1):
            if all(self.action_obj[StringLabel("M", r, s, self.k)]
                   == self.action_obj[StringLabel("N", r, s, self.k)]
                   for s in range(1, self.n + 1)):
                out.append(r)
        return out

    def arrow_scalar(self, u: StringLabel) -> Fraction:
        if self.core is None:
            raise ValueError("this birep carries no morphism-level data")
        return self.core.arrow_scalar(u)

    def to_json(self) -> dict:
        def ints(mat: ExactMatrix) -> List[List[int]]:
            return [[int(e) for e in row] for row in mat.to_lists()]

        return {
            "n": self.n,
            "k": self.k,
            "j": self.column,
            "contracted": sorted(self.contracted),
            "rank": self.rank,
            "objects": [slot.name for slot in self.objects],
            "cartan": ints(self.cartan()),
            "action": {u.literal(): ints(self.action_obj[u])
                       for u in self.generator_labels()},
        }


def cell_birep(n: int, k: int, j: int = 1) -> FinitaryBirep:
    """The birepresentation carried by the k-valley cell on column j.

    Objects are the left-bar strings of that column; hom spaces are
    quotients by maps factoring through greater cells.  Construction
    fails loudly if the hom data does not come out as n disjoint A2
    quivers, since everything downstream depends on that shape.
    """
    if k < 1:
        raise ValueError("the valley count k must be at least 1")
    column = residue(j, n)
    key = (n, k, column)
    if key not in _CORE_CACHE:
        _CORE_CACHE[key] = _BirepCore(n, k, column)
    core = _CORE_CACHE[key]
    objects = ([ObjectSlot("N", i) for i in range(1, n + 1)]
               + [ObjectSlot("M", i) for i in range(1, n + 1)])
    return FinitaryBirep(n, k, column, frozenset(), objects,
                         dict(core.action), core)


def _merge_groups(n: int, contracted: FrozenSet[int]):
    """Old-position groups for each new object, in the new object order."""
    groups = []
    slots = []
    for i in range(1, n + 1):
        if i in contracted:
            groups.append([i - 1, n + i - 1])
            slots.append(ObjectSlot("O", i))
        else:
            groups.append([i - 1])
            slots.append(ObjectSlot("N", i))
    for i in range(1, n + 1):
        if i not in contracted:
            groups.append([n + i - 1])
            slots.append(ObjectSlot("M", i))
    return slots, groups


def localize(b: FinitaryBirep, spec: LocalizationSpec) -> FinitaryBirep:
    """Contract the arrows of the given components.

    Contractions accumulate: localizing an already localized birep works
    from the union of the two index sets, rebuilt from the uncontracted
    data.  The stability of the contracted collection is checked first;
    every image component must be an isomorphism, a multiple of a
    contracted arrow, or zero.
    """
    extra = spec.contract
    bad = [i for i in extra if not 1 <= i <= b.n]
    if bad:
        raise ValueError(f"component indices out of range: {sorted(bad)}")
    total = b.contracted | extra
    if total == b.contracted:
        return b
    if b.core is None:
        raise ValueError("this birep carries no morphism-level data")
    core = b.core

    for i in sorted(total):
        for u in core.generators:
            if u.j != i:
                continue  # u acts by zero on this component's arrow
            # the image morphism has a single component, a scalar times
            # the identity of the target object: an isomorphism when the
            # scalar is nonzero and the zero map otherwise; any other
            # shape would be a stability failure
            core.arrow_scalar(u)

    slots, groups = _merge_groups(b.n, total)
    size = len(groups)
    new_pos = {old: new for new, group in enumerate(groups) for old in group}
    pairs = [group for group in groups if len(group) > 1]
    action = {}
    for u in core.generators:
        entries = core.action_entries[u]
        columns: Dict[int, Dict[int, int]] = {}
        for r, c, m in entries:
            columns.setdefault(c, {})[r] = m
        for a, c in pairs:
            if columns.get(a) != columns.get(c):
                raise StabilityError(
                    "cannot contract a pair whose columns act differently")
        # rows are summed over the group; columns are identical, so the
        # group's first one is kept
        action[u] = ExactMatrix.from_entries(
            size, size, [(new_pos[r], new_pos[c], m) for r, c, m in entries
                         if groups[new_pos[c]][0] == c])
    return FinitaryBirep(b.n, b.k, b.column, total, slots, action, core)


def action_matrix(b: FinitaryBirep, u: StringLabel) -> ExactMatrix:
    """The object-level matrix of a cell generator."""
    lab = u.normalized(b.n)
    if lab.family not in "WSNM" or lab.k != b.k:
        raise ValueError(f"{u} lies outside the apex of this birep")
    return b.action_obj[lab]


def is_simple_transitive(b: FinitaryBirep) -> bool:
    """Transitivity of the object action plus absence of stable ideals.

    Transitivity asks every entry of the total action matrix to be
    positive.  For simplicity, the arrow of each surviving component s
    must generate an ideal that contains the identity of some object.
    ``arrow_scalar`` sends the arrow, under each generator from column s,
    to a scalar multiple of an identity, and raises CartanError for any
    other shape; so the ideal contains an identity exactly when one of
    those scalars is nonzero.  Every such scalar is computed, so every
    shape check runs.
    """
    total = b._action_support()
    if any(total.get(idx, ZERO) < ONE for idx in range(b.rank * b.rank)):
        return False

    survivors = [i for i in range(1, b.n + 1) if i not in b.contracted]
    if not survivors:
        return True
    if b.core is None:
        raise ValueError("this birep carries no morphism-level data")
    scalars = [(u.j, b.core.arrow_scalar(u)) for u in b.core.generators
               if u.j in survivors]
    return all(any(lam for j, lam in scalars if j == s) for s in survivors)


@dataclass
class ClassificationReport:
    """Every subset of contracted components with rank and verdicts."""

    n: int
    k: int
    entries: List[dict]
    counts: Dict[int, int]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "entries": self.entries,
            "counts": {str(r): c for r, c in sorted(self.counts.items())},
        }


def classify(n: int, k: int) -> ClassificationReport:
    """Localize by every subset of components and tally ranks.

    The fingerprints of distinct subsets must all differ; a collision
    would break the classification and raises instead of reporting.
    """
    base = cell_birep(n, k, 1)
    entries = []
    seen_prints = {}
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            loc = localize(base, LocalizationSpec(combo))
            print_ = loc.fingerprint()
            key = tuple(print_)
            if key in seen_prints:
                raise RuntimeError(
                    f"fingerprint collision between {seen_prints[key]} "
                    f"and {combo}")
            seen_prints[key] = combo
            entries.append({
                "I": list(combo),
                "rank": loc.rank,
                "simple_transitive": is_simple_transitive(loc),
                "fingerprint": print_,
            })
    counts = Counter(e["rank"] for e in entries)
    return ClassificationReport(n, k, entries, dict(counts))


def _component_blocks(b: FinitaryBirep) -> List[List[int]]:
    """Object positions by component, N/O row first, M row second."""
    blocks = []
    for i in range(1, b.n + 1):
        if i in b.contracted:
            blocks.append([b.object_index("O", i)])
        else:
            blocks.append([b.object_index("N", i), b.object_index("M", i)])
    return blocks


def verify_block_structure(b: FinitaryBirep) -> dict:
    """Check the block shape of every generator matrix and of the total.

    Each generator has a single nonzero block, at its anchor's component
    pair, equal to one of four patterns depending on which of the two
    components are contracted and on whether the family keeps a bottom
    bar.  The total matrix squares to 4n times itself.
    """
    n = b.n
    blocks = _component_blocks(b)
    failures: List[str] = []

    for u in b.generator_labels():
        mat = b.action_obj[u]
        r, s = u.i, u.j
        inside = {(a, c) for a in blocks[r - 1] for c in blocks[s - 1]}
        for a in range(mat.rows):
            for c in range(mat.cols):
                if (a, c) not in inside and mat.get(a, c) != ZERO:
                    failures.append(f"{u}: entry outside block at {(a, c)}")
        got = [[int(mat.get(a, c)) for c in blocks[s - 1]]
               for a in blocks[r - 1]]
        top = u.family in "WN"
        if r in b.contracted and s in b.contracted:
            want = [[1]]
        elif r in b.contracted:
            want = [[1, 1]]
        elif s in b.contracted:
            want = [[1], [0]] if top else [[0], [1]]
        else:
            want = [[1, 1], [0, 0]] if top else [[0, 0], [1, 1]]
        if got != want:
            failures.append(f"{u}: block {got}, expected {want}")

    f = b.f_matrix()
    trace = sum((f.get(i, i) for i in range(f.rows)), ZERO)
    f_entries_positive = all(f.get(r, c) >= ONE
                             for r in range(f.rows) for c in range(f.cols))
    f_squares = f.mul(f) == f.scale(Fraction(4 * n))
    if trace != 4 * n:
        failures.append(f"total matrix trace {trace}, expected {4 * n}")
    if not f_entries_positive:
        failures.append("total matrix has a non-positive entry")
    if not f_squares:
        failures.append("total matrix does not square to 4n times itself")

    diagonal_ok = True
    for block in blocks:
        sub = ExactMatrix.from_rows(
            [[f.get(a, c) for c in block] for a in block])
        if sub.mul(sub) != sub.scale(Fraction(4)):
            diagonal_ok = False
            failures.append("diagonal block of the total matrix is not "
                            "idempotent up to the factor 4")

    idem_ok, nilpotent_ok = True, True
    for u in b.generator_labels():
        mat = b.action_obj[u]
        if u.i == u.j:
            if mat.mul(mat) != mat:
                idem_ok = False
                failures.append(f"{u}: diagonal generator not idempotent")
            diag_ones = sum(1 for a in range(mat.rows)
                            if mat.get(a, a) == ONE)
            if diag_ones != 1:
                idem_ok = False
                failures.append(f"{u}: {diag_ones} diagonal units")
        else:
            if not mat.mul(mat).is_zero():
                nilpotent_ok = False
                failures.append(f"{u}: off-diagonal generator not nilpotent")

    return {
        "n": n,
        "k": b.k,
        "contracted": sorted(b.contracted),
        "f_trace": int(trace),
        "f_entries_positive": f_entries_positive,
        "f_squares_to_4n": f_squares,
        "diagonal_blocks_ok": diagonal_ok,
        "idempotent_diagonals_ok": idem_ok,
        "nilpotent_off_diagonals_ok": nilpotent_ok,
        "failures": failures,
        "ok": not failures,
    }


def verify_adjunction_consequences(b: FinitaryBirep) -> dict:
    """Matrix-level consequences of the adjunctions between generators.

    The families without a bottom bar act alike, as do the two with one;
    and the Cartan matrix must show a single merged object exactly at the
    contracted components.
    """
    failures: List[str] = []
    for r in range(1, b.n + 1):
        for s in range(1, b.n + 1):
            if b.action_obj[StringLabel("N", r, s, b.k)] != \
               b.action_obj[StringLabel("W", r, s, b.k)]:
                failures.append(f"N and W matrices differ at {r}|{s}")
            if b.action_obj[StringLabel("S", r, s, b.k)] != \
               b.action_obj[StringLabel("M", r, s, b.k)]:
                failures.append(f"S and M matrices differ at {r}|{s}")
    pairs_ok = not failures

    cartan = b.cartan()
    cartan_ok = True
    off = {(b.object_index("M", i), b.object_index("N", i))
           for i in range(1, b.n + 1) if i not in b.contracted}
    for a in range(cartan.rows):
        for c in range(cartan.cols):
            want = ONE if a == c or (a, c) in off else ZERO
            if cartan.get(a, c) != want:
                cartan_ok = False
                failures.append(f"Cartan entry {(a, c)} is {cartan.get(a, c)}")
    for i in range(1, b.n + 1):
        a1 = i in b.contracted
        slots = [s for s in b.objects if s.component == i]
        if a1 != (len(slots) == 1):
            cartan_ok = False
            failures.append(f"component {i} has {len(slots)} objects")

    return {
        "matrix_pairs_ok": pairs_ok,
        "cartan_ok": cartan_ok,
        "contracted": sorted(b.contracted),
        "failures": failures,
        "ok": not failures,
    }
