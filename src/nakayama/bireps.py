"""Birepresentations carried by a valley cell, and their localizations.

The objects are the members of one left-cell column: the strings with a
left bar, in the order N_1 .. N_n, M_1 .. M_n.  Tensoring with a cell
member permutes these objects up to summands in greater cells, which the
quotient hom spaces kill.  Contracting the arrows M_i -> N_i for a chosen
set of components produces the localized birepresentations; ranging over
all subsets gives the full classification.

Rotating the cyclic quiver is an automorphism of the algebra, so moving
every anchor along the torus moves every product, hom space and trace
with it.  A row shift maps the column's objects onto themselves, and a
generator at r|s is the one at 1|1 moved by (r - 1, s - 1).  So the core
works on one representative per translation orbit and shifts positions
for the rest: the object action of the four generators at 1|1, the
quotient hom spaces out of N_1 and M_1, and the arrow scalar of each
family at 1|1 on the arrow of component 1.

A column shift moves the birep on column 1 onto every other column, so
one core per (n, k), built whole on column 1, is shared by them all, and
nothing on it changes after that.  Its one form of the action is one 2x2
int block per family at 1|1, rows and columns N_1, M_1.  Each generator
at r|s acts by its family's block at components r and s, merged by one
rule according to which of the two are contracted.
Localizing lays the merged blocks out as a birep's matrices, sorted int
(row, column, multiplicity) triples; classifying reads the merged blocks
alone, without laying out any localization.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .algebras import project, residue
from .bimodules import (
    Bimodule,
    BimoduleMap,
    HomSpace,
    StringLabel,
    _walk,
    composite_trace,
    construct,
    trace_pairing,
)
from .decomposition import _candidates, _label_sort_key, cell_of
from .decomposition import product_summands
from .linalg import sparse_rank, sparse_rref
from .tensoring import tensor_map


class CartanError(RuntimeError):
    """The computed hom data of a cell birep deviates from the expected
    disjoint-A2 shape.  Raising this means the implementation is wrong
    somewhere upstream, never that the inputs were."""


class StabilityError(RuntimeError):
    """A contraction collection failed its stability check."""


class QuotientHomSpace:
    """Hom space between two catalog bimodules, modulo the maps that
    factor through an indecomposable in a strictly greater cell.

    rows holds the coordinates, in space, of composites through greater
    objects; their span is the subspace divided out.
    """

    def __init__(self, space: HomSpace, rows: List[Dict[int, Fraction]]):
        self.space = space
        self._reduced, self._pivots = sparse_rref(rows, space.dim)

    @property
    def dim(self) -> int:
        return self.space.dim - len(self._pivots)

    def is_radical(self, f: BimoduleMap) -> bool:
        """Whether f lies in the subspace divided out: reduced by the
        echelon rows, its coordinates vanish."""
        vec = list(self.space.coords_of(f))
        for row, p in zip(self._reduced, self._pivots):
            c = vec[p]
            if c:
                for col, v in row.items():
                    vec[col] -= c * v
        return not any(vec)


def quotient_hom_spaces(modules: Sequence[Bimodule],
                        greater: Iterable[Bimodule],
                        sources: Iterable[int]
                        ) -> Dict[Tuple[int, int], QuotientHomSpace]:
    """The quotient hom space from each source to every module, keyed by
    the pair of indices into modules; sources lists the source indices.

    A factorization through a direct sum refines to ones through single
    summands, so greater lists the indecomposables of the greater cells.
    Each is visited once: the homs into it from every source that shares
    a vertex with it and, if any is nonzero, the homs out of it; each
    composite goes onto the rows of its pair.
    """
    sources = list(sources)
    spaces = {(a, b): HomSpace(modules[a], y) for a in sources
              for b, y in enumerate(modules)}
    rows: Dict[Tuple[int, int], List[Dict[int, Fraction]]] = {
        pair: [] for pair in spaces}
    for z in greater:
        # modules with no common vertex have only the zero map
        into = {a: [] if z.dims.keys().isdisjoint(modules[a].dims)
                else HomSpace(modules[a], z).maps for a in sources}
        if not any(into.values()):
            continue
        out_of = [[] if z.dims.keys().isdisjoint(y.dims)
                  else HomSpace(z, y).maps for y in modules]
        for a, hs in into.items():
            for b, gs in enumerate(out_of):
                space = spaces[(a, b)]
                for g in gs:
                    for h in hs:
                        coords = space.coords_of(g.compose(h))
                        row = {c: v for c, v in enumerate(coords) if v}
                        if row:
                            rows[(a, b)].append(row)
    return {pair: QuotientHomSpace(space, rows[pair])
            for pair, space in spaces.items()}


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
        for v in (project(p, n) for p in points):
            yield v, seen[v]
            seen[v] += 1

    entries: Dict[tuple, List[Tuple[int, int, Fraction]]] = {}
    for (v_m, l_m), (v_n, l_n) in zip(layout(pts_m), layout(pts_n)):
        if v_m != v_n:
            raise CartanError(
                f"the walks of {m_label} and {n_label} part at {v_m} and {v_n}")
        entries.setdefault(v_m, []).append((l_n, l_m, 1))
    out = BimoduleMap(src, tgt, entries)
    out.check()
    return out


ActionEntries = Tuple[Tuple[int, int, int], ...]
# a family's action on component 1: rows N_1, M_1 by columns N_1, M_1
Block = Tuple[Tuple[int, int], Tuple[int, int]]


def _shift(p: int, d: int, n: int) -> int:
    """Object position p moved d components along its N or M half."""
    return p - p % n + (p + d) % n


class _BirepCore:
    """Shared data behind the bireps of one (n, k), on column 1: object
    bimodules, quotient hom spaces, the canonical arrow, the generators,
    the block of each family at 1|1, their uncontracted action as integer
    triples, the arrow scalar of every generator, and per column whether
    one of them is nonzero.  All of it is computed and checked when built
    and is read-only after that, so one core can be shared by every caller.

    Everything is computed on one representative per translation orbit.
    Rotating the quiver is an algebra automorphism; moved by (d, 0) along
    the torus, the column's objects are the same objects with positions
    shifted by d in each half.  So:

    - u at r|s acts by its family's block at 1|1, held in ``blocks``,
      moved to rows N_r, M_r and columns N_s, M_s; a generator at 1|1
      with an entry outside rows and columns N_1, M_1 is refused;
    - the quotient hom space of (a + d, b + d) is that of (a, b), so only
      the pairs out of N_1 and M_1 are built, and ``qhom`` reads the rest;
    - u at r|s (x) alpha_s is u at 1|s (x) alpha_s moved by (r - 1, 0),
      and u at 1|s (x) M_{s|j} is u at 1|1 (x) M_{1|j} with the middle
      index of the tensor rotated, so every arrow scalar of a family is
      the trace ratio of its generator at 1|1 on alpha_1, the one
      canonical arrow built."""

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.object_labels = tuple(StringLabel(f, i, 1, k).normalized(n)
                                   for f in "NM" for i in range(1, n + 1))
        self.modules = tuple(construct(lab, n) for lab in self.object_labels)
        self.position = MappingProxyType(
            {lab: p for p, lab in enumerate(self.object_labels)})

        # quotient_hom_spaces skips every greater object that meets
        # neither source, so only those that meet N_1 or M_1 are built
        support = self.modules[0].dims | self.modules[n].dims
        self.qhoms = MappingProxyType(quotient_hom_spaces(
            self.modules,
            [x for _, x in _candidates(n, k - 1, support, fit=False)],
            (0, n)))
        self._assert_cartan()

        self.alpha = _canonical_epi(self.object_labels[n],
                                    self.object_labels[0], n)
        if self.qhoms[(n, 0)].is_radical(self.alpha):
            raise CartanError(f"canonical arrow 1 is radical at n={n}, k={k}")

        self.generators = tuple(sorted(
            (StringLabel(f, r, s, k).normalized(n)
             for f in "WSNM"
             for r in range(1, n + 1)
             for s in range(1, n + 1)),
            key=_label_sort_key))
        self.blocks = MappingProxyType(
            {f: self._block(StringLabel(f, 1, 1, k)) for f in "WSNM"})
        self.action_entries = MappingProxyType(_layout(self, frozenset()))
        self.scalars = MappingProxyType(self._arrow_scalars())
        self.verdicts = MappingProxyType({
            s: any(lam for u, lam in self.scalars.items() if u.j == s)
            for s in range(1, n + 1)})

    def qhom(self, a: int, b: int) -> QuotientHomSpace:
        """The quotient hom space of objects a and b, read from the pair
        the row shift taking a to N_1 or M_1 gives; its maps run between
        those two objects."""
        d = a % self.n
        return self.qhoms[(a - d, _shift(b, -d, self.n))]

    @property
    def contractible(self) -> FrozenSet[int]:
        """Every component when each family's block has equal N and M
        columns, and none otherwise: the four blocks decide them all."""
        alike = all(nn == m for block in self.blocks.values()
                    for nn, m in block)
        return frozenset(range(1, self.n + 1) if alike else ())

    def _assert_cartan(self):
        n = self.n
        for a in range(2 * n):
            for b in range(2 * n):
                want = 1 if (a == b or a == b + n) else 0
                got = self.qhom(a, b).dim
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

    def _block(self, u: StringLabel) -> Block:
        """The action of u, a generator at 1|1, as its block on component
        1; an entry in any other row or column is refused."""
        n = self.n
        block = [[0, 0], [0, 0]]
        for r, c, m in self._object_action(u):
            if r % n or c % n:
                raise CartanError(
                    f"{u} has entry {(r, c)} outside the block of "
                    f"{self.object_labels[0]} and {self.object_labels[n]}")
            block[r // n][c // n] = m
        return (tuple(block[0]), tuple(block[1]))

    def _arrow_scalars(self) -> Dict[StringLabel, Fraction]:
        """The scalar by which each generator acts on the arrow of its
        source column.

        phi = u (x) alpha_s, for the arrow M_s -> N_s of u's column s, joins
        two copies of the valley-cell object y that the action puts in one
        row of both columns; y pairs to rank 1 with each end.  The scalar
        is tr(pi phi sigma) / tr(pi sigma'): sigma and sigma' are the first
        maps from y to the M and N ends that pair nonzero, and pi the first
        map back that sigma' pairs with.  End(y) is local, and by
        ``_assert_cartan`` its greater-cell ideal, of codimension 1, is the
        radical, whose maps are nilpotent and have trace 0; so each trace
        is dim y times an identity coefficient, and the ratio is that of
        the split-pair composite (pi sigma')^-1 pi phi sigma.

        Each family's block is checked for that shape once: its N and M
        columns are equal, and both are the unit vector of y, N_1 or M_1.
        The trace ratio, taken on the family's generator at 1|1 and
        alpha_1, is the scalar of all its generators, as the class
        docstring explains.  Each distinct (y, end) has its relations and
        its rank-1 pairing with y checked once."""
        n = self.n
        traces: Dict[str, Fraction] = {}
        ends: Dict[Tuple[int, Bimodule], tuple] = {}
        for family, block in self.blocks.items():
            base = StringLabel(family, 1, 1, self.k)
            column = [nn for nn, _ in block]
            if [m for _, m in block] != column or sorted(column) != [0, 1]:
                raise CartanError(
                    f"{base} (x) arrow 1 does not join two copies of one "
                    f"valley-cell summand: block {block}")
            y = n * column.index(1)
            phi = tensor_map(construct(base, n), self.alpha)
            for t in (phi.source, phi.target):
                if (y, t) not in ends:
                    t.check_relations()
                    sigmas, pis, g = trace_pairing(self.modules[y], t)
                    if (mult := sparse_rank(g, len(pis))) != 1:
                        raise CartanError(
                            f"{self.object_labels[y]} occurs {mult} "
                            f"times in {base} (x) the ends of arrow 1")
                    a, row = next((a, row) for a, row in enumerate(g) if row)
                    ends[(y, t)] = (sigmas, pis, a, row)
            (sigmas, _, a, _), (_, pis, _, row) = (
                ends[(y, phi.source)], ends[(y, phi.target)])
            b = min(row)
            traces[family] = Fraction(composite_trace(pis, b, phi, sigmas, a),
                                       row[b])
        return {u: traces[u.family] for u in self.generators}


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


def _dense(size: int, triples: Iterable[Tuple[int, int, int]]
           ) -> List[List[int]]:
    """The size x size int matrix, as a list of rows, with the given
    (row, col, value) entries; values at a repeated position add up."""
    out = [[0] * size for _ in range(size)]
    for r, c, m in triples:
        if not (0 <= r < size and 0 <= c < size):
            raise ValueError(f"action entry {(r, c)} outside {size}x{size}")
        out[r][c] += m
    return out


def _matmul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    """The product of two int matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


@dataclass
class FinitaryBirep:
    """A birepresentation of the k-valley cell on one left-cell column.

    contracted lists the components whose arrow was inverted; their two
    objects merged into a single O slot.  The object order is the N/O
    slots for components 1..n followed by the surviving M slots.

    action, the only stored form, maps each generator to the sorted
    (row, col, multiplicity) ints of its matrix; every matrix a birep
    reports or checks is laid out from these as int lists.
    """

    n: int
    k: int
    column: int
    contracted: FrozenSet[int]
    objects: List[ObjectSlot]
    action: Mapping[StringLabel, ActionEntries]
    core: _BirepCore = field(repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.action, MappingProxyType):
            self.action = MappingProxyType(dict(self.action))

    @property
    def rank(self) -> int:
        return len(self.objects)

    def object_index(self, kind: str, component: int) -> int:
        for pos, slot in enumerate(self.objects):
            if slot.kind == kind and slot.component == component:
                return pos
        raise KeyError(f"no object {kind}_{component}")

    def generator_labels(self) -> List[StringLabel]:
        return sorted(self.action, key=_label_sort_key)

    def f_matrix(self) -> List[List[int]]:
        """The total action matrix, the sum over every generator."""
        return _dense(self.rank, itertools.chain.from_iterable(
            self.action.values()))

    def cartan(self) -> List[List[int]]:
        units = [(p, p, 1) for p in range(self.rank)]
        arrows = [(self.object_index("M", i), self.object_index("N", i), 1)
                  for i in range(1, self.n + 1) if i not in self.contracted]
        return _dense(self.rank, units + arrows)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "j": self.column,
            "contracted": sorted(self.contracted),
            "rank": self.rank,
            "objects": [slot.name for slot in self.objects],
            "cartan": self.cartan(),
            "action": {u.literal(): _dense(self.rank, self.action[u])
                       for u in self.generator_labels()},
        }


def cell_birep(n: int, k: int, j: int = 1) -> FinitaryBirep:
    """The birepresentation carried by the k-valley cell on column j.

    Objects are the left-bar strings of that column; hom spaces are
    quotients by maps factoring through greater cells, and every column
    shares the one core of (n, k).  Construction fails loudly if the hom
    data does not come out as n disjoint A2 quivers, since everything
    downstream depends on that shape.
    """
    if k < 1:
        raise ValueError("the valley count k must be at least 1")
    if (n, k) not in _CORE_CACHE:
        _CORE_CACHE[(n, k)] = _BirepCore(n, k)
    core = _CORE_CACHE[(n, k)]
    return FinitaryBirep(n, k, residue(j, n), frozenset(),
                         _slots(n, frozenset()), core.action_entries, core)


def _merged(block: Block, row_contracted: bool,
            col_contracted: bool) -> Tuple[Tuple[int, ...], ...]:
    """A family's block at a component pair: a contracted row component
    adds its two rows, and a contracted column component keeps its first
    column, which the stability check found equal to the second."""
    rows = [tuple(map(sum, zip(*block)))] if row_contracted else block
    return tuple(row[:1] if col_contracted else row for row in rows)


def _slots(n: int, contracted: FrozenSet[int]) -> List[ObjectSlot]:
    """The objects after contracting: the N or O slot of each component,
    then the surviving M slots."""
    return ([ObjectSlot("O" if i in contracted else "N", i)
             for i in range(1, n + 1)]
            + [ObjectSlot("M", i) for i in range(1, n + 1)
               if i not in contracted])


def _layout(core: _BirepCore, contracted: FrozenSet[int]
            ) -> Dict[StringLabel, ActionEntries]:
    """Each generator's merged block placed at the object positions of its
    two components, as sorted (row, col, multiplicity) triples."""
    n = core.n
    m_positions = itertools.count(n)
    places = [(i - 1,) if i in contracted else (i - 1, next(m_positions))
              for i in range(1, n + 1)]
    action = {}
    for u in core.generators:
        block = _merged(core.blocks[u.family], u.i in contracted,
                        u.j in contracted)
        action[u] = tuple((r, c, m)
                          for r, row in zip(places[u.i - 1], block)
                          for c, m in zip(places[u.j - 1], row) if m)
    return action


def _check_stable(contractible: FrozenSet[int],
                  contracted: FrozenSet[int]) -> None:
    """Refuse to contract a component whose two columns act differently."""
    unequal = contracted - contractible
    if unequal:
        raise StabilityError(
            f"cannot contract components {sorted(unequal)}, whose two "
            "columns act differently")


def localize(b: FinitaryBirep, contract: Iterable[int]) -> FinitaryBirep:
    """Contract the arrows of the given set of components.

    Contractions accumulate: localizing an already localized birep works
    from the union of the two index sets, laid out afresh from the core's
    blocks.  The stability of the contracted collection is checked first:
    the two columns of each contracted pair must act alike.  Every image
    component must also be an isomorphism, a multiple of a contracted
    arrow, or zero: under each generator of a column the image of its
    arrow is a scalar times the identity of one object, a shape the core
    checked on every family's block when it was built.
    """
    extra = frozenset(contract)
    bad = sorted(i for i in extra if not 1 <= i <= b.n)
    if bad:
        raise ValueError(f"component indices out of range 1..{b.n}: {bad}")
    total = b.contracted | extra
    if total == b.contracted:
        return b
    _check_stable(b.core.contractible, total)
    return FinitaryBirep(b.n, b.k, b.column, total, _slots(b.n, total),
                         _layout(b.core, total), b.core)


def is_simple_transitive(b: FinitaryBirep) -> bool:
    """Transitivity of the object action plus absence of stable ideals.

    Transitivity asks every entry of the total action matrix to be
    positive.  For simplicity, the arrow of each surviving component s
    must generate an ideal that contains the identity of some object.
    A generator from column s sends it to a scalar times an identity plus
    a radical map of trace 0; the core read every such scalar as a trace
    ratio when it was built, refusing any other shape, so the ideal has
    an identity exactly when the core's verdict for column s holds.
    """
    if any(e < 1 for row in b.f_matrix() for e in row):
        return False

    return all(b.core.verdicts[s] for s in range(1, b.n + 1)
               if s not in b.contracted)


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
    """Every subset of components with its localization's rank, verdict
    and fingerprint, read off the merged family blocks, and the tally.

    In a localization each generator at r|s acts by its family's block
    merged by whether r and whether s is contracted, so the four blocks
    merged in each of those four states decide every subset.  Distinct
    subsets must have distinct fingerprints; a collision would break the
    classification and raises instead of reporting.
    """
    core = cell_birep(n, k).core
    contractible = core.contractible
    alike, covers = {}, {}
    for state in itertools.product((False, True), repeat=2):
        merged = {f: _merged(block, *state) for f, block in core.blocks.items()}
        # a row is in the fingerprint when M and N merge alike against
        # every column state present; the localization is transitive when
        # the merged total is at least 1 on every pair of states present
        alike[state] = merged["M"] == merged["N"]
        covers[state] = all(sum(es) >= 1 for rows in zip(*merged.values())
                            for es in zip(*rows))
    # a subset is simple only if it contracts every column whose verdict
    # fails
    failing = {s for s in range(1, n + 1) if not core.verdicts[s]}
    entries = []
    seen_prints = {}
    for size in range(n + 1):
        # the states present, those of the first size components
        # contracted, are the same for every subset of this size
        present = {s <= size for s in range(1, n + 1)}
        # whether a row in each state present is in the fingerprint
        kept = {a: all(alike[(a, c)] for c in present) for a in present}
        transitive = all(covers[(a, c)] for a in present for c in present)
        for combo in itertools.combinations(range(1, n + 1), size):
            contracted = frozenset(combo)
            _check_stable(contractible, contracted)
            print_ = [r for r in range(1, n + 1) if kept[r in contracted]]
            key = tuple(print_)
            if key in seen_prints:
                raise RuntimeError(
                    f"fingerprint collision between {seen_prints[key]} "
                    f"and {combo}")
            seen_prints[key] = combo
            entries.append({
                "I": list(combo),
                "rank": 2 * n - size,
                "simple_transitive": transitive and failing <= contracted,
                "fingerprint": print_,
            })
    counts = Counter(e["rank"] for e in entries)
    return ClassificationReport(n, k, entries, dict(counts))


def _component_blocks(b: FinitaryBirep) -> List[List[int]]:
    """Object positions by component, N/O row first, M row second."""
    return [[b.object_index("O", i)] if i in b.contracted
            else [b.object_index("N", i), b.object_index("M", i)]
            for i in range(1, b.n + 1)]


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
        r, s = u.i, u.j
        entries = {(a, c): m for a, c, m in b.action[u]}
        failures += [f"{u}: entry outside block at {(a, c)}"
                     for a, c in entries
                     if a not in blocks[r - 1] or c not in blocks[s - 1]]
        got = [[entries.get((a, c), 0) for c in blocks[s - 1]]
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
    trace = sum(f[i][i] for i in range(b.rank))
    f_entries_positive = all(e >= 1 for row in f for e in row)
    f_squares = _matmul(f, f) == [[4 * n * e for e in row] for row in f]
    if trace != 4 * n:
        failures.append(f"total matrix trace {trace}, expected {4 * n}")
    if not f_entries_positive:
        failures.append("total matrix has a non-positive entry")
    if not f_squares:
        failures.append("total matrix does not square to 4n times itself")

    diagonal_ok = True
    for block in blocks:
        sub = [[f[a][c] for c in block] for a in block]
        if _matmul(sub, sub) != [[4 * e for e in row] for row in sub]:
            diagonal_ok = False
            failures.append("diagonal block of the total matrix is not "
                            "idempotent up to the factor 4")

    # a generator has few triples (at most four in a cell birep), so it is
    # squared from them; Counters compare with a missing entry read as 0
    idem_ok, nilpotent_ok = True, True
    for u in b.generator_labels():
        mat, square = Counter(), Counter()
        for r, c, m in b.action[u]:
            mat[(r, c)] += m
            for c2, d, m2 in b.action[u]:
                if c2 == c:
                    square[(r, d)] += m * m2
        if u.i == u.j:
            if square != mat:
                idem_ok = False
                failures.append(f"{u}: diagonal generator not idempotent")
            diag_ones = sum(1 for (r, c), m in mat.items()
                            if r == c and m == 1)
            if diag_ones != 1:
                idem_ok = False
                failures.append(f"{u}: {diag_ones} diagonal units")
        else:
            if any(square.values()):
                nilpotent_ok = False
                failures.append(f"{u}: off-diagonal generator not nilpotent")

    return {
        "n": n,
        "k": b.k,
        "contracted": sorted(b.contracted),
        "f_trace": trace,
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
            for one, other in (("N", "W"), ("S", "M")):
                if b.action[StringLabel(one, r, s, b.k)] != \
                   b.action[StringLabel(other, r, s, b.k)]:
                    failures.append(
                        f"{one} and {other} matrices differ at {r}|{s}")
    pairs_ok = not failures

    cartan = b.cartan()
    cartan_ok = True
    off = {(b.object_index("M", i), b.object_index("N", i))
           for i in range(1, b.n + 1) if i not in b.contracted}
    for a, row in enumerate(cartan):
        for c, got in enumerate(row):
            if got != (1 if a == c or (a, c) in off else 0):
                cartan_ok = False
                failures.append(f"Cartan entry {(a, c)} is {got}")
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
