"""Left, right, and two-sided cell structure of the string catalog.

The catalog members are partially ordered by divisibility of tensor
products: F lies below G on the left when G is a summand of some H (x) F,
and below on the right when G is a summand of some F (x) H.  H ranges
over the catalog itself, which is closed under taking summands of
products within the computed valley range, so no relation between
catalog members is missed.  Band-type bimodules (the regular bimodule
among them) sit strictly below everything listed here and are excluded.

Mutual comparability carves the catalog into left cells, right cells,
and two-sided cells; the two-sided cells form a chain.  Each two-sided
cell is named by its computed position in the chain, and
``compute_cells`` raises unless that is the position the valley count
of every member predicts.

Products are equivariant under independent row and column shifts, so
both the products and the closures work on translation orbits.  Each
canonical product (two kinds and an offset) is looked up once, and its
in-catalog summands become steps between states: the left steps of a
node depend only on its kind (family, k) and column, and reach whole
columns; the right steps depend on its kind and row, and reach whole
rows.  Reachability on these states is found once per kind, from column
or row 1, and moved along the torus.  Every two-sided cell is a union of
whole kinds, so the two-sided classes and their order are read off the
kinds each kind reaches, and a class is expanded to its nodes only for
output.  Each factor of a canonical product is built once, a zero product
builds no module, and products equal as bimodules are decomposed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import Callable, FrozenSet, List, Sequence, Set, Tuple

from .algebras import residue
from .bimodules import StringLabel, catalog_labels, construct
from .decomposition import (
    _summands,
    canonical_summands,
    cell_chain_position,
    cell_name,
    cell_of,
    chain_cell,
)

BAND_NOTE = "band-type bimodules lie below every listed cell and are not enumerated"


# A kind is a (family, k) pair, numbered in catalog order.  Node
# kind * n * n + i * n + j is the label of that kind at (i + 1)|(j + 1),
# which is where ``catalog_labels`` lists it.  A column state (kind, j)
# stands for the n nodes of that kind in column j, a row state (kind, i)
# for the n nodes in row i.  The left steps of a kind are the column
# states one left step reaches from its nodes in column 0; from column j
# each is moved by j.  Right steps work the same way on rows.
Steps = Sequence[Set[Tuple[int, int]]]


def _product_steps(labels: Sequence[StringLabel],
                   n: int) -> Tuple[List[set], List[set]]:
    """The left and right steps of each kind of a catalog, read off its
    canonical products.

    For U of one kind anchored at i|j and V of another at r|s, the
    product depends on the kinds and on e = j - r + 1 only, up to the
    shift of every summand by (i-1, s-1).  With V at column 1 and U on
    every row, a summand in column c is a left step of V's kind to the
    column state c - 1; with U at row 1 and V on every column, a summand
    in row r is a right step of U's kind to the row state r - 1.  Each
    kind is built once at each 1|e, as U at offset e and, at e = 1, as V.
    """
    kinds = list(dict.fromkeys((x.family, x.k) for x in labels))
    number = {kind: a for a, kind in enumerate(kinds)}
    at = [[construct(StringLabel(fam, 1, e, k), n) for e in range(1, n + 1)]
          for fam, k in kinds]
    left: List[set] = [set() for _ in kinds]
    right: List[set] = [set() for _ in kinds]
    for a, (_, k_u) in enumerate(kinds):
        for b, (_, k_v) in enumerate(kinds):
            bound = max(k_u or 0, k_v or 0, 1)
            for x in at[a]:
                for lab in _summands(x, at[b][0], bound):
                    g = number.get((lab.family, lab.k))
                    # Summands below the valley bound lie in deeper cells
                    # and carry no information about the catalog range.
                    if g is not None:
                        left[b].add((g, lab.j - 1))
                        right[a].add((g, lab.i - 1))
    return left, right


def _state_reach(steps: Steps, n: int) -> List[FrozenSet[Tuple[int, int]]]:
    """The states that one or more steps reach from each kind's state 0.

    A state (kind, t) reaches the states of its kind's state 0 moved by t.
    """
    reach = []
    for kind in range(len(steps)):
        seen = set(steps[kind])
        frontier = list(seen)
        while frontier:
            g, t = frontier.pop()
            for h, d in steps[g]:
                state = (h, (t + d) % n)
                if state not in seen:
                    seen.add(state)
                    frontier.append(state)
        reach.append(frozenset(seen))
    return reach


def _line_classes(reach: Sequence[FrozenSet[Tuple[int, int]]], n: int,
                  node: Callable[[int, int, int], int]) -> List[List[int]]:
    """The classes of nodes that reach each other by steps of one side.

    ``node(kind, t, o)`` is the o-th node of state (kind, t).  The nodes
    of the states in one strongly connected set of states on a cycle form
    one class; a node of a state on no cycle is a class of its own.
    """
    classes = []
    placed = set()
    for kind, states in enumerate(reach):
        cyclic = (kind, 0) in states
        for t in range(n):
            if not cyclic:
                classes.extend([node(kind, t, o)] for o in range(n))
            elif (kind, t) not in placed:
                # (kind, t) reaches (g, t + d); (g, t + d) reaches back
                # when (kind, -d) is in g's reach
                strong = [(g, (t + d) % n) for g, d in states
                          if (kind, -d % n) in reach[g]]
                placed.update(strong)
                classes.append([node(g, u, o) for g, u in strong
                                for o in range(n)])
    return classes


def _orbit_cells(left_steps: Steps, right_steps: Steps, n: int):
    """Left, right and two-sided classes of the nodes, and the order of
    the two-sided ones.

    Returns ``(left, right, two_sided, above, total)``.  ``two_sided``
    lists each class, its nodes ascending, in the order of their least
    nodes; ``above`` holds the index pairs (a, b) where class a lies
    strictly above class b, and ``total`` is False when two classes are
    incomparable.

    Every reach is found once per kind and moved along the torus.  From
    a node, left steps reach column states and right steps row states.
    A right step out of a column state, or a left step out of a row
    state, reaches every node of a kind, and so does any step out of a
    whole kind.  When each kind's node at 0|0 reaches every node of its
    own kind, every node of a kind reaches every node of each kind that
    one of them reaches, so the two-sided classes are unions of kinds
    and read off the kinds' reach; RuntimeError otherwise.
    """
    size = n * n
    left_reach = _state_reach(left_steps, n)
    right_reach = _state_reach(right_steps, n)
    left = _line_classes(left_reach, n,
                         lambda kind, t, o: kind * size + o * n + t)
    right = _line_classes(right_reach, n,
                          lambda kind, t, o: kind * size + t * n + o)

    kinds = range(len(left_steps))
    reach = []  # the kinds that each kind reaches, itself included
    for kind in kinds:
        found = {h for g, _ in left_reach[kind] for h, _ in right_steps[g]}
        found |= {h for g, _ in right_reach[kind] for h, _ in left_steps[g]}
        frontier = list(found)
        while frontier:
            g = frontier.pop()
            for h, _ in chain(left_steps[g], right_steps[g]):
                if h not in found:
                    found.add(h)
                    frontier.append(h)
        # node 0|0 reaches node i|j of its kind through a whole kind, its
        # column state j or its row state i
        cols = [j for j in range(n) if (kind, j) not in left_reach[kind]]
        rows = [i for i in range(n) if (kind, i) not in right_reach[kind]]
        if kind not in found and any(i or j for i in rows for j in cols):
            raise RuntimeError(
                f"node 0|0 of kind {kind} does not reach every node of its "
                "kind, so the two-sided classes are not unions of kinds")
        reach.append(found | {kind} | {g for g, _ in left_reach[kind]}
                     | {g for g, _ in right_reach[kind]})

    classes: List[List[int]] = []  # the kinds of each class, ascending
    for kind in kinds:
        if all(kind not in cls for cls in classes):
            classes.append([g for g in kinds
                            if g in reach[kind] and kind in reach[g]])
    above = set()
    total = True
    for a, ca in enumerate(classes):
        for b, cb in enumerate(classes):
            if a == b:
                continue
            a_above_b = ca[0] in reach[cb[0]]
            b_above_a = cb[0] in reach[ca[0]]
            if a_above_b and not b_above_a:
                above.add((a, b))
            elif not a_above_b and not b_above_a:
                total = False
    two_sided = [[g * size + o for g in cls for o in range(size)]
                 for cls in classes]
    return left, right, two_sided, above, total


@dataclass
class CellStructure:
    """Cells of the catalog at a fixed size, with the two-sided order.

    ``two_sided_cells`` is sorted from the greatest cell down when the
    order is total (which it is for every computed instance; the
    ``chain_is_total`` flag records the check).  ``two_sided_order``
    holds every strict comparison as a (greater, lesser) pair of cell
    names.  The computation is catalog-relative: ``H`` in the defining
    divisibility conditions runs over catalog members only.
    """

    n: int
    max_valleys: int
    elements: List[StringLabel]
    left_cells: List[List[StringLabel]]
    right_cells: List[List[StringLabel]]
    two_sided_cells: List[List[StringLabel]]
    two_sided_order: List[Tuple[str, str]]
    chain_is_total: bool

    @property
    def cell_names(self) -> List[str]:
        """The name of each two-sided cell, read off its chain position."""
        return [cell_name(chain_cell(p))
                for p in range(len(self.two_sided_cells))]

    def chain(self) -> List[str]:
        """Cell names from greatest to least; requires a total order."""
        if not self.chain_is_total:
            raise ValueError("two-sided order is not total")
        return self.cell_names

    def cell_with_name(self, name: str) -> List[StringLabel]:
        names = self.cell_names
        if name not in names:
            raise KeyError(f"no two-sided cell named {name!r}")
        return self.two_sided_cells[names.index(name)]

    def egg_box(self, name: str):
        """Rows (right cells), columns (left cells), and the grid of a cell.

        Returns ``(rows, cols, grid)`` where ``grid[r][c]`` lists the
        elements in the r-th right cell and the c-th left cell.  For the
        k-valley cells every entry is a singleton.
        """
        members = set(self.cell_with_name(name))
        rows = [c for c in self.right_cells if set(c) <= members]
        cols = [c for c in self.left_cells if set(c) <= members]
        col_sets = [set(col) for col in cols]
        grid = [[[x for x in row if x in col] for col in col_sets]
                for row in rows]
        placed = sum(len(entry) for line in grid for entry in line)
        if placed != len(members):
            raise RuntimeError(
                f"egg box of {name} misplaces elements "
                f"({placed} placed, {len(members)} expected)")
        return rows, cols, grid

    def to_json(self) -> dict:
        def cell_literals(cell: Sequence[StringLabel]) -> List[str]:
            return [x.literal() for x in cell]

        return {
            "n": self.n,
            "max_valleys": self.max_valleys,
            "elements": [x.literal() for x in self.elements],
            "left_cells": [cell_literals(c) for c in self.left_cells],
            "right_cells": [cell_literals(c) for c in self.right_cells],
            "two_sided_cells": [
                {"name": name, "members": cell_literals(c)}
                for name, c in zip(self.cell_names, self.two_sided_cells)
            ],
            "two_sided_order": [list(pair) for pair in self.two_sided_order],
            "chain": self.cell_names if self.chain_is_total else None,
            "chain_is_total": self.chain_is_total,
            "catalog_relative": True,
            "band_note": BAND_NOTE,
        }


def compute_cells(n: int, max_valleys: int) -> CellStructure:
    """Compute the cell structure of the catalog with at most max_valleys valleys.

    Reads the left and right steps of each kind off its canonical
    products (see ``_product_steps``); reachability on column and row
    states, found once per kind, gives the left, right, and two-sided
    preorders (see ``_orbit_cells``).  max_valleys must be at least 1,
    or ValueError: with no one-valley strings the computed chain need not
    sit where the valley counts predict, and at n from 2 to 6 it does not.
    """
    if max_valleys < 1:
        raise ValueError(f"max_valleys must be at least 1, not {max_valleys}")
    labels = catalog_labels(n, max_valleys)
    left_classes, right_classes, two_classes, above, total = _orbit_cells(
        *_product_steps(labels, n), n)

    # catalog_labels lists labels in label order, so ascending nodes give
    # ascending labels; each two-sided class comes with its nodes ascending
    def as_labels(classes: List[List[int]]) -> List[List[StringLabel]]:
        return [[labels[i] for i in cls]
                for cls in sorted(map(sorted, classes))]

    left_cells = as_labels(left_classes)
    right_cells = as_labels(right_classes)

    order = sorted(range(len(two_classes)),
                   key=lambda ci: sum((cj, ci) in above
                                      for cj in range(len(two_classes))))
    two_sided = [[labels[i] for i in two_classes[ci]] for ci in order]
    # each cell is named by its computed chain position, which must be the
    # position that the valley count of every member predicts
    for pos, cell in enumerate(two_sided):
        wrong = [x for x in cell if cell_chain_position(cell_of(x)) != pos]
        if wrong:
            raise RuntimeError(
                f"{wrong[0]} lies in the cell at chain position {pos}, "
                f"{cell_name(chain_cell(pos))}, not in "
                f"{cell_name(cell_of(wrong[0]))}")
    rank = {ci: pos for pos, ci in enumerate(order)}
    pairs = sorted((cell_name(chain_cell(rank[ci])),
                    cell_name(chain_cell(rank[cj])))
                   for (ci, cj) in above if rank[ci] < rank[cj])

    return CellStructure(
        n=n,
        max_valleys=max_valleys,
        elements=list(labels),
        left_cells=left_cells,
        right_cells=right_cells,
        two_sided_cells=two_sided,
        two_sided_order=pairs,
        chain_is_total=total,
    )


def is_idempotent_cell(cell: Sequence[StringLabel],
                       structure: CellStructure) -> bool:
    """Whether some member of the cell divides a product of two members.

    Labels are compared normalized, and each product is the canonical
    one of ``product_summands`` shifted, looked up once per call."""
    n = structure.n
    members = dict.fromkeys(x.normalized(n) for x in cell)
    summands = cache(canonical_summands)  # a memo that ends with the call
    for g in members:
        for h in members:
            e = residue(g.j - h.i + 1, n)
            if any(s.shifted(g.i - 1, h.j - 1, n) in members for s in
                   summands(n, g.family, g.k, e, h.family, h.k)):
                return True
    return False
