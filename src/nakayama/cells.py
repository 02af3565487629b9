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

Products are translation equivariant, so the sweep runs over translation
orbits rather than ordered pairs: each canonical product (two kinds and
an offset) is looked up once, and each anchor shift of a nonzero one
becomes one bitmask of catalog summands, shared by the n pairs with that
shift.  Canonical products equal as bimodules are decomposed only once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .bimodules import StringLabel, catalog_labels
from .decomposition import (
    _label_sort_key,
    canonical_summands,
    cell_chain_position,
    cell_name,
    cell_of,
    chain_cell,
    product_summands,
)

BAND_NOTE = "band-type bimodules lie below every listed cell and are not enumerated"


def _close_reachability(adjacency: List[int], count: int) -> List[int]:
    """Reflexive-transitive closure of a bitmask adjacency list.

    Closures are found in index order, so a frontier node below the start
    already has its final closure, which is taken whole, not expanded.
    """
    closed = []
    for start in range(count):
        seen = 1 << start
        frontier = adjacency[start] & ~seen
        while frontier:
            seen |= frontier
            step = 0
            rest = frontier
            while rest:
                low = rest & -rest
                node = low.bit_length() - 1
                if node < start:
                    seen |= closed[node]
                else:
                    step |= adjacency[node]
                rest ^= low
            frontier = step & ~seen
        closed.append(seen)
    return closed


def _mutual_classes(reach: List[int], count: int) -> List[List[int]]:
    """Group indices that reach each other, preserving first appearance."""
    assigned = [False] * count
    classes = []
    for i in range(count):
        if assigned[i]:
            continue
        members = [j for j in range(count)
                   if reach[i] >> j & 1 and reach[j] >> i & 1]
        for j in members:
            assigned[j] = True
        classes.append(members)
    return classes


def _divisibility_edges(labels: Sequence[StringLabel],
                        n: int) -> Tuple[List[int], List[int]]:
    """One-step divisibility bitmasks over a catalog, one orbit at a time.

    Bit g of ``up_left[b]`` (``up_right[a]``) is set when labels[g] is a
    summand of labels[a] (x) labels[b], and every label is above itself.
    ``labels`` must be normalized and closed under torus translation, as
    ``catalog_labels`` is.  For U of one kind anchored at i|j and V of
    another at r|s, the product depends on the kinds and on
    e = j - r + 1 only, up to the shift of every summand by (i-1, s-1).
    So each canonical product is looked up once and each shift (i, s)
    turns it into one bitmask.  The n pairs with that shift are U along
    row i and V along column s, so the mask goes to U's row and V's column.
    """
    pos = {(x.family, x.k, x.i, x.j): b for b, x in enumerate(labels)}
    kinds = list(dict.fromkeys((x.family, x.k) for x in labels))
    anchors = range(1, n + 1)
    row_masks: Dict[tuple, int] = {}  # (family, k, i) of U -> summands
    col_masks: Dict[tuple, int] = {}  # (family, k, s) of V -> summands
    for fam_u, k_u in kinds:
        for fam_v, k_v in kinds:
            for e in anchors:
                summands = canonical_summands(n, fam_u, k_u, e, fam_v, k_v)
                if not summands:  # every shift of it has mask 0
                    continue
                for i in anchors:
                    for s in anchors:
                        mask = 0
                        for lab in summands:
                            # Summands below the valley bound lie in
                            # deeper cells and carry no information
                            # about the catalog range.
                            g = pos.get((lab.family, lab.k,
                                         (lab.i + i - 2) % n + 1,
                                         (lab.j + s - 2) % n + 1))
                            if g is not None:
                                mask |= 1 << g
                        row = (fam_u, k_u, i)
                        row_masks[row] = row_masks.get(row, 0) | mask
                        col = (fam_v, k_v, s)
                        col_masks[col] = col_masks.get(col, 0) | mask
    up_left = [1 << b | col_masks.get((x.family, x.k, x.j), 0)
               for b, x in enumerate(labels)]
    up_right = [1 << b | row_masks.get((x.family, x.k, x.i), 0)
                for b, x in enumerate(labels)]
    return up_left, up_right


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

    Records the divisibility edges of every ordered pair of catalog
    members (see ``_divisibility_edges``); closures of the edge relations
    give the left, right, and two-sided preorders.
    """
    labels = catalog_labels(n, max_valleys)
    count = len(labels)
    up_left, up_right = _divisibility_edges(labels, n)

    reach_left = _close_reachability(up_left, count)
    reach_right = _close_reachability(up_right, count)
    merged = [up_left[i] | up_right[i] for i in range(count)]
    reach_two = _close_reachability(merged, count)

    def as_labels(classes: List[List[int]]) -> List[List[StringLabel]]:
        cells = [sorted((labels[i] for i in cls), key=_label_sort_key)
                 for cls in classes]
        cells.sort(key=lambda cell: _label_sort_key(cell[0]))
        return cells

    left_cells = as_labels(_mutual_classes(reach_left, count))
    right_cells = as_labels(_mutual_classes(reach_right, count))
    two_classes = _mutual_classes(reach_two, count)

    reps = [cls[0] for cls in two_classes]
    above = {}
    total = True
    for ci, ri in enumerate(reps):
        for cj, rj in enumerate(reps):
            if ci == cj:
                continue
            i_above_j = bool(reach_two[rj] >> ri & 1)
            j_above_i = bool(reach_two[ri] >> rj & 1)
            if i_above_j and not j_above_i:
                above[(ci, cj)] = True
            elif not i_above_j and not j_above_i:
                total = False

    order = sorted(range(len(two_classes)),
                   key=lambda ci: sum(above.get((cj, ci), False)
                                      for cj in range(len(two_classes))))
    two_sided = [sorted((labels[i] for i in two_classes[ci]),
                        key=_label_sort_key) for ci in order]
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
    """Whether some member of the cell divides a product of two members."""
    members = set(cell)
    for g in cell:
        for h in cell:
            summands = product_summands(g, h, structure.n)
            if any(s in members for s in summands):
                return True
    return False
