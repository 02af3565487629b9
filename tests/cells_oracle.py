"""The cell computation as it was before it worked on translation orbits.

Every catalog node gets a bitmask of its one-step divisibility edges and
a bitmask of everything it reaches, so the cost grows with the square of
the node count.  The tests compare the orbit computation of
``nakayama.cells`` with it.
"""

from typing import Dict, List, Sequence, Tuple

from nakayama.bimodules import StringLabel, catalog_labels
from nakayama.cells import CellStructure
from nakayama.decomposition import (
    _label_sort_key,
    canonical_summands,
    cell_chain_position,
    cell_name,
    cell_of,
    chain_cell,
)


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


def oracle_classes(up_left: List[int], up_right: List[int]):
    """``(left, right, two_sided, above, total)`` from one-step bitmasks,
    in the form ``nakayama.cells._orbit_cells`` returns them."""
    count = len(up_left)
    reach_left = _close_reachability(up_left, count)
    reach_right = _close_reachability(up_right, count)
    merged = [up_left[i] | up_right[i] for i in range(count)]
    reach_two = _close_reachability(merged, count)
    two_classes = _mutual_classes(reach_two, count)

    reps = [cls[0] for cls in two_classes]
    above = set()
    total = True
    for ci, ri in enumerate(reps):
        for cj, rj in enumerate(reps):
            if ci == cj:
                continue
            i_above_j = bool(reach_two[rj] >> ri & 1)
            j_above_i = bool(reach_two[ri] >> rj & 1)
            if i_above_j and not j_above_i:
                above.add((ci, cj))
            elif not i_above_j and not j_above_i:
                total = False
    return (_mutual_classes(reach_left, count),
            _mutual_classes(reach_right, count), two_classes, above, total)


def oracle_compute_cells(n: int, max_valleys: int) -> CellStructure:
    """``compute_cells`` by per-node closures."""
    labels = catalog_labels(n, max_valleys)
    left_classes, right_classes, two_classes, above, total = oracle_classes(
        *_divisibility_edges(labels, n))

    def as_labels(classes: List[List[int]]) -> List[List[StringLabel]]:
        cells = [sorted((labels[i] for i in cls), key=_label_sort_key)
                 for cls in classes]
        cells.sort(key=lambda cell: _label_sort_key(cell[0]))
        return cells

    order = sorted(range(len(two_classes)),
                   key=lambda ci: sum((cj, ci) in above
                                      for cj in range(len(two_classes))))
    two_sided = [sorted((labels[i] for i in two_classes[ci]),
                        key=_label_sort_key) for ci in order]
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
        left_cells=as_labels(left_classes),
        right_cells=as_labels(right_classes),
        two_sided_cells=two_sided,
        two_sided_order=pairs,
        chain_is_total=total,
    )
