"""The cyclic Nakayama algebra with vanishing radical square, and its
enveloping algebra presented as a torus quiver.

The algebra itself lives on a cyclic quiver with vertices 1..n and arrows
a_i : i -> i+1 (indices mod n), subject to all length-two paths being zero.
Its basis is the n vertex idempotents e_i together with the n arrows a_i,
so the dimension is 2n; for n = 1 this is the algebra of dual numbers.

Bimodules over it are the same thing as left modules over the enveloping
algebra, which is presented by an n x n grid quiver drawn on a torus:
vertex (i, j) carries the idempotent e_i tensor e_j, vertical arrows
v_{i|j} : (i,j) -> (i+1,j) act by left multiplication with a_i, horizontal
arrows h_{i|j} : (i,j) -> (i,j-1) act by right multiplication with a_{j-1}.
Relations: two consecutive verticals vanish, two consecutive horizontals
vanish, and every elementary square commutes.  Everything downstream of this
module speaks the language of representations of that torus quiver.

All vertex indices are stored as residues in {1..n}; constructors accept any
integers and reduce them, since index arithmetic beyond n is pervasive in the
walk constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

BasisLabel = Tuple[str, int]  # ("e", i) idempotent, ("a", i) arrow
Vertex = Tuple[int, int]


def residue(a: int, n: int) -> int:
    """Reduce an integer to its representative in {1..n}."""
    return (a - 1) % n + 1


def arrow_target(kind: str, i: int, j: int, n: int) -> Vertex:
    """Target of the torus arrow of the given kind ("v" or "h") at (i, j).

    >>> arrow_target("v", 3, 1, 3), arrow_target("h", 1, 1, 3)
    ((1, 1), (1, 3))
    """
    if kind == "v":
        return (residue(i + 1, n), j)
    return (i, residue(j - 1, n))


@dataclass(frozen=True)
class CoverVertex:
    """A vertex of the universal cover Z x Z of the torus quiver."""

    a: int
    b: int


def project(c: CoverVertex, n: int) -> Vertex:
    """Push a cover vertex down to the torus, residues in {1..n}.

    >>> project(CoverVertex(4, 1), 3)
    (1, 1)
    >>> project(CoverVertex(3, 0), 2)
    (1, 2)
    """
    return (residue(c.a, n), residue(c.b, n))


class NakayamaAlgebra:
    """Structure constants of the radical-square-zero cyclic Nakayama algebra.

    Products of basis elements are always 0 or another basis element, so the
    multiplication table maps ordered basis pairs to an optional label.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("number of vertices must be at least 1")
        self.n = n
        self.basis: Tuple[BasisLabel, ...] = tuple(
            [("e", i) for i in range(1, n + 1)]
            + [("a", i) for i in range(1, n + 1)])
        table: Dict[Tuple[BasisLabel, BasisLabel], Optional[BasisLabel]] = {}
        for x in self.basis:
            for y in self.basis:
                table[(x, y)] = self._product(x, y)
        self.mult = table

    def _product(self, x: BasisLabel, y: BasisLabel) -> Optional[BasisLabel]:
        n = self.n
        kx, i = x
        ky, j = y
        if kx == "e" and ky == "e":
            return x if i == j else None
        if kx == "e" and ky == "a":
            # e_i a_j is a_j precisely when i is the head j+1 of the arrow
            return y if i == residue(j + 1, n) else None
        if kx == "a" and ky == "e":
            # a_i e_j is a_i precisely when j is the tail i
            return x if j == i else None
        return None  # radical square zero

    @property
    def dimension(self) -> int:
        return 2 * self.n

    def is_associative(self) -> bool:
        for x in self.basis:
            for y in self.basis:
                for z in self.basis:
                    xy = self.mult[(x, y)]
                    yz = self.mult[(y, z)]
                    left = self.mult[(xy, z)] if xy is not None else None
                    right = self.mult[(x, yz)] if yz is not None else None
                    if left != right:
                        return False
        return True

    def to_json(self) -> dict:
        def name(lbl: BasisLabel) -> str:
            kind, i = lbl
            return f"{'eps' if kind == 'e' else 'alpha'}_{i}"

        products = []
        for (x, y), z in sorted(self.mult.items()):
            products.append({
                "left": name(x),
                "right": name(y),
                "result": name(z) if z is not None else "0",
            })
        return {
            "kind": "nakayama",
            "n": self.n,
            "dimension": self.dimension,
            "basis": [name(b) for b in self.basis],
            "products": products,
        }

    def __repr__(self) -> str:
        return f"NakayamaAlgebra(n={self.n})"


def build_nakayama(n: int) -> NakayamaAlgebra:
    """The radical-square-zero Nakayama algebra on the cyclic quiver with n
    vertices.  Rejects n < 1."""
    return NakayamaAlgebra(n)


class TorusAlgebra:
    """The enveloping algebra, presented by the n x n torus quiver.

    Arrows are named v_{i|j} for (i,j) -> (i+1,j) and h_{i|j} for
    (i,j) -> (i,j-1), with targets from ``arrow_target``.  The relation
    list enumerates, per vertex, the two vanishing compositions and the
    commuting square.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("number of vertices must be at least 1")
        self.n = n
        self.vertices: Tuple[Vertex, ...] = tuple(
            (i, j) for i in range(1, n + 1) for j in range(1, n + 1))
        self.relations = self._relations()

    def _relations(self):
        n = self.n
        rels = []
        for (i, j) in self.vertices:
            up, left = arrow_target("v", i, j, n), arrow_target("h", i, j, n)
            rels.append(("vv", i, j, (("v", *up), ("v", i, j))))
            rels.append(("hh", i, j, (("h", *left), ("h", i, j))))
            rels.append(("square", i, j,
                         (("h", *up), ("v", i, j)),
                         (("v", *left), ("h", i, j))))
        return rels

    @property
    def dimension(self) -> int:
        # basis of the path algebra modulo relations: trivial paths, arrows,
        # and one surviving length-two path per elementary square
        n = self.n
        return n * n + 2 * n * n + n * n

    def to_json(self) -> dict:
        def vname(v: Vertex) -> str:
            return f"{v[0]}|{v[1]}"

        arrows = [{
            "name": f"{kind}_{i}|{j}",
            "kind": kind,
            "source": vname((i, j)),
            "target": vname(arrow_target(kind, i, j, self.n)),
        } for kind in "vh" for (i, j) in self.vertices]
        rels = []
        for rel in self.relations:
            if rel[0] == "square":
                rels.append({
                    "type": "square",
                    "at": f"{rel[1]}|{rel[2]}",
                })
            else:
                rels.append({
                    "type": "zero-" + ("vertical" if rel[0] == "vv"
                                       else "horizontal"),
                    "at": f"{rel[1]}|{rel[2]}",
                })
        return {
            "kind": "torus",
            "n": self.n,
            "dimension": self.dimension,
            "vertices": [vname(v) for v in self.vertices],
            "arrows": arrows,
            "relations": rels,
        }

    def __repr__(self) -> str:
        return f"TorusAlgebra(n={self.n})"


def build_torus(n: int) -> TorusAlgebra:
    """The torus presentation of the enveloping algebra; rejects n < 1.

    For n = 1 the grid degenerates to a single vertex with two loops and the
    same three relation families (the two loop squares and the commuting
    square, which for loops reads vh = hv); the general code path covers it.
    """
    return TorusAlgebra(n)
