"""Bimodules over self-injective Nakayama algebras with radical square zero.

The package builds the torus algebra of a cyclic Nakayama algebra, constructs
its string bimodules from combinatorial walk data, decomposes tensor products,
computes the two-sided cell structure of the resulting bicategory, and
classifies the simple transitive quotients of its cell birepresentations.
"""

from . import bimodules, bireps, decomposition, tensoring
from .algebras import (
    NakayamaAlgebra,
    TorusAlgebra,
    build_nakayama,
    build_torus,
    project,
    residue,
)
from .bimodules import (
    Bimodule,
    BimoduleMap,
    HomSpace,
    LeftDecomposition,
    StringLabel,
    adjunction_command,
    catalog_labels,
    construct,
    direct_sum,
    dualize,
    hom_to_algebra,
    is_isomorphic,
    parse_label,
    regular_bimodule,
    restrict_left,
)
from .bireps import (
    CartanError,
    ClassificationReport,
    FinitaryBirep,
    StabilityError,
    cell_birep,
    classify,
    is_simple_transitive,
    localize,
    verify_adjunction_consequences,
    verify_block_structure,
)
from .cells import CellStructure, compute_cells, is_idempotent_cell
from .decomposition import (
    DecompositionReport,
    cell_name,
    cell_of,
    decompose,
    expected_product_family,
    multable_check,
    product_summands,
)
from .tensoring import tensor, tensor_map


def clear_caches() -> None:
    """Empty every process-wide cache, five in all: constructed
    bimodules, graded pieces of tensor products, catalog kinds of the
    scan's candidates, scans of products and pieces, and birep cores."""
    for cache in (bimodules._CONSTRUCT_CACHE, tensoring._PIECE_CACHE,
                  decomposition._CANDIDATE_CACHE, decomposition._SCAN_CACHE,
                  bireps._CORE_CACHE):
        cache.clear()


__all__ = [
    "Bimodule",
    "BimoduleMap",
    "CartanError",
    "CellStructure",
    "ClassificationReport",
    "DecompositionReport",
    "FinitaryBirep",
    "HomSpace",
    "LeftDecomposition",
    "NakayamaAlgebra",
    "StabilityError",
    "StringLabel",
    "TorusAlgebra",
    "adjunction_command",
    "build_nakayama",
    "build_torus",
    "catalog_labels",
    "cell_birep",
    "cell_name",
    "cell_of",
    "classify",
    "clear_caches",
    "compute_cells",
    "construct",
    "decompose",
    "direct_sum",
    "dualize",
    "expected_product_family",
    "hom_to_algebra",
    "is_idempotent_cell",
    "is_isomorphic",
    "is_simple_transitive",
    "localize",
    "multable_check",
    "parse_label",
    "product_summands",
    "project",
    "regular_bimodule",
    "residue",
    "restrict_left",
    "tensor",
    "tensor_map",
    "verify_adjunction_consequences",
    "verify_block_structure",
]
