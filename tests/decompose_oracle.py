"""The decomposition as it was before it split a module into the pieces of
its basis graph.

Every catalog candidate is paired against the whole module, so a hom
system pays for all of it.  The tests compare ``nakayama.decomposition``'s
piece-by-piece scan with it.
"""

from typing import List, Tuple

from nakayama.bimodules import (
    Bimodule,
    BimoduleMap,
    StringLabel,
    catalog_labels,
    construct,
    trace_pairing,
)
from nakayama.decomposition import (
    DecompositionReport,
    _candidate_key,
    _split_pair,
)
from nakayama.linalg import sparse_rank


def whole_module_decompose(t: Bimodule,
                           max_valleys: int) -> DecompositionReport:
    """Multiplicities of the catalog members in t, each candidate paired
    against all of t, largest first, with the same dimension filter and
    dimension balance as ``decompose``.  The whole catalog is walked, so
    the oracle does not share the scan's choice of candidates."""
    left = dict(t.dims)
    remaining = t.total_dim
    summands: List[StringLabel] = []
    pairs: List[Tuple[StringLabel, BimoduleMap, BimoduleMap]] = []
    for label in sorted(catalog_labels(t.n, max_valleys), key=_candidate_key):
        x = construct(label, t.n)
        if not remaining:
            break
        if x.total_dim > remaining or any(
                d > left.get(v, 0) for v, d in x.dims.items()):
            continue
        sigmas, pis, g = trace_pairing(x, t)
        mult = sparse_rank(g, len(pis))
        if not mult:
            continue
        summands.extend([label] * mult)
        section, retraction = _split_pair(x, sigmas, pis, g)
        pairs.append((label, BimoduleMap(x, t, dict(section)),
                      BimoduleMap(t, x, dict(retraction))))
        for v, d in x.dims.items():
            left[v] -= mult * d
            if left[v] < 0:
                raise RuntimeError(f"dimension balance fails at {v}")
        remaining -= mult * x.total_dim
    return DecompositionReport(t.n, t.total_dim, summands, pairs, remaining)
