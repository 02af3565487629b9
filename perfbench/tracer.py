"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``nakayama`` layers from the
outside: the package itself is not edited.  Modules import by name
(``from .linalg import sparse_rref``), so a function is replaced at every
binding site, i.e. in each ``nakayama`` module namespace that holds it, and
methods are replaced on their class.  A target that no longer exists is
recorded as absent, so the benchmark survives refactors that remove or
move a function.

Each wrapped call records one span (name, parent span, start, end) in
flat arrays kept in memory.  Self time, cache misses and the other
per-layer numbers are computed from those arrays after the run, and the
spans are written out in one file at the end.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


def _result_dim(args, result) -> int:
    return result.total_dim


def _homspace_dim(args, result) -> int:
    return args[0].dim


def _rref_cells(args, result) -> int:
    rows, ncols = args[0], args[1]
    return len(rows) * ncols


def _found(args, result) -> int:
    return result is not None


class _NewObject:
    """Counts results never returned before: a cache miss seen from outside."""

    def __init__(self):
        self.seen: Dict[int, object] = {}

    def __call__(self, args, result) -> int:
        if id(result) in self.seen:
            return 0
        self.seen[id(result)] = result
        return 1


# (layer module, qualified name, measure summed per call, name of its stat);
# a measure that is a class is instantiated once per tracer
TARGETS: List[Tuple[str, str, Optional[Callable], Optional[str]]] = [
    ("linalg", "sparse_rref", _rref_cells, "cells"),
    ("linalg", "ExactMatrix.mul", None, None),
    ("linalg", "solve", None, None),
    ("algebras", "build_torus", None, None),
    ("bimodules", "construct", _NewObject, "misses"),
    ("bimodules", "HomSpace", _homspace_dim, "dim_sum"),
    ("bimodules", "BimoduleMap.compose", None, None),
    ("bimodules", "BimoduleMap.is_invertible", None, None),
    ("bimodules", "hom_to_algebra", None, None),
    ("bimodules", "restrict_left", None, None),
    ("bimodules", "is_isomorphic", None, None),
    ("tensoring", "tensor", _result_dim, "dim_sum"),
    ("tensoring", "tensor_map", None, None),
    ("decomposition", "split_pair_search", _found, "found"),
    ("decomposition", "decompose", None, None),
    ("decomposition", "product_summands", None, "misses"),
    ("decomposition", "multable_check", None, None),
    ("cells", "compute_cells", None, None),
    ("bireps", "cell_birep", None, None),
    ("bireps", "localize", None, None),
    ("bireps", "is_simple_transitive", None, None),
    ("bireps", "classify", None, None),
    ("cli", "main", None, None),
    ("cli", "adjunction_command", None, None),
]

PACKAGE = "nakayama"


class Tracer:
    """Wraps the targets, records spans, and summarizes them per target."""

    def __init__(self):
        self.names: List[str] = []
        self.absent: List[str] = []
        self.stats: List[Optional[str]] = []
        self.sums: List[float] = []
        self.parent = array.array("q")
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: List[int] = [-1]

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer, qualname, measure, stat in TARGETS:
            label = f"{layer}.{qualname}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.append(label)
                continue
            owner, attr = module, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None \
                else None
            if original is None:
                self.absent.append(label)
                continue
            idx = len(self.names)
            self.names.append(label)
            self.stats.append(stat)
            self.sums.append(0.0)
            if isinstance(measure, type):
                measure = measure()
            if isinstance(original, type):
                # a class: its constructor is the call being traced
                init = original.__init__
                original.__init__ = self._wrap(init, idx, measure)
            elif owner is module:
                wrapper = self._wrap(original, idx, measure)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
            else:
                setattr(owner, attr, self._wrap(original, idx, measure))

    def _wrap(self, fn, idx: int, measure):
        stack = self._stack
        parent, name = self.parent, self.name
        start, end = self.start, self.end
        sums = self.sums
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            parent.append(stack[-1])
            name.append(idx)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if measure is not None:
                sums[idx] += measure(args, result)
            return result

        return traced

    # -- summarizing ------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per target: calls, total and self seconds, and its own counts.

        Self time is a span's duration minus the durations of its direct
        child spans.  A ``product_summands`` span with a ``decompose`` child
        is a product-cache miss.
        """
        count = len(self.names)
        calls = [0] * count
        total = [0.0] * count
        own = [0.0] * count
        parent, name = self.parent, self.name
        start, end = self.start, self.end
        decompose = self._index("decomposition.decompose")
        products = self._index("decomposition.product_summands")
        missed = set()
        for span in range(len(start)):
            idx = name[span]
            d = end[span] - start[span]
            calls[idx] += 1
            total[idx] += d
            own[idx] += d
            up = parent[span]
            if up >= 0:
                own[name[up]] -= d
                if idx == decompose and name[up] == products:
                    missed.add(up)
        out = {}
        for idx, label in enumerate(self.names):
            row = {"calls": calls[idx], "total_s": total[idx],
                   "self_s": own[idx]}
            if self.stats[idx] is not None:
                row[self.stats[idx]] = self.sums[idx]
            out[label] = row
        if products is not None:
            out[self.names[products]]["misses"] = len(missed)
        return out

    def _index(self, label: str) -> Optional[int]:
        return self.names.index(label) if label in self.names else None

    def write(self, path: str) -> None:
        """One JSON header line, then the raw span arrays."""
        header = {"names": self.names, "absent": self.absent,
                  "spans": len(self.start),
                  "arrays": [["parent", "q"], ["name", "H"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.parent, self.name, self.start, self.end):
                arr.tofile(fh)
