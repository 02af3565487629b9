"""End-to-end acceptance suite.

Each test covers one numbered criterion and emits a single PASS/FAIL
verdict line straight to the terminal, bypassing capture, so a plain
``pytest tests/test_acceptance.py -v`` shows all eight verdicts.
All comparisons are exact; there are no tolerances anywhere.
"""

import itertools
import math
import random
import time
from collections import Counter

from nakayama.bimodules import StringLabel, catalog_labels
from nakayama.bireps import (
    cell_birep,
    classify,
    localize,
    verify_block_structure,
)
from nakayama.cells import compute_cells, is_idempotent_cell
from nakayama.cli import adjunction_command
from nakayama.decomposition import cell_of, multable_check, product_summands

from dense_helpers import ExactMatrix, add, zeros

FAMILIES = ("W", "S", "N", "M")
SEED = 1729


def action_matrix(b, u):
    """The dense object-level matrix of the apex generator u on b."""
    return ExactMatrix.from_entries(b.rank, b.rank,
                                    b.action[u.normalized(b.n)])


def verdict(capsys, num, ok, text):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def test_criterion_1_valley_multiplication_table(capsys):
    bad = []
    for n, k in itertools.product((1, 2, 3), (1, 2)):
        report = multable_check(n, k)
        if not report["ok"]:
            bad.append((n, k, report["mismatches"]))
    ok = not bad
    assert verdict(capsys, 1, ok,
                   "valley part of every product matches the "
                   "multiplication table for n in 1..3, k in 1..2"), bad


def test_criterion_2_family_sums_multiply_regularly(capsys):
    """The four-family sum behaves like a rescaled idempotent.

    Pairwise: the valley part of F_{i|j} (x) F_{j|l} is four copies of
    F_{i|l}.  Globally, summing over every anchor pair, F (x) F is 4n
    copies of F.  Both statements are checked by accumulating
    decomposition reports.
    """
    bad = []
    for n, k in itertools.product((1, 2, 3), (1, 2)):
        total = Counter()
        span = range(1, n + 1)
        for i, j, r, s in itertools.product(span, repeat=4):
            got = Counter()
            for fu, fv in itertools.product(FAMILIES, FAMILIES):
                u = StringLabel(fu, i, j, k)
                v = StringLabel(fv, r, s, k)
                got += Counter(
                    lab.normalized(n)
                    for lab in product_summands(u, v, n)
                    if cell_of(lab) == ("J", k))
            total += got
            if j == r:
                want = Counter(
                    {StringLabel(f, i, s, k).normalized(n): 4
                     for f in FAMILIES})
            else:
                want = Counter()
            if got != want:
                bad.append((n, k, i, j, r, s, got, want))
        want_total = Counter(
            {StringLabel(f, a, b, k).normalized(n): 4 * n
             for f in FAMILIES for a in span for b in span})
        if total != want_total:
            bad.append((n, k, "global", total, want_total))
    ok = not bad
    assert verdict(capsys, 2, ok,
                   "F_i|j (x) F_j|l is F_i|l^4 and F (x) F is F^(4n) "
                   "modulo greater cells"), bad


def test_criterion_3_restriction_and_adjunction(capsys):
    bad = []
    for n in (1, 2, 3):
        for k in (0, 1, 2):
            report = adjunction_command(n, k)
            if not report["ok"]:
                bad.append((n, k, [p for p in report["pairs"]
                                   if not (p["restrict_ok"]
                                           and p["hom_ok"])]))
    ok = not bad
    assert verdict(capsys, 3, ok,
                   "left restriction is a projective interval and "
                   "hom to the algebra swaps S into N for n <= 3, "
                   "k <= 2"), bad


def test_criterion_4_cell_chain_and_egg_boxes(capsys):
    bad = []
    for n in (1, 2, 3):
        structure = compute_cells(n, 2)
        if not structure.chain_is_total:
            bad.append((n, "chain not total"))
            continue
        if structure.chain() != ["J_split", "J_M0", "J_1", "J_2"]:
            bad.append((n, "chain", structure.chain()))
        sizes = [len(structure.cell_with_name(c))
                 for c in ("J_split", "J_M0", "J_1", "J_2")]
        if sizes != [4 * n * n, n * n, 4 * n * n, 4 * n * n]:
            bad.append((n, "sizes", sizes))
        for name in ("J_1", "J_2"):
            rows, cols, grid = structure.egg_box(name)
            if len(rows) != 2 * n or len(cols) != 2 * n:
                bad.append((n, name, "box shape", len(rows), len(cols)))
            if any(len(cell) != 1 for row in grid for cell in row):
                bad.append((n, name, "non-singleton intersection"))
        flags = {name: is_idempotent_cell(
                     structure.cell_with_name(name), structure)
                 for name in structure.cell_names}
        if flags != {"J_split": True, "J_M0": False,
                     "J_1": True, "J_2": True}:
            bad.append((n, "idempotence", flags))
    ok = not bad
    assert verdict(capsys, 4, ok,
                   "cells form the total chain split >= M0 >= J_1 >= J_2 "
                   "with regular 2nx2n egg boxes and M0 the unique "
                   "non-idempotent cell"), bad


def test_criterion_5_action_matrix_block_identities(capsys):
    bad = []
    for n in (1, 2, 3):
        base = cell_birep(n, 1)
        for size in range(n + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                loc = localize(base, combo)
                report = verify_block_structure(loc)
                if not report["ok"]:
                    bad.append((n, combo, report["failures"]))
    ok = not bad
    assert verdict(capsys, 5, ok,
                   "[F]^2 = 4n[F] with trace 4n, positive entries, and "
                   "the block patterns hold in every localization for "
                   "n <= 3, k = 1"), bad


def test_criterion_6_classification_counts(capsys):
    bad = []
    elapsed_n3 = None
    for n in (1, 2, 3):
        start = time.perf_counter()
        report = classify(n, 1)
        elapsed = time.perf_counter() - start
        if n == 3:
            elapsed_n3 = elapsed
        entries = report.entries
        if len(entries) != 2 ** n:
            bad.append((n, "count", len(entries)))
        if not all(e["simple_transitive"] for e in entries):
            bad.append((n, "not all simple transitive"))
        for j in range(n + 1):
            if report.counts.get(n + j) != math.comb(n, j):
                bad.append((n, "rank tally", n + j,
                            report.counts.get(n + j)))
        prints = {tuple(e["fingerprint"]) for e in entries}
        if len(prints) != 2 ** n:
            bad.append((n, "fingerprint collision"))
        if not all(n <= e["rank"] <= 2 * n for e in entries):
            bad.append((n, "rank out of bounds"))
    if elapsed_n3 is None or elapsed_n3 >= 60.0:
        bad.append(("n=3 runtime", elapsed_n3))
    ok = not bad
    assert verdict(capsys, 6, ok,
                   "classify(n,1) finds 2^n simple transitive quotients "
                   "with binomial rank tallies, distinct fingerprints, "
                   "ranks in n..2n, under a minute at n=3"), bad


def test_criterion_7_localization_ranks(capsys):
    bad = []
    for n in (1, 2, 3):
        base = cell_birep(n, 1)
        full = localize(base, range(1, n + 1))
        if full.rank != n:
            bad.append((n, "full contraction rank", full.rank))
        if localize(base, ()) is not base:
            bad.append((n, "empty contraction is not the original"))
        for size in range(n + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                loc = localize(base, combo)
                if loc.rank != 2 * n - size:
                    bad.append((n, combo, loc.rank))
    ok = not bad
    assert verdict(capsys, 7, ok,
                   "contracting I drops the rank to 2n - |I| for every "
                   "subset, with I = all giving n and I = none giving "
                   "the original"), bad


def test_criterion_8_random_matrix_module_agreement(capsys):
    n = 2
    rng = random.Random(SEED)
    catalog = [lab for lab in catalog_labels(n, 1)
               if cell_of(lab) == ("J", 1)]
    assert len(catalog) == 16
    subsets = [(), (1,), (2,), (1, 2)]
    bireps = {}
    base = cell_birep(n, 1)
    for combo in subsets:
        bireps[combo] = localize(base, combo)
    bad = []
    for trial in range(200):
        u = rng.choice(catalog)
        v = rng.choice(catalog)
        combo = subsets[rng.randrange(len(subsets))]
        b = bireps[combo]
        lhs = action_matrix(b, u).mul(action_matrix(b, v))
        rhs = zeros(b.rank, b.rank)
        for lab in product_summands(u, v, n):
            if cell_of(lab) == ("J", 1):
                rhs = add(rhs, action_matrix(b, lab))
        if lhs != rhs:
            bad.append((trial, str(u), str(v), combo))
    ok = not bad
    assert verdict(capsys, 8, ok,
                   "[U][V] equals the action matrix of the valley part "
                   "of U (x) V on 200 seeded random triples"), bad
