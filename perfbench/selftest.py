"""Self-test of the benchmark at tiny sizes.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs each workload's command at a tiny size, untraced and traced, and
checks that every metric listed in BENCHMARK.json is emitted with its
unit, that the correctness gate passes, and that a corrupted golden
digest fails the gate.  Exits 0 when every check holds.
"""

import json
import os
import sys

import run

TINY = {
    "multable": ["multable", "--n", "1", "--k", "1"],
    "cells": ["cells", "--n", "1", "--max-valleys", "1"],
    "classify": ["classify", "--n", "2", "--k", "1"],
    "adjunction": ["adjunction", "--n", "2", "--k", "1"],
}


def _unit_problems(metrics, wanted, where):
    problems = []
    for spec in wanted:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"{where}: {spec['name']} missing")
        elif got[1] != spec["unit"]:
            problems.append(f"{where}: {spec['name']} in {got[1]}, "
                            f"want {spec['unit']}")
    extra = set(metrics) - {spec["name"] for spec in wanted}
    if extra:
        problems.append(f"{where}: not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if set(TINY) != {w["name"] for w in bench["workloads"]}:
        print("TINY and BENCHMARK.json name different workloads")
        return 1
    golden = run.load_golden()
    problems = []
    for name, argv in TINY.items():
        plain = run.run_untraced(argv, 0, golden)
        problems += _unit_problems(plain["metrics"], bench["end_to_end"],
                                   f"{name} untraced")
        traced = run.run_traced(argv, f"selftest-{name}", golden)
        problems += _unit_problems(traced["metrics"], bench["per_layer"],
                                   f"{name} traced")
        for label, result in (("untraced", plain), ("traced", traced)):
            if result["failed"] or not result["attempted"]:
                problems.append(f"{name} {label}: {result['failed']} of "
                                f"{result['attempted']} items failed")
        corrupted = dict(golden)
        corrupted[" ".join(argv)] = "0" * 64
        bad = run.run_untraced(argv, 0, corrupted)
        if bad["failed"] != bad["attempted"] or not bad["attempted"]:
            problems.append(f"{name}: a corrupted digest passed the gate")
        print(f"{name}: untraced {plain['attempted']} items, traced "
              f"{len(traced['metrics'])} metrics, corrupted digest "
              f"failed {bad['failed']} of {bad['attempted']} items")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
