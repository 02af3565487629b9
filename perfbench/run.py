"""Cold-cache benchmark of the four paper workloads of the nakayama CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload multable --seed 1 --seconds 20 --trace 0

Every timed call starts a fresh interpreter (``perfbench/child.py``), so
all module caches of the package start cold, and makes one
``nakayama.cli.main([..., "--json"])`` call: one closed-loop client, one
process and one thread, the next call only after the previous one ended.
Calls repeat until ``--seconds`` have passed (at least one call), and each
metric is the median over the calls of the run.

``--trace 0`` reports the end-to-end metrics: wall and CPU time of the
``main()`` call, set-up time of a fresh interpreter up to that call, and
the peak resident set of the child.  ``--trace 1`` makes one untraced and
one traced call and reports per-layer metrics from the traced one (see
``tracer.py``), with the source size of each layer.

The workloads are fixed grids taken from the paper's statements; their
inputs do not depend on ``--seed``, which is only recorded.  Every call's
JSON output is checked against its schema, a golden sha256 digest and the
paper's known answers; a failed check marks every item of that call
(product, catalog pair, localization or anchor) as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-call samples
and the seed go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from math import comb
from typing import Callable, Dict, List, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src", "nakayama")
SCHEMAS = os.path.join(ROOT, "docs", "schemas")
OUT = os.path.join(ROOT, ".perfbench_out")
LAYERS = ("linalg", "algebras", "bimodules", "tensoring", "decomposition",
          "cells", "bireps", "cli")
# set-up is short and noisy, so it is sampled this often per run besides
# the set-up of every timed call
SETUP_SAMPLES = 9
# a run must end within three minutes; calls stop being started after this
DEADLINE_S = 165.0


# ---------------------------------------------------------------------------
# correctness gates: the paper's known answers for each command
# ---------------------------------------------------------------------------

def _params(argv: List[str]) -> Dict[str, int]:
    return {argv[i].lstrip("-").replace("-", "_"): int(argv[i + 1])
            for i in range(1, len(argv), 2)}


def _multable_items(p) -> int:
    return 16 * p["n"] ** 4


def _multable_gate(doc, p) -> List[str]:
    problems = []
    if doc["ok"] is not True or doc["mismatches"]:
        problems.append("multiplication table mismatches")
    if doc["products"] != _multable_items(p):
        problems.append(f"{doc['products']} products, "
                        f"want {_multable_items(p)}")
    return problems


def _cells_sizes(p) -> Dict[str, int]:
    n2 = p["n"] ** 2
    sizes = {"J_split": 4 * n2, "J_M0": n2}
    sizes.update({f"J_{k}": 4 * n2 for k in range(1, p["max_valleys"] + 1)})
    return sizes


def _cells_items(p) -> int:
    return sum(_cells_sizes(p).values()) ** 2


def _cells_gate(doc, p) -> List[str]:
    sizes = _cells_sizes(p)
    problems = []
    if doc["chain"] != list(sizes) or doc["chain_is_total"] is not True:
        problems.append(f"chain {doc['chain']}, want {list(sizes)}")
    got = {c["name"]: len(c["members"]) for c in doc["two_sided_cells"]}
    if got != sizes:
        problems.append(f"cell sizes {got}, want {sizes}")
    return problems


def _classify_items(p) -> int:
    return 2 ** p["n"]


def _classify_gate(doc, p) -> List[str]:
    n = p["n"]
    want = {str(n + j): comb(n, j) for j in range(n + 1)}
    problems = []
    if doc["counts"] != want:
        problems.append(f"rank counts {doc['counts']}, want {want}")
    if len(doc["entries"]) != _classify_items(p):
        problems.append(f"{len(doc['entries'])} localizations")
    if not all(e["simple_transitive"] for e in doc["entries"]):
        problems.append("a localization is not simple transitive")
    return problems


def _adjunction_items(p) -> int:
    return p["n"] ** 2


def _adjunction_gate(doc, p) -> List[str]:
    good = [q for q in doc["pairs"] if q["restrict_ok"] and q["hom_ok"]]
    problems = []
    if doc["ok"] is not True or len(good) != _adjunction_items(p):
        problems.append(f"{len(good)} of {_adjunction_items(p)} anchors ok")
    return problems


class Command(NamedTuple):
    schema: str  # docs/schemas/<schema>.schema.json
    items: Callable[[Dict[str, int]], int]
    gate: Callable[[dict, Dict[str, int]], List[str]]


COMMANDS = {
    "multable": Command("multable", _multable_items, _multable_gate),
    "cells": Command("cells", _cells_items, _cells_gate),
    "classify": Command("classification", _classify_items, _classify_gate),
    "adjunction": Command("adjunction", _adjunction_items, _adjunction_gate),
}

# Why each grid: see README.md beside this file.
WORKLOADS = {
    "multable": ["multable", "--n", "1", "--k", "2"],
    "cells": ["cells", "--n", "6", "--max-valleys", "2"],
    "classify": ["classify", "--n", "6", "--k", "1"],
    "adjunction": ["adjunction", "--n", "12", "--k", "8"],
}


def load_golden() -> Dict[str, str]:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_output(argv: List[str], stdout: bytes,
                 golden: Dict[str, str]) -> List[str]:
    """Problems with one call's JSON output; empty when it is correct."""
    import jsonschema

    command = COMMANDS[argv[0]]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    with open(os.path.join(SCHEMAS, f"{command.schema}.schema.json"),
              encoding="utf-8") as fh:
        schema = json.load(fh)
    problems = [f"schema: {err.message}" for err in
                jsonschema.Draft7Validator(schema).iter_errors(doc)]
    if problems:
        return problems
    digest = hashlib.sha256(stdout).hexdigest()
    want = golden.get(" ".join(argv))
    if digest != want:
        problems.append(f"sha256 {digest}, golden {want}")
    return problems + command.gate(doc, _params(argv))


# ---------------------------------------------------------------------------
# cold calls
# ---------------------------------------------------------------------------

class Call:
    """One fresh interpreter: its set-up time, report and output."""

    def __init__(self, mode: str, argv: List[str], deadline: float,
                 trace_path: str = "-"):
        env = dict(os.environ, PYTHONHASHSEED="0")
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), mode,
             trace_path] + argv,
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        self.returncode = proc.returncode
        self.stdout = out
        self.report: Optional[dict] = None
        lines = err.decode("utf-8", "replace").splitlines()
        if lines and lines[-1].startswith("PERFBENCH "):
            self.report = json.loads(lines[-1][len("PERFBENCH "):])
            lines.pop()
        self.stderr_tail = lines[-5:]
        self.setup_s = self.report["ready"] - start if self.report else None

    def failure(self) -> Optional[str]:
        if self.report is None or self.returncode != 0:
            return (f"exit code {self.returncode}: "
                    + " | ".join(self.stderr_tail))
        return None


def _measured_call(mode: str, argv: List[str], deadline: float,
                   golden: Dict[str, str], trace_path: str = "-"):
    """Run one call and check it; returns (call, items, problems)."""
    call = Call(mode, argv, deadline, trace_path)
    failure = call.failure()
    problems = [failure] if failure else check_output(argv, call.stdout,
                                                      golden)
    items = COMMANDS[argv[0]].items(_params(argv))
    for problem in problems:
        print(f"  gate failed: {problem}", file=sys.stderr)
    return call, items, problems


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_untraced(argv: List[str], seconds: float,
                 golden: Dict[str, str]) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    Call("setup", argv, deadline)  # writes bytecode; not timed
    setups = [Call("setup", argv, deadline).setup_s
              for _ in range(SETUP_SAMPLES)]
    samples = []
    attempted = failed = 0
    while not attempted or (time.monotonic() - started < seconds
                            and time.monotonic() < deadline):
        call, items, problems = _measured_call("run", argv, deadline, golden)
        attempted += items
        failed += items if problems else 0
        if call.failure():
            break
        samples.append({k: call.report[k]
                        for k in ("wall_s", "cpu_s", "peak_rss_kb")})
        setups.append(call.setup_s)
        print(f"  call {len(samples)}: wall {samples[-1]['wall_s']:.3f} s, "
              f"cpu {samples[-1]['cpu_s']:.3f} s", file=sys.stderr)
    setups = [s for s in setups if s is not None]
    metrics = {
        "wall_s": (_median([s["wall_s"] for s in samples]), "s"),
        "cpu_s": (_median([s["cpu_s"] for s in samples]), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median([s["peak_rss_kb"] / 1024
                                 for s in samples]), "MB"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "samples": samples, "setups": setups}


def _sloc(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for line in fh
                       if line.strip() and not line.lstrip().startswith("#"))
    except FileNotFoundError:
        return 0


def run_traced(argv: List[str], name: str, golden: Dict[str, str]) -> dict:
    from tracer import TARGETS

    deadline = time.monotonic() + DEADLINE_S
    Call("setup", argv, deadline)  # writes bytecode; not timed
    os.makedirs(OUT, exist_ok=True)
    plain, items, plain_problems = _measured_call("run", argv, deadline,
                                                  golden)
    traced, _, traced_problems = _measured_call(
        "trace", argv, deadline, golden,
        os.path.join(OUT, f"trace-{name}.spans"))
    attempted = 2 * items
    failed = items * (bool(plain_problems) + bool(traced_problems))
    layers = traced.report.get("layers", {}) if traced.report else {}
    absent = traced.report.get("absent", []) if traced.report else []
    for label in absent:
        print(f"  trace target absent: {label}", file=sys.stderr)

    metrics = {}
    for layer, qualname, _, stat in TARGETS:
        label = f"{layer}.{qualname}"
        row = layers.get(label, {})
        calls = row.get("calls", 0)
        metrics[f"{label}.calls"] = (calls, "count")
        metrics[f"{label}.self_s"] = (row.get("self_s", 0.0), "s")
        metrics[f"{label}.total_s"] = (row.get("total_s", 0.0), "s")
        if stat == "cells":
            metrics[f"{label}.cells"] = (row.get("cells", 0), "count")
        elif stat == "dim_sum":
            metrics[f"{label}.dim_sum"] = (row.get("dim_sum", 0), "count")
        elif stat == "found":
            metrics[f"{label}.useful_ratio"] = (
                row.get("found", 0) / calls if calls else 0.0, "ratio")
        elif stat == "misses":
            misses = row.get("misses", 0)
            metrics[f"{label}.misses"] = (misses, "count")
            metrics[f"{label}.hit_ratio"] = (
                1 - misses / calls if calls else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.sloc"] = (_sloc(os.path.join(SRC, f"{layer}.py")),
                                    "lines")
    metrics["package.sloc"] = (sum(
        _sloc(os.path.join(SRC, f)) for f in sorted(os.listdir(SRC))
        if f.endswith(".py")), "lines")
    plain_wall = plain.report.get("wall_s") if plain.report else None
    traced_wall = traced.report.get("wall_s") if traced.report else None
    metrics["trace.overhead_ratio"] = (
        traced_wall / plain_wall if plain_wall and traced_wall else 0.0,
        "ratio")
    metrics["trace.absent_targets"] = (len(absent), "count")
    metrics["error_rate"] = (failed / attempted, "ratio")
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "absent": absent, "layers": layers}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(args: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded only: the workload grids are fixed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(args)

    missing = [p for p in (os.path.join(SRC, "cli.py"), SCHEMAS)
               if not os.path.exists(p)]
    if missing:
        print(f"not a nakayama checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        import jsonschema  # noqa: F401  (needed by the correctness gate)
    except ImportError:
        print("the correctness gate needs the jsonschema package",
              file=sys.stderr)
        return 2

    argv = WORKLOADS[opts.workload]
    golden = load_golden()
    print(f"workload {opts.workload}: nakayama {' '.join(argv)} --json, "
          f"seed {opts.seed} (recorded only), trace {opts.trace}",
          file=sys.stderr)
    if opts.trace:
        result = run_traced(argv, opts.workload, golden)
    else:
        result = run_untraced(argv, opts.seconds, golden)

    os.makedirs(OUT, exist_ok=True)
    detail = dict(result, workload=opts.workload, argv=argv, seed=opts.seed,
                  seconds=opts.seconds, trace=opts.trace)
    detail["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in result["metrics"].items()}
    with open(os.path.join(
            OUT, f"run-{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"),
            "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
