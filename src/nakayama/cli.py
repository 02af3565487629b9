"""Command line frontend.

Every subcommand prints a human-readable summary by default, emits JSON
with --json, and writes the same JSON to a file with --out.  A relative
--out path lands in the directory named by the NAKAYAMA_OUT environment
variable when that is set.  Output is byte-identical across runs with
the same flags, and the exit code is 0 exactly when every
verification the command performs comes out clean, 1 when one fails,
and 2 on a usage error or an --out file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb
from typing import Iterable, List, Optional, Tuple

from .algebras import build_nakayama, build_torus
from .bimodules import (
    StringLabel,
    adjunction_command,
    catalog_labels,
    construct,
    parse_label,
)
from .bireps import (
    cell_birep,
    classify,
    is_simple_transitive,
    localize,
    verify_adjunction_consequences,
    verify_block_structure,
)
from .cells import compute_cells
from .decomposition import _label_sort_key, decompose_product, multable_check

HUMAN_MATRIX_CAP = 4
_OMITTED = f"omitted for n > {HUMAN_MATRIX_CAP}; use --json"

# what a command computes: its JSON payload, its human-readable lines, and
# whether every check it made came out clean
_Result = Tuple[dict, List[str], bool]


def _emit(payload: dict, args, human_lines: List[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        # join keeps an absolute path as it is
        out_path = os.path.join(os.environ.get("NAKAYAMA_OUT", ""), args.out)
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            sys.stderr.write(
                f"nakayama: cannot write {out_path}: {err.strerror}\n")
            raise SystemExit(2) from None
    if args.json:
        sys.stdout.write(text)
    else:
        for line in human_lines:
            print(line)


def _cmd_algebra(args) -> _Result:
    nak = build_nakayama(args.n)
    torus = build_torus(args.n)
    ok = nak.is_associative()
    payload = {
        "nakayama": nak.to_json(),
        "torus": torus.to_json(),
        "associative": ok,
    }
    lines = [
        f"Nakayama algebra on {args.n} vertices, dimension {2 * args.n}",
        f"tensor square algebra: {args.n * args.n} vertices, "
        f"dimension {4 * args.n * args.n}",
        f"associativity check: {'ok' if ok else 'FAILED'}",
    ]
    return payload, lines, ok


def _cmd_catalog(args) -> _Result:
    labels = catalog_labels(args.n, args.max_valleys)
    entries = []
    ok = True
    lines = [f"catalog for n={args.n}, up to {args.max_valleys} valleys: "
             f"{len(labels)} bimodules"]
    for lab in labels:
        mod = construct(lab, args.n)
        if mod.total_dim != lab.dimension:
            ok = False
        vec = {f"{i}|{j}": d for (i, j), d in sorted(mod.dim_vector().items())}
        entries.append({
            "label": lab.literal(),
            "family": lab.family,
            "i": lab.i,
            "j": lab.j,
            "k": lab.k,
            "dim": mod.total_dim,
            "dim_vector": vec,
        })
        lines.append(f"  {str(lab):<12} dim {mod.total_dim:>2}  {vec}")
    payload = {"n": args.n, "max_valleys": args.max_valleys,
               "count": len(labels), "entries": entries, "ok": ok}
    return payload, lines, ok


def _cmd_tensor(args) -> _Result:
    u, v = args.u.normalized(args.n), args.v.normalized(args.n)
    rep = decompose_product(u, v, args.n)
    payload = {"n": args.n, "u": u.literal(), "v": v.literal(),
               "input_dim": rep.input_dim, "report": rep.to_json()}
    lines = [f"{u} (x) {v}: dimension {rep.input_dim}"]
    counts = rep.multiset()
    for lab in sorted(counts, key=_label_sort_key):
        lines.append(f"  {str(lab):<12} x {counts[lab]}")
    if rep.residual_dim:
        lines.append(f"  residual of dimension {rep.residual_dim} "
                     "(outside the string catalog)")
    else:
        lines.append("  no residual")
    return payload, lines, True


def _cmd_multable(args) -> _Result:
    report = multable_check(args.n, args.k)
    lines = [
        f"multiplication table sweep at n={args.n}, k={args.k}: "
        f"{report['products']} products",
        f"mismatches: {len(report['mismatches'])}",
        "table check: " + ("ok" if report["ok"] else "FAILED"),
    ]
    return report, lines, report["ok"]


def _cmd_cells(args) -> _Result:
    cs = compute_cells(args.n, args.max_valleys)
    payload = cs.to_json()
    lines = []
    if cs.chain_is_total:
        lines.append("two-sided chain: " + " >= ".join(cs.chain()))
    else:
        lines.append("two-sided order is not total")
    for k in range(1, args.max_valleys + 1):
        rows, cols, grid = cs.egg_box(f"J_{k}")
        lines.append(f"egg box of J_{k} ({len(rows)}x{len(cols)}):")
        if args.n > HUMAN_MATRIX_CAP:
            lines.append(f"  (grid {_OMITTED})")
            continue
        for line in grid:
            lines.append("  " + "  ".join(
                f"{str(entry[0]) if entry else '-':<12}" for entry in line))
    return payload, lines, cs.chain_is_total


def _cmd_adjunction(args) -> _Result:
    report = adjunction_command(args.n, args.k)
    lines = [f"adjunction consequences at n={args.n}, k={args.k}:"]
    for p in report["pairs"]:
        verdict = "ok" if p["restrict_ok"] and p["hom_ok"] else "FAILED"
        lines.append(f"  anchor {p['i']}|{p['j']}: {verdict}")
    lines.append("all pairs: " + ("ok" if report["ok"] else "FAILED"))
    return report, lines, report["ok"]


def _matrix_lines(rows: List[List[int]], indent: str = "  ") -> List[str]:
    return [indent + " ".join(f"{e:>2}" for e in row) for row in rows]


def _cmd_cellrep(args) -> _Result:
    b = cell_birep(args.n, args.k, args.j)
    blocks = verify_block_structure(b)
    adj = verify_adjunction_consequences(b)
    blob = b.to_json()
    payload = {"birep": blob, "block_structure": blocks, "adjunction": adj}
    lines = [f"cell birep at n={args.n}, k={args.k}, column {b.column}: "
             f"rank {b.rank}",
             "objects: " + " ".join(blob["objects"]),
             "Cartan matrix:"]
    lines += _matrix_lines(blob["cartan"])
    if args.n > HUMAN_MATRIX_CAP:
        lines.append(f"(action matrices {_OMITTED})")
    else:
        for lit, rows in blob["action"].items():
            lines.append(f"[{lit}]:")
            lines += _matrix_lines(rows)
    lines.append("block structure: " + ("ok" if blocks["ok"] else "FAILED"))
    lines.append("adjunction consequences: "
                 + ("ok" if adj["ok"] else "FAILED"))
    return payload, lines, blocks["ok"] and adj["ok"]


def _cmd_localize(args) -> _Result:
    base = cell_birep(args.n, args.k, args.j)
    try:
        loc = localize(base, args.contract)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"--contract {err}") from None
    verdict = is_simple_transitive(loc)
    blocks = verify_block_structure(loc)
    adj = verify_adjunction_consequences(loc)
    payload = {"birep": loc.to_json(), "simple_transitive": verdict,
               "block_structure": blocks, "adjunction": adj}
    lines = [
        f"localized at I={sorted(loc.contracted)}: rank {loc.rank}",
        "objects: " + " ".join(s.name for s in loc.objects),
        f"simple transitive: {'yes' if verdict else 'no'}",
        "block structure: " + ("ok" if blocks["ok"] else "FAILED"),
    ]
    return payload, lines, verdict and blocks["ok"] and adj["ok"]


def _cmd_classify(args) -> _Result:
    report = classify(args.n, args.k)
    payload = report.to_json()
    counts_ok = all(
        report.counts.get(args.n + j, 0) == comb(args.n, j)
        for j in range(args.n + 1)
    ) and sum(report.counts.values()) == 2 ** args.n
    all_st = all(e["simple_transitive"] for e in report.entries)
    lines = [f"classification at n={args.n}, k={args.k}: "
             f"{len(report.entries)} birepresentations"]
    for entry in report.entries:
        lines.append(f"  I={entry['I']}: rank {entry['rank']}, "
                     f"simple transitive: "
                     f"{'yes' if entry['simple_transitive'] else 'no'}")
    lines.append("counts by rank: " + json.dumps(
        {str(r): c for r, c in sorted(report.counts.items())}))
    lines.append("binomial check: " + ("ok" if counts_ok else "FAILED"))
    return payload, lines, counts_ok and all_st


def _parse_contract(text: str) -> List[int]:
    if not text.strip():
        return []
    try:
        return [int(piece) for piece in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--contract wants comma-separated integers, got {text!r}")


def _label(text: str) -> StringLabel:
    try:
        return parse_label(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _at_least(low: int, name: str):
    """The argparse type of an int no less than low.  argparse names the
    type when int() refuses the text, so it takes the given name."""
    def check(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value

    check.__name__ = name
    return check


_POSITIVE = _at_least(1, "_positive")
_NONNEGATIVE = _at_least(0, "_nonnegative")

# the arguments that several commands share, as (flag, options) pairs for
# add_argument; _with gives a command its own bound or help
_N = ("--n", {"type": _POSITIVE, "required": True})
_K = ("--k", {"type": _POSITIVE, "default": 1})
_J = ("--j", {"type": _POSITIVE, "default": 1})
_MAX_VALLEYS = ("--max-valleys", {"type": _POSITIVE, "default": 2})
_OUTPUT = (("--json", {"action": "store_true",
                       "help": "emit JSON on standard output"}),
           ("--out", {"help": "write the JSON to this file "
                      "(relative paths resolve under $NAKAYAMA_OUT)"}))


def _with(spec, **options):
    return spec[0], {**spec[1], **options}


# each command once: its help, its arguments before the shared --json and
# --out, and the function that computes its _Result, which main emits
_COMMANDS = {
    "algebra": ("serialize the algebra and its tensor square", [_N],
                _cmd_algebra),
    "catalog": ("list the string bimodule catalog",
                [_N, _with(_MAX_VALLEYS, type=_NONNEGATIVE)], _cmd_catalog),
    "tensor": ("tensor two catalog bimodules and decompose the result",
               [("u", {"type": _label,
                       "help": "left factor label, e.g. N:1|2:k=1"}),
                ("v", {"type": _label, "help": "right factor label"}), _N],
               _cmd_tensor),
    "multable": ("sweep the cell multiplication table and diff against the "
                 "predicted entries", [_N, _K], _cmd_multable),
    "cells": ("compute cell partitions, the two-sided chain, and egg boxes",
              [_N, _MAX_VALLEYS], _cmd_cells),
    "adjunction": ("verify restriction and algebra-hom identities for all "
                   "anchors", [_N, _with(_K, type=_NONNEGATIVE)],
                   _cmd_adjunction),
    "cellrep": ("build the cell birepresentation",
                [_N, _K, _with(_J, help="left-cell column to build on")],
                _cmd_cellrep),
    "localize": ("contract arrows of the cell birepresentation",
                 [_N, _K, _J, ("--contract", {
                     "type": _parse_contract, "default": (),
                     "help": "comma-separated component indices, e.g. 1,3"})],
                 _cmd_localize),
    "classify": ("enumerate all localizations and tally ranks", [_N, _K],
                 _cmd_classify),
}


def _parser(names: Iterable[str]
            ) -> Tuple[argparse.ArgumentParser, argparse.Action]:
    """The parser of the named commands, with their arguments, and its
    subparsers action."""
    parser = argparse.ArgumentParser(
        prog="nakayama",
        description="Exact bimodule calculus over radical-square-zero "
                    "cyclic Nakayama algebras")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in names:
        summary, specs, _ = _COMMANDS[name]
        sub = subs.add_parser(name, help=summary)
        for flag, options in (*specs, *_OUTPUT):
            sub.add_argument(flag, **options)
    return parser, subs


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command named first is the only one argparse needs; any other
    # argv, or one that command leaves unparsed, goes to the parser of
    # every command, whose help and errors list them all
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    if named:
        parser, subs = _parser([named])
        args, extras = parser.parse_known_args(argv)
    if not named or extras:
        parser, subs = _parser(_COMMANDS)
        args = parser.parse_args(argv)
    try:
        payload, lines, ok = _COMMANDS[args.command][2](args)
    except argparse.ArgumentTypeError as err:
        # a command refuses its arguments as a type function does
        subs.choices[args.command].error(str(err))
    _emit(payload, args, lines)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
