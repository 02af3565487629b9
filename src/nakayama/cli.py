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
from typing import List, Optional

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
from .decomposition import decompose_product, multable_check

HUMAN_MATRIX_CAP = 4


def _emit(payload: dict, args, human_lines: List[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out_path = getattr(args, "out", None)
    if out_path:
        base = os.environ.get("NAKAYAMA_OUT")
        if base and not os.path.isabs(out_path):
            out_path = os.path.join(base, out_path)
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


def _cmd_algebra(args) -> int:
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
    _emit(payload, args, lines)
    return 0 if ok else 1


def _cmd_catalog(args) -> int:
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
    _emit(payload, args, lines)
    return 0 if ok else 1


def _cmd_tensor(args) -> int:
    u, v = args.u.normalized(args.n), args.v.normalized(args.n)
    rep = decompose_product(u, v, args.n)
    payload = {"n": args.n, "u": u.literal(), "v": v.literal(),
               "input_dim": rep.input_dim, "report": rep.to_json()}
    lines = [f"{u} (x) {v}: dimension {rep.input_dim}"]
    for item in rep.to_json()["summands"]:
        lab = StringLabel(item["family"], item["i"], item["j"], item["k"])
        lines.append(f"  {str(lab):<12} x {item['multiplicity']}")
    if rep.residual_dim:
        lines.append(f"  residual of dimension {rep.residual_dim} "
                     "(outside the string catalog)")
    else:
        lines.append("  no residual")
    _emit(payload, args, lines)
    return 0


def _cmd_multable(args) -> int:
    report = multable_check(args.n, args.k)
    payload = report
    lines = [
        f"multiplication table sweep at n={args.n}, k={args.k}: "
        f"{report['products']} products",
        f"mismatches: {len(report['mismatches'])}",
        "table check: " + ("ok" if report["ok"] else "FAILED"),
    ]
    _emit(payload, args, lines)
    return 0 if report["ok"] else 1


def _cmd_cells(args) -> int:
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
            lines.append("  (grid omitted for n > 4; use --json)")
            continue
        for line in grid:
            lines.append("  " + "  ".join(
                f"{str(entry[0]) if entry else '-':<12}" for entry in line))
    _emit(payload, args, lines)
    return 0 if cs.chain_is_total else 1


def _cmd_adjunction(args) -> int:
    report = adjunction_command(args.n, args.k)
    lines = [f"adjunction consequences at n={args.n}, k={args.k}:"]
    for p in report["pairs"]:
        verdict = "ok" if p["restrict_ok"] and p["hom_ok"] else "FAILED"
        lines.append(f"  anchor {p['i']}|{p['j']}: {verdict}")
    lines.append("all pairs: " + ("ok" if report["ok"] else "FAILED"))
    _emit(report, args, lines)
    return 0 if report["ok"] else 1


def _matrix_lines(rows: List[List[int]], indent: str = "  ") -> List[str]:
    return [indent + " ".join(f"{e:>2}" for e in row) for row in rows]


def _cmd_cellrep(args) -> int:
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
        lines.append("(action matrices omitted for n > 4; use --json)")
    else:
        for lit, rows in blob["action"].items():
            lines.append(f"[{lit}]:")
            lines += _matrix_lines(rows)
    lines.append("block structure: " + ("ok" if blocks["ok"] else "FAILED"))
    lines.append("adjunction consequences: "
                 + ("ok" if adj["ok"] else "FAILED"))
    _emit(payload, args, lines)
    return 0 if blocks["ok"] and adj["ok"] else 1


def _parse_contract(text: str) -> List[int]:
    if not text.strip():
        return []
    try:
        return [int(piece) for piece in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--contract wants comma-separated integers, got {text!r}")


def _cmd_localize(args) -> int:
    base = cell_birep(args.n, args.k, args.j)
    try:
        loc = localize(base, args.contract)
    except ValueError as err:
        args.usage_error(f"--contract {err}")
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
    _emit(payload, args, lines)
    return 0 if verdict and blocks["ok"] and adj["ok"] else 1


def _cmd_classify(args) -> int:
    from math import comb

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
    _emit(payload, args, lines)
    return 0 if counts_ok and all_st else 1


def _label(text: str) -> StringLabel:
    try:
        return parse_label(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0")
    return value


def _add_common(sub):
    sub.add_argument("--json", action="store_true",
                     help="emit JSON on standard output")
    sub.add_argument("--out", help="write the JSON to this file "
                     "(relative paths resolve under $NAKAYAMA_OUT)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nakayama",
        description="Exact bimodule calculus over radical-square-zero "
                    "cyclic Nakayama algebras")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("algebra", help="serialize the algebra and its "
                        "tensor square")
    p.add_argument("--n", type=_positive, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_algebra)

    p = subs.add_parser("catalog", help="list the string bimodule catalog")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--max-valleys", type=_nonnegative, default=2)
    _add_common(p)
    p.set_defaults(func=_cmd_catalog)

    p = subs.add_parser("tensor", help="tensor two catalog bimodules and "
                        "decompose the result")
    p.add_argument("u", type=_label,
                   help="left factor label, e.g. N:1|2:k=1")
    p.add_argument("v", type=_label, help="right factor label")
    p.add_argument("--n", type=_positive, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_tensor)

    p = subs.add_parser("multable", help="sweep the cell multiplication "
                        "table and diff against the predicted entries")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--k", type=_positive, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_multable)

    p = subs.add_parser("cells", help="compute cell partitions, the "
                        "two-sided chain, and egg boxes")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--max-valleys", type=_positive, default=2)
    _add_common(p)
    p.set_defaults(func=_cmd_cells)

    p = subs.add_parser("adjunction", help="verify restriction and "
                        "algebra-hom identities for all anchors")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--k", type=_nonnegative, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_adjunction)

    p = subs.add_parser("cellrep", help="build the cell birepresentation")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--k", type=_positive, default=1)
    p.add_argument("--j", type=_positive, default=1,
                   help="left-cell column to build on")
    _add_common(p)
    p.set_defaults(func=_cmd_cellrep)

    p = subs.add_parser("localize", help="contract arrows of the cell "
                        "birepresentation")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--k", type=_positive, default=1)
    p.add_argument("--j", type=_positive, default=1)
    p.add_argument("--contract", type=_parse_contract, default=[],
                   help="comma-separated component indices, e.g. 1,3")
    _add_common(p)
    p.set_defaults(func=_cmd_localize, usage_error=p.error)

    p = subs.add_parser("classify", help="enumerate all localizations "
                        "and tally ranks")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--k", type=_positive, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
