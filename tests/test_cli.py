"""Tests for the command line interface and its JSON contracts."""

import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

from nakayama.cli import adjunction_command, main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_json(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, json.loads(out)


def test_catalog_small_range_lists_the_split_families(capsys):
    status = main(["catalog", "--n", "1", "--max-valleys", "0"])
    out = capsys.readouterr().out
    assert status == 0
    assert "5 bimodules" in out
    for fragment in ("P_1|1", "L_1|1", "S^(0)_1|1", "N^(0)_1|1", "M^(0)_1|1"):
        assert fragment in out


def test_catalog_json_matches_schema(capsys):
    status, blob = run_json(capsys, ["catalog", "--n", "1",
                                     "--max-valleys", "0", "--json"])
    assert status == 0
    jsonschema.validate(blob, load_schema("catalog"))
    assert [e["dim"] for e in blob["entries"]] == [4, 1, 2, 2, 3]


def test_algebra_json_matches_schema(capsys):
    status, blob = run_json(capsys, ["algebra", "--n", "2", "--json"])
    assert status == 0
    jsonschema.validate(blob, load_schema("algebra"))
    assert blob["associative"] is True
    assert blob["nakayama"]["dimension"] == 4
    assert blob["torus"]["dimension"] == 16


def test_tensor_reports_summands(capsys):
    status, blob = run_json(capsys, ["tensor", "N:1|1:k=1", "S:1|1:k=1",
                                     "--n", "2", "--json"])
    assert status == 0
    jsonschema.validate(blob, load_schema("tensor"))
    families = {(s["family"], s["k"]) for s in blob["report"]["summands"]}
    assert ("W", 1) in families
    assert blob["report"]["residual_dim"] == 0


def test_tensor_of_mismatched_columns_loses_its_valley_part(capsys):
    status, blob = run_json(capsys, ["tensor", "N:1|1:k=1", "N:2|2:k=1",
                                     "--n", "2", "--json"])
    assert status == 0
    assert all(s["k"] == 0 for s in blob["report"]["summands"])
    assert set(blob["report"]["cells"]) == {"J_split"}


def test_multable_passes(capsys):
    status = main(["multable", "--n", "2", "--k", "1"])
    out = capsys.readouterr().out
    assert status == 0
    assert "mismatches: 0" in out


def test_multable_json_matches_schema(capsys):
    status, blob = run_json(capsys, ["multable", "--n", "1", "--k", "1",
                                     "--json"])
    assert status == 0
    jsonschema.validate(blob, load_schema("multable"))
    assert blob["products"] == 16


def test_cells_prints_chain_and_egg_box(capsys):
    status = main(["cells", "--n", "2", "--max-valleys", "1"])
    out = capsys.readouterr().out
    assert status == 0
    assert "J_split >= J_M0 >= J_1" in out
    assert "egg box of J_1 (4x4):" in out


def test_cells_json_matches_schema(capsys):
    status, blob = run_json(capsys, ["cells", "--n", "1",
                                     "--max-valleys", "1", "--json"])
    assert status == 0
    jsonschema.validate(blob, load_schema("cells"))
    assert blob["chain"] == ["J_split", "J_M0", "J_1"]


@pytest.mark.parametrize("n,k", [(2, 1), (1, 2), (3, 0), (5, 6)])
def test_adjunction_command_passes(n, k):
    report = adjunction_command(n, k)
    assert report["ok"]
    assert len(report["pairs"]) == n * n


def test_adjunction_cli_and_schema(capsys):
    status, blob = run_json(capsys, ["adjunction", "--n", "2", "--k", "1",
                                     "--json"])
    assert status == 0
    jsonschema.validate(blob, load_schema("adjunction"))


def test_cellrep_human_and_json(capsys):
    status = main(["cellrep", "--n", "1", "--k", "1"])
    out = capsys.readouterr().out
    assert status == 0
    assert "rank 2" in out and "Cartan matrix:" in out

    status, blob = run_json(capsys, ["cellrep", "--n", "2", "--k", "1",
                                     "--json"])
    assert status == 0
    jsonschema.validate(blob, load_schema("cellrep"))
    assert len(blob["birep"]["action"]) == 16
    assert blob["block_structure"]["ok"] is True


def test_cellrep_header_names_the_column_residue(capsys):
    # column 5 at n = 2 is column 1, as the birep and its JSON say
    headers = []
    for j in ("5", "1"):
        assert main(["cellrep", "--n", "2", "--k", "1", "--j", j]) == 0
        headers.append(capsys.readouterr().out.splitlines()[0])
    assert headers[0] == headers[1] == (
        "cell birep at n=2, k=1, column 1: rank 4")


def test_localize_verdict_and_schema(capsys):
    status = main(["localize", "--n", "2", "--k", "1", "--contract", "1"])
    out = capsys.readouterr().out
    assert status == 0
    assert "rank 3" in out and "simple transitive: yes" in out

    status, blob = run_json(capsys, ["localize", "--n", "2", "--k", "1",
                                     "--contract", "1,2", "--json"])
    assert status == 0
    jsonschema.validate(blob, load_schema("localize"))
    assert blob["birep"]["rank"] == 2
    assert blob["simple_transitive"] is True


def test_classify_counts_and_schema(capsys):
    status, blob = run_json(capsys, ["classify", "--n", "2", "--k", "1",
                                     "--json"])
    assert status == 0
    jsonschema.validate(blob, load_schema("classification"))
    assert blob["counts"] == {"2": 1, "3": 2, "4": 1}


def test_json_output_is_deterministic(capsys):
    argv = ["classify", "--n", "2", "--k", "1", "--json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_classify_frontier_output_is_byte_stable(capsys):
    # n = 8 reads its 256 subsets off the merged family blocks, four times
    # the n = 6 benchmark, so the block tables are pinned at scale
    status = main(["classify", "--n", "8", "--k", "1", "--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d7de3c79e8c51ab756ccc2850c741eb0d1ab308e550cf318392112bd51d32e28")


def test_classify_at_twelve_components_output_is_byte_stable(capsys):
    # n = 12 has 4,096 subsets; the digest is that of the earlier path,
    # which localized by every subset and checked the laid-out birep
    status = main(["classify", "--n", "12", "--k", "1", "--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "278b98032188c3c82230f6f7f823eb391f12c415cc6c6b80596e6ea4259145ea")


def test_classify_at_three_valleys_output_is_byte_stable(capsys):
    # at k = 3 the greater-cell objects include strings of one and two
    # valleys, so the quotient hom spaces and arrow scalars behind every
    # verdict are pinned beyond k = 1
    status = main(["classify", "--n", "4", "--k", "3", "--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2d20a35d1e063f220a3a9f4d2fe84ff9f9d06ba58ebca3adabfea47cdddaa1ed")


def test_classify_wrapping_output_is_byte_stable(capsys):
    # at n = 2 with k = 3 the walks wrap the torus, so the positions the
    # birep core shifts along its translation orbits meet stacked points
    status = main(["classify", "--n", "2", "--k", "3", "--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7e14f475d883805f318335adacd307a5c517262736aa9959f569cbb4a18276ce")


def test_multable_wrapping_output_is_byte_stable(capsys):
    # at n = 1 with k = 3 every walk wraps the torus several times, so the
    # hom solves and trace pairings of the decomposition are pinned there
    status = main(["multable", "--n", "1", "--k", "3", "--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a749c614dd80d3b17766fead251840e7b57af896503858fd165d11c5b718e019")


def test_cells_at_one_vertex_output_is_byte_stable(capsys):
    # at n = 1 most catalog candidates fit and pair to rank 0, so the
    # sparse pairing ranks and split pairs of decompose are pinned there
    status = main(["cells", "--n", "1", "--max-valleys", "2", "--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9576b5301e79ead153fac560c19500b96d107c02ccfd5a7131f716d78869d75a")


def test_cells_at_three_valleys_output_is_byte_stable(capsys):
    # at n = 3 with three valleys many canonical products are equal as
    # bimodules and share one decomposition, so those shared answers are
    # pinned
    status = main(["cells", "--n", "3", "--max-valleys", "3", "--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9eb5db0b911fb6250f796b8dd5f96958b570733579a878c562ae14882ffc0d5d")


@pytest.mark.parametrize("argv, digest", [
    # at n = 1 and 2 with four and three valleys the products are large
    # and fall into many pieces of their basis graph, each scanned alone
    (["cells", "--n", "1", "--max-valleys", "4"],
     "80f4630839d3de7129292774add2904b00c9a3014a108a98a8734045eb5bb1a9"),
    (["cells", "--n", "2", "--max-valleys", "3"],
     "f203beddd42480090662e7c2864b5eac39c36a2ca699a3883314cd9289d0eee9"),
    (["multable", "--n", "1", "--k", "6"],
     "106b0efa0c3c2fcda32403cd65546f6aff606b5f91319d9c38bf7671c5a71281"),
], ids=["cells-n1-v4", "cells-n2-v3", "multable-n1-k6"])
def test_small_n_large_k_output_is_byte_stable(capsys, argv, digest):
    status = main(argv + ["--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cells_at_twenty_four_components_output_is_byte_stable(capsys):
    # 5,184 catalog nodes in nine kinds: the closures run on column and
    # row states, each found once per kind and moved along the torus
    status = main(["cells", "--n", "24", "--max-valleys", "1", "--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a0eea793bd706a722db0463abdb4a4c27ba032eae284fe85254172501b3881b1")


def test_cells_at_sixteen_components_output_is_byte_stable(capsys):
    status = main(["cells", "--n", "16", "--max-valleys", "2", "--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "162e5d64c17e44cc3324fdb2a05894a844b89cfc8ca0ca98b810a46833100cca")


def test_multable_at_twelve_components_output_is_byte_stable(capsys):
    # 331,776 anchor quadruples decided by 192 canonical products
    status = main(["multable", "--n", "12", "--k", "1", "--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fe01c3f716f049572b6055e517f8bf2c48b2f678670e415385d99feca3796505")


def test_cellrep_output_is_byte_stable(capsys):
    # the cell birep reads every generator's module from construct, which
    # translates the module built at anchor 1|1
    status = main(["cellrep", "--n", "3", "--k", "2", "--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "228d94e1dff70797ea372698218cbc624af232d6c6da5d15e5baec7d9a5d390b")


def test_cellrep_text_output_is_byte_stable(capsys):
    # the text summary prints the Cartan matrix and every action matrix,
    # each laid out from the birep's integer triples
    status = main(["cellrep", "--n", "3", "--k", "1"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "86a0566db9d7d89731c5aedb48289cbd5893217d4d7a657f4ccb741b0d9d05e9")


def test_localize_output_is_byte_stable(capsys):
    # a localized birep merges the rows of its contracted components, so
    # its action, Cartan matrix and verifier reports are pinned there
    status = main(["localize", "--n", "4", "--k", "2", "--contract", "1,3",
                   "--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b9bafc9baa556ccaa0204f53729e963322929cbf977d52faa734cb08848b7b23")


@pytest.mark.parametrize("argv, digest", [
    (["tensor", "M:1|1:k=3", "S:1|1:k=3", "--n", "1"],
     "022fbcf994ff16287dbce58a37849345d1ec0ea2dd34e3941794df759d70dbc1"),
    (["tensor", "M:1|1:k=2", "P:1|1", "--n", "2"],
     "9fc9fb9f8264b5b8d3b9ae8eaa321a402b0f6cfee1044ee558f37351ddc2c1b8"),
    (["tensor", "W:1|3:k=2", "M:1|1:k=2", "--n", "3"],
     "e046caf5b165cea5ebd010d8fa3a12e220c6cf6f3b8b0eca894fee1c06bbf3ce"),
], ids=["M3-S3-n1", "M2-P-n2", "W2-M2-n3"])
def test_tensor_output_is_byte_stable(capsys, argv, digest):
    # each product falls into several pieces of its basis graph, so the
    # summed multiplicities and residual of decompose are pinned there
    status = main(argv + ["--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (["cellrep", "--n", "12", "--k", "1", "--json"],
     "3a65730c06ed6d5176c03caed5794213d2c75f9d41ae2178ff6fa81ab2cec0c6"),
    (["localize", "--n", "12", "--k", "1", "--contract", "1,3", "--json"],
     "30ffc9a627a8df52ce13755e09875cd7e26b0033d6b14cbca16ee5518b54ccb3"),
])
def test_block_verifier_at_twelve_components_is_byte_stable(capsys, argv,
                                                            digest):
    # the block verifier squares 576 generator matrices of rank 24 here, so
    # its flags and failures are pinned where a dense square cost the most
    status = main(argv)
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_adjunction_wrapping_output_is_byte_stable(capsys):
    # at n = 2 with k = 3 the walks wrap the torus, so translated modules
    # and their translated duals meet stacked points
    status = main(["adjunction", "--n", "2", "--k", "3", "--json"])
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ac225c4bf414b3f8c8580841514ef63e733912e71c7c48254348d24b897a9107")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    status = main(["multable", "--n", "1", "--k", "1",
                   "--out", str(target)])
    capsys.readouterr()
    assert status == 0
    blob = json.loads(target.read_text())
    assert blob["ok"] is True


@pytest.mark.parametrize("name", ["missing/x.json", "."])
def test_unwritable_out_exits_with_code_two(tmp_path, capsys, name):
    # a missing directory or a directory as the target: one line on
    # stderr and the usage-error code, not a traceback and not the code
    # of a failed check
    target = tmp_path / name
    with pytest.raises(SystemExit) as err:
        main(["catalog", "--n", "1", "--json", "--out", str(target)])
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert not out
    assert errors.startswith(f"nakayama: cannot write {target}: ")
    assert errors.count("\n") == 1


def test_relative_out_resolves_under_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NAKAYAMA_OUT", str(tmp_path))
    status = main(["catalog", "--n", "1", "--max-valleys", "0",
                   "--out", "cat.json"])
    capsys.readouterr()
    assert status == 0
    assert (tmp_path / "cat.json").exists()


def test_usage_errors_exit_with_code_two():
    with pytest.raises(SystemExit) as err:
        main(["multable"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["catalog", "--n", "0"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["localize", "--n", "2", "--contract", "one,two"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("contract,bad", [("3", "[3]"), ("0", "[0]"),
                                          ("2,5,0,5", "[0, 5]")])
def test_out_of_range_contract_indices_are_usage_errors(tmp_path, capsys,
                                                        contract, bad):
    # like a non-integer index: exit 2, no traceback, nothing on stdout
    # and no --out file
    target = tmp_path / "loc.json"
    with pytest.raises(SystemExit) as err:
        main(["localize", "--n", "2", "--contract", contract,
              "--out", str(target)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    named = [line for line in captured.err.splitlines() if bad in line]
    assert named == [
        "nakayama localize: error: --contract component indices out of "
        f"range 1..2: {bad}"]
    assert not target.exists()


@pytest.mark.parametrize("u,v,bad", [
    ("Q:1|1", "L:1|1", "argument u: cannot parse label literal 'Q:1|1'"),
    ("P:1|1:k=1", "L:1|1", "argument u: P labels carry no valley count"),
    ("L:1|1", "S:1|1", "argument v: S labels need a valley count k >= 0"),
])
def test_bad_tensor_labels_are_usage_errors(capsys, u, v, bad):
    # like a bad --contract: exit 2, no traceback, nothing on stdout, and
    # the message names the argument
    with pytest.raises(SystemExit) as err:
        main(["tensor", u, v, "--n", "2", "--json"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == f"nakayama tensor: error: {bad}"


def test_a_negative_valley_bound_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["catalog", "--n", "1", "--max-valleys", "-1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --max-valleys: must be at least 0" in captured.err


# -- the command line surface ------------------------------------------------

# each command's help string and flags, as `nakayama --help` and
# `nakayama <cmd> --help` show them; REQUIRED names what a bare `<cmd>`
# reports missing
COMMANDS = {
    "algebra": ("serialize the algebra and its tensor square",
                ["--n", "--json", "--out"]),
    "catalog": ("list the string bimodule catalog",
                ["--n", "--max-valleys", "--json", "--out"]),
    "tensor": ("tensor two catalog bimodules and decompose the result",
               ["left factor label, e.g. N:1|2:k=1", "right factor label",
                "--n", "--json", "--out"]),
    "multable": ("sweep the cell multiplication table and diff against the "
                 "predicted entries", ["--n", "--k", "--json", "--out"]),
    "cells": ("compute cell partitions, the two-sided chain, and egg boxes",
              ["--n", "--max-valleys", "--json", "--out"]),
    "adjunction": ("verify restriction and algebra-hom identities for all "
                   "anchors", ["--n", "--k", "--json", "--out"]),
    "cellrep": ("build the cell birepresentation",
                ["--n", "--k", "--j", "left-cell column to build on",
                 "--json", "--out"]),
    "localize": ("contract arrows of the cell birepresentation",
                 ["--n", "--k", "--j", "--contract",
                  "comma-separated component indices, e.g. 1,3",
                  "--json", "--out"]),
    "classify": ("enumerate all localizations and tally ranks",
                 ["--n", "--k", "--json", "--out"]),
}
REQUIRED = {name: "--n" for name in COMMANDS}
REQUIRED["tensor"] = "u, v, --n"


def help_text(capsys, monkeypatch, argv):
    # wide enough that argparse wraps no help string, and with its
    # whitespace folded, so the checks hold across Python versions
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 0
    out, errors = capsys.readouterr()
    assert not errors
    return " ".join(out.split())


def test_top_level_help_lists_every_command(capsys, monkeypatch):
    text = help_text(capsys, monkeypatch, ["--help"])
    assert "usage: nakayama [-h] {" + ",".join(COMMANDS) + "}" in text
    for name, (summary, _) in COMMANDS.items():
        assert f"{name} {summary}" in text


@pytest.mark.parametrize("name", COMMANDS)
def test_command_help_names_each_flag(capsys, monkeypatch, name):
    text = help_text(capsys, monkeypatch, [name, "--help"])
    assert text.startswith(f"usage: nakayama {name} [-h]")
    for flag in COMMANDS[name][1]:
        assert flag in text
    assert "emit JSON on standard output" in text
    assert "(relative paths resolve under $NAKAYAMA_OUT)" in text


@pytest.mark.parametrize("name", COMMANDS)
def test_missing_required_arguments_are_usage_errors(capsys, name):
    with pytest.raises(SystemExit) as err:
        main([name])
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert not out
    assert errors.splitlines()[-1] == (
        f"nakayama {name}: error: the following arguments are required: "
        f"{REQUIRED[name]}")


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no argument
    monkeypatch.setattr("sys.argv", ["nakayama", "algebra", "--n", "1",
                                     "--json"])
    assert main() == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["associative"] is True
    monkeypatch.setattr("sys.argv", ["nakayama", "catalog", "--n", "0"])
    with pytest.raises(SystemExit) as err:
        main()
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "nakayama catalog: error: argument --n: must be at least 1")


# the usage line of the parser of every command
USAGE = "usage: nakayama [-h] {" + ",".join(COMMANDS) + "} ..."


def usage_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert not out
    return errors


def test_an_unknown_option_before_a_command_lists_every_command(
        capsys, monkeypatch):
    # argparse builds only the named command's parser, unless something is
    # left unparsed: then the parser of every command reports it
    errors = usage_error(capsys, monkeypatch,
                         ["--bogus", "multable", "--n", "1", "--k", "2"])
    assert errors == (f"{USAGE}\n"
                      "nakayama: error: unrecognized arguments: --bogus\n")
    errors = usage_error(capsys, monkeypatch,
                         ["multable", "--n", "1", "extra"])
    assert errors == (f"{USAGE}\n"
                      "nakayama: error: unrecognized arguments: extra\n")


def test_an_invalid_command_lists_every_command(capsys, monkeypatch):
    errors = usage_error(capsys, monkeypatch, ["bogus", "--n", "1"])
    usage, message = errors.splitlines()
    assert usage == USAGE
    head = "nakayama: error: argument command: invalid choice: 'bogus' " \
           "(choose from "
    assert message.startswith(head)
    listed = [name.strip(" '") for name in
              message[len(head):].rstrip(")").split(",")]
    assert listed == list(COMMANDS)


@pytest.mark.parametrize("argv", [["--help", "multable"],
                                  ["-h", "tensor", "--n", "1"]])
def test_help_before_a_command_lists_every_command(capsys, monkeypatch,
                                                   argv):
    text = help_text(capsys, monkeypatch, argv)
    assert text.startswith(USAGE)
    for name, (summary, _) in COMMANDS.items():
        assert f"{name} {summary}" in text
