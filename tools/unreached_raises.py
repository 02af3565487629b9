"""Check that some test reaches every raise statement of the package, and
that the tests reaching it fail without it.

Runs the test suite in this process under a ``sys.settrace`` line tracer
(the standard library only, no coverage package) and records, for each
``raise`` statement in ``src/nakayama``, the tests that ran one of its
lines.  Each raise that no test reaches is printed as ``path:line``.

Each reached raise is then made a mutant: in a temporary copy of the
package the statement becomes ``pass``, and only the tests that reached
it run against that copy, in a fresh interpreter with a time limit, one
mutant after another.  Each file of the package is read once, at the
start, and every mutant and the copy are made from that text.  The
package in ``src/`` is never edited.  A mutant under which every one of
those tests still passes survives, and is printed as ``path:line
survives``: no test tells the check from its absence.  A mutant whose
tests run out of time counts as caught.

Exits with pytest's own status if the traced suite fails, 1 if any raise
is unreached, any mutant survives or any mutant's tests could not be
run, and 0 otherwise.  The traced run is a few times slower than the
plain suite.

    python tools/unreached_raises.py [extra pytest arguments]

The extra arguments go to the traced run only.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nakayama"
# a mutant's reaching tests take seconds; a mutant that makes them loop
# is stopped after this long and counts as caught
MUTANT_TIMEOUT_S = 300

# (path relative to the root, first line) of a raise statement
RaiseKey = Tuple[str, int]


def raise_nodes(source: str, path: Path) -> List[ast.Raise]:
    """Every raise statement in source, the text of path, by position."""
    tree = ast.parse(source, filename=str(path))
    return sorted((node for node in ast.walk(tree)
                   if isinstance(node, ast.Raise)),
                  key=lambda node: (node.lineno, node.col_offset))


def run_traced(pytest_args: List[str],
               spans: Dict[str, Dict[int, RaiseKey]]
               ) -> Tuple[int, Dict[RaiseKey, Set[str]]]:
    """Run pytest under the tracer; return its exit status and, for each
    raise that ran, the node ids of the tests that ran it.

    spans maps each resolved package path to the raise of each line that
    a raise statement spans.  Work done while a module is collected is
    credited to the module's node id.
    """
    import pytest

    reached: Dict[RaiseKey, Set[str]] = {}
    current = [""]

    class Recorder:
        @pytest.hookimpl(tryfirst=True)
        def pytest_collectstart(self, collector):
            current[0] = collector.nodeid

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_protocol(self, item, nextitem):
            current[0] = item.nodeid

    # the raise lines of each code object, or None for one that holds no
    # raise and is not traced line by line
    codes: Dict[object, object] = {}

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in codes:
            at = spans.get(os.path.realpath(code.co_filename), {})
            lines = {line: at[line] for _, _, line in code.co_lines()
                     if line in at}
            codes[code] = lines or None
        lines = codes[code]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                reached.setdefault(lines[frame.f_lineno],
                                   set()).add(current[0])
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors",
                              *pytest_args], plugins=[Recorder()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), reached


def without(source: str, node: ast.Raise) -> str:
    """source with the raise statement node replaced by ``pass``, every
    other statement kept on its line.  AST columns count UTF-8 bytes."""
    lines = source.encode("utf-8").splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    head = lines[first][:node.col_offset]
    tail = lines[last][node.end_col_offset:]
    mutant = b"".join(lines[:first]
                      + [head + b"pass" + tail + b"\n" * (last - first)]
                      + lines[last + 1:]).decode("utf-8")
    ast.parse(mutant)
    return mutant


def run_mutant(copy: Path, relative: str, mutant: str,
               tests: Set[str]) -> int:
    """The pytest status of tests run on copy with the file at relative
    replaced by mutant, or 1 if they run out of time: 0 if they all
    pass, 1 or 2 if one fails or errs.  The file is put back afterwards.
    A test id of "" stands for the whole suite."""
    target = copy / relative
    original = target.read_text(encoding="utf-8")
    target.write_text(mutant, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    args = [] if "" in tests else sorted(tests)
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *args], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=MUTANT_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return 1
    finally:
        target.write_text(original, encoding="utf-8")


def main(argv: List[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    nodes: Dict[RaiseKey, ast.Raise] = {}
    spans: Dict[str, Dict[int, RaiseKey]] = {}
    # each file is read once: its mutants are cut from the text its raise
    # spans came from, and the copy holds that text, even if the working
    # tree changes while the suite runs
    sources: Dict[str, str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = str(path.relative_to(ROOT))
        source = sources[relative] = path.read_text(encoding="utf-8")
        at = spans.setdefault(os.path.realpath(path), {})
        for node in raise_nodes(source, path):
            key = (relative, node.lineno)
            nodes[key] = node
            at.update((line, key) for line in
                      range(node.lineno, node.end_lineno + 1))
    status, reached = run_traced(argv, spans)
    if status != 0:
        print(f"the test suite failed (pytest exit {status}); "
              "no list of unreached raises", file=sys.stderr)
        return status
    unreached = [key for key in nodes if key not in reached]
    for relative, line in unreached:
        print(f"{relative}:{line}")
    print(f"{len(unreached)} unreached raise statement(s)")

    survivors, broken = [], []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(PACKAGE, copy / PACKAGE.relative_to(ROOT),
                        ignore=shutil.ignore_patterns("__pycache__"))
        for relative, source in sources.items():
            (copy / relative).write_text(source, encoding="utf-8")
        for key, node in nodes.items():
            if key not in reached:
                continue
            relative, line = key
            code = run_mutant(copy, relative,
                              without(sources[relative], node), reached[key])
            if code == 0:
                survivors.append(key)
                print(f"{relative}:{line} survives: its "
                      f"{len(reached[key])} reaching test(s) pass "
                      "without it")
            elif code not in (1, 2):
                broken.append(key)
                print(f"{relative}:{line}: its reaching tests did not "
                      f"run (pytest exit {code})")
    print(f"{len(survivors)} surviving mutant(s) of {len(reached)}")
    return 1 if unreached or survivors or broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
