"""List the raise statements of the package that no test reaches.

Runs the test suite in this process under a ``sys.settrace`` line tracer
(the standard library only, no coverage package), then prints each
``raise`` statement in ``src/nakayama`` none of whose lines ran, as
``path:line``.  Exits 1 if any raise is unreached, with pytest's own
status if the suite fails, and 0 otherwise.  Tracing every line makes
the run several times slower than the plain suite.

    python tools/unreached_raises.py [extra pytest arguments]
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nakayama"


def raise_spans(path: Path) -> List[Tuple[int, int]]:
    """The (first, last) line of every raise statement in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise))


def run_traced(pytest_args: List[str]) -> Tuple[int, Dict[str, Set[int]]]:
    """Run pytest under the tracer; return its exit status and the lines
    run in each package file, keyed by resolved path."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    hit: Dict[str, Set[int]] = {}
    # the resolved path of each code file, or None outside the package
    files: Dict[str, Optional[str]] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.realpath(name)
            files[name] = path if path.startswith(prefix) else None
        path = files[name]
        if path is None:
            return None
        lines = hit.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors",
                              *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hit


def main(argv: List[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    status, hit = run_traced(argv)
    if status != 0:
        print(f"the test suite failed (pytest exit {status}); "
              "no list of unreached raises", file=sys.stderr)
        return status
    unreached = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = hit.get(os.path.realpath(path), set())
        unreached += [f"{path.relative_to(ROOT)}:{first}"
                      for first, last in raise_spans(path)
                      if lines.isdisjoint(range(first, last + 1))]
    for line in unreached:
        print(line)
    print(f"{len(unreached)} unreached raise statement(s)")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
