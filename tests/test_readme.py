"""The examples of README.md run as written."""

import re
import shlex
from pathlib import Path

from nakayama.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _fenced(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def test_readme_python_tour_runs(capsys):
    (tour,) = _fenced("python")
    exec(compile(tour, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NAKAYAMA_OUT", str(tmp_path))
    lines = [line.strip() for block in _fenced("sh")
             for line in block.splitlines()
             if line.strip().startswith("nakayama ")]
    assert len(lines) == 3
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().out, line
    assert (tmp_path / "classification.json").exists()
