"""The README's examples run as written: the library tour and every command-line example."""

import re
import shlex
from pathlib import Path

from lqgcodesign import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(section: str, language: str) -> str:
    """The first ``language`` code block under the README heading ``section``."""
    text = README.read_text()
    start = text.index(f"\n## {section}\n")
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(text, start)
    assert match, (section, language)
    return match.group(1)


def _commands(block: str) -> list[list[str]]:
    """Each command of a shell block as argv, continuation lines joined and comments dropped."""
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.strip()]


def test_library_tour_runs(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(_block("Library tour", "python"), str(README), "exec"), names)
    assert names["cert"].passed
    assert [record.seed for record in names["records"]] == list(range(10))


def test_command_line_examples_exit_zero(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _commands(_block("Command line", "sh"))
    assert len(commands) == 10
    for argv in commands:
        assert argv[0] == "lqgcodesign", argv
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "grid.csv").read_text().count("\n") == 1 + 2 * 3 * 4
