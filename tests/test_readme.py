"""The examples of README.md run as written: every ``detlinks`` line of the
"Command line" block exits 0, and every line of the "Library" block
evaluates to the value in its comment."""
import ast
import re
import shlex
from pathlib import Path

import pytest

from detlinks.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading: str, language: str) -> str:
    """The first ``language`` fenced block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [
    shlex.split(line, comments=True)
    for line in code_block("Command line", "sh").splitlines()
    if line.startswith("detlinks ")
]


def test_the_command_line_block_is_found():
    assert len(COMMANDS) == 6


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[1:]) for a in COMMANDS])
def test_command_line_examples_exit_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DETLINKS_CACHE", str(tmp_path))
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out


def test_library_examples_give_their_commented_values():
    source = code_block("Library", "python")
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        expected = lines[node.lineno - 1].split("#", 1)[1]
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert got == ast.literal_eval(expected.strip()), ast.unparse(node.value)
        checked += 1
    assert checked == 4
