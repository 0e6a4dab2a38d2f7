"""The README's library sketch and command lines run as documented."""

import re
import shlex
from pathlib import Path

import pytest

from einext.cli import main

from test_cli import strict_json

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, language):
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    block = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert block is not None, f"no {language} block under {heading!r}"
    return block.group(1)


def test_library_sketch_runs():
    exec(compile(readme_block("Library sketch", "python"), "README.md (Library sketch)", "exec"), {})


COMMANDS = [
    shlex.split(line, comments=True)
    for line in readme_block("Command line", "sh").splitlines()
    if line.startswith("einext ") and "--input algebra.json" not in line
]


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_command_runs(capsys, argv):
    code = main(argv[1:])
    payload = strict_json(capsys.readouterr().out)
    assert code in (0, 3)
    if argv[1:] == ["enumerate", "--dim", "3"]:
        assert payload == [[1, 1, 1], [1, 1, 2]]
    if argv[1:] == ["verify", "--catalog", "table1:3"]:
        assert payload["einstein_constant"] == -6.0


def test_readme_algebra_json_twists(capsys):
    code = main(["verify", "--input", readme_block("Algebra JSON", "json")])
    payload = strict_json(capsys.readouterr().out)
    assert code == 0
    assert payload["twist"]["mu"] == [] and payload["twist"]["einstein"] is True
