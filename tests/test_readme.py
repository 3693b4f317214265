"""The README's examples run as written: its Python quick start, and each
`transopt generate` command of its command-line examples."""

import re
import shlex
from pathlib import Path

import pytest

from transopt import cli

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def generate_commands():
    """Each `transopt generate` line of the README's shell blocks, joined
    across backslash continuations, as argv without the program name and
    without an output redirection."""
    commands = []
    for block in fenced_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:2] == ["transopt", "generate"]:
                commands.append(argv[1:argv.index(">")] if ">" in argv else argv[1:])
    return commands


def test_quick_start_runs():
    (block,) = fenced_blocks("python")
    # its asserts are the check, so they are kept under `python -O` too
    exec(compile(block, "README.md", "exec", optimize=0), {})


def test_every_generate_example_is_found():
    kinds = [argv[1] for argv in generate_commands()]
    assert kinds == ["survey", "sum", "convexdiff", "problemp"]


@pytest.mark.parametrize("argv", generate_commands(), ids=" ".join)
def test_generate_example_exits_0(argv, capsys):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err
