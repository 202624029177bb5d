"""Every `driftbench` command in the README's sh code blocks parses."""
import re
import shlex
from pathlib import Path

import pytest

from driftbench import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """The README's `driftbench ...` commands, continuation lines joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                            flags=re.M | re.S):
        for command in block.replace("\\\n", " ").splitlines():
            if command.startswith("driftbench "):
                commands.append(" ".join(command.split()))
    return commands


COMMANDS = readme_commands()


def test_readme_has_commands():
    assert COMMANDS


@pytest.mark.parametrize("command", COMMANDS, ids=[c.split()[1] for c in COMMANDS])
def test_readme_command_parses(command):
    argv = shlex.split(command)[1:]
    assert cli.build_parser().parse_args(argv).command == argv[0]
