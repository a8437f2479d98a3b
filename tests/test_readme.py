"""Every python block and every `envstat` example line of README.md runs as
written."""

import re
import shlex
from pathlib import Path

import pytest

from envstat.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
COMMANDS = [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
            for line in block.splitlines() if line.startswith("envstat ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, f"{README.name} python block", "exec"), {"__name__": "readme"})


def test_readme_has_cli_examples():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_readme_cli_example_runs(argv, tmp_path, capsys):
    argv = list(argv)
    if "--out" in argv:  # keep the report out of the working tree
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / Path(argv[at]).name)
    assert main(argv) == 0
    capsys.readouterr()
