"""Every ```python block of README.md runs as written, and its CLI table is complete."""

import argparse
import re
from pathlib import Path

import pytest

from sweepdepth.cli import build_parser

README = Path(__file__).parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_cli_table_lists_every_subcommand():
    table = re.search(r"^## CLI\n\n\| subcommand \| purpose \|\n((?:\|.*\n)+)", TEXT, re.M)
    listed = re.findall(r"^\| `([\w-]+)` +\|", table[1], re.M)
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert listed == list(subparsers.choices)
