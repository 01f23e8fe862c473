"""Every ```python block of README.md runs as written, its CLI table lists every
subcommand, and its CLI section names exactly the subcommands' options."""

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


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices


def test_cli_table_lists_every_subcommand():
    table = re.search(r"^## CLI\n\n\| subcommand \| purpose \|\n((?:\|.*\n)+)", TEXT, re.M)
    listed = re.findall(r"^\| `([\w-]+)` +\|", table[1], re.M)
    assert listed == list(_subcommands())


CLI_SECTION = re.search(r"^## CLI\n(.*?)^## ", TEXT, re.M | re.S)[1]
# every --flag the section names, also each one of a run such as --aug-p/--aug-q/--seed
NAMED = set(re.findall(r"--[a-z]+(?:-[a-z]+)*", CLI_SECTION))
OPTIONS = {flag for parser in _subcommands().values() for action in parser._actions
           for flag in action.option_strings if flag != "--help" and flag.startswith("--")}


def test_cli_section_names_exactly_the_parser_options():
    assert OPTIONS - NAMED == set(), "options the README does not document"
    assert NAMED - OPTIONS == set(), "flags the README names that no subcommand has"
