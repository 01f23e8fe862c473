"""Every ```python block of README.md runs as written, and so does every `sweepdepth`
command of its ```sh blocks; its CLI table lists every subcommand, and its CLI section
names exactly the subcommands' options."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from sweepdepth.cli import build_parser, main
from sweepdepth.synth import make_sequence, mover_mask, preset_scene

README = Path(__file__).parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
# each command line of the sh blocks, its backslash continuations joined
SH_COMMANDS = [shlex.split(line, comments=True)
               for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
               for line in block.replace("\\\n", " ").splitlines()]
CLI_COMMANDS = [argv[1:] for argv in SH_COMMANDS if argv[:1] == ["sweepdepth"]]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_cli_commands_run(tmp_path, capsys):
    # in order, since each reads what the ones before it wrote; /tmp becomes tmp_path
    reports = {}
    for argv in CLI_COMMANDS:
        code = main([arg.replace("/tmp", str(tmp_path)) for arg in argv])
        out = capsys.readouterr()
        assert code == 0, (argv, out.err)
        reports[argv[0]] = json.loads(out.out)
    assert set(reports) == {"synth", "depth", "loss", "eval"}
    # "the box occupies ~13% of the frame and is flagged almost exactly"
    setup = preset_scene("moving_box")
    frame = make_sequence(setup.scene, setup.poses, setup.K)[1]
    share = mover_mask(setup.scene, frame.pose, setup.K, frame.time).mean()
    assert round(share, 2) == 0.13
    assert abs(reports["depth"]["mask_fraction"] - share) < 0.005


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
