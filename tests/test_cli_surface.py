"""The CLI's parser surface, pinned.

``cli_surface.json`` records every command path of ``build_parser()``
with each option's strings, default, choices, ``required`` flag,
nargs, metavar, help and argument group.  A change to the parser that
adds, drops or alters any of these fails here; the option ``type``
(where the bounds of shared flags live) is deliberately not recorded.  Regenerate the
fixture only for an intended surface change::

    PYTHONPATH=src python -c "from tests.test_cli_surface import dump; dump()"

The README's ``$ python -m repro ...`` examples must parse too.
"""

from __future__ import annotations

import argparse
import enum
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

FIXTURE = Path(__file__).with_name("cli_surface.json")
README = Path(__file__).resolve().parents[1] / "README.md"


def _plain(value):
    """A JSON-stable rendering of an argparse default or choice list."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return sorted(_plain(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def surface(parser: argparse.ArgumentParser | None = None,
            path: str = "repro") -> dict[str, dict]:
    """Every command path -> its description and options."""
    parser = parser or build_parser()
    groups = {
        id(action): group.title
        for group in parser._action_groups
        for action in group._group_actions
    }
    options = []
    commands: dict[str, dict] = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            helps = {a.dest: a.help for a in action._choices_actions}
            options.append({
                "subcommands": sorted(action.choices),
                "dest": action.dest,
                "required": action.required,
                "help": helps,
            })
            for name, sub in action.choices.items():
                commands.update(surface(sub, f"{path} {name}"))
            continue
        options.append({
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "action": type(action).__name__,
            "default": _plain(action.default),
            "choices": _plain(action.choices),
            "required": action.required,
            "nargs": action.nargs,
            "metavar": action.metavar,
            "help": action.help,
            "group": groups.get(id(action)),
        })
    commands[path] = {"description": parser.description, "options": options}
    return commands


def dump() -> None:
    """Write the fixture, one option per line."""
    entries = []
    for path, command in sorted(surface().items()):
        options = ",\n".join(
            "  " + json.dumps(option, sort_keys=True)
            for option in command["options"]
        )
        entries.append(
            f"{json.dumps(path)}: "
            f'{{"description": {json.dumps(command["description"])}, '
            f'"options": [\n{options}\n]}}'
        )
    FIXTURE.write_text("{\n" + ",\n".join(entries) + "\n}\n")


def test_parser_surface_matches_the_pinned_fixture():
    pinned = json.loads(FIXTURE.read_text())
    current = json.loads(json.dumps(surface(), sort_keys=True))
    assert sorted(current) == sorted(pinned)
    for path in pinned:
        assert current[path] == pinned[path], path


def _readme_commands() -> list[list[str]]:
    """Each ``$ python -m repro ...`` example, continuation lines
    joined, comments, pipes and redirections stripped."""
    commands = []
    lines = iter(README.read_text().splitlines())
    for line in lines:
        if not line.startswith("$ python -m repro"):
            continue
        text = line[2:]
        while text.rstrip().endswith("\\"):
            text = text.rstrip()[:-1] + " " + next(lines).lstrip("> ")
        words = shlex.split(text, comments=True)
        cut = next(
            (i for i, word in enumerate(words)
             if re.fullmatch(r"\d?[<>|].*|&>.*", word)),
            len(words),
        )
        commands.append(words[3:cut])
    return commands


def test_readme_finds_examples():
    assert len(_readme_commands()) >= 30


@pytest.mark.parametrize(
    "argv", _readme_commands(), ids=" ".join
)
def test_readme_example_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
