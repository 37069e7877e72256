"""Every ``python -m repro`` subcommand's flags, pinned.

``data/flag_surface.json`` records each subcommand's option strings,
defaults, choices, nargs, types and actions.  Scripts and CI jobs call
these flags, so a change to the surface must be a deliberate edit of
that table.  ``bench`` parses its own arguments, so its entry comes
from the gate's parser.
"""

import argparse
import json
import pathlib

import pytest

from repro.__main__ import build_parser
from repro.bench.gate import build_parser as build_bench_parser

TABLE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "flag_surface.json").read_text()
)


def _surface(parser: argparse.ArgumentParser) -> dict:
    out = {}
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        out[" ".join(action.option_strings)] = {
            "dest": action.dest,
            "action": type(action).__name__,
            "default": action.default,
            "choices": list(action.choices) if action.choices is not None else None,
            "nargs": action.nargs,
            "type": getattr(action.type, "__name__", None),
            "required": action.required,
        }
    # JSON round trip, so tuples and lists compare alike
    return json.loads(json.dumps(out))


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return dict(sub.choices)


def test_subcommand_set_is_unchanged():
    assert sorted(_subcommands()) == sorted(TABLE)


@pytest.mark.parametrize("command", sorted(TABLE))
def test_flag_surface_is_unchanged(command):
    parser = build_bench_parser() if command == "bench" else _subcommands()[command]
    assert _surface(parser) == TABLE[command]


@pytest.mark.parametrize(
    "flag", ["--workers", "--cache-dir", "--schedule", "--timeout",
             "--resume", "--no-cache"],
)
def test_shared_flags_are_declared_once(flag):
    """Every subcommand taking a shared flag holds the same argparse
    action: the flag is declared once, on a parent parser."""
    actions = {
        id(parser._option_string_actions[flag])
        for parser in _subcommands().values()
        if flag in parser._option_string_actions
    }
    assert len(actions) == 1


def test_journal_default_names_the_command():
    for command, parser in _subcommands().items():
        if "--journal" in parser._option_string_actions:
            action = parser._option_string_actions["--journal"]
            assert action.default == f".repro-cache/{command}-journal.jsonl"
