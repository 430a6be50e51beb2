"""Golden `--help` texts and default namespaces of the `expresso` CLI.

`tests/data/cli_help.txt` pins the exact bytes of `expresso --help` and of
every `expresso <command> --help` at an 80-column terminal;
`tests/data/cli_defaults.json` pins each subcommand's parsed namespace when
only its required arguments are given.  A rework of how the parser is
declared must leave both byte-identical.
"""

import json
from pathlib import Path

import pytest

from repro import cli

DATA = Path(__file__).resolve().parent / "data"

#: Each subcommand with the fewest arguments it parses with.
COMMANDS = {
    "compile": ["m.mon"],
    "explain": ["m.mon"],
    "bench": [],
    "explore": [],
    "fuzz": [],
    "mutate": [],
    "profile": [],
    "lint": [],
    "list": [],
    "status": ["--store", "s.sqlite3"],
    "watch": ["--store", "s.sqlite3"],
    "report": [],
    "stitch": ["t.json", "--out", "o.json"],
}

HEADER = "==== expresso {} --help ====\n"


def _golden_help():
    """``{argv-tail: help text}`` from the golden file."""
    text = (DATA / "cli_help.txt").read_text()
    sections = {}
    for chunk in text.split("==== expresso ")[1:]:
        header, body = chunk.split(" --help ====\n", 1)
        sections[header] = body
    return sections


def _help_text(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        cli.main([*argv, "--help"])
    assert stop.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def test_the_golden_covers_every_command():
    assert sorted(_golden_help()) == sorted(["", *COMMANDS])


@pytest.mark.parametrize("command", ["", *COMMANDS])
def test_help_bytes(command, capsys, monkeypatch):
    argv = [command] if command else []
    assert _help_text(argv, capsys, monkeypatch) == _golden_help()[command]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_default_namespace(command):
    golden = json.loads((DATA / "cli_defaults.json").read_text())
    namespace = vars(cli._build_parser().parse_args([command, *COMMANDS[command]]))
    namespace.pop("handler", None)
    assert namespace == golden[command]
