"""Byte-exact CLI output for a fixed set of commands.

``golden_cli.json`` holds the stdout and exit code of each case, so any
change to a report's text, key order, verdict or witness shows here.
"""

import json
from pathlib import Path

import pytest

from intervalgames import FAMILY_KINDS, IntervalGame, embed_classical, family, format_game
from intervalgames import cli
from intervalgames.cli import main
from helpers import majority_game
from test_cli import BAND, TIGHT, UNIT, both_readings

GOLDEN = Path(__file__).with_name("golden_cli.json")

GAMES = {
    "sel-convex-3": family("sel-convex", 3),
    "band": BAND,
    "tight": TIGHT,
    "unit": UNIT,
    "majority": embed_classical(majority_game()),
    "criterion-10": IntervalGame.from_function(
        4, lambda m: (3, 5) if m == 15 else (m.bit_count() - 1, m.bit_count())
    ),
}

# (command, game, trailing arguments); each runs once per output format
COMMANDS = [
    ("classify", "sel-convex-3", []),
    ("classify", "band", []),
    ("membership", "tight", ["imputation", "2,2,2", "--selection", "lower"]),
    ("membership", "band", ["imputation", "2,2", "--selection", "upper"]),
    ("membership", "tight", ["core", "2,2,2", "--selection", "upper"]),
    ("membership", "band", ["sel-imputation", "2,2"]),
    ("membership", "band", ["sel-core", "2,2"]),
    ("membership", "band", ["sel-core", "0,0"]),
    ("membership", "tight", ["gen", "2,2,2"]),
    ("membership", "band", ["gen", "2,2"]),
    ("membership", "unit", ["gen", "0,0"]),
    ("membership", "tight", ["strong-imputation", "3,2,1"]),
    ("membership", "tight", ["strong-core", "2,2,2"]),
    ("coincidence", "majority", []),
    ("coincidence", "criterion-10", []),
    ("strong", "tight", []),
    ("strong", "band", []),
    ("strong", "tight", ["--payoff", "2,2,2"]),
    ("strong", "tight", ["--payoff", "3,2,1"]),
    ("oracle", "band", []),
    ("oracle", "sel-convex-3", []),
]

# ``family`` reads no game and has no --format option, so it runs once
CASES = [
    (" ".join([command, game, *args, fmt]), command, game, args, fmt)
    for command, game, args in COMMANDS
    for fmt in ("text", "json")
] + [(f"family {kind} 3", "family", None, [kind, "3"], None) for kind in FAMILY_KINDS]


def case_argv(command, game, args, fmt, path) -> list[str]:
    return [command, *args] if game is None else [command, path, *args, "--format", fmt]


def run_case(command, game, args, fmt, directory: Path, capsys) -> dict:
    path = None
    if game is not None:
        path = directory / f"{game}.game"
        path.write_text(format_game(GAMES[game]), encoding="utf-8")
    code = main(case_argv(command, game, args, fmt, str(path)))
    out, _ = capsys.readouterr()
    return {"code": code, "stdout": out}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,command,game,args,fmt", CASES, ids=[c[0] for c in CASES])
def test_output_is_unchanged(name, command, game, args, fmt, golden, tmp_path, capsys):
    assert run_case(command, game, args, fmt, tmp_path, capsys) == golden[name]


@pytest.mark.parametrize("name,command,game,args,fmt", CASES, ids=[c[0] for c in CASES])
def test_read_without_a_parser(name, command, game, args, fmt):
    direct, full = both_readings(case_argv(command, game, args, fmt, "GAME"))
    assert direct is not None and direct == full


JSON_CASES = [c[0] for c in CASES if c[4] == "json"]


@pytest.mark.parametrize("name", JSON_CASES)
def test_json_writer_matches_json_dumps(name, golden):
    # every golden JSON report, rendered by the writer and by json.dumps
    doc = json.loads(golden[name]["stdout"])
    assert cli._json(doc) + "\n" == json.dumps(doc, indent=2) + "\n" == golden[name]["stdout"]
