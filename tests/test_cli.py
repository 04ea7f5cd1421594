import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import intervalgames
from intervalgames import (
    FAMILY_KINDS,
    ClassicalGame,
    ClassicalProperty,
    IntervalGame,
    border_games,
    check_classical,
    embed_classical,
    family,
    format_game,
    format_interval,
    is_selection_core_member,
    parse_game,
    solutions,
)
from intervalgames import cli
from intervalgames.cli import MEMBERSHIP_CONCEPTS, main
from intervalgames.games import coalition_labels
from helpers import (
    majority_game,
    rand_additive_border_game,
    rand_convex_classical,
    rand_convex_lower_with_widths,
    rand_degenerate_grand_convex,
)

BAND = IntervalGame.from_map(2, {(1,): (1, 3), (2,): (1, 3), (1, 2): (1, 4)})
UNIT = IntervalGame.from_map(2, {(1,): (0, 1), (2,): (0, 1), (1, 2): (0, 2)})
TIGHT = IntervalGame.from_map(
    3,
    {
        (1,): (1, 2), (2,): (1, 2), (3,): (1, 2),
        (1, 2): (2, 3), (1, 3): (2, 3), (2, 3): (2, 3),
        (1, 2, 3): (6, 6),
    },
)

CRITERION_10 = IntervalGame.from_function(
    4, lambda m: (3, 5) if m == 15 else (m.bit_count() - 1, m.bit_count())
)
CONVEX_3 = embed_classical(ClassicalGame.from_function(3, lambda m: m.bit_count() ** 2))

SEL_CONVEX_2 = "players 2\n1 [0, 1]\n2 [0, 1]\n1,2 [2, 3]\n"


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def game_file(tmp_path):
    def write(w, name="game.txt"):
        path = tmp_path / name
        path.write_text(format_game(w), encoding="utf-8")
        return str(path)

    return write


class TestFamilyCommand:
    def test_two_player_goldens(self, capsys):
        code, out, _ = run_cli(["family", "sel-convex", "2"], capsys)
        assert code == 0 and out == SEL_CONVEX_2
        code, out, _ = run_cli(["family", "sel-superadditive", "2"], capsys)
        assert code == 0 and out == "players 2\n1 [0, 1]\n2 [0, 1]\n1,2 [2, 3]\n"
        code, out, _ = run_cli(["family", "interval-superadditive", "2"], capsys)
        assert code == 0 and out == "players 2\n1 [0, 1]\n2 [0, 1]\n1,2 [0, 2]\n"

    def test_three_player_sel_convex(self, capsys):
        code, out, _ = run_cli(["family", "sel-convex", "3"], capsys)
        assert code == 0
        assert out == (
            "players 3\n"
            "1 [0, 1]\n2 [0, 1]\n1,2 [2, 3]\n3 [0, 1]\n"
            "1,3 [2, 3]\n2,3 [2, 3]\n1,2,3 [6, 7]\n"
        )
        assert parse_game(out) == family("sel-convex", 3)

    def test_bad_arguments(self, capsys):
        code, _, err = run_cli(["family", "sel-convex", "1"], capsys)
        assert code == 2 and "error" in err
        assert run_cli(["family", "nope", "2"], capsys)[0] == 2


class TestClassifyCommand:
    def test_family_report(self, game_file, capsys):
        code, out, _ = run_cli(
            ["classify", game_file(family("sel-convex", 3)), "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["players"] == 3
        assert doc["interval_classes"] == {
            "size-monotonic": True,
            "superadditive-interval": False,
            "supermodular-interval": True,
            "convex-interval": False,
        }
        assert doc["selection_classes"] == {
            "selection-monotonic": True,
            "selection-superadditive": True,
            "selection-convex": True,
        }
        assert doc["border_games"]["length"]["convex"] is False

    def test_text_rendering(self, game_file, capsys):
        code, out, _ = run_cli(["classify", game_file(BAND)], capsys)
        assert code == 0
        assert "size-monotonic: true" in out
        assert "selection-superadditive: false" in out
        assert "players: 2" in out

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(format_game(BAND)))
        code, out, _ = run_cli(["classify", "-"], capsys)
        assert code == 0 and "players: 2" in out


class TestMembershipCommand:
    def test_selection_core_with_witness(self, game_file, capsys):
        code, out, _ = run_cli(
            ["membership", game_file(BAND), "sel-core", "2,2", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["member"] is True
        assert doc["witness_subgame"] == {"1": "[1, 2]", "2": "[1, 2]", "1,2": "[4, 4]"}

    def test_generated_core_negative_with_diagnosis(self, game_file, capsys):
        code, out, _ = run_cli(
            ["membership", game_file(BAND), "gen", "2,2", "--format", "json"], capsys
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["member"] is False
        assert doc["subsystems"] == {"lower_feasible": False, "upper_feasible": False}

    def test_generated_core_positive_witness(self, game_file, capsys):
        code, out, _ = run_cli(
            ["membership", game_file(UNIT), "gen", "0,0", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["witness"] == {
            "l": ["0", "0"],
            "u": ["1", "1"],
            "interval_payoff": ["[0, 1]", "[0, 1]"],
        }

    def test_classical_concepts_need_a_selection(self, game_file, capsys):
        path = game_file(UNIT)
        code, _, err = run_cli(["membership", path, "core", "1,1"], capsys)
        assert code == 2 and "--selection" in err
        code, out, _ = run_cli(
            ["membership", path, "core", "1,1", "--selection", "upper"], capsys
        )
        assert code == 0 and "member: true" in out
        code, out, _ = run_cli(
            ["membership", path, "core", "1,1", "--selection", "lower"], capsys
        )
        assert code == 1

    def test_selection_from_file(self, game_file, tmp_path, capsys):
        path = game_file(UNIT)
        sel = tmp_path / "sel.txt"
        sel.write_text("players 2\n1 1\n2 1\n1,2 2\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["membership", path, "imputation", "1,1", "--selection", str(sel)], capsys
        )
        assert code == 0 and "member: true" in out

        outside = tmp_path / "bad.txt"
        outside.write_text("players 2\n1 5\n2 0\n1,2 2\n", encoding="utf-8")
        code, _, err = run_cli(
            ["membership", path, "core", "1,1", "--selection", str(outside)], capsys
        )
        assert code == 2 and "not a selection" in err

        wide = tmp_path / "wide.txt"
        wide.write_text(format_game(UNIT), encoding="utf-8")
        code, _, err = run_cli(
            ["membership", path, "core", "1,1", "--selection", str(wide)], capsys
        )
        assert code == 2

    def test_selection_only_goes_with_classical_concepts(self, game_file, capsys):
        path = game_file(UNIT)
        for concept in ("sel-core", "gen", "strong-core"):
            code, out, err = run_cli(
                ["membership", path, concept, "1,1", "--selection", "upper"], capsys
            )
            assert code == 2 and out == "" and "--selection" in err

    def test_strong_concepts(self, game_file, capsys):
        path = game_file(TIGHT)
        assert run_cli(["membership", path, "strong-core", "2,2,2"], capsys)[0] == 0
        assert run_cli(["membership", path, "strong-imputation", "3,2,1"], capsys)[0] == 1

    def test_payoff_parsing_errors(self, game_file, capsys):
        path = game_file(UNIT)
        code, _, err = run_cli(["membership", path, "sel-core", "1,2,3"], capsys)
        assert code == 2 and "expected 2" in err
        assert run_cli(["membership", path, "sel-core", "1,x"], capsys)[0] == 2

    def test_fractional_payoffs(self, game_file, capsys):
        code, out, _ = run_cli(
            ["membership", game_file(UNIT), "sel-core", "1/2,1/2"], capsys
        )
        assert code == 0 and "payoff: (1/2, 1/2)" in out


class TestCoincidenceCommand:
    def test_band_game(self, game_file, capsys):
        code, out, _ = run_cli(
            ["coincidence", game_file(BAND), "--format", "json"], capsys
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["coincident"] is False
        assert doc["counterexample"] == ["1", "1"]
        assert doc["counterexample_in_selection_core"] is True
        assert doc["infeasible_subsystems"] == {
            "lower_feasible": False,
            "upper_feasible": False,
        }

    def test_unit_game_text(self, game_file, capsys):
        code, out, _ = run_cli(["coincidence", game_file(UNIT)], capsys)
        assert code == 1
        assert "coincident: false" in out
        assert "counterexample: (0, 2)" in out

    def test_degenerate_embedding(self, game_file, capsys):
        w = embed_classical(majority_game())
        code, out, _ = run_cli(["coincidence", game_file(w)], capsys)
        assert code == 0 and "coincident: true" in out

    def test_budget(self, game_file, capsys):
        code, _, err = run_cli(
            ["coincidence", game_file(BAND), "--budget", "1"], capsys
        )
        assert code == 3 and "budget" in err


class TestStrongCommand:
    def test_tight_game(self, game_file, capsys):
        code, out, _ = run_cli(["strong", game_file(TIGHT), "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["grand_coalition"] == "[6, 6]"
        assert doc["grand_degenerate"] is True
        assert doc["strong_core_nonempty"] is True
        assert doc["strongly_balanced"] is True
        assert "witness" in doc

    def test_payoff_verdicts(self, game_file, capsys):
        path = game_file(TIGHT)
        code, out, _ = run_cli(
            ["strong", path, "--payoff", "2,2,2", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["strong_imputation"] is True and doc["strong_core_member"] is True
        assert run_cli(["strong", path, "--payoff", "3,2,1"], capsys)[0] == 1

    def test_band_game_is_empty(self, game_file, capsys):
        code, out, _ = run_cli(["strong", game_file(BAND), "--format", "json"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["strong_core_nonempty"] is False
        assert "witness" not in doc

    def test_a_payoffless_report_leaves_the_lower_worths_unbuilt(self):
        source = rand_degenerate_grand_convex(random.Random(7), 6)
        w = parse_game(format_game(source))
        doc, code = cli.strong_report(w, None)
        assert "values" not in border_games(w)[0].__dict__
        assert code == 0 and doc["grand_coalition"] == format_interval(source.values[-1])


class TestNegativePayoffs:
    """A payoff that starts with a minus sign looks like an option to the
    argument parser; the README's two forms get it through."""

    NEG = IntervalGame.from_map(2, {(1,): (-2, -1), (2,): (0, 1), (1, 2): (0, 0)})

    def test_membership_after_double_dash(self, game_file, capsys):
        path = game_file(self.NEG)
        code, out, _ = run_cli(["membership", path, "strong-core", "--", "-1,1"], capsys)
        assert code == 0 and "payoff: (-1, 1)" in out
        code, out, _ = run_cli(["membership", game_file(UNIT), "gen", "--", "-1,0"], capsys)
        assert code == 1 and "payoff: (-1, 0)" in out and "lower_feasible: false" in out

    def test_readme_input_errors(self, game_file, capsys):
        path = game_file(self.NEG)
        for argv in (["membership", path, "gen", "-1,0"], ["strong", path, "--payoff", "-1,1"]):
            code, out, err = run_cli(argv, capsys)
            assert code == 2 and out == "" and "error" in err

    def test_strong_payoff_with_equals(self, game_file, capsys):
        code, out, _ = run_cli(
            ["strong", game_file(self.NEG), "--payoff=-1,1", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payoff"] == ["-1", "1"] and doc["strong_core_member"] is True


class TestCounts:
    """Player counts and budgets take ASCII decimal digits only, as in game files."""

    @pytest.mark.parametrize("text", ["1_0", "+3", "\u0663", " 3", "3.0", "-3"])
    def test_family_count(self, text, capsys):
        code, out, err = run_cli(["family", "sel-convex", text], capsys)
        assert code == 2 and out == "" and "invalid count" in err

    @pytest.mark.parametrize("text", ["-1", "+1_0", "\u0663", "1_0", "6.0"])
    def test_budget(self, text, game_file, capsys):
        code, out, err = run_cli(["coincidence", game_file(BAND), f"--budget={text}"], capsys)
        assert code == 2 and out == "" and "invalid count" in err

    def test_digits_still_parse(self, game_file, capsys):
        assert run_cli(["family", "sel-convex", "03"], capsys)[1] == format_game(
            family("sel-convex", 3)
        )
        assert run_cli(["coincidence", game_file(BAND), "--budget=10"], capsys)[0] == 1


@pytest.fixture
def systems(monkeypatch):
    """Every system the solution layer hands to the simplex during one run."""
    recorded = []
    original = solutions._solve

    def record(system, *args, **kwargs):
        recorded.append(system)
        return original(system, *args, **kwargs)

    monkeypatch.setattr(solutions, "_solve", record)
    return recorded


@pytest.fixture
def questions(monkeypatch):
    """Every coalition system the solution layer decides by row generation
    during one run; each is one question, whatever its number of rounds."""
    recorded = []
    original = solutions._core_feasible

    def record(*args, **kwargs):
        recorded.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solutions, "_core_feasible", record)
    return recorded


class TestOneSolvePerQuestion:
    """No report asks the same question twice or solves the same linear
    system twice; row generation grows its active rows strictly, so its
    rounds never repeat a system either.  Games whose borders are convex
    are decided in closed form and start no linear program at all."""

    @pytest.mark.parametrize(
        "payoff, code, subsystems",
        [
            ("0,0", 0, None),
            ("0,-1", 1, {"lower_feasible": False, "upper_feasible": True}),
            ("0,2", 1, {"lower_feasible": True, "upper_feasible": False}),
        ],
    )
    def test_membership_gen(self, payoff, code, subsystems, questions, systems, game_file, capsys):
        # both borders of UNIT are convex
        got, out, _ = run_cli(["membership", game_file(UNIT), "gen", payoff, "--format", "json"], capsys)
        assert got == code
        assert json.loads(out).get("subsystems") == subsystems
        assert questions == [] and systems == []

    def test_membership_gen_without_convex_borders(self, questions, systems, game_file, capsys):
        # neither border of BAND is convex, so each half is one question
        got, out, _ = run_cli(["membership", game_file(BAND), "gen", "2,2", "--format", "json"], capsys)
        assert got == 1
        assert json.loads(out)["subsystems"] == {"lower_feasible": False, "upper_feasible": False}
        assert len(questions) == 2
        assert len(set(systems)) == len(systems) >= 2

    @pytest.mark.parametrize(
        "w, code", [(BAND, 1), (UNIT, 1), (CRITERION_10, 1), (CONVEX_3, 0)]
    )
    def test_coincidence(self, w, code, questions, systems, game_file, capsys):
        assert run_cli(["coincidence", game_file(w)], capsys)[0] == code
        if w is BAND:
            assert systems and len(set(systems)) == len(systems)
        else:
            # the other three are supermodular interval games
            assert questions == [] and systems == []

    @pytest.mark.parametrize(
        "w, nonempty, balanced",
        [(TIGHT, True, True), (embed_classical(majority_game()), False, False), (BAND, False, False)],
    )
    def test_strong(self, w, nonempty, balanced, questions, systems, game_file, capsys):
        code, out, _ = run_cli(["strong", game_file(w), "--format", "json"], capsys)
        doc = json.loads(out)
        assert code == (0 if nonempty else 1)
        assert (doc["strong_core_nonempty"], doc["strongly_balanced"]) == (nonempty, balanced)
        assert len(questions) == 1
        assert len(set(systems)) == len(systems) >= 1

    def test_strong_on_a_convex_upper_border(self, questions, systems, game_file, capsys):
        code, out, _ = run_cli(["strong", game_file(CONVEX_3), "--format", "json"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert (doc["strong_core_nonempty"], doc["strongly_balanced"]) == (True, True)
        assert questions == [] and systems == []


@pytest.fixture
def parsed(monkeypatch):
    """Every game the command line parses during one run."""
    games = []

    def record(text):
        games.append(parse_game(text))
        return games[-1]

    monkeypatch.setattr(cli, "parse_game", record)
    return games


def built_worths(w: IntervalGame) -> list[str]:
    """Which of w and its border games have built their Fraction worths."""
    named = zip(("game", "lower", "upper"), (w, *border_games(w)))
    return [name for name, game in named if "values" in vars(game)]


class TestIntegerVerdicts:
    """The verdicts read a parsed game's integer form, so a report builds no
    Fraction worths of the parsed game or its borders; ``sel-core`` prints
    its witness sub-game from the integer form too."""

    @pytest.mark.parametrize(
        "w, argv",
        [
            (UNIT, ["membership", "sel-imputation", "0,1"]),
            (UNIT, ["membership", "sel-imputation", "0,3"]),
            (UNIT, ["membership", "strong-imputation", "1,1"]),
            (UNIT, ["membership", "strong-core", "1,1"]),
            (UNIT, ["membership", "gen", "0,0"]),
            (UNIT, ["membership", "gen", "0,2"]),
            (UNIT, ["membership", "gen", "0,-1"]),
            (CRITERION_10, ["membership", "gen", "1/2,1,1,3/2"]),
            (CRITERION_10, ["coincidence"]),
            (CONVEX_3, ["coincidence"]),
            (CRITERION_10, ["strong", "--payoff", "1,1,1,1"]),
            (CONVEX_3, ["strong", "--payoff", "1,3,5"]),
            (UNIT, ["membership", "sel-core", "1,1"]),
        ],
    )
    def test_reports_build_no_fraction_worths(self, w, argv, parsed, game_file, capsys):
        run_cli([argv[0], game_file(w), *argv[1:]], capsys)
        assert [built_worths(game) for game in parsed] == [[]]

    def test_the_witness_subgame_prints_without_its_worths(self, game_file, capsys, monkeypatch):
        printed = []
        entries = cli._game_entries
        monkeypatch.setattr(cli, "_game_entries", lambda w: printed.append(w) or entries(w))
        code, out, _ = run_cli(["membership", game_file(UNIT), "sel-core", "--format", "json", "1,1"], capsys)
        assert code == 0 and len(printed) == 1
        assert "values" not in vars(printed[0])
        assert json.loads(out)["witness_subgame"] == {
            label: format_interval(printed[0].values[m])
            for m, label in enumerate(coalition_labels(printed[0].n)) if m
        }


class TestTwelvePlayers:
    """Coalition LPs with 4096 rows, which row generation solves on a few
    dozen; the verdicts are known by construction."""

    def test_strong_on_a_degenerate_grand_convex_game(self, game_file, capsys):
        w = rand_degenerate_grand_convex(random.Random(12), 12)
        code, out, _ = run_cli(["strong", game_file(w), "--format", "json"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert (doc["strong_core_nonempty"], doc["strongly_balanced"]) == (True, True)

    def test_gen_at_the_lower_corner_of_an_additive_border_game(self, game_file, capsys):
        # criterion 7: the corner b is generated with slacks l = 0, u = d
        w = rand_additive_border_game(random.Random(12), 12)
        corner = ",".join(str(w.worth(1 << i).lower) for i in range(12))
        code, out, _ = run_cli(["membership", game_file(w), "gen", "--format", "json", "--", corner], capsys)
        assert code == 0
        assert json.loads(out)["member"] is True


class TestSixteenPlayers:
    """Games with a convex lower border at the player cap, decided in closed
    form with the default budget; the verdicts are known by construction."""

    def test_coincidence_on_an_additive_border_game(self, game_file, capsys):
        # the generated set is the box between the corners, SC is larger
        w = rand_additive_border_game(random.Random(16), 16)
        assert any(not w.worth(1 << i).degenerate for i in range(16))
        code, out, _ = run_cli(["coincidence", game_file(w), "--format", "json"], capsys)
        doc = json.loads(out)
        assert code == 1 and doc["coincident"] is False
        assert doc["infeasible_subsystems"] == {"lower_feasible": True, "upper_feasible": False}
        assert sum(Fraction(v) for v in doc["counterexample"]) == w.worth((1 << 16) - 1).upper

    def test_coincidence_on_a_convex_lower_border_with_widths(self, game_file, capsys):
        # widths on every coalition leave the upper border non-convex
        w = rand_convex_lower_with_widths(random.Random(16), 16, "every")
        assert not check_classical(border_games(w)[1], ClassicalProperty.CONVEX)
        code, out, _ = run_cli(["coincidence", game_file(w), "--format", "json"], capsys)
        doc = json.loads(out)
        assert code == 1 and doc["coincident"] is False
        assert doc["infeasible_subsystems"] == {"lower_feasible": True, "upper_feasible": False}
        assert is_selection_core_member(w, [Fraction(v) for v in doc["counterexample"]])

    def test_coincidence_on_an_embedded_convex_game(self, game_file, capsys):
        w = embed_classical(rand_convex_classical(random.Random(16), 16))
        code, out, _ = run_cli(["coincidence", game_file(w), "--format", "json"], capsys)
        assert code == 0 and json.loads(out) == {"players": 16, "coincident": True}

    def test_gen_at_the_lower_corner_of_an_additive_border_game(self, game_file, capsys):
        w = rand_additive_border_game(random.Random(16), 16)
        corner = ",".join(str(w.worth(1 << i).lower) for i in range(16))
        code, out, _ = run_cli(["membership", game_file(w), "gen", "--format", "json", "--", corner], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["member"] is True
        # criterion 7: the corner is generated with slacks l = 0, u = d
        assert doc["witness"]["l"] == ["0"] * 16
        assert doc["witness"]["u"] == [str(w.worth(1 << i).width) for i in range(16)]

    def test_strong_on_a_degenerate_grand_convex_game(self, game_file, capsys):
        w = rand_degenerate_grand_convex(random.Random(16), 16)
        code, out, _ = run_cli(["strong", game_file(w), "--format", "json"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert (doc["strong_core_nonempty"], doc["strongly_balanced"]) == (True, True)


class TestOracleCommand:
    def test_family_game_agrees(self, game_file, capsys):
        code, out, _ = run_cli(
            ["oracle", game_file(family("sel-convex", 3)), "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["agreement"] is True
        assert len(doc["classes"]) == 3
        assert all(row["agree"] for row in doc["classes"])
        assert doc["memberships"]
        assert all(
            row["sel_core"]["agree"] and row["sel_imputation"]["agree"]
            for row in doc["memberships"]
        )

    def test_corrupted_characterization_is_caught(self, game_file, capsys, monkeypatch):
        monkeypatch.setattr(
            "intervalgames.cli.check_selection_class", lambda w, cls: False
        )
        code, out, _ = run_cli(
            ["oracle", game_file(family("sel-convex", 2)), "--format", "json"], capsys
        )
        assert code == 1
        assert json.loads(out)["agreement"] is False

    def test_budget(self, game_file, capsys):
        w = family("sel-convex", 5)
        code, _, err = run_cli(["oracle", game_file(w)], capsys)
        assert code == 3 and "5" in err


class TestErrors:
    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("players two\n", encoding="utf-8")
        code, _, err = run_cli(["classify", str(bad)], capsys)
        assert code == 2 and "line 1" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["classify", "/nonexistent/game.txt"], capsys)
        assert code == 2 and "error" in err

    def test_unknown_command(self, capsys):
        assert run_cli(["nope"], capsys)[0] == 2

    def test_no_command(self, capsys):
        assert run_cli([], capsys)[0] == 2


def text_mode_read(path: str) -> str:
    """A game file read in text mode with universal newlines, as files were
    read before ``cli._read_text`` read bytes; kept as its oracle."""
    with open(path, encoding="utf-8") as handle:
        return handle.read()


FILE_BYTES = {
    "crlf": SEL_CONVEX_2.replace("\n", "\r\n").encode(),
    "lone cr": SEL_CONVEX_2.replace("\n", "\r").encode(),
    "mixed": b"players 2\r\n1 [0, 1]\r2 [0, 1]\n\r\n1,2 [2, 3]\r",
    "bom": b"\xef\xbb\xbf" + SEL_CONVEX_2.encode(),
    "invalid utf-8": SEL_CONVEX_2.encode() + b"# \xff\n",
    "non-ascii": ("# café  \n" + SEL_CONVEX_2).encode(),
    "empty": b"",
}


class TestFileReading:
    """Game files are read with one unbuffered binary read, decoded and given
    text mode's newline translation; text mode itself is the oracle."""

    def paths(self, tmp_path) -> list[str]:
        paths = [str(tmp_path / "missing.game"), str(tmp_path)]
        for k, data in enumerate(FILE_BYTES.values()):
            path = tmp_path / f"{k}.game"
            path.write_bytes(data)
            paths.append(str(path))
        return paths

    @staticmethod
    def outcome(read, path):
        try:
            return read(path)
        except (OSError, ValueError) as exc:
            return type(exc), str(exc)

    def test_text_matches_text_mode(self, tmp_path):
        paths = self.paths(tmp_path)
        outcomes = [self.outcome(cli._read_text, p) for p in paths]
        assert outcomes == [self.outcome(text_mode_read, p) for p in paths]
        assert sum(isinstance(o, tuple) for o in outcomes) == 3  # missing, directory, invalid UTF-8

    def test_reports_match_text_mode(self, tmp_path, capsys, monkeypatch):
        paths = self.paths(tmp_path)
        binary = [run_cli(["classify", p, "--format", "json"], capsys) for p in paths]
        monkeypatch.setattr(cli, "_read_text", text_mode_read)
        assert binary == [run_cli(["classify", p, "--format", "json"], capsys) for p in paths]
        assert [code for code, _, _ in binary].count(0) == 4  # crlf, lone cr, mixed, non-ascii


class TestJsonWriter:
    """``cli._json`` writes what ``json.dumps(doc, indent=2)`` writes, without
    the pure-Python encoder; json.dumps is the oracle."""

    def test_seeded_report_documents(self, tmp_path):
        rng = random.Random(91)
        selection = tmp_path / "sel \"q\" \\ café\tÿ.game"
        docs = []
        for n in (2, 3, 3, 4):
            for w in (rand_additive_border_game(rng, n), embed_classical(rand_convex_classical(rng, n)),
                      rand_degenerate_grand_convex(rng, n)):
                x = tuple(w.worth(1 << i).lower for i in range(n))
                docs.append(cli.classify_report(w))
                docs.append(cli.coincidence_report(w, 6)[0])
                docs.append(cli.strong_report(w, x)[0])
                docs += [cli.membership_report(w, c, x, None)[0] for c in MEMBERSHIP_CONCEPTS[2:]]
                selection.write_text(format_game(embed_classical(border_games(w)[0])), encoding="utf-8")
                docs.append(cli.membership_report(w, "core", x, str(selection))[0])
        docs.append(cli.oracle_report(BAND)[0])
        for doc in docs:
            assert cli._json(doc) == json.dumps(doc, indent=2)
        assert any("\\u00e9" in cli._json(doc) for doc in docs)

    def test_edge_values(self):
        doc = {
            "empty list": [],
            "empty dict": {},
            "nested": {"a": [[], {}, [{}], [1, -2, 10**30]], "": ""},
            "text": "quote \" backslash \\ slash / controls \x00\x07\b\f\n\r\t\x1f\x7f",
            "non-ascii": "café   \U0001f600",
            "flags": [True, False],
            "é\"\\": 0,
        }
        assert cli._json(doc) == json.dumps(doc, indent=2)
        for value in ([], {}, "", 0, True, -1):
            assert cli._json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, None, (1,), {1}, Fraction(1, 2), {1: "a"}, {"a": [None]}])
    def test_anything_else_is_refused(self, value):
        with pytest.raises(TypeError):
            cli._json(value)


SUBCOMMAND_USAGE_ERRORS = {
    "classify": ["classify"],
    "membership": ["membership", "game.txt", "nope", "1,2"],
    "coincidence": ["coincidence", "game.txt", "--budget", "+6"],
    "strong": ["strong", "game.txt", "--payoff"],
    "family": ["family", "sel-convex", "3", "4"],
    "oracle": ["oracle", "game.txt", "--format", "xml"],
}


class TestOneSubcommandParser:
    """main reads a well-formed argv without building a parser; help and
    usage errors build the full parser once, and print what it prints."""

    @staticmethod
    def full_parser(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.fixture
    def built(self, monkeypatch):
        seen = []
        build = cli._build_parser

        def recording():
            seen.append(True)
            return build()

        monkeypatch.setattr(cli, "_build_parser", recording)
        return seen

    @pytest.mark.parametrize("name", sorted(SUBCOMMAND_USAGE_ERRORS))
    def test_help_and_usage_error_match_the_full_parser(self, name, built, capsys):
        for argv in ([name, "-h"], SUBCOMMAND_USAGE_ERRORS[name]):
            expected = self.full_parser(argv, capsys)
            built.clear()
            assert run_cli(argv, capsys) == expected
            assert expected[0] == (0 if argv[-1] == "-h" else 2)
            assert len(built) == 1

    @pytest.mark.parametrize("argv", [["--help"], [], ["nope"], ["--format", "json", "classify"]])
    def test_anything_else_gets_the_full_parser(self, argv, built, capsys):
        expected = self.full_parser(argv, capsys)
        built.clear()
        assert run_cli(argv, capsys) == expected
        assert len(built) == 1

    def test_well_formed_argvs_build_no_parser(self, built, game_file, capsys):
        path = game_file(UNIT)
        # perfbench's shape: command, --format json, --, game, arguments
        for argv, code in [
            (["classify", "--format", "json", "--", path], 0),
            (["coincidence", "--format", "json", "--", path], 1),
            (["membership", "--format", "json", "--", path, "gen", "-1,0"], 1),
            (["strong", "--format", "json", "--", path], 1),
            (["family", "sel-convex", "3"], 0),
        ]:
            assert run_cli(argv, capsys)[0] == code
        assert built == []

    def test_top_level_help_lists_every_command(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert out.startswith("usage: intervalgames [-h]")
        for name, (help_text, _, _) in cli._COMMANDS.items():
            assert f"    {name}" in out and help_text in out


def both_readings(argv, parser=None):
    """``cli._read_argv(argv)`` and the full parser's namespace for argv
    (None where argparse exits), each as a dict."""
    direct = cli._read_argv(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            full = (parser or cli._build_parser()).parse_args(argv)
    except SystemExit:
        full = None
    return (None if direct is None else vars(direct)), (None if full is None else vars(full))


# the pieces random argvs are made of: every flag, abbreviations, "=" forms,
# help, "--", "-", negative numbers, empty strings and unknown flags
FLAGS = ["--format", "--budget", "--payoff", "--selection"]
ODD_WORDS = [
    "--form", "--b", "--pay", "--sel", "--format=json", "--budget=3", "--payoff=-1,1",
    "-h", "--help", "--he", "--", "-", "-1", "-3", "-1,0", "-1.5", "", "--nope", "-x", "a b",
]
VALUES = [
    "json", "text", "xml", "game.txt", "1,2", "2,2,2", "3", "03", "+3", " 3", "0",
    "lower", "upper", "sel-convex", "nope", *MEMBERSHIP_CONCEPTS, *FAMILY_KINDS,
]


def random_argv(rng):
    """A mostly well-formed argv, then up to two random edits."""
    name = rng.choice(list(cli._COMMANDS))
    positionals, options = [], []
    for flags, kwargs in cli._COMMANDS[name][2]:
        value = rng.choice(kwargs.get("choices", VALUES) if rng.random() < 0.8 else VALUES)
        if flags[0].startswith("-"):
            options += [[flags[0], value]] * rng.choice((0, 1, 1, 2))
        else:
            positionals.append(value)
    if rng.random() < 0.3:
        # perfbench's order: options, "--", positionals, which may lead with "-"
        after = [v if rng.random() < 0.7 else rng.choice(ODD_WORDS) for v in positionals]
        argv = [name, *(w for group in options for w in group), "--", *after]
    else:
        groups = [[v] for v in positionals] + options
        rng.shuffle(groups)
        argv = [name, *(w for group in groups for w in group)]
    for _ in range(rng.choice((0, 0, 1, 2))):
        at = rng.randrange(len(argv))
        edit = rng.randrange(3)
        if edit == 0:
            argv.insert(at + 1, rng.choice(FLAGS + ODD_WORDS + VALUES))
        elif edit == 1:
            del argv[at]
        else:
            argv[at] = rng.choice(FLAGS + ODD_WORDS + VALUES + list(cli._COMMANDS))
    return argv


class TestDirectReading:
    """``cli._read_argv`` against the argparse parser it stands in for."""

    def test_random_argvs(self):
        rng = random.Random(17)
        parser = cli._build_parser()
        read = fallback = 0
        for _ in range(4000):
            argv = random_argv(rng)
            direct, full = both_readings(argv, parser)
            if direct is not None:
                assert direct == full, argv
                read += 1
            elif full is not None:
                fallback += 1
        # both routes are well exercised
        assert read > 1000 and fallback > 10

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "g"],
            ["classify", "--", "g"],
            ["classify", "--", "-"],
            ["classify", "--", "-h"],
            ["classify", ""],
            ["classify", "g", "--format", "json", "--format", "text"],
            ["membership", "--format", "json", "g", "--selection", "lower", "core", "1,1"],
            ["membership", "g", "gen", "--", "-1,0"],
            ["membership", "g", "--", "gen", "-1,0"],
            ["coincidence", "--budget", "03", "g"],
            ["family", "sel-convex", "3"],
        ],
    )
    def test_well_formed(self, argv):
        direct, full = both_readings(argv)
        assert direct is not None and direct == full

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["nope", "g"],
            ["classify", "g", "-h"],
            ["classify", "g", "--"],
            ["classify", "--", "--", "g"],
            ["classify", "-"],
            ["classify", "g", "--form", "json"],
            ["classify", "g", "--format=json"],
            ["classify", "g", "--format", "xml"],
            ["classify", "g", "--nope", "x"],
            ["classify", "g", "h"],
            ["membership", "g", "gen", "-1,0"],
            ["strong", "g", "--payoff", "-1,1"],
            ["coincidence", "g", "--budget", "-1"],
            ["coincidence", "g", "--budget", "+6"],
            ["family", "sel-convex", "-3"],
            ["family", "nope", "3"],
        ],
    )
    def test_anything_else_is_left_to_argparse(self, argv):
        assert cli._read_argv(argv) is None


def test_module_entry_point():
    # the child process runs the package this suite imported, installed or not
    root = os.path.dirname(os.path.dirname(intervalgames.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "intervalgames", "family", "sel-convex", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": root},
    )
    assert proc.returncode == 0
    assert proc.stdout == SEL_CONVEX_2
