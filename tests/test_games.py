import contextlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalgames import (
    FAMILY_KINDS,
    MAX_PLAYERS,
    ClassicalGame,
    GameFormatError,
    Interval,
    IntervalGame,
    border_games,
    coalition,
    embed_classical,
    family,
    format_game,
    grand_coalition,
    is_selection,
    length_game,
    members,
    parse_game,
    to_classical,
    truncate_grand,
)
from helpers import parse_game_oracle, rand_interval_game, random_selection
from intervalgames import games
from intervalgames.games import coalition_labels
from intervalgames.numerics import format_scalar, integers

WORKED_EXAMPLE = IntervalGame.from_map(
    2, {(1,): (1, 3), (2,): (1, 3), (1, 2): (1, 4)}
)


class TestCoalitions:
    def test_round_trip(self):
        assert coalition([1, 3]) == 0b101
        assert members(0b101) == (1, 3)
        assert members(coalition([2])) == (2,)
        assert coalition([]) == 0

    def test_grand(self):
        assert grand_coalition(3) == 0b111

    @pytest.mark.parametrize("bad", [0, -1, 17, "1", True, 2.0])
    def test_rejects_bad_labels(self, bad):
        with pytest.raises(ValueError):
            coalition([bad])


class TestClassicalGame:
    def test_from_map_and_worth(self):
        v = ClassicalGame.from_map(2, {(1,): 1, (2,): "1/2", (1, 2): 3})
        assert v.worth([1, 2]) == 3
        assert v.worth(0b01) == 1
        assert v.worth([2]) == Fraction(1, 2)
        assert v.worth(0) == 0

    def test_from_map_missing_coalition(self):
        with pytest.raises(ValueError, match="missing"):
            ClassicalGame.from_map(2, {(1,): 1, (1, 2): 3})

    def test_from_map_duplicate(self):
        with pytest.raises(ValueError, match="twice"):
            ClassicalGame.from_map(2, {(1,): 1, (2,): 1, (1, 2): 3, (2, 1): 3})

    def test_empty_coalition_must_be_zero(self):
        with pytest.raises(ValueError):
            ClassicalGame(1, (Fraction(1), Fraction(2)))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            ClassicalGame(2, (0, 1, 2))

    def test_floats_and_bools_are_refused(self):
        with pytest.raises(TypeError):
            ClassicalGame(1, (0, 0.5))
        with pytest.raises(TypeError):
            ClassicalGame(True, (0, 1))
        with pytest.raises(TypeError):
            ClassicalGame(2.0, (0, 1, 1, 2))
        with pytest.raises(TypeError):
            ClassicalGame.from_map(1, {(1,): 0.5})
        with pytest.raises(TypeError):
            ClassicalGame.from_map(1, {(): 0.0, (1,): 1})
        with pytest.raises(TypeError):
            ClassicalGame.from_function(1, lambda m: 0.5)


class TestIntervalGame:
    def test_coercion_of_worths(self):
        w = IntervalGame.from_map(2, {(1,): 1, (2,): (0, 2), (1, 2): Interval(3, 4)})
        assert w.worth([1]) == Interval(1)
        assert w.worth([2]) == Interval(0, 2)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            IntervalGame.from_map(1, {(1,): (2, 1)})

    def test_empty_coalition_must_be_zero(self):
        with pytest.raises(ValueError):
            IntervalGame(1, (Interval(0, 1), Interval(0, 1)))

    def test_messages_name_the_game_type(self):
        assert repr(ClassicalGame(1, (0, 1))) == "ClassicalGame(n=1)"
        assert repr(IntervalGame(1, (0, 1))) == "IntervalGame(n=1)"
        with pytest.raises(ValueError, match=r"^expected 4 worths, got 3$"):
            ClassicalGame(2, (0, 1, 2))
        with pytest.raises(ValueError, match=r"^expected 4 worth intervals, got 3$"):
            IntervalGame(2, (0, 1, 2))
        with pytest.raises(ValueError, match=r"^the empty coalition must be worth 0$"):
            ClassicalGame.from_map(1, {(): 1, (1,): 1})
        with pytest.raises(ValueError, match=r"^the empty coalition must be worth \[0, 0\]$"):
            IntervalGame.from_map(1, {(): (0, 1), (1,): 1})

    def test_types_stay_distinct_values(self):
        v = ClassicalGame(1, (0, 1))
        w = IntervalGame(1, (0, 1))
        assert v == ClassicalGame.from_function(1, lambda m: 1)
        assert hash(v) == hash(ClassicalGame.from_map(1, {(1,): 1}))
        assert w == IntervalGame.from_function(1, lambda m: (1, 1))
        assert v != w
        with pytest.raises(AttributeError):
            w.n = 2

    def test_floats_and_bools_are_refused(self):
        with pytest.raises(TypeError):
            IntervalGame.from_map(1, {(1,): (0, 0.5)})
        with pytest.raises(TypeError):
            IntervalGame(True, (0, 1))
        with pytest.raises(TypeError):
            IntervalGame(1, (0, True))


class TestBordersAndLength:
    def test_worked_example(self):
        lower, upper = border_games(WORKED_EXAMPLE)
        assert lower.values == (0, 1, 1, 1)
        assert upper.values == (0, 3, 3, 4)
        assert length_game(WORKED_EXAMPLE).values == (0, 2, 2, 3)

    def test_degenerate_game_borders_collapse(self):
        v = ClassicalGame.from_map(2, {(1,): 1, (2,): 2, (1, 2): 4})
        w = embed_classical(v)
        lower, upper = border_games(w)
        assert lower == v
        assert upper == v
        assert length_game(w) == ClassicalGame(2, (0, 0, 0, 0))

    @pytest.mark.parametrize("source", ["values", "text"])
    def test_built_once_per_game(self, source):
        w = rand_interval_game(random.Random(7), 3)
        expected = w.values
        if source == "text":
            w = parse_game(format_game(w))
        lower, upper = border_games(w)
        length = length_game(w)
        assert border_games(w)[0] is lower and border_games(w)[1] is upper
        assert length_game(w) is length
        assert lower.values == tuple(iv.lower for iv in expected)
        assert upper.values == tuple(iv.upper for iv in expected)
        assert length.values == tuple(iv.width for iv in expected)
        for game in (lower, upper, length):
            assert all(type(x) is Fraction for x in game.values)
            # the interval game's scale, so class verdicts share cache keys
            assert game.integer_form.scale == w.integer_form.scale
        assert lower == ClassicalGame(3, lower.values) and hash(lower) == hash(ClassicalGame(3, lower.values))


class TestSelections:
    def test_borders_are_selections(self):
        lower, upper = border_games(WORKED_EXAMPLE)
        assert is_selection(lower, WORKED_EXAMPLE)
        assert is_selection(upper, WORKED_EXAMPLE)

    def test_interior_selection(self):
        v = ClassicalGame.from_map(2, {(1,): 2, (2,): 2, (1, 2): 4})
        assert is_selection(v, WORKED_EXAMPLE)

    def test_out_of_interval(self):
        v = ClassicalGame.from_map(2, {(1,): 4, (2,): 2, (1, 2): 4})
        assert not is_selection(v, WORKED_EXAMPLE)

    def test_player_count_mismatch(self):
        v = ClassicalGame.from_map(1, {(1,): 1})
        with pytest.raises(ValueError):
            is_selection(v, WORKED_EXAMPLE)

    def test_random_selections(self):
        rng = random.Random(7)
        for _ in range(20):
            w = rand_interval_game(rng, 3)
            assert is_selection(random_selection(rng, w), w)


class TestEmbedding:
    def test_round_trip(self):
        v = ClassicalGame.from_map(2, {(1,): "1/3", (2,): 0, (1, 2): 2})
        assert to_classical(embed_classical(v)) == v

    def test_to_classical_needs_degeneracy(self):
        with pytest.raises(ValueError):
            to_classical(WORKED_EXAMPLE)

    def test_truncate_grand(self):
        t = truncate_grand(WORKED_EXAMPLE)
        assert t.worth([1, 2]) == Interval(1)
        assert t.worth([1]) == WORKED_EXAMPLE.worth([1])
        assert truncate_grand(t) == t

    def test_truncate_on_embedding_is_identity(self):
        v = ClassicalGame.from_map(2, {(1,): 1, (2,): 2, (1, 2): 4})
        w = embed_classical(v)
        assert truncate_grand(w) == w

    def test_transforms_keep_the_least_integer_form(self):
        # the grand upper endpoint holds the only denominator 2, which
        # truncation drops; each result's form is the one its worths give
        w = IntervalGame.from_map(2, {(1,): 1, (2,): (0, 2), (1, 2): (3, Fraction(7, 2))})
        v = ClassicalGame.from_map(2, {(1,): "1/3", (2,): 0, (1, 2): 2})
        for game in (truncate_grand(w), embed_classical(v), to_classical(embed_classical(v))):
            assert game.integer_form == type(game)._form_of(game.values)
        assert truncate_grand(w).integer_form.scale == 1

    @pytest.mark.parametrize(
        "transform, game, expected",
        [
            (format_game, ClassicalGame.from_map(1, {(1,): 1}), "an IntervalGame"),
            (to_classical, ClassicalGame.from_map(1, {(1,): 1}), "an IntervalGame"),
            (truncate_grand, ClassicalGame.from_map(1, {(1,): 1}), "an IntervalGame"),
            (embed_classical, WORKED_EXAMPLE, "a ClassicalGame"),
        ],
    )
    def test_the_wrong_game_type_is_refused(self, transform, game, expected):
        with pytest.raises(TypeError, match=f"expected {expected}, got {type(game).__name__}"):
            transform(game)


class TestFamilies:
    def test_two_player_goldens(self):
        expect = {
            "sel-superadditive": {(1,): (0, 1), (2,): (0, 1), (1, 2): (2, 3)},
            "interval-superadditive": {(1,): (0, 1), (2,): (0, 1), (1, 2): (0, 2)},
            "sel-convex": {(1,): (0, 1), (2,): (0, 1), (1, 2): (2, 3)},
        }
        for kind, worths in expect.items():
            assert family(kind, 2) == IntervalGame.from_map(2, worths)

    def test_formulas_at_three_players(self):
        g = family("sel-superadditive", 3)
        assert g.worth([1, 3]) == Interval(2, 3)
        assert g.worth([1, 2, 3]) == Interval(4, 5)
        g = family("interval-superadditive", 3)
        assert g.worth([2]) == Interval(0, 1)
        assert g.worth([1, 2, 3]) == Interval(0, 3)
        g = family("sel-convex", 3)
        assert g.worth([1, 2]) == Interval(2, 3)
        assert g.worth([1, 2, 3]) == Interval(6, 7)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            family("nope", 3)
        with pytest.raises(ValueError):
            family("sel-convex", 1)

    @pytest.mark.parametrize("n", [3.0, True])
    def test_bool_and_float_player_counts_are_refused(self, n):
        with pytest.raises(TypeError, match="player count must be an int"):
            family("sel-convex", n)


MALFORMED = [
    ("", "players"),
    ("players x\n", "line 1"),
    ("players 0\n", "line 1"),
    ("players 17\n", "line 1"),
    ("players 1\nplayers 1\n", "duplicate"),
    ("players 1\n1\n", "line 2"),
    ("players 1\n1 [1, 0]\n", "line 2"),
    ("players 1\n1 [1, 2\n", "line 2"),
    ("players 1\n2 [0, 1]\n", "beyond"),
    ("players 2\n1,1 [0, 1]\n2 [0, 1]\n", "repeats"),
    ("players 1\n1 [0, 1]\n1 [0, 1]\n", "twice"),
    ("players 2\n1 [0, 1]\n", "missing"),
    ("players 1\n1 1.5\n", "line 2"),
    ("players 1\nx [0, 1]\n", "label"),
    # only ASCII decimal digits count, although int() takes these
    ("players \u0663\n", "line 1: invalid player count"),
    ("players +2\n", "line 1: invalid player count"),
    ("players 2\n1 0\n2 0\n0_1 [0, 1]\n", "line 4: invalid player label"),
    ("players 2\n+1 0\n2 0\n1,2 0\n", "line 2: invalid player label"),
    ("players 2\n1 0\n2 0\n1,\u0662 0\n", "line 4: invalid player label"),
]

# Malformed texts beyond MALFORMED on which parse_game must word its error
# exactly as the oracle does.
MALFORMED_MORE = [
    "players 1\n1 [1/0, 2]\n",
    "players 1\n1 [1, 2/0]\n",
    "players 1\n1 [1/0, x]\n",
    "players 1\n1 [x, 1/0]\n",
    "players 1\n1 [ 1 /0 , 2]\n",
    "players 1\n1 3/0\n",
    "players 1\n1 [+1, -0]\n",
    "players 1\n1 [1, 2]]\n",
    "players 1\n1 [1, 2] 3\n",
    "players 1\n1 1 2\n",
    "players 1\n1 2/-3\n",
    "players 1\n1 [1,, 2]\n",
    "players 3\n1,,2 [0, 1]\n",
    "players 3\n1, [0, 1]\n",
    "players 3\n,1 [0, 1]\n",
    "players 3\n1,4 [0, 1]\n",
    "players 3\n4,17 [0, 1]\n",
    "players 3\n0,x [0, 1]\n",
    "players 3\n0 [0, 1]\n",
    "players 3\n3,00 [0, 1]\n",
    "players 3\n2,2,9 [0, 1]\n",
    "players 3\n02,2 [0, 1]\n",
    "players 2\n1,2 0\n2,1 0\n",
    "players 2 3\n",
    "player 2\n",
    "players 1\n1 [1/0, " + "9" * 5000 + "]\n",
    "players 1\n1 [" + "9" * 5000 + ", 1/0]\n",
    "players 1\n1 " + "9" * 5000 + "/0\n",
    "players 1\n1 1/" + "9" * 5000 + "\n",
    # lower above upper, and a zero denominator, among other lines
    "players 1\n1 [3, 2]\n",
    "players 2\n1 0\n2,1 [3, 2]\n2 0\n",
    "players 2\n1 [-1/2, -2/3]\n",
    "players 2\n1 0\n2 [1/0, 2]\n1,2 [3, 2]\n",
]


class TestParsing:
    def test_golden(self):
        text = """\
# worked example
players 2

1 [1, 3]
2 [1, 3]   # symmetric
1,2 [1, 4]
"""
        assert parse_game(text) == WORKED_EXAMPLE

    def test_bare_scalar_is_degenerate(self):
        w = parse_game("players 1\n1 5/2\n")
        assert w.worth([1]) == Interval(Fraction(5, 2))

    def test_any_whitespace_around_the_slash(self):
        w = parse_game("players 2\n1 [1\t/2, 1]\n2 3 /\t4\n1,2 [1 / 2, 2]\n")
        assert w.worth([1]) == Interval(Fraction(1, 2), 1)
        assert w.worth([2]) == Interval(Fraction(3, 4))

    def test_unsorted_players_and_order(self):
        w = parse_game("players 2\n2,1 [0, 1]\n2 [0, 0]\n1 [0, 0]\n")
        assert w.worth([1, 2]) == Interval(0, 1)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            *MALFORMED,
            # longer than int() converts: still the line's GameFormatError
            ("players " + "0" * 5000 + "1\n", "line 1: invalid player count"),
            ("players 1\n" + "0" * 5000 + "1 [0, 1]\n", "line 2: invalid player label"),
            ("players 2\n1 0\n2,1" + "0" * 5000 + " 0\n", "line 3: invalid player label"),
            ("players 1\n1 [0, 1" + "0" * 5000 + "]\n", "line 2: Exceeds the limit"),
            ("players 1\n\n1 " + "7" * 5000 + "/2\n", "line 3: Exceeds the limit"),
            # a label is bounded before the mask is shifted by it
            ("players 3\n0 [0, 1]\n", "line 2: invalid player label: 0$"),
            ("players 3\n4,17 [0, 1]\n", "line 2: invalid player label: 17$"),
            # only a first field of exactly "players" is a second header; the
            # oracle words a token that begins with it as one
            ("players 2\n1 0\nplayers2 0\n", "^line 3: invalid player label 'players2'$"),
            ("players 2\n1 [1,3]\n2 [1,3]\nplayers2 [1,4]\n", "^line 4: invalid player label 'players2'$"),
            ("players 2\n1 [1,3]\n2 [1,3]\nplayers 1\n", "^line 4: duplicate 'players' header$"),
        ],
    )
    def test_errors_carry_diagnostics(self, text, fragment):
        with pytest.raises(GameFormatError, match=fragment):
            parse_game(text)

    def test_format_is_canonical(self):
        assert format_game(WORKED_EXAMPLE) == (
            "players 2\n1 [1, 3]\n2 [1, 3]\n1,2 [1, 4]\n"
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=1, max_value=4))
    def test_format_writes_each_worth_in_lowest_terms(self, seed, n):
        w = rand_interval_game(random.Random(seed), n)
        labels = coalition_labels(n)
        rows = [f"{labels[m]} [{format_scalar(iv.lower)}, {format_scalar(iv.upper)}]\n" for m, iv in enumerate(w.values) if m]
        assert format_game(w) == f"players {n}\n" + "".join(rows)

    def test_round_trip_fixed(self):
        text = format_game(WORKED_EXAMPLE)
        assert format_game(parse_game(text)) == text

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=1, max_value=4))
    def test_round_trip_random(self, seed, n):
        w = rand_interval_game(random.Random(seed), n)
        assert parse_game(format_game(w)) == w

    def test_round_trip_at_max_players(self):
        w = family("sel-convex", MAX_PLAYERS)
        assert parse_game(format_game(w)) == w

    def test_coalition_labels(self):
        assert coalition_labels(4)[:8] == ["", "1", "2", "1,2", "3", "1,3", "2,3", "1,2,3"]
        for n in range(1, MAX_PLAYERS + 1):
            assert coalition_labels(n) == [",".join(map(str, members(m))) for m in range(1 << n)], n


def _render_scalar(rng: random.Random, q: Fraction) -> str:
    """q as p or p/q with an optional plus sign, a denominator that need
    not be in lowest terms, and any whitespace around the slash."""
    k = rng.choice((1, 1, 2, 3))
    num, den = q.numerator * k, q.denominator * k
    sign = "+" if num >= 0 and rng.random() < 0.3 else ""
    if den == 1 and rng.random() < 0.7:
        return f"{sign}{num}"
    return f"{sign}{num}{_space(rng, True)}/{_space(rng, True)}{den}"


def _space(rng: random.Random, optional: bool) -> str:
    return rng.choice(("", "", " ", "\t", " \t ") if optional else (" ", "\t", "  ", " \t"))


def _render_label(rng: random.Random, mask: int) -> str:
    players = [str(p) for p in members(mask)]
    if rng.random() < 0.3:
        rng.shuffle(players)
    if rng.random() < 0.2:
        players = ["0" * rng.randint(1, 2) + p for p in players]
    return ",".join(players)


def _render_game(rng: random.Random, w: IntervalGame) -> str:
    """w in the game format, formatted at random: unsorted and zero-padded
    labels, bare scalars, tabs and spaces, comments, blank lines and
    shuffled lines."""
    lines = []
    for m in range(1, 1 << w.n):
        iv = w.values[m]
        if iv.degenerate and rng.random() < 0.5:
            worth = _render_scalar(rng, iv.lower)
        else:
            parts = (
                "[", _space(rng, True), _render_scalar(rng, iv.lower), _space(rng, True), ",",
                _space(rng, True), _render_scalar(rng, iv.upper), _space(rng, True), "]",
            )
            worth = "".join(parts)
        line = _space(rng, True) + _render_label(rng, m) + _space(rng, False) + worth
        if rng.random() < 0.2:
            line += _space(rng, True) + "# note, [1, 2] 3/0"
        lines.append(line + _space(rng, True))
    for _ in range(rng.randint(0, 3)):
        lines.append(rng.choice(("", "  ", "\t", "# comment", "  # players 9")))
    rng.shuffle(lines)
    header = f"{_space(rng, True)}players{_space(rng, False)}{w.n}{_space(rng, True)}"
    return "\n".join(["# game", "", header, *lines]) + rng.choice(("", "\n"))


def _oracle_form(w: IntervalGame) -> tuple:
    """The integer form numerics.integers gives for w's endpoints."""
    ints, scale = integers([x for iv in w.values for x in (iv.lower, iv.upper)])
    return tuple(ints[::2]), tuple(ints[1::2]), scale


# fractional, negative and zero endpoints, bare scalars, and labels off the
# canonical table
FORM_CASES = [
    "players 2\n1 [-1/2, 2/3]\n2 [0, 0]\n1,2 [ -7/4 , -1/6 ]\n",
    "players 2\n01 -3/4\n2,1 5\n02 [4/6, 10/4]\n",
    "players 2\n1 0\n2 -0/5\n2,1 [-0, +0]\n",
    "players 3\n1 1/3\n2 [1/3, 1/2]\n3 -2/8\n1,2 0\n01,3 [-5, -4/3]\n3,2 7\n3,2,1 [1/6, 1/6]\n",
    "players 1\n1 [6/4, 12/8]\n",
]


def _canonical_texts(rng: random.Random) -> list[str]:
    """Texts in the layout format_game writes: random games at every size up
    to 8 (half of them degenerate), the families, extreme worths, and games
    written as the benchmark corpus writes them (labels joined by hand,
    Fraction endpoints over denominators 1 to 4).  At 11 and 12 players
    these come in two kinds: few distinct literals (the families and the
    small denominators) and all-distinct literals (worths from a 10**6
    range, as integers and as fractions)."""
    texts = []
    for n in range(1, 9):
        w = rand_interval_game(rng, n)
        texts += [format_game(w), format_game(IntervalGame(n, tuple(Interval(iv.upper) for iv in w.values)))]
    texts += [format_game(family(kind, n)) for kind in FAMILY_KINDS for n in (2, 5, 10, 11, 12)]
    huge = Fraction(-(2**80) - 1, 3**40)
    texts.append(format_game(IntervalGame.from_function(3, lambda m: (huge * m, Fraction(2**90, 7) + m))))
    for n in (1, 4, 9, 11, 12):
        lines = [f"players {n}"]
        for m in range(1, 1 << n):
            lo = Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 4)))
            up = lo + Fraction(rng.randint(0, 9), rng.choice((1, 1, 2, 3, 4)))
            label = ",".join(str(i + 1) for i in range(n) if m >> i & 1)
            lines.append(f"{label} [{lo}, {up}]")
        texts.append("\n".join(lines) + "\n")
    for n, fractions in ((11, False), (12, True)):
        # distinct numerators make distinct literals, over any denominator
        nums = rng.sample(range(-(10**6), 10**6), 2 << n)
        lines = [f"players {n}"]
        for label, a, b in zip(coalition_labels(n)[1:], nums[::2], nums[1::2]):
            if fractions:
                a, b = f"{a}/{rng.randint(1, 9)}", f"{b}/{rng.randint(1, 9)}"
            if Fraction(a) > Fraction(b):
                a, b = b, a
            lines.append(f"{label} [{a}, {b}]")
        texts.append("\n".join(lines) + "\n")
    return texts


def _one_edit_variants(rng: random.Random, text: str) -> tuple[list[str], list[str]]:
    """Texts one edit away from a canonical text.  The first list holds
    texts outside the layout format_game writes, which only the line loop
    reads: some still name the same or another game, the rest are refused.
    The second respells endpoint literals in ways the canonical reader
    takes too: a plus sign, ``-0``, and zero-padded fractions (``007/04``)."""
    header, *rows = text.splitlines()
    n = int(header.split()[1])
    i = rng.randrange(len(rows))
    row = rows[i]
    label, worth = row.split(" ", 1)
    lo, up = worth[1:-1].split(", ")
    wide = [k for k, r in enumerate(rows) if len(set(r.split(" ", 1)[1][1:-1].split(", "))) == 2]

    def edited(new_row, at=i):
        return "\n".join([header, *rows[:at], new_row, *rows[at + 1:]]) + "\n"

    def spliced(char):
        k = rng.randint(0, len(row))
        return edited(row[:k] + char + row[k:])

    digit = next(k for k, c in enumerate(worth) if c.isdigit())
    breaks = ("\r", "\x0c", "\x1c", "\u2028")
    # a lone surrogate too, which a strict encode refuses
    variants = [spliced(c) for c in (*breaks, "\udcff")] + [edited(row.replace(" ", c, 1)) for c in breaks] + [
        edited(row + "  # comment"),
        edited(row + "\n"),
        edited(row.replace(" ", "  ", 1)),
        edited(f"{label} [{lo},  {up}]"),
        edited(f"{label} {lo}"),
        edited(f"{label} [{lo.split('/')[0]}/0, {up}]"),
        edited(f"{label} [{up}, {lo}]" if i in wide else f"{label} [1, 0]"),
        edited(f"{label} [-{'9' * 5000}, {up}]"),
        edited(row + "\n" + row),
        edited("0" + row),
        edited(f"{label} {worth[:digit]}{chr(0x660 + int(worth[digit]))}{worth[digit + 1:]}"),
        text[:-1],
        text + "# comment",
        text.replace(header, "players 0", 1),
        text.replace(header, "players 17", 1),
        text.replace(header, f"players {chr(0x660 + n)}", 1) if n < 10 else text + "\n",
        # malformed fractions, on either endpoint
        *(edited(f"{label} [{bad}, {up}]") for bad in ("5/-2", "5/+2", "5/", "/2", "5//2", "5/2/3")),
        *(edited(f"{label} [{lo}, {bad}]") for bad in ("5/-2", "5/", "5/2/3")),
        # a comma inside an endpoint; the separators swapped, with the same
        # number of each; a tab or a no-break space for either space
        edited(f"{label} [5,6, 7]"),
        edited(f"{label}, {lo} [{up}]"),
        *(edited(row.replace(" ", c, 1)) for c in ("\t", "\u00a0")),
        *(edited(f"{label} [{lo},{c}{up}]") for c in ("\t", "\u00a0")),
    ]
    if wide:
        k = rng.choice(wide)
        variants.append(edited(rows[k].replace("[", "[ ", 1), at=k))
    if n > 1:
        j = rng.choice([k for k in range(len(rows)) if k != i])
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        variants.append("\n".join([header, *swapped]) + "\n")
        several = [k for k, r in enumerate(rows) if "," in r.split(" ", 1)[0]]
        k = rng.choice(several)
        players, rest = rows[k].split(" ", 1)
        variants.append(edited(",".join(reversed(players.split(","))) + " " + rest, at=k))

    def plus(literal):
        return literal if literal.startswith("-") else "+" + literal

    def padded(literal):  # 7/4 as 007/04, -3 as -003/01
        num, _, den = literal.partition("/")
        sign = "-" if num.startswith("-") else ""
        return f"{sign}00{num.lstrip('-')}/0{den or 1}"

    respelled = [edited(f"{label} [{plus(lo)}, {plus(up)}]"), edited(f"{label} [{padded(lo)}, {padded(up)}]")]
    zeros = [k for k, r in enumerate(rows) if r.endswith(" [0, 0]")] or [k for k, r in enumerate(rows) if " [0, " in r]
    if zeros:
        k = rng.choice(zeros)
        respelled.append(edited(rows[k].replace(" [0, ", " [-0, ", 1), at=k))
    return variants, respelled


def _edited(text: str) -> bool:
    """Whether the tests edit a canonical text: one of at most 10 players.
    An edit touches one row or the header, so larger texts would add oracle
    time only."""
    return int(text.split(None, 2)[1]) <= 10


def _assert_as_the_oracle(text: str) -> None:
    """parse_game gives the oracle's game and integer form, or its message."""
    try:
        expected = parse_game_oracle(text)
    except GameFormatError as exc:
        with pytest.raises(GameFormatError) as got:
            parse_game(text)
        assert str(got.value) == str(exc)
    else:
        got = parse_game(text)
        assert got == expected
        assert got.integer_form == _oracle_form(expected)


class TestParserAgainstOracle:
    """parse_game against the line loop it replaced (tests/helpers.py)."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=1, max_value=4))
    def test_random_formatting(self, seed, n):
        rng = random.Random(seed)
        w = rand_interval_game(rng, n)
        if rng.random() < 0.5:  # degenerate worths, so that bare scalars appear
            w = IntervalGame(n, tuple(Interval(iv.lower) for iv in w.values))
        text = _render_game(rng, w)
        got, expected = parse_game(text), parse_game_oracle(text)
        assert got == expected == w
        assert got.integer_form == _oracle_form(expected)

    @pytest.mark.parametrize("text", FORM_CASES)
    def test_integer_form_of_fixed_texts(self, text):
        got, expected = parse_game(text), parse_game_oracle(text)
        assert got == expected
        assert got.integer_form == _oracle_form(expected)

    @pytest.mark.parametrize("text", [text for text, _ in MALFORMED] + MALFORMED_MORE)
    def test_same_errors(self, text):
        with pytest.raises(GameFormatError) as expected:
            parse_game_oracle(text)
        with pytest.raises(GameFormatError) as got:
            parse_game(text)
        assert str(got.value) == str(expected.value)

    def test_canonical_texts_and_their_one_edit_variants(self):
        rng = random.Random(21)
        for text in _canonical_texts(rng):
            _assert_as_the_oracle(text)
            for variants in _one_edit_variants(rng, text) if _edited(text) else ():
                for variant in variants:
                    _assert_as_the_oracle(variant)
        # the canonical rows of one player more than the format allows
        rows = [f"{label} [0, 1]\n" for label in coalition_labels(MAX_PLAYERS + 1)[1:]]
        _assert_as_the_oracle(f"players {MAX_PLAYERS + 1}\n" + "".join(rows))

    def test_only_a_text_off_the_canonical_layout_reaches_the_line_loop(self, monkeypatch):
        rng = random.Random(22)
        texts = _canonical_texts(rng)
        edits = [_one_edit_variants(rng, text) for text in texts if _edited(text)]
        line_loop = games._parse_lines
        seen = []

        def spy(text):
            seen.append(text)
            return line_loop(text)

        monkeypatch.setattr(games, "_parse_lines", spy)
        for text in [*texts, *(v for _, respelled in edits for v in respelled)]:
            assert parse_game(text) == parse_game_oracle(text)
        assert seen == []
        for variant in (v for variants, _ in edits for v in variants):
            seen.clear()
            with contextlib.suppress(GameFormatError):
                parse_game(variant)
            assert seen == [variant]
