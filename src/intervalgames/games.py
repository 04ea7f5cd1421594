"""Classical and interval cooperative games over a fixed player set.

Players carry labels 1..n.  A coalition is an ``int`` bitmask in which bit
i-1 stands for player i, so the empty coalition is 0 and the grand
coalition is ``(1 << n) - 1``.  Characteristic functions are stored densely
as tuples of length ``2**n`` indexed by mask, which keeps every check a
flat array scan.

Each game has one integer form (``IntegerForm``): its lower and upper
worths as integers over one positive scale.  ``parse_game`` builds it from
the digits of the game file, with no Fraction in between, and a game built
from rational worths derives it once through ``numerics.integers``.  The
class checks and solution concepts read only this form; a parsed game
builds its rational ``values`` on first read, for output and transforms.
The border and length games are built once per interval game, on its scale.
"""

import re
from collections.abc import Callable, Iterable, Mapping
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from operator import floordiv, le, mul
from typing import NamedTuple

from .errors import GameFormatError
from .numerics import (
    Interval,
    ZERO_INTERVAL,
    as_fraction,
    integers,
    parse_endpoints,
)

Coalition = int

MAX_PLAYERS = 16

FAMILY_KINDS = ("sel-superadditive", "interval-superadditive", "sel-convex")


def coalition(players: Iterable[int]) -> int:
    """Bitmask for an iterable of 1-based player labels."""
    mask = 0
    for p in players:
        if not isinstance(p, int) or isinstance(p, bool) or not 1 <= p <= MAX_PLAYERS:
            raise ValueError(f"invalid player label: {p!r}")
        mask |= 1 << (p - 1)
    return mask


def members(mask: int) -> tuple[int, ...]:
    """Sorted 1-based player labels of a coalition mask."""
    if mask < 0:
        raise ValueError(f"invalid coalition mask: {mask}")
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def grand_coalition(n: int) -> int:
    return (1 << n) - 1


def _check_n(n: int) -> None:
    if isinstance(n, (bool, float)):
        raise TypeError(f"player count must be an int, got {type(n).__name__} {n!r}")
    if not isinstance(n, int) or not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"player count must be between 1 and {MAX_PLAYERS}, got {n!r}")


def _as_mask(s, n: int) -> int:
    if isinstance(s, int) and not isinstance(s, bool):
        mask = s
    else:
        mask = coalition(s)
    if not 0 <= mask < (1 << n):
        raise ValueError(f"coalition {s!r} is not a subset of the {n}-player grand coalition")
    return mask


class IntegerForm(NamedTuple):
    """A game's border worths as integers over one positive scale: coalition
    m's endpoints are ``lower[m] / scale`` and ``upper[m] / scale``.  A game
    read from text or built from rational worths has the least such scale,
    the one ``numerics.integers`` gives; the border and length games of an
    interval game keep its scale, and games the solvers build may keep a
    larger one.  A classical game has ``lower is upper``."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    scale: int


def _within(inner: IntegerForm, outer: IntegerForm) -> bool:
    """Whether every worth interval of inner lies inside outer's for the same
    coalition: a / p >= c / q is read as a * q >= c * p across the scales p
    of inner and q of outer."""
    p, q = inner.scale, outer.scale
    return all(
        c * p <= a * q and b * q <= d * p
        for a, b, c, d in zip(inner.lower, inner.upper, outer.lower, outer.upper)
    )


class _Game:
    """Body shared by the two game types, which differ only in how a worth is
    coerced (``_coerce``), the empty coalition's worth (``_zero``), the noun
    of the length error (``_noun``) and how ``values`` and ``integer_form``
    are derived from each other (``_form_of``, ``_values_of``).

    A game holds whichever of the two it was built from and derives the
    other on first read: ``parse_game`` builds the integer form, which is
    all the class checks read, and the constructors build ``values``.
    """

    def __init__(self, n: int, values):
        _check_n(n)
        vals = tuple(self._coerce(v) for v in values)
        if len(vals) != 1 << n:
            raise ValueError(f"expected {1 << n} {self._noun}, got {len(vals)}")
        if vals[0] != self._zero:
            raise ValueError(f"the empty coalition must be worth {self._zero}")
        self.__dict__.update(n=n, values=vals)

    @classmethod
    def _from_form(cls, n: int, form: IntegerForm) -> "_Game":
        """A game from its integer form, unchecked: the caller vouches for it."""
        game = object.__new__(cls)
        game.__dict__.update(n=n, integer_form=form)
        return game

    @cached_property
    def values(self) -> tuple:
        return self._values_of(self.integer_form)

    @cached_property
    def integer_form(self) -> IntegerForm:
        return self._form_of(self.values)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.values) == (other.n, other.values)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.values))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"

    def worth(self, s):
        """Worth of a coalition given as a mask or an iterable of players."""
        return self.values[_as_mask(s, self.n)]

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int], object]) -> "_Game":
        _check_n(n)
        return cls(n, tuple(cls._coerce(fn(m)) if m else cls._zero for m in range(1 << n)))

    @classmethod
    def from_map(cls, n: int, worth: Mapping) -> "_Game":
        """Build from a map keyed by player iterables; all nonempty coalitions required."""
        _check_n(n)
        values: list = [None] * (1 << n)
        values[0] = cls._zero
        for key, val in worth.items():
            mask = _as_mask(key, n)
            if mask == 0:
                if cls._coerce(val) != cls._zero:
                    raise ValueError(f"the empty coalition must be worth {cls._zero}")
                continue
            if values[mask] is not None:
                raise ValueError(f"coalition {members(mask)} given twice")
            values[mask] = cls._coerce(val)
        for m in range(1, 1 << n):
            if values[m] is None:
                raise ValueError(f"missing worth for coalition {members(m)}")
        return cls(n, tuple(values))


class ClassicalGame(_Game):
    """Characteristic function with one exact rational worth per coalition."""

    _coerce = staticmethod(as_fraction)
    _zero = Fraction(0)
    _noun = "worths"

    @staticmethod
    def _form_of(values) -> IntegerForm:
        ints, scale = integers(values)
        ints = tuple(ints)
        return IntegerForm(ints, ints, scale)

    @staticmethod
    def _values_of(form: IntegerForm) -> tuple[Fraction, ...]:
        return tuple([Fraction(a, form.scale) for a in form.lower])


def _as_interval(value) -> Interval:
    if isinstance(value, Interval):
        return value
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return Interval(value[0], value[1])
    return Interval(value)


class IntervalGame(_Game):
    """Characteristic function assigning each coalition a rational interval."""

    _coerce = staticmethod(_as_interval)
    _zero = ZERO_INTERVAL
    _noun = "worth intervals"

    @staticmethod
    def _form_of(values) -> IntegerForm:
        ints, scale = integers([x for iv in values for x in (iv.lower, iv.upper)])
        return IntegerForm(tuple(ints[::2]), tuple(ints[1::2]), scale)

    @staticmethod
    def _values_of(form: IntegerForm) -> tuple[Interval, ...]:
        lower, upper, scale = form
        return tuple([Interval(Fraction(a, scale), Fraction(b, scale)) for a, b in zip(lower, upper)])

    @cached_property
    def _borders(self) -> tuple[ClassicalGame, ClassicalGame]:
        lower, upper, scale = self.integer_form
        return (
            ClassicalGame._from_form(self.n, IntegerForm(lower, lower, scale)),
            ClassicalGame._from_form(self.n, IntegerForm(upper, upper, scale)),
        )

    @cached_property
    def _length(self) -> ClassicalGame:
        lower, upper, scale = self.integer_form
        length = tuple([b - a for a, b in zip(lower, upper)])
        return ClassicalGame._from_form(self.n, IntegerForm(length, length, scale))


def _checked_form(game: _Game, kind: type[_Game]) -> IntegerForm:
    """The integer form of a game of type kind, which every class check and
    solution concept reads; a game of the other type is refused."""
    if not isinstance(game, kind):
        article = "an" if kind is IntervalGame else "a"
        raise TypeError(f"expected {article} {kind.__name__}, got {type(game).__name__}")
    return game.integer_form


def border_games(w: IntervalGame) -> tuple[ClassicalGame, ClassicalGame]:
    """The lower and upper border games of an interval game, built once per
    game, on its integer form's scale."""
    _checked_form(w, IntervalGame)
    return w._borders


def length_game(w: IntervalGame) -> ClassicalGame:
    """Pointwise interval widths as a classical game, built once per game, on
    its integer form's scale."""
    _checked_form(w, IntervalGame)
    return w._length


def is_selection(v: ClassicalGame, w: IntervalGame) -> bool:
    """Whether v picks a worth inside w's interval for every coalition."""
    if v.n != w.n:
        raise ValueError(f"player counts differ: {v.n} vs {w.n}")
    return _within(_checked_form(v, ClassicalGame), _checked_form(w, IntervalGame))


def embed_classical(v: ClassicalGame) -> IntervalGame:
    """Degenerate interval game whose only selection is v, on v's scale."""
    worths, _, scale = _checked_form(v, ClassicalGame)
    return IntervalGame._from_form(v.n, IntegerForm(worths, worths, scale))


def to_classical(w: IntervalGame) -> ClassicalGame:
    """Collapse a fully degenerate interval game to its unique selection, on
    w's scale."""
    lower, upper, scale = _checked_form(w, IntervalGame)
    if lower != upper:
        m = next(m for m, (a, b) in enumerate(zip(lower, upper)) if a != b)
        raise ValueError(f"coalition {members(m)} has a nondegenerate worth {w.values[m]}")
    return ClassicalGame._from_form(w.n, IntegerForm(lower, lower, scale))


def truncate_grand(w: IntervalGame) -> IntervalGame:
    """Replace the grand coalition's worth by its degenerate lower endpoint."""
    lower, upper, scale = _checked_form(w, IntervalGame)
    # dropping the grand upper endpoint may leave a smaller common denominator
    return _least_form(w.n, lower, upper[:-1] + lower[-1:], scale)


def family(kind: str, n: int) -> IntervalGame:
    """Named game families used as separating examples between game classes.

    ``sel-superadditive``       w(S) = [2|S| - 2, 2|S| - 1]
    ``interval-superadditive``  w(S) = [0, |S|]
    ``sel-convex``              w(S) = [2**|S| - 2, 2**|S| - 1]

    each for nonempty S, with w(empty) = [0, 0]; requires n >= 2.
    """
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {FAMILY_KINDS}")
    _check_n(n)
    if n < 2:
        raise ValueError(f"family games need at least 2 players, got {n!r}")
    if kind == "sel-superadditive":
        fn = lambda m: Interval(2 * m.bit_count() - 2, 2 * m.bit_count() - 1)
    elif kind == "interval-superadditive":
        fn = lambda m: Interval(0, m.bit_count())
    else:
        fn = lambda m: Interval(2 ** m.bit_count() - 2, 2 ** m.bit_count() - 1)
    return IntervalGame.from_function(n, fn)


def coalition_labels(n: int) -> list[str]:
    """The canonical label of every mask below ``2**n``: its players in
    increasing order, joined by commas (``""`` for the empty coalition)."""
    return ["", *_label_column(n).split("\n")[:-1]]


def _label_column(n: int) -> str:
    """The canonical labels of masks 1 .. 2**n - 1 in order, each followed
    by a newline.  Player p's masks follow those of the players below p:
    first ``p`` itself, then each earlier label extended by ``,p``, which is
    one ``replace`` over the earlier column, so no label is built alone."""
    column = ""
    for player in range(1, n + 1):
        top = str(player)
        column += top + "\n" + column.replace("\n", "," + top + "\n")
    return column


# The canonical layout that format_game writes: the header, then one
# ``label [p, q]`` row per nonempty coalition, in mask order.  A row's label
# and endpoint literals are made of the _ROW_CHARS only, so deleting those
# leaves each row as " [ ]\n", the skeleton that _parse_canonical checks.
_HEADER_RE = re.compile(r"players ([0-9]{1,2})\n")
_ROW_CHARS = b"0123456789,/+-"


def parse_game(text: str) -> IntervalGame:
    """Parse the line-oriented game format.

    The first significant line is ``players <n>``; every following line is
    ``<i,j,k> <worth>`` with comma-separated 1-based players and the worth
    written as ``[lo, hi]`` or as a bare rational (meaning a degenerate
    interval).  ``#`` starts a comment, blank lines are skipped, the empty
    coalition is implied as [0, 0], and every nonempty coalition must
    appear exactly once.

    A text in the canonical layout (``format_game``'s) is read with one
    skeleton check, one split and one conversion per distinct endpoint
    literal (``_parse_canonical``); any other text, and every text that is
    refused, goes through the line loop (``_parse_lines``), which words
    every error.  Both build the game in its integer form, over the least
    common denominator of all its endpoints; no Fraction or Interval is
    built until ``values`` is read.
    """
    game = _parse_canonical(text)
    return _parse_lines(text) if game is None else game


def _parse_canonical(text: str) -> IntervalGame | None:
    """The game of a text in the canonical layout, or None for any other
    text, including every text the line loop refuses.

    The body after the header is taken when each row reads
    ``<label> [<p>, <q>]`` and a newline, the labels are the canonical ones
    in mask order, and p and q are literals ``[+-]d`` or ``[+-]d/d`` (d a
    run of ASCII digits), p <= q; the line loop reads such a row as the
    same interval.  Three checks pass exactly these rows, and the endpoints
    must then not be reversed:

    - Skeleton.  Deleting the _ROW_CHARS leaves " [ ]\n" once per row, so
      the body holds no other character, and each row has its two spaces,
      its brackets and its newline in that order.
    - Split.  Replacing " [" and "]\n" by ", " leaves a row at most three
      spaces, and splitting at ", " ends a field only at a space after a
      comma.  Every third field, newline-joined, must be the canonical
      label column.  That column holds no "]", so none of those fields
      holds a newline (a row's newline is left only behind its "]"), and
      it ends in a newline, so the last of them is the empty field after
      the last row: 3 fields a row, so each row has three spaces after
      commas.  Such a row reads ``X [Y, Z]\n`` with X, Y and Z runs of
      _ROW_CHARS, or its label ends in a comma and characters stand
      between its first space and its "[", which stays inside its lower
      endpoint's field, where no literal passes.
    - Literals.  Each distinct endpoint literal is converted once, into a
      table that both endpoint columns are mapped through.  Without a
      slash, it is what ``int`` reads, which over the _ROW_CHARS is a sign
      and digits (a comma fails it).  With one, it must have exactly one,
      an ``int`` numerator before it and only digits after it: ``int``
      alone would take a signed denominator (``5/-2``, ``5/+2``), and
      ``5/`` has none.  A zero denominator makes the lcm 0.
    """
    header = _HEADER_RE.match(text)
    # a text whose first row is not coalition 1's skips the checks, so a
    # file of labels off the table costs no more than the line loop
    if header is None or not text.endswith("\n") or not text.startswith("1 [", header.end()):
        return None
    n = int(header.group(1))
    if not 1 <= n <= MAX_PLAYERS:
        return None
    body = text[header.end():]
    rows = (1 << n) - 1
    if not body.isascii() or body.encode().translate(None, _ROW_CHARS) != b" [ ]\n" * rows:
        return None
    fields = body.replace(" [", ", ").replace("]\n", ", ").split(", ")
    if "\n".join(fields[::3]) != _label_column(n):
        return None
    lows, ups = fields[1::3], fields[2::3]
    whole = {*lows, *ups}  # the distinct literals, less the fractions below
    fractions = [lit for lit in whole if "/" in lit]
    whole.difference_update(fractions)
    # the numerator and denominator of each fraction, in turn
    parts = "/".join(fractions).split("/") if fractions else []
    dens = parts[1::2]
    den_set = {*dens}
    if len(parts) != 2 * len(fractions) or not all(map(str.isdigit, den_set)):
        return None
    try:
        den_ints = list(map(int, den_set))
        scale = lcm(*den_ints)
        if not scale:  # a zero denominator
            return None
        factor = dict(zip(den_set, map(floordiv, repeat(scale), den_ints))).__getitem__
        value = dict(zip(whole, map(mul, map(int, whole), repeat(scale))))
        value.update(zip(fractions, map(mul, map(int, parts[::2]), map(factor, dens))))
    except ValueError:  # a malformed literal, or one longer than int converts
        return None
    lower = [0, *map(value.__getitem__, lows)]
    upper = [0, *map(value.__getitem__, ups)]
    if not all(map(le, lower, upper)):
        return None
    return _least_form(n, lower, upper, scale)


def _parse_lines(text: str) -> IntervalGame:
    """``parse_game`` line by line, for any layout.  A line costs one table
    lookup of its coalition among the canonical labels and one pattern match
    of its worth, whose digit groups become integer endpoints
    (``numerics.parse_endpoints``); only a label outside the table
    (unsorted, zero-padded or malformed) is decoded player by player."""
    n = None
    ends: list = []
    labels: list[str] = []
    masks: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "players":
                raise GameFormatError(f"line {lineno}: expected 'players <n>' header, got {line!r}")
            n = _decimal(parts[1])
            if n is None:
                raise GameFormatError(f"line {lineno}: invalid player count {parts[1]!r}")
            if not 1 <= n <= MAX_PLAYERS:
                raise GameFormatError(
                    f"line {lineno}: player count must be between 1 and {MAX_PLAYERS}, got {n}"
                )
            ends = [None] * (1 << n)
            ends[0] = (0, 1, 0, 1)
            labels = coalition_labels(n)
            masks = {label: m for m, label in enumerate(labels) if m}
            continue
        parts = line.split(None, 1)
        if parts[0] == "players":
            raise GameFormatError(f"line {lineno}: duplicate 'players' header")
        if len(parts) != 2:
            raise GameFormatError(f"line {lineno}: expected '<coalition> <worth>', got {line!r}")
        token, worth_text = parts
        mask = masks.get(token)
        if mask is None:
            mask = _parse_coalition_token(token, n, lineno)
        try:
            worth = parse_endpoints(worth_text)
        except ValueError as exc:
            raise GameFormatError(f"line {lineno}: {exc}") from None
        if ends[mask] is not None:
            raise GameFormatError(f"line {lineno}: coalition {token} given twice")
        ends[mask] = worth
    if n is None:
        raise GameFormatError("empty input: missing 'players <n>' header")
    if None in ends:
        raise GameFormatError(f"missing worth for coalition {labels[ends.index(None)]}")
    lower, lower_den, upper, upper_den = zip(*ends)
    scale = lcm(*lower_den, *upper_den)
    if scale > 1:
        lower = [a * (scale // b) for a, b in zip(lower, lower_den)]
        upper = [a * (scale // b) for a, b in zip(upper, upper_den)]
    return _least_form(n, lower, upper, scale)


def _least_form(n: int, lower, upper, scale: int) -> IntervalGame:
    """The game of endpoints lower[m] / scale and upper[m] / scale, scale the
    least common multiple of their unreduced denominators, over the least
    common denominator of the reduced ones."""
    if scale > 1:
        # the endpoints came unreduced, so scale = D * k for the least
        # common denominator D of the reduced ones, and every int is a
        # multiple of k; dividing by g leaves D, since no prime of D divides
        # all the ints over D: the reduced endpoint whose denominator holds
        # that prime's full power in D has a numerator free of it
        g = gcd(scale, *lower, *upper)
        if g > 1:
            scale //= g
            lower = [a // g for a in lower]
            upper = [a // g for a in upper]
    return IntervalGame._from_form(n, IntegerForm(tuple(lower), tuple(upper), scale))


def _decimal(text: str) -> int | None:
    """The value of a string of ASCII decimal digits, or None for anything
    else (``int`` would also take signs, underscores and other scripts) and
    for a string longer than ``int`` converts."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def _parse_coalition_token(token: str, n: int, lineno: int) -> int:
    labels = []
    for piece in token.split(","):
        label = _decimal(piece)
        if label is None:
            raise GameFormatError(f"line {lineno}: invalid player label {piece!r}")
        labels.append(label)
    try:
        mask = coalition(labels)
    except ValueError as exc:
        raise GameFormatError(f"line {lineno}: {exc}") from None
    if mask >= 1 << n:
        raise GameFormatError(f"line {lineno}: coalition {token} mentions a player beyond {n}")
    if len(set(labels)) != len(labels):
        raise GameFormatError(f"line {lineno}: coalition {token} repeats a player")
    return mask


def _worth_texts(form: IntegerForm) -> list[str]:
    """``[p, q]`` for every coalition's worth in mask order, read from the
    integer form: each endpoint in lowest terms, as ``format_scalar`` writes
    it.  The endpoints are ordered already, so no Interval is built."""
    lower, upper, scale = form

    def text(a: int) -> str:
        # a / scale as str(Fraction(a, scale)) writes it, with no Fraction built
        g = gcd(a, scale)
        return str(a // g) if g == scale else f"{a // g}/{scale // g}"

    return [f"[{text(a)}, {text(b)}]" for a, b in zip(lower, upper)]


def format_game(w: IntervalGame) -> str:
    """Canonical text for an interval game: header plus one line per coalition
    in bitmask order.  ``parse_game(format_game(w))`` reproduces w."""
    texts = _worth_texts(_checked_form(w, IntervalGame))
    rows = map("{} {}\n".format, coalition_labels(w.n)[1:], texts[1:])
    return f"players {w.n}\n" + "".join(rows)
