"""Seeded corpora for the three benchmark workloads.

Every game is built here from ``random.Random(seed)`` with the standard
library only, written in the package's game-file format, and paired with
the reference the verdict check compares against.  The reference never
comes from the route being timed: it is a hand-written label, a label the
construction implies, or a plain-loop check in ``verdicts.py``.

Corpus shape (op counts per kind) is fixed; the seed only changes the
numbers inside the games.  That keeps run-to-run spread down while every
seed still gives different inputs.
"""

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction

DENOMINATORS = (1, 1, 2, 3, 4)


@dataclass(frozen=True)
class Game:
    """Interval game as two endpoint tuples indexed by coalition bitmask."""

    n: int
    lo: tuple[Fraction, ...]
    up: tuple[Fraction, ...]

    def text(self) -> str:
        lines = [f"players {self.n}"]
        for m in range(1, 1 << self.n):
            label = ",".join(str(i + 1) for i in range(self.n) if m >> i & 1)
            lines.append(f"{label} [{self.lo[m]}, {self.up[m]}]")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Op:
    """One CLI call: ``intervalgames <command> --format json -- GAME <args...>``.

    ``labels`` maps a path into the JSON report (keys joined by ``/``) to
    the value the construction implies; ``code`` is the expected exit code
    when the construction fixes it, else None and ``verdicts`` derives it.
    ``payoff`` is the payoff vector for membership-style ops.
    """

    kind: str
    command: str
    game: Game
    args: tuple[str, ...] = ()
    labels: dict = field(default_factory=dict)
    code: int | None = None
    payoff: tuple[Fraction, ...] | None = None

    def argv(self, path: str) -> list[str]:
        # "--" keeps a payoff such as -1,2 from reading as an option
        return [self.command, "--format", "json", "--", path, *self.args]


def payoff_text(x) -> str:
    return ",".join(str(v) for v in x)


def rand_fraction(rng: random.Random, lo: int, hi: int) -> Fraction:
    den = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _bits(m: int) -> int:
    return bin(m).count("1")


def _additive(values, n: int) -> list[Fraction]:
    out = [Fraction(0)] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        out[m] = out[m ^ low] + values[low.bit_length() - 1]
    return out


# ---------------------------------------------------------------------------
# game builders


def family_game(kind: str, n: int) -> Game:
    """The package's built-in separating families, rebuilt independently."""
    lo = [Fraction(0)] * (1 << n)
    up = [Fraction(0)] * (1 << n)
    for m in range(1, 1 << n):
        s = _bits(m)
        if kind == "sel-superadditive":
            lo[m], up[m] = Fraction(2 * s - 2), Fraction(2 * s - 1)
        elif kind == "interval-superadditive":
            lo[m], up[m] = Fraction(0), Fraction(s)
        else:
            lo[m], up[m] = Fraction(2**s - 2), Fraction(2**s - 1)
    return Game(n, tuple(lo), tuple(up))


def convex_worths(rng: random.Random, n: int, curvature: Fraction, monotone: bool) -> list[Fraction]:
    """additive + curvature*|S|^2 + a nonnegative mix of unanimity games.

    For incomparable S, T the supermodular surplus
    v(S|T) + v(S&T) - v(S) - v(T) is at least 2*curvature.  When
    ``monotone`` every singleton share keeps v increasing; otherwise player
    1's share is pushed below -2*curvature so v({1}) < 0 = v(empty).
    """
    shares = [rand_fraction(rng, 0, 3) for _ in range(n)]
    if not monotone:
        shares[0] = -2 * curvature - 1 - rand_fraction(rng, 0, 2)
    worths = _additive(shares, n)
    full = (1 << n) - 1
    bonus = []
    for _ in range(rng.randint(1, 4)):
        t = rng.randint(1, full)
        if _bits(t) >= 2:
            bonus.append((t, rand_fraction(rng, 0, 4)))
    for m in range(1, 1 << n):
        worths[m] += curvature * _bits(m) ** 2
        for t, weight in bonus:
            if t & m == t:
                worths[m] += weight
    return worths


def embedded_convex(rng: random.Random, n: int, monotone: bool) -> Game:
    """Degenerate game whose only selection is a convex classical game."""
    v = tuple(convex_worths(rng, n, Fraction(rng.randint(1, 3), rng.choice(DENOMINATORS)), monotone))
    return Game(n, v, v)


def convex_with_widths(rng: random.Random, n: int, monotone: bool) -> Game:
    """Convex lower border plus widths in [0, curvature].

    The 2*curvature surplus absorbs any two widths, so the game is
    selection-convex and selection-superadditive and both borders are
    convex.  Widths w({1}) = w({2}) = curvature and w({1,2}) = 0 make the
    length game fail every classical property.
    """
    curvature = Fraction(rng.randint(1, 3), rng.choice(DENOMINATORS))
    lo = convex_worths(rng, n, curvature, monotone)
    widths = [curvature * Fraction(rng.randint(0, 4), 4) for _ in range(1 << n)]
    widths[0] = Fraction(0)
    widths[1] = widths[2] = curvature
    widths[3] = Fraction(0)
    up = [a + b for a, b in zip(lo, widths)]
    return Game(n, tuple(lo), tuple(up))


def random_game(rng: random.Random, n: int) -> Game:
    lo = [Fraction(0)]
    up = [Fraction(0)]
    for _ in range((1 << n) - 1):
        a = rand_fraction(rng, -4, 8)
        lo.append(a)
        up.append(a + abs(rand_fraction(rng, 0, 3)))
    return Game(n, tuple(lo), tuple(up))


def additive_border(rng: random.Random, n: int) -> Game:
    """Both borders additive; at least two singleton widths are positive.

    With lower shares b and widths d (see ``corner``), the selection core
    is the simplex {x >= b, x(N) <= b(N) + d(N)} and the generated set is
    the box [b, b + d], so the game is never coincident.
    """
    base = [rand_fraction(rng, -3, 5) for _ in range(n)]
    widths = [abs(rand_fraction(rng, 0, 3)) for _ in range(n)]
    for i in rng.sample(range(n), 2):
        if widths[i] == 0:
            widths[i] = Fraction(rng.randint(1, 3), rng.choice(DENOMINATORS))
    lo = _additive(base, n)
    up = [a + b for a, b in zip(lo, _additive(widths, n))]
    return Game(n, tuple(lo), tuple(up))


def corner(game: Game) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Singleton lower endpoints b and widths d of a game."""
    base = tuple(game.lo[1 << i] for i in range(game.n))
    return base, tuple(game.up[1 << i] - b for i, b in enumerate(base))


def criterion10_game() -> Game:
    """w(S) = [|S| - 1, |S|], except w(N) = [3, 5], on four players."""
    n = 4
    lo = [Fraction(0)] * 16
    up = [Fraction(0)] * 16
    for m in range(1, 16):
        lo[m], up[m] = Fraction(_bits(m) - 1), Fraction(_bits(m))
    lo[15], up[15] = Fraction(3), Fraction(5)
    return Game(n, tuple(lo), tuple(up))


# ---------------------------------------------------------------------------
# reference labels implied by construction


def _classify_doc(lower, upper, length, interval, selection) -> dict:
    names = ("monotonic", "superadditive", "additive", "convex")
    inames = ("size-monotonic", "superadditive-interval", "supermodular-interval", "convex-interval")
    snames = ("selection-monotonic", "selection-superadditive", "selection-convex")
    labels = {}
    for border, flags in (("lower", lower), ("upper", upper), ("length", length)):
        for name, flag in zip(names, flags):
            labels[f"border_games/{border}/{name}"] = flag
    labels.update({f"interval_classes/{k}": v for k, v in zip(inames, interval)})
    labels.update({f"selection_classes/{k}": v for k, v in zip(snames, selection)})
    return labels


# Hand-written labels for the three families at n >= 3; see the package
# README ("Known failing check") for why sel-convex is not convex-interval.
FAMILY_LABELS = {
    "sel-superadditive": _classify_doc(
        (True, True, False, True), (True, True, False, True), (True, False, False, False),
        (True, False, True, False), (True, True, False),
    ),
    "interval-superadditive": _classify_doc(
        (True, True, True, True), (True, True, True, True), (True, True, True, True),
        (True, True, True, True), (False, False, False),
    ),
    "sel-convex": _classify_doc(
        (True, True, False, True), (True, True, False, True), (True, False, False, False),
        (True, False, True, False), (True, True, True),
    ),
}


def embedded_labels(monotone: bool) -> dict:
    # v convex with positive curvature: superadditive, never additive; the
    # length game is identically 0 and has every property.
    v = (monotone, True, False, True)
    return _classify_doc(v, v, (True,) * 4, (True,) * 4, (monotone, True, True))


def widths_labels(monotone: bool) -> dict:
    v = (monotone, True, False, True)
    return _classify_doc(v, v, (False,) * 4, (False, False, True, False), (monotone, True, True))


# ---------------------------------------------------------------------------
# workload corpora

CLASSIFY_SIZES = (9, 10, 11)
COINCIDENCE_SIZES = (3, 4)
MEMBERSHIP_SIZES = (4, 5, 6)


class _Fresh:
    """Draws games until one that is not yet in the corpus comes up.

    A repeated game would let the package's lru_caches serve one op from an
    earlier op's work, which a CLI user running one process per game never
    sees.
    """

    def __init__(self):
        self.seen: set = set()

    def __call__(self, make) -> Game:
        for _ in range(1000):
            game = make()
            key = (game.lo, game.up)
            if key not in self.seen:
                self.seen.add(key)
                return game
        raise ValueError("could not draw a game that is not yet in the corpus")


def classify_corpus(rng: random.Random, shape: dict) -> list[Op]:
    fresh = _Fresh()
    ops = []
    for n in CLASSIFY_SIZES:
        for kind, labels in FAMILY_LABELS.items():
            game = fresh(lambda: family_game(kind, n))
            ops.append(Op(f"family-{kind}", "classify", game, labels=labels, code=0))
        counts = shape[n]
        for k in range(counts["embedded"]):
            monotone = k % 2 == 0
            game = fresh(lambda: embedded_convex(rng, n, monotone))
            ops.append(Op("embedded-convex", "classify", game, labels=embedded_labels(monotone), code=0))
        for k in range(counts["widths"]):
            monotone = k % 2 == 0
            game = fresh(lambda: convex_with_widths(rng, n, monotone))
            ops.append(Op("convex-widths", "classify", game, labels=widths_labels(monotone), code=0))
        for _ in range(counts["random"]):
            # labels come from the brute-force scan in verdicts.py
            ops.append(Op("random", "classify", fresh(lambda: random_game(rng, n)), code=0))
    return ops


def coincidence_corpus(rng: random.Random, shape: dict) -> list[Op]:
    fresh = _Fresh()
    # The criterion-10 counterexample has x(N) = up(N), so only the upper
    # half can fail; the lower half is feasible (hand-checked: l = (0,0,0,2)).
    ops = [Op("criterion-10", "coincidence", fresh(criterion10_game), code=1,
              labels={"coincident": False, "counterexample_in_selection_core": True,
                      "infeasible_subsystems/lower_feasible": True,
                      "infeasible_subsystems/upper_feasible": False})]
    for n in COINCIDENCE_SIZES:
        counts = shape[n]
        for k in range(counts["embedded"]):
            # every embedded classical game is coincident (criterion 9)
            game = fresh(lambda: embedded_convex(rng, n, k % 2 == 0))
            ops.append(Op("embedded-convex", "coincidence", game, labels={"coincident": True}, code=0))
        for _ in range(counts["additive"]):
            # counterexamples lie outside the box [b, b + d] with x(N) = up(N),
            # where only the upper half fails
            game = fresh(lambda: additive_border(rng, n))
            ops.append(Op("additive-border", "coincidence", game, code=1,
                          labels={"coincident": False, "counterexample_in_selection_core": True,
                                  "infeasible_subsystems/lower_feasible": True,
                                  "infeasible_subsystems/upper_feasible": False}))
    return ops


CLOSED_FORM_CONCEPTS = ("sel-core", "sel-imputation", "strong-core", "strong-imputation")


def _closed_form_payoff(rng: random.Random, game: Game) -> tuple[Fraction, ...]:
    """A payoff near the lower corner, so verdicts split between yes and no."""
    n = game.n
    x = [game.lo[1 << i] for i in range(n)]
    slack = game.up[(1 << n) - 1] - sum(x)
    pick = rng.randrange(3)
    if pick == 0 and slack >= 0:
        x[rng.randrange(n)] += slack * Fraction(rng.randint(0, 4), 4)
    elif pick == 1:
        x[rng.randrange(n)] -= Fraction(rng.randint(1, 4), 2)
    else:
        x = [c + rand_fraction(rng, -1, 2) for c in x]
    return tuple(x)


def degenerate_grand_convex(rng: random.Random, n: int) -> Game:
    """Upper border convex, grand coalition degenerate (as in criterion 8).

    The strong core is the core of the convex upper border, so it is
    nonempty, and the worst selection is that same convex game, so the
    game is strongly balanced.
    """
    v = convex_worths(rng, n, Fraction(1, rng.choice(DENOMINATORS)), True)
    full = (1 << n) - 1
    lo = [x - rng.randint(0, 2) if 0 < m < full else x for m, x in enumerate(v)]
    return Game(n, tuple(lo), tuple(v))


def membership_corpus(rng: random.Random, shape: dict) -> list[Op]:
    fresh = _Fresh()
    makers = (random_game, degenerate_grand_convex, additive_border)
    ops = []
    for n in MEMBERSHIP_SIZES:
        counts = shape[n]
        for k in range(counts["closed"]):
            # labels come from the plain-loop closed forms in verdicts.py
            concept = CLOSED_FORM_CONCEPTS[k % len(CLOSED_FORM_CONCEPTS)]
            game = fresh(lambda: makers[k % len(makers)](rng, n))
            x = _closed_form_payoff(rng, game)
            ops.append(Op(f"closed-{concept}", "membership", game, (concept, payoff_text(x)), payoff=x))
        for _ in range(counts["gen-corner"]):
            # the lower corner is generated with l = 0, u = d (criterion 7)
            game = fresh(lambda: additive_border(rng, n))
            x = corner(game)[0]
            ops.append(Op("gen-corner", "membership", game, ("gen", payoff_text(x)), payoff=x,
                          labels={"member": True}, code=0))
        for k in range(counts["gen-outside"]):
            game = fresh(lambda: additive_border(rng, n))
            base, widths = corner(game)
            x = list(base)
            if k % 2 == 0:
                # selection-core vertex b + d(N) e_i: outside the box, upper half fails
                x[rng.randrange(n)] += sum(widths)
                halves = {"subsystems/lower_feasible": True, "subsystems/upper_feasible": False}
            else:
                # below the corner: x - l = b needs a negative sink, lower half fails
                x[rng.randrange(n)] -= Fraction(rng.randint(1, 4), 2)
                halves = {"subsystems/lower_feasible": False, "subsystems/upper_feasible": True}
            x = tuple(x)
            ops.append(Op("gen-outside", "membership", game, ("gen", payoff_text(x)), payoff=x,
                          labels={"member": False, **halves}, code=1))
        for _ in range(counts["strong"]):
            game = fresh(lambda: degenerate_grand_convex(rng, n))
            ops.append(Op("strong", "strong", game, code=0,
                          labels={"grand_degenerate": True, "strong_core_nonempty": True,
                                  "strongly_balanced": True}))
    return ops


# Op counts per kind and size.  See perfbench/README.md for the measured
# per-op costs behind these counts and for what was left out.
CORPUS_SHAPE = {
    "classify": {
        9: {"embedded": 4, "widths": 3, "random": 9},
        10: {"embedded": 9, "widths": 0, "random": 8},
        11: {"embedded": 0, "widths": 1, "random": 0},
    },
    "coincidence": {
        3: {"embedded": 18, "additive": 18},
        4: {"embedded": 6, "additive": 8},
    },
    "membership": {
        4: {"closed": 16, "gen-corner": 3, "gen-outside": 3, "strong": 2},
        5: {"closed": 20, "gen-corner": 6, "gen-outside": 4, "strong": 4},
        6: {"closed": 44, "gen-corner": 1, "gen-outside": 1, "strong": 1},
    },
}

_BUILDERS = {
    "classify": classify_corpus,
    "coincidence": coincidence_corpus,
    "membership": membership_corpus,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, shape: dict | None = None) -> list[Op]:
    """The fixed corpus of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, (shape or CORPUS_SHAPE)[workload])


def digest(ops: list[Op]) -> str:
    """Hash of every op's command line and game text, for the run record."""
    h = hashlib.sha256()
    for op in ops:
        h.update(" ".join(op.argv("GAME")).encode())
        h.update(b"\0")
        h.update(op.game.text().encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
