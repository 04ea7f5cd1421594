"""Seeded generators shared across the test modules.

Everything takes an explicit ``random.Random`` so corpora are reproducible;
test files freeze their seeds.
"""

import random
import re
from fractions import Fraction
from itertools import product

from intervalgames import (
    MAX_PLAYERS,
    ClassicalGame,
    GameFormatError,
    Interval,
    IntervalGame,
    coalition,
    grand_coalition,
    members,
)
from intervalgames.numerics import ZERO_INTERVAL
from intervalgames.lpcore import LinearSystem, UnboundedRegionError, feasible, satisfies

DENOMINATORS = (1, 1, 2, 3, 4)


def rand_fraction(rng: random.Random, lo: int = -4, hi: int = 8) -> Fraction:
    den = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_classical(rng: random.Random, n: int, lo: int = -4, hi: int = 8) -> ClassicalGame:
    values = [Fraction(0)] + [rand_fraction(rng, lo, hi) for _ in range((1 << n) - 1)]
    return ClassicalGame(n=n, values=tuple(values))


def rand_interval_game(
    rng: random.Random,
    n: int,
    lo: int = -4,
    hi: int = 8,
    max_width: int = 3,
    degenerate_grand: bool = False,
) -> IntervalGame:
    values = [Interval(0)]
    for _ in range((1 << n) - 1):
        a = rand_fraction(rng, lo, hi)
        width = abs(rand_fraction(rng, 0, max_width))
        values.append(Interval(a, a + width))
    if degenerate_grand:
        values[-1] = Interval(values[-1].lower)
    return IntervalGame(n=n, values=tuple(values))


def additive_worths(a, n: int) -> list[Fraction]:
    """worths[m] = sum of a over the players of coalition m."""
    worths = [Fraction(0)] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        worths[m] = worths[m ^ low] + a[low.bit_length() - 1]
    return worths


def fraction_shortfalls(point, lo):
    """Yield (x(S) - lo(S), S) for every proper coalition S with x(S) < lo(S),
    lo indexed by mask: the Fraction scan that the integer border test of
    ``solutions`` replaced, kept as its oracle."""
    sums = additive_worths(point, len(point))
    return ((sums[m] - lo[m], m) for m in range(1, len(sums) - 1) if sums[m] < lo[m])


def fraction_accepts(point, lo, up, core: bool) -> bool:
    """The border test on (lo, up) in Fractions: lo(N) <= x(N) <= up(N), and
    x(S) >= lo(S) for every proper S (a core) or every singleton S (an
    imputation)."""
    full = grand_coalition(len(point))
    if not lo[full] <= sum(point) <= up[full]:
        return False
    if not core:
        return all(xi >= lo[1 << i] for i, xi in enumerate(point))
    return next(fraction_shortfalls(point, lo), None) is None


def fraction_halves(w: IntervalGame, x) -> tuple[bool, bool]:
    """The generated-core halves of x by their characterizations on convex
    borders, in Fractions: x(S) >= lo(S) for every S, and x(S) + up(N - S)
    <= up(N)."""
    full = grand_coalition(w.n)
    sums = additive_worths(x, w.n)
    top = w.worth(full).upper
    return (
        all(sums[m] >= w.worth(m).lower for m in range(1, full + 1)),
        all(sums[m] + (w.worth(full ^ m).upper if m != full else 0) <= top for m in range(1, full + 1)),
    )


def fraction_coincidence(w: IntervalGame):
    """The counterexample of a supermodular interval game and its halves,
    built in Fractions: the route that the integer point form of
    ``solutions`` replaced, kept as its oracle.  None when every proper
    worth is degenerate.  Otherwise x is the marginal vector of the lower
    border, its grand worth raised to up(N), along the players of T, the
    lowest-mask proper coalition with a real interval, then the rest."""
    full = grand_coalition(w.n)
    t = next((m for m in range(1, full) if not w.worth(m).degenerate), None)
    if t is None:
        return None
    floor = [w.worth(m).lower for m in range(full)] + [w.worth(full).upper]
    order = [i for i in range(w.n) if t >> i & 1] + [i for i in range(w.n) if not t >> i & 1]
    x, before = [Fraction(0)] * w.n, 0
    for i in order:
        x[i] = floor[before | 1 << i] - floor[before]
        before |= 1 << i
    return tuple(x), fraction_halves(w, x)


def fraction_satisfies(system: LinearSystem, point) -> bool:
    """The row check in Fractions that ``lpcore.satisfies`` replaced with its
    integer check, kept as its oracle."""
    for coeffs, rhs in system.equalities:
        if sum(c * v for c, v in zip(coeffs, point) if c) != rhs:
            return False
    for coeffs, rhs in system.inequalities:
        if sum(c * v for c, v in zip(coeffs, point) if c) < rhs:
            return False
    return all(point[j] >= 0 for j in system.nonneg)


def unit_lead(rows) -> list[tuple[list[Fraction], Fraction]]:
    """Each stored row divided by the absolute value of its leading entry:
    its first nonzero coefficient, else its right-hand side (a zero row
    stays).  A coalition row leads with a +-1 indicator, so this gives back
    the Fraction row it was written as."""
    out = []
    for coeffs, rhs in rows:
        lead = abs(next((c for c in coeffs if c), rhs) or 1)
        out.append(([Fraction(c, lead) for c in coeffs], Fraction(rhs, lead)))
    return out


class FractionTableau:
    """Dense simplex tableau in equality standard form, all variables >= 0,
    pivoting on Fractions: the phase-one simplex that ``lpcore._Tableau``
    replaced with its integer tableau.  It solves each row of the system
    divided by the absolute value of its leading entry (``unit_lead``), the
    rows whose unweighted phase-one objective the integer tableau's weights
    reproduce.

    Free variables are split into positive and negative parts; every
    inequality gets a surplus column; rows that cannot start from a surplus
    basis get an artificial column.
    """

    def __init__(self, system: LinearSystem):
        self.system = system
        dim = system.dim
        self.pos = [0] * dim
        self.neg: list[int | None] = [None] * dim
        col = 0
        for j in range(dim):
            self.pos[j] = col
            col += 1
            if j not in system.nonneg:
                self.neg[j] = col
                col += 1
        ncols = col + len(system.inequalities)  # structural plus surplus columns
        # (row, rhs, basic surplus column, or None when the row needs an artificial)
        rows: list[tuple[list[Fraction], Fraction, int | None]] = []
        for coeffs, b in unit_lead(system.equalities):
            row = self._expand(coeffs, ncols)
            if b < 0:
                row = [-v for v in row]
                b = -b
            rows.append((row, b, None))
        for k, (coeffs, b) in enumerate(unit_lead(system.inequalities)):
            row = self._expand(coeffs, ncols)
            row[col + k] = Fraction(-1)
            if b > 0:
                rows.append((row, b, None))
            else:
                # the surplus column turns +1 and can be basic
                rows.append(([-v for v in row], -b, col + k))
        self.art_start = ncols
        self.ncols = ncols + sum(basic is None for _, _, basic in rows)
        self.basis: list[int] = []
        self.T: list[list[Fraction]] = []
        art_col = ncols
        for row, b, basic in rows:
            full = row + [Fraction(0)] * (self.ncols - ncols) + [b]
            if basic is None:
                basic = art_col
                full[art_col] = Fraction(1)
                art_col += 1
            self.basis.append(basic)
            self.T.append(full)

    def _expand(self, coeffs, ncols: int) -> list[Fraction]:
        row = [Fraction(0)] * ncols
        for j, c in enumerate(coeffs):
            if c:
                row[self.pos[j]] = c
                if self.neg[j] is not None:
                    row[self.neg[j]] = -c
        return row

    def _pivot(self, r: int, c: int, obj: list[Fraction]) -> None:
        T = self.T
        piv = T[r][c]
        T[r] = [v / piv for v in T[r]]
        prow = T[r]
        for i in range(len(T)):
            if i != r:
                f = T[i][c]
                if f:
                    T[i] = [a - f * b for a, b in zip(T[i], prow)]
        if obj[c]:
            f = obj[c]
            obj[:] = [a - f * b for a, b in zip(obj, prow)]
        self.basis[r] = c

    def phase_one(self) -> bool:
        """Drive artificial variables to zero by Bland-rule pivoting; True
        when the system is feasible.

        An artificial may stay basic at zero on a redundant row; that is
        harmless, since ``solution`` reads the structural columns only.
        """
        T = self.T
        basis = self.basis
        obj = [Fraction(0)] * (self.ncols + 1)
        for i, b in enumerate(basis):
            if b >= self.art_start:
                row = T[i]
                for j in range(self.ncols + 1):
                    obj[j] += row[j]
        for j in range(self.art_start, self.ncols):
            obj[j] -= 1
        while True:
            enter = -1
            for j in range(self.art_start):  # artificials never re-enter
                if obj[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return obj[-1] == 0
            leave = -1
            best = None
            for i in range(len(T)):
                a = T[i][enter]
                if a > 0:
                    ratio = T[i][-1] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                raise AssertionError("phase one cannot be unbounded")
            self._pivot(leave, enter, obj)

    def solution(self) -> tuple[Fraction, ...]:
        """The current basic point, checked exactly against the system."""
        vals = [Fraction(0)] * self.ncols
        for i, b in enumerate(self.basis):
            vals[b] = self.T[i][-1]
        out = []
        for j in range(self.system.dim):
            v = vals[self.pos[j]]
            if self.neg[j] is not None:
                v -= vals[self.neg[j]]
            out.append(v)
        point = tuple(out)
        if not fraction_satisfies(self.system, point):
            raise AssertionError("internal error: simplex point failed verification")
        return point


def fraction_feasible(system: LinearSystem) -> tuple[bool, tuple[Fraction, ...] | None]:
    """``lpcore.feasible`` on the Fraction tableau it replaced, kept as its oracle."""
    tab = FractionTableau(system)
    if not tab.phase_one():
        return False, None
    return True, tab.solution()


def rand_additive_classical(rng: random.Random, n: int, lo: int = -4, hi: int = 8) -> ClassicalGame:
    a = [rand_fraction(rng, lo, hi) for _ in range(n)]
    return ClassicalGame(n=n, values=tuple(additive_worths(a, n)))


def rand_convex_classical(rng: random.Random, n: int) -> ClassicalGame:
    """Additive part plus a nonnegative mix of unanimity games (always convex)."""
    a = [rand_fraction(rng, -3, 3) for _ in range(n)]
    full = grand_coalition(n)
    bonus: dict[int, Fraction] = {}
    for _ in range(rng.randint(1, 4)):
        t = rng.randint(1, full)
        if bin(t).count("1") >= 2:
            bonus[t] = bonus.get(t, Fraction(0)) + abs(rand_fraction(rng, 0, 4))

    additive = additive_worths(a, n)

    def worth(mask: int) -> Fraction:
        total = additive[mask]
        for t, weight in bonus.items():
            if t & mask == t:
                total += weight
        return total

    return ClassicalGame.from_function(n, worth)


def rand_additive_border_game(rng: random.Random, n: int) -> IntervalGame:
    """Both border games additive, lower <= upper everywhere."""
    base = [rand_fraction(rng, -3, 5) for _ in range(n)]
    widths = [abs(rand_fraction(rng, 0, 3)) for _ in range(n)]

    lo, wd = additive_worths(base, n), additive_worths(widths, n)
    return IntervalGame.from_function(n, lambda mask: Interval(lo[mask], lo[mask] + wd[mask]))


def rand_degenerate_grand_convex(rng: random.Random, n: int) -> IntervalGame:
    """A strictly convex upper border (convex plus |S|^2) with widths below
    it on every proper coalition and a degenerate grand worth.  The strong
    core is the core of the convex upper border, so it is nonempty and the
    game is strongly balanced."""
    convex = rand_convex_classical(rng, n)
    full = grand_coalition(n)

    def worth(mask: int) -> Interval:
        top = convex.values[mask] + mask.bit_count() ** 2
        return Interval(top if mask == full else top - abs(rand_fraction(rng, 0, 2)), top)

    return IntervalGame.from_function(n, worth)


def rand_convex_with_widths(rng: random.Random, n: int, degenerate_grand: bool = False) -> IntervalGame:
    """A strictly convex lower border (convex plus |S|^2) with widths in
    [0, 1] on top.  The |S|^2 term leaves a surplus of 2 in every local
    convexity inequality, which absorbs any two widths, so the upper border
    is convex too and the game is in the supermodular interval class.  Player
    1 alone always gets a positive width, so for n >= 2 some proper worth is
    a real interval.  With ``degenerate_grand`` the grand worth has no width."""
    convex = rand_convex_classical(rng, n)
    full = grand_coalition(n)

    def worth(mask: int) -> Interval:
        low = convex.values[mask] + mask.bit_count() ** 2
        if degenerate_grand and mask == full:
            return Interval(low)
        return Interval(low, low + Fraction(rng.randint(1 if mask == 1 else 0, 4), 4))

    return IntervalGame.from_function(n, worth)


WIDTH_MODES = ("every", "sparse", "grand")


def rand_convex_lower_with_widths(rng: random.Random, n: int, mode: str) -> IntervalGame:
    """A convex lower border (``rand_convex_classical``) with widths in
    [0, 3] on every coalition (``"every"``), on about 15% of them
    (``"sparse"``), or on N only (``"grand"``).  Unlike
    ``rand_convex_with_widths``, no surplus absorbs the widths, so the first
    two modes often give a non-convex upper border.  A raised grand worth
    keeps a border convex, so ``"grand"`` games are coincident."""
    if mode not in WIDTH_MODES:
        raise ValueError(f"unknown width mode {mode!r}")
    lower = rand_convex_classical(rng, n)
    full = grand_coalition(n)

    def worth(mask: int) -> Interval:
        low = lower.values[mask]
        if mode == "every" or mode == "sparse" and rng.random() < 0.15 or mask == full and mode == "grand":
            return Interval(low, low + abs(rand_fraction(rng, 0, 3)))
        return Interval(low)

    return IntervalGame.from_function(n, worth)


def rand_payoff(rng: random.Random, n: int, lo: int = -6, hi: int = 10) -> tuple[Fraction, ...]:
    return tuple(rand_fraction(rng, lo, hi) for _ in range(n))


def endpoint_selections(w: IntervalGame):
    """Every classical game picking an endpoint in each coalition's interval."""
    full = grand_coalition(w.n)
    choices = []
    for m in range(1, full + 1):
        worth = w.worth(m)
        ends = [worth.lower] if worth.degenerate else [worth.lower, worth.upper]
        choices.append(ends)
    for combo in product(*choices):
        yield ClassicalGame(n=w.n, values=(Fraction(0),) + tuple(combo))


def random_selection(rng: random.Random, w: IntervalGame) -> ClassicalGame:
    """A selection hitting rational points inside each interval."""
    full = grand_coalition(w.n)
    values = [Fraction(0)]
    for m in range(1, full + 1):
        worth = w.worth(m)
        t = Fraction(rng.randint(0, 4), 4)
        values.append(worth.lower + t * (worth.upper - worth.lower))
    return ClassicalGame(n=w.n, values=tuple(values))


def majority_game(n: int = 3) -> ClassicalGame:
    quota = n // 2 + 1
    return ClassicalGame.from_function(
        n, lambda m: Fraction(1) if bin(m).count("1") >= quota else Fraction(0)
    )


def _extend_echelon(echelon, coeffs, rhs, dim):
    """Reduce a row against a Gauss-Jordan echelon; None when dependent."""
    r = [Fraction(v) for v in coeffs]
    c = Fraction(rhs)
    for pc, er, eb in echelon:
        f = r[pc]
        if f:
            r = [a - f * b for a, b in zip(r, er)]
            c -= f * eb
    pivot = -1
    for k in range(dim):
        if r[k]:
            pivot = k
            break
    if pivot < 0:
        return None  # dependent; the caller decides what a conflicting rhs means
    inv = r[pivot]
    r = [v / inv for v in r]
    c = c / inv
    out = []
    for pc, er, eb in echelon:
        f = er[pivot]
        if f:
            out.append((pc, [a - f * b for a, b in zip(er, r)], eb - f * c))
        else:
            out.append((pc, er, eb))
    out.append((pivot, r, c))
    return out


def walk_vertices(system: LinearSystem) -> tuple[tuple[Fraction, ...], ...]:
    """Oracle vertex enumeration by the basis walk.

    The phase-one simplex of ``feasible`` decides emptiness.  Boundedness
    takes one more ``feasible`` call per direction +x1, -x1, +x2, ... on the
    recession cone: the same equality and inequality coefficients with
    right-hand side 0, the same nonnegativity marks, and the row
    +-x_j >= 1.  A nonempty region is unbounded in a direction exactly when
    its recession cone holds a ray that moves that way, that is, when this
    system is feasible.  Then every independent subset of dim rows
    (inequalities and nonnegativity marks, on top of the equalities) is
    solved exactly, and the solutions that satisfy the whole system are the
    vertices, deduplicated and sorted.  The walk visits C(rows, dim)
    subsets, so it is kept for small systems only.  Its Gauss-Jordan
    elimination, ``_extend_echelon``, lives here: the oracle shares no
    elimination code with the double description it checks.
    """
    if not feasible(system)[0]:
        return ()
    dim = system.dim
    cone_equalities = [(coeffs, 0) for coeffs, _ in system.equalities]
    cone_inequalities = [(coeffs, 0) for coeffs, _ in system.inequalities]
    for j in range(dim):
        for sign in (1, -1):
            step = (tuple(sign * (k == j) for k in range(dim)), 1)
            cone = LinearSystem(
                dim=dim,
                equalities=cone_equalities,
                inequalities=cone_inequalities + [step],
                nonneg=system.nonneg,
            )
            if feasible(cone)[0]:
                name = f"{'+' if sign > 0 else '-'}x{j + 1}"
                raise UnboundedRegionError(f"region is unbounded in direction {name}")
    echelon = []
    for coeffs, rhs in system.equalities:
        step = _extend_echelon(echelon, coeffs, rhs, dim)
        if step is not None:
            echelon = step
    candidates = list(system.inequalities)
    for j in sorted(system.nonneg):
        unit = tuple(Fraction(1) if k == j else Fraction(0) for k in range(dim))
        candidates.append((unit, Fraction(0)))
    found: dict[tuple[Fraction, ...], None] = {}

    def walk(start: int, ech) -> None:
        if len(ech) == dim:
            x: list = [None] * dim
            for pc, _er, eb in ech:
                x[pc] = eb
            point = tuple(x)
            if point not in found and satisfies(system, point):
                found[point] = None
            return
        needed = dim - len(ech)
        for idx in range(start, len(candidates) - needed + 1):
            coeffs, rhs = candidates[idx]
            step = _extend_echelon(ech, coeffs, rhs, dim)
            if step is not None:
                walk(idx + 1, step)

    walk(0, echelon)
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# Oracle game-file parser: the line loop that parse_game replaced, with the
# scalar and interval readers it called then (re.sub, then Fraction(str)).
# parse_game must accept what it accepts and raise the same messages; the
# one exception is a count or label longer than int converts, which makes
# _oracle_decimal raise a bare ValueError where parse_game reports the line.

_ORACLE_SCALAR_RE = re.compile(r"[+-]?[0-9]+(?:\s*/\s*[0-9]+)?\Z")
_ORACLE_INTERVAL_RE = re.compile(r"\[([^,\[\]]+),([^,\[\]]+)\]\Z")


def _oracle_parse_scalar(text: str) -> Fraction:
    token = text.strip()
    if not _ORACLE_SCALAR_RE.match(token):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(re.sub(r"\s", "", token))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def _oracle_parse_interval(text: str) -> Interval:
    match = _ORACLE_INTERVAL_RE.match(text.strip())
    if not match:
        raise ValueError(f"not an interval literal: {text!r}")
    return Interval(_oracle_parse_scalar(match.group(1)), _oracle_parse_scalar(match.group(2)))


def _oracle_decimal(text: str) -> int | None:
    return int(text) if text.isascii() and text.isdigit() else None


def _oracle_coalition_token(token: str, n: int, lineno: int) -> int:
    labels = []
    for piece in token.split(","):
        label = _oracle_decimal(piece)
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


def parse_game_oracle(text: str) -> IntervalGame:
    n = None
    values: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "players":
                raise GameFormatError(f"line {lineno}: expected 'players <n>' header, got {line!r}")
            n = _oracle_decimal(parts[1])
            if n is None:
                raise GameFormatError(f"line {lineno}: invalid player count {parts[1]!r}")
            if not 1 <= n <= MAX_PLAYERS:
                raise GameFormatError(
                    f"line {lineno}: player count must be between 1 and {MAX_PLAYERS}, got {n}"
                )
            values = [None] * (1 << n)
            values[0] = ZERO_INTERVAL
            continue
        if line.startswith("players"):
            raise GameFormatError(f"line {lineno}: duplicate 'players' header")
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise GameFormatError(f"line {lineno}: expected '<coalition> <worth>', got {line!r}")
        mask = _oracle_coalition_token(parts[0], n, lineno)
        worth_text = parts[1].strip()
        try:
            if worth_text.startswith("["):
                iv = _oracle_parse_interval(worth_text)
            else:
                iv = Interval(_oracle_parse_scalar(worth_text))
        except ValueError as exc:
            raise GameFormatError(f"line {lineno}: {exc}") from None
        if values[mask] is not None:
            raise GameFormatError(f"line {lineno}: coalition {parts[0]} given twice")
        values[mask] = iv
    if n is None:
        raise GameFormatError("empty input: missing 'players <n>' header")
    for m in range(1, 1 << n):
        if values[m] is None:
            missing = ",".join(str(p) for p in members(m))
            raise GameFormatError(f"missing worth for coalition {missing}")
    return IntervalGame(n, tuple(values))
