"""Game classes decided exactly.

Three layers live here: the classical properties (monotonic,
superadditive, additive, convex), the interval classes built from border
and length games under the weakly better order, and the selection classes,
which ask that every selection of the interval game has the classical
property.

The selection classes quantify over infinitely many selections, but each
defining inequality mentions any one coalition on a single side, so the
worst case over all selections is attained by pushing left-hand coalitions
to their upper endpoints and right-hand coalitions to their lower
endpoints.  That collapses each class to finitely many endpoint
inequalities between the border games; those are the checks implemented
here.  ``selection_class_oracle`` ignores the collapse and enumerates every
endpoint selection outright, which is an independent (and for the same
reason exhaustive) route to the same answer.

One kernel per property takes the two borders ``(lo, up)``.  A classical
property is the lo = up case of its selection kernel: a classical game
passes its worths as both borders.  Additivity, which no selection class
uses, is classical only, and a classical pair asks it first: an additive
game decides the other three properties.  It is modular,
v(S) + v(T) = v(S | T) + v(S & T), as both sides sum the same singletons
the same number of times, so it is convex, and, with v(empty set) = 0,
superadditive.  It is monotonic exactly when no singleton is worth less
than 0: for S inside T, v(T) - v(S) is the sum of the singletons of T - S,
and S = empty set, T = {i} asks v({i}) >= 0.  There no other kernel runs
and nothing is packed.

Additivity, v(S) the sum of its singletons for every S, is checked in two
steps.  The loop over the first ``_SCREEN_PLAYERS`` = 4 players'
coalitions compares each worth with the worth without its lowest player
plus that player's; up to 4 players it is the verdict.  Then one
comparison of all 2^n worths with the singleton sums, built by doubling
in mask order: the sums over the first i players' coalitions, then the
same sums plus v({i}).  ``_additive``, the loop over all n players, stays
as the oracle.

The kernels check local forms, which cost far less than the pair scans:

* Convexity: lo(S+i+j) + lo(S) >= up(S+i) + up(S+j) for every S and
  every i < j outside S, C(n, 2) 2^(n-2) checks instead of about 4^n / 2.
  For one game, supermodularity over all pairs is equivalent to this local
  form (Shapley 1971; Topkis 1978).  Both forms are "for every selection,
  for every inequality"; the quantifiers commute, and each local
  inequality names four distinct coalitions, each on one side only, so
  the worst selection for it is the endpoint one above.  Hence the local
  endpoint form decides selection convexity exactly, as the pair form does.
* Monotonicity: up(S) <= lo(S+i) for every S and every i outside S,
  n 2^(n-1) checks instead of 3^n.  For S strictly inside T, walk from S to
  T one player at a time; each step gives up <= lo, and lo <= up carries
  the chain on: up(S) <= lo(S+i) <= up(S+i) <= lo(S+i+j) <= ... <= lo(T).
* Superadditivity has no local form.  Convexity implies it: disjoint
  nonempty S and T are an incomparable pair, so the pair form gives
  up(S) + up(T) <= lo(S | T) + lo(empty set), and lo(empty set) = 0.  The
  verdict is True when the convexity kernel passes; otherwise
  ``_superadditive_kernel`` decides it in the steps below.

Superadditivity, up(S) + up(T) <= lo(S | T) for disjoint nonempty S and
T, is decided in three steps, stopping at the first that answers:

1. Screen.  The 3^n scan over the first ``_SCREEN_PLAYERS`` = 4 players'
   coalitions.  Up to 4 players it is the verdict; from 5 on its pairs are
   among the n-player ones, so a failure there decides the game.
2. Size certificate.  With a(k) the largest up(S) and b(k) the least lo(U)
   over coalitions of size k, if a(i) + a(j) <= b(i + j) for all i, j >= 1
   with i + j <= n, the game is superadditive: for disjoint S and T,
   up(S) + up(T) <= a(|S|) + a(|T|) <= b(|S| + |T|) <= lo(S | T).  One pass
   over the masks and n^2 comparisons.
3. The 3^n scan over all n players.

The pair and 3^n scans stay as oracles: ``check_selection_convex_variant``
runs the pair and marginal forms of convexity, and
``selection_class_oracle`` runs the pair and 3^n scans on every endpoint
selection, so neither route goes through the local kernels.

All comparisons are made on a game's integer form (``games.IntegerForm``):
its border worths times one positive scale, which preserves every
inequality exactly.  ``parse_game`` builds that form straight from the
digits of a game file, and a game built from rational worths derives it
once, on first use; the border and length games of an interval game share
its scale.

Packed lanes.  From ``_PACKED_MIN_PLAYERS`` = 7 players on, the
monotonicity and convexity kernels test every coalition at once for one
player i or one pair i < j.  A border's 2^n worths become one Python int
whose lane S, bits W S to W S + W - 1, holds coalition S.  The lane width
W is the narrowest of 16, 32 and 64 bits, or else the least multiple of
64, such that every worth lies in [-2^(W-3), 2^(W-3)): bits W - 3, W - 2
and W - 1 of v's two's complement lane agree.  Up to 64 bits the worths go
through ``array`` (codes "h", "i", "q"; native byte order, so byteswapped
when ``sys.byteorder`` is "big"), wider lanes through ``int.to_bytes``, and
``int.from_bytes`` reads them as little-endian.  XOR of every lane's top
bit turns the two's complement v into the offset binary v + 2^(W-1), and
subtracting 2^(W-1) - 2^(W-3) from every lane leaves a(S) = v(S) + 2^(W-3),
so 0 <= a < 2^(W-2).  A pair kernel packs both borders at the wider of
their two widths, where both fit.

Shifting a packed border up by W 2^i bits moves lane S to lane S + 2^i,
which is S+i when i is outside S.  With G the top bit of every lane:

* monotonicity of i: (lo | G) - (up << W 2^i) holds
  2^(W-1) + a_lo(T) - a_up(T - i) in every lane T that holds i;
* convexity of i < j: lane T holding both gets
  2^(W-1) + a_lo(T) + a_lo(T-i-j) - a_up(T-j) - a_up(T-i).

The biases cancel, so the lane is 2^(W-1) + d, d the local inequality's
slack.  No carry or borrow crosses a lane: every lane of every operand is
0 or some a in [0, 2^(W-2)) (lanes that hold no checked coalition hold
other worths or zeros shifted in), so after each step of
2^(W-1) + a1 - a3 + a2 - a4 a lane lies in [0, 2^W); lanes above the last
coalition may borrow, but a borrow only travels up.  As |d| < 2^(W-1), the
lane's top bit is set exactly when d >= 0, and one mask-compare with the
top bits of the lanes holding i (and j) decides all of them.  Below the
threshold the loop kernels run; they are also the oracles of the packed
ones.  From the threshold on, the loop first screens the coalitions of the
first ``_SCREEN_PLAYERS`` = 4 players, the first 16 lanes, whose local
inequalities are among the n-player ones, so most games that fail are
decided before anything is packed.

Selection classes imply border classes.  As lo <= up, a selection
inequality implies the border one on each side: up(S) <= lo(S+i) gives
lo(S) <= up(S) <= lo(S+i) and up(S) <= lo(S+i) <= up(S+i);
up(S+i) + up(S+j) <= lo(S+i+j) + lo(S) gives
lo(S+i) + lo(S+j) <= up(S+i) + up(S+j) <= lo(S+i+j) + lo(S) and
up(S+i) + up(S+j) <= lo(S+i+j) + lo(S) <= up(S+i+j) + up(S); and
up(S) + up(T) <= lo(S | T) gives lo(S) + lo(T) <= lo(S | T) and
up(S) + up(T) <= up(S | T).  So ``classify`` decides the selection
classes first and runs for each border only the kernels its selection pair
failed, none on an additive border.  Every verdict is cached by
``_verdict`` on borders interned by their worths, so each distinct game is
packed and decided once.
"""

import sys
from array import array
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb
from operator import itemgetter

from .errors import BudgetExceededError
from .games import ClassicalGame, IntervalGame, _checked_form, length_game

ORACLE_MAX_PLAYERS = 4

SELECTION_CONVEX_VARIANTS = ("pairs", "marginal", "marginal-single")


class ClassicalProperty(Enum):
    MONOTONIC = "monotonic"
    SUPERADDITIVE = "superadditive"
    ADDITIVE = "additive"
    CONVEX = "convex"


class IntervalClass(Enum):
    SIZE_MONOTONIC = "size-monotonic"
    SUPERADDITIVE = "superadditive-interval"
    SUPERMODULAR = "supermodular-interval"
    CONVEX = "convex-interval"


class SelectionClass(Enum):
    MONOTONIC = "selection-monotonic"
    SUPERADDITIVE = "selection-superadditive"
    CONVEX = "selection-convex"


def _additive(vals, n: int) -> bool:
    # peeling off the lowest player, every worth must be the sum of its
    # singletons, which is additivity over all disjoint coalition pairs
    for s in range(1, 1 << n):
        low = s & -s
        if vals[s] != vals[s ^ low] + vals[low]:
            return False
    return True


def _additive_kernel(worths: tuple[int, ...], n: int) -> bool:
    """Additivity: the loop over the first ``_SCREEN_PLAYERS`` players'
    coalitions, then every worth against its singleton sum, the sums built
    by doubling in mask order (module docstring)."""
    if not _additive(worths, min(n, _SCREEN_PLAYERS)):
        return False
    if n <= _SCREEN_PLAYERS:
        return True
    sums = [0]
    for i in range(n):
        share = worths[1 << i]
        sums += [s + share for s in sums]
    return tuple(sums) == worths


@lru_cache(maxsize=256)
def _verdict(lo: "_Border", up: "_Border", prop: ClassicalProperty) -> bool:
    # keyed on interned borders, hashed by identity: the cache holds its keys,
    # so no id is reused while an entry lives.  Additivity is asked of (v, v),
    # and a classical pair asks it first: an additive game is modular
    if prop is ClassicalProperty.ADDITIVE:
        return _additive_kernel(lo.worths, lo.n)
    if lo is up and prop in _MODULAR and _verdict(lo, up, ClassicalProperty.ADDITIVE):
        return prop is not ClassicalProperty.MONOTONIC or all(lo.worths[1 << i] >= 0 for i in range(lo.n))
    if prop is ClassicalProperty.SUPERADDITIVE:
        # convexity implies superadditivity; its verdict is cached, so the
        # convexity kernel runs once per pair of borders
        return _verdict(lo, up, ClassicalProperty.CONVEX) or _superadditive_kernel(lo.worths, up.worths, lo.n)
    kernel = _KERNELS.get(prop)
    if kernel is None:
        raise ValueError(f"unknown classical property: {prop!r}")
    return kernel(lo, up, lo.n)


def check_classical(v: ClassicalGame, prop: ClassicalProperty) -> bool:
    """Exact check of a classical property.

    Additivity is checked first, and where it holds it decides the other
    three (module docstring); otherwise monotonicity, superadditivity and
    convexity run the selection kernel with both borders set to v.
    """
    border = _border(_checked_form(v, ClassicalGame).lower, v.n)
    return _verdict(border, border, prop)


# the cache behind the public name reports its hits under that name too
check_classical.cache_info = _verdict.cache_info

# each interval class: one classical property asked of the named games
_INTERVAL_TERMS = {
    IntervalClass.SIZE_MONOTONIC: (ClassicalProperty.MONOTONIC, ("length",)),
    IntervalClass.SUPERADDITIVE: (ClassicalProperty.SUPERADDITIVE, ("lower", "upper", "length")),
    IntervalClass.SUPERMODULAR: (ClassicalProperty.CONVEX, ("lower", "upper")),
    IntervalClass.CONVEX: (ClassicalProperty.CONVEX, ("lower", "upper", "length")),
}


def _borders(w: IntervalGame) -> dict[str, "_Border"]:
    """The interned lower, upper and length games of w."""
    lower, upper, _ = _checked_form(w, IntervalGame)
    worths = (lower, upper, length_game(w).integer_form.lower)
    return {name: _border(v, w.n) for name, v in zip(("lower", "upper", "length"), worths)}


def check_interval_class(w: IntervalGame, cls: IntervalClass) -> bool:
    """Interval classes are conjunctions of classical properties of the
    border and length games."""
    terms = _INTERVAL_TERMS.get(cls)
    if terms is None:
        raise ValueError(f"unknown interval class: {cls!r}")
    prop, names = terms
    return all(_verdict(b, b, prop) for b in map(_borders(w).get, names))


def classify(w: IntervalGame) -> tuple[dict, dict[IntervalClass, bool], dict[SelectionClass, bool]]:
    """Every class verdict of one game, each decided once.

    Returns the classical properties of the lower, upper and length games
    (keyed by those names), the interval classes and the selection classes.
    The selection classes are decided first, and a border runs only the
    kernels its selection pair failed (module docstring).  The interval
    classes are read off the border and length verdicts.
    """
    borders = _borders(w)
    pair = borders["lower"], borders["upper"]
    selection = {prop: _verdict(*pair, prop) for prop in _SELECTION_TO_CLASSICAL.values()}
    games = {
        name: {p: (name != "length" and selection.get(p)) or _verdict(b, b, p) for p in ClassicalProperty}
        for name, b in borders.items()
    }
    interval = {
        cls: all(games[name][prop] for name in names) for cls, (prop, names) in _INTERVAL_TERMS.items()
    }
    return games, interval, {cls: selection[_SELECTION_TO_CLASSICAL[cls]] for cls in SelectionClass}


def _monotonic(lo, up, n: int) -> bool:
    # every strict subset's upper endpoint stays below the superset's lower one
    for t in range(1, 1 << n):
        floor = lo[t]
        s = (t - 1) & t
        while True:
            if up[s] > floor:
                return False
            if s == 0:
                break
            s = (s - 1) & t
    return True


def _superadditive(lo, up, n: int) -> bool:
    full = (1 << n) - 1
    for s in range(1, full + 1):
        comp = full & ~s
        us = up[s]
        t = comp
        while t:
            if t < s and us + up[t] > lo[s | t]:
                return False
            t = (t - 1) & comp
    return True


@lru_cache(maxsize=4)
def _by_size(n: int) -> tuple[itemgetter, tuple[int, ...]]:
    """A getter that lists the worths of every mask below 2^n by increasing
    coalition size, and where each size's run starts in that list."""
    starts = (0, *accumulate(comb(n, k) for k in range(n + 1)))
    return itemgetter(*sorted(range(1 << n), key=int.bit_count)), starts


def _size_certificate(lo, up, n: int) -> bool:
    # a(k), the largest upper worth of size k, and b(k), the least lower one:
    # a(|S|) + a(|T|) <= b(|S| + |T|) bounds every disjoint pair S, T
    pick, starts = _by_size(n)
    los, ups = pick(lo), pick(up)
    a = [max(ups[starts[k] : starts[k + 1]]) for k in range(n + 1)]
    b = [min(los[starts[k] : starts[k + 1]]) for k in range(n + 1)]
    return all(a[i] + a[j] <= b[i + j] for i in range(1, n // 2 + 1) for j in range(i, n - i + 1))


def _superadditive_kernel(lo, up, n: int) -> bool:
    """Superadditivity of the borders (lo, up): the 3^n scan over the first
    ``_SCREEN_PLAYERS`` players, then the size certificate, then the scan
    over all n players (module docstring)."""
    if not _superadditive(lo, up, min(n, _SCREEN_PLAYERS)):
        return False
    return n <= _SCREEN_PLAYERS or _size_certificate(lo, up, n) or _superadditive(lo, up, n)


def _convex_pairs(lo, up, n: int) -> bool:
    size = 1 << n
    for s in range(1, size):
        us = up[s]
        for t in range(s + 1, size):
            u = s | t
            if u == s or u == t:
                continue  # only incomparable pairs constrain anything
            if us + up[t] > lo[u] + lo[s & t]:
                return False
    return True


def _convex_marginal(lo, up, n: int, single_only: bool) -> bool:
    # adding a fixed nonempty coalition U to a strictly larger base coalition
    # must never pay worse than adding it to the smaller one
    full = (1 << n) - 1
    if single_only:
        units = [1 << i for i in range(n)]
    else:
        units = range(1, full + 1)
    for u_mask in units:
        rest = full & ~u_mask
        s2 = rest
        while s2:
            gain_floor = lo[s2 | u_mask] - up[s2]
            s1 = (s2 - 1) & s2
            while True:
                if up[s1 | u_mask] - lo[s1] > gain_floor:
                    return False
                if s1 == 0:
                    break
                s1 = (s1 - 1) & s2
            s2 = (s2 - 1) & rest
    return True


def _monotonic_local(lo, up, n: int) -> bool:
    # up(S) <= lo(S+i) for each S and i outside it; chained through
    # lo <= up this gives up(S) <= lo(T) for every S strictly inside T
    for t in range(1, 1 << n):
        floor = lo[t]
        rest = t
        while rest:
            low = rest & -rest
            if up[t ^ low] > floor:
                return False
            rest ^= low
    return True


def _convex_local(lo, up, n: int) -> bool:
    # lo(S+i+j) + lo(S) >= up(S+i) + up(S+j) for each S and i < j outside it
    full = (1 << n) - 1
    for i in range(n):
        bi = 1 << i
        for j in range(i + 1, n):
            bj = 1 << j
            both = bi | bj
            rest = full & ~both
            s = rest
            while True:
                if lo[s | both] + lo[s] < up[s | bi] + up[s | bj]:
                    return False
                if s == 0:
                    break
                s = (s - 1) & rest
    return True


# ---------------------------------------------------------------------------
# packed kernels: one W-bit lane per coalition (module docstring)

_ARRAY_WIDTHS = tuple((code, 8 * array(code).itemsize) for code in "hiq")
_PACKED_MIN_PLAYERS = 7
_SCREEN_PLAYERS = 4


@lru_cache(maxsize=4)
def _lane_masks(n: int, width: int) -> tuple[int, int, int, tuple[int, ...]]:
    """For 2^n lanes of width bits: the top bit of every lane, the top two
    bits of every lane, 2^(width-1) - 2^(width-3) in every lane, and for each
    player i the top bits of the lanes whose coalition holds i."""
    size = 1 << n
    zeros = bytes(width // 8 - 1)
    guard = zeros + b"\x80"  # a lane with only its top bit set
    guards = int.from_bytes(guard * size, "little")
    fit = int.from_bytes((zeros + b"\xc0") * size, "little")
    offset = ((1 << (width - 1)) - (1 << (width - 3))).to_bytes(width // 8, "little") * size
    owners = tuple(
        int.from_bytes((bytes(width // 8 << i) + guard * (1 << i)) * (size >> (i + 1)), "little")
        for i in range(n)
    )
    return guards, fit, int.from_bytes(offset, "little"), owners


def _pack(worths: tuple[int, ...], n: int, least: int = 16) -> tuple[int, int]:
    """(lanes, W): lane S of lanes holds worths[S] + 2^(W-3), W the
    narrowest of 16, 32 and 64 bits from least on, or else the least
    multiple of 64 from least on, such that every worth lies in
    [-2^(W-3), 2^(W-3))."""
    for code, width in _ARRAY_WIDTHS:
        if width < least:
            continue
        try:
            raw = array(code, worths)
        except OverflowError:
            continue
        if sys.byteorder == "big":
            raw.byteswap()
        packed = int.from_bytes(raw.tobytes(), "little")
        guards, fit, offset, _ = _lane_masks(n, width)
        # -2^(W-3) <= v < 2^(W-3) exactly when the top three bits of v's lane agree
        if not (packed ^ (packed << 1)) & fit:
            return (packed ^ guards) - offset, width
    bits = max(max(worths), ~min(worths)).bit_length() + 3
    width = max(least, -(-bits // 64) * 64)
    packed = int.from_bytes(b"".join(v.to_bytes(width // 8, "little", signed=True) for v in worths), "little")
    guards, _, offset, _ = _lane_masks(n, width)
    return (packed ^ guards) - offset, width


class _Border:
    """A border's integer worths, packed into lanes on first use at each
    width."""

    def __init__(self, worths: tuple[int, ...], n: int):
        self.worths = worths
        self.n = n
        self._lanes = {}

    @cached_property
    def width(self) -> int:
        """The narrowest lane width that fits every worth."""
        lanes, width = _pack(self.worths, self.n)
        self._lanes[width] = lanes
        return width

    def lanes(self, width: int) -> int:
        """The worths packed at a width of at least ``self.width``."""
        if width not in self._lanes:
            self._lanes[width] = _pack(self.worths, self.n, width)[0]
        return self._lanes[width]


# the one _Border of each worth tuple: equal games share their packed lanes
# and their verdicts; _Border keeps object's identity __eq__ and __hash__
_border = lru_cache(maxsize=256)(_Border)


def _monotonic_lanes(lo: int, up: int, n: int, width: int) -> bool:
    # for each player i at once over every S: lane S+i holds
    # 2^(W-1) + lo(S+i) - up(S), whose top bit is set exactly when it holds
    guards, _, _, owners = _lane_masks(n, width)
    left = lo | guards
    for i in range(n):
        own = owners[i]
        if (left - (up << (width << i))) & own != own:
            return False
    return True


def _convex_lanes(lo: int, up: int, n: int, width: int) -> bool:
    # for each pair i < j at once over every S: lane S+i+j holds
    # 2^(W-1) + lo(S+i+j) + lo(S) - up(S+i) - up(S+j); the shifted borders
    # are built only up to the first failing pair
    guards, _, _, owners = _lane_masks(n, width)
    left = lo | guards
    bases = [left - (up << width)]  # bases[i]: 2^(W-1) + lo(S+i) - up(S) in lane S+i
    for j in range(1, n):
        step = width << j
        rise, low = up << step, lo << step
        for i in range(j):
            both = owners[i] & owners[j]
            if (bases[i] + (low << (width << i)) - rise) & both != both:
                return False
        bases.append(left - rise)
    return True


def _kernel(loop, packed, lo: _Border, up: _Border, n: int) -> bool:
    """The packed kernel from ``_PACKED_MIN_PLAYERS`` players on, once the
    loop has screened the first ``_SCREEN_PLAYERS`` players' coalitions, at
    the wider of the two borders' lane widths; the loop below the
    threshold."""
    if n < _PACKED_MIN_PLAYERS:
        return loop(lo.worths, up.worths, n)
    if not loop(lo.worths, up.worths, _SCREEN_PLAYERS):
        return False
    width = max(lo.width, up.width)
    return packed(lo.lanes(width), up.lanes(width), n, width)


def _monotonic_kernel(lo: _Border, up: _Border, n: int) -> bool:
    return _kernel(_monotonic_local, _monotonic_lanes, lo, up, n)


def _convex_kernel(lo: _Border, up: _Border, n: int) -> bool:
    return _kernel(_convex_local, _convex_lanes, lo, up, n)


# the kernels every verdict runs (in _verdict: additivity first on a
# classical pair; superadditivity read off convexity, else
# _superadditive_kernel), and the pair and 3^n scans they replaced, which
# stay as the oracles the local forms are tested against
_KERNELS = {
    ClassicalProperty.MONOTONIC: _monotonic_kernel,
    ClassicalProperty.CONVEX: _convex_kernel,
}

# the properties an additive game's verdict decides (module docstring)
_MODULAR = (ClassicalProperty.MONOTONIC, ClassicalProperty.SUPERADDITIVE, ClassicalProperty.CONVEX)

_ORACLE_KERNELS = {
    ClassicalProperty.MONOTONIC: _monotonic,
    ClassicalProperty.SUPERADDITIVE: _superadditive,
    ClassicalProperty.CONVEX: _convex_pairs,
}

_SELECTION_TO_CLASSICAL = {
    SelectionClass.MONOTONIC: ClassicalProperty.MONOTONIC,
    SelectionClass.SUPERADDITIVE: ClassicalProperty.SUPERADDITIVE,
    SelectionClass.CONVEX: ClassicalProperty.CONVEX,
}


def _selection_property(cls: SelectionClass) -> ClassicalProperty:
    prop = _SELECTION_TO_CLASSICAL.get(cls)
    if prop is None:
        raise ValueError(f"unknown selection class: {cls!r}")
    return prop


def check_selection_class(w: IntervalGame, cls: SelectionClass) -> bool:
    """Endpoint characterization of a selection class."""
    borders = _borders(w)
    return _verdict(borders["lower"], borders["upper"], _selection_property(cls))


def check_selection_convex_variant(w: IntervalGame, variant: str) -> bool:
    """Three equivalent renderings of selection convexity.

    ``pairs``            endpoint inequality over incomparable coalition pairs
    ``marginal``         marginal worth of adding any nonempty coalition grows
                         with the base coalition
    ``marginal-single``  the same with single-player additions only
    """
    lo, up, _ = _checked_form(w, IntervalGame)
    if variant == "pairs":
        return _convex_pairs(lo, up, w.n)
    if variant == "marginal":
        return _convex_marginal(lo, up, w.n, single_only=False)
    if variant == "marginal-single":
        return _convex_marginal(lo, up, w.n, single_only=True)
    raise ValueError(f"unknown variant {variant!r}; expected one of {SELECTION_CONVEX_VARIANTS}")


def selection_class_oracle(w: IntervalGame, cls: SelectionClass) -> bool:
    """Decide a selection class by enumerating every endpoint selection.

    Exhaustive for the reason given in the module docstring, but exponential
    in ``2**n``, hence capped at ``ORACLE_MAX_PLAYERS`` players.  Each
    selection goes through the pair and 3^n scans, not the local kernels
    that ``check_selection_class`` runs.
    """
    lo, up, _ = _checked_form(w, IntervalGame)
    if w.n > ORACLE_MAX_PLAYERS:
        raise BudgetExceededError(
            f"endpoint selection oracle supports at most {ORACLE_MAX_PLAYERS} players, got {w.n}"
        )
    kernel = _ORACLE_KERNELS[_selection_property(cls)]
    n = w.n
    m = (1 << n) - 1
    vals = [0] * (m + 1)
    for pick in range(1 << m):
        for c in range(1, m + 1):
            vals[c] = up[c] if (pick >> (c - 1)) & 1 else lo[c]
        if not kernel(vals, vals, n):
            return False
    return True
