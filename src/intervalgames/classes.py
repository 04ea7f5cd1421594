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
uses, is the one classical-only check.

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
  kernel returns True when the convexity kernel passes and runs the 3^n
  scan over disjoint pairs only when it fails.

The pair and 3^n scans stay as oracles: ``check_selection_convex_variant``
runs the pair and marginal forms of convexity, and
``selection_class_oracle`` runs the pair and 3^n scans on every endpoint
selection, so neither route goes through the local kernels.

All comparisons are made on a game's integer form (``games.IntegerForm``):
its border worths times one positive scale, which preserves every
inequality exactly.  ``parse_game`` builds that form straight from the
digits of a game file, and a game built from rational worths derives it
once, on first use; the border and length games of an interval game share
its scale.  ``classify`` decides every class of one interval game in one
pass: it reads the lower, upper and length games' integers, and each
kernel runs at most once per game, superadditivity reading the cached
convexity verdict.
"""

from enum import Enum
from functools import lru_cache

from .errors import BudgetExceededError
from .games import ClassicalGame, IntervalGame, length_game

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


@lru_cache(maxsize=256)
def _verdict(lo: tuple[int, ...], up: tuple[int, ...], n: int, prop: ClassicalProperty) -> bool:
    # keyed on the integer forms: a classical game passes (v, v), and
    # additivity is asked of classical games only
    if prop is ClassicalProperty.ADDITIVE:
        return _additive(lo, n)
    if prop is ClassicalProperty.SUPERADDITIVE:
        # convexity implies superadditivity; its verdict is cached, so the
        # convexity kernel runs once per pair of borders
        return _verdict(lo, up, n, ClassicalProperty.CONVEX) or _superadditive(lo, up, n)
    kernel = _KERNELS.get(prop)
    if kernel is None:
        raise ValueError(f"unknown classical property: {prop!r}")
    return kernel(lo, up, n)


def check_classical(v: ClassicalGame, prop: ClassicalProperty) -> bool:
    """Exact check of a classical property.

    Monotonicity, superadditivity and convexity run the selection kernel
    with both borders set to v; additivity is one pass over the coalitions.
    """
    lo, up, _ = v.integer_form
    return _verdict(lo, up, v.n, prop)


# the cache behind the public name reports its hits under that name too
check_classical.cache_info = _verdict.cache_info


def _interval_verdict(lower, upper, length, n: int, cls: IntervalClass) -> bool:
    def holds(prop: ClassicalProperty, *games) -> bool:
        return all(_verdict(g, g, n, prop) for g in games)

    if cls is IntervalClass.SIZE_MONOTONIC:
        return holds(ClassicalProperty.MONOTONIC, length)
    if cls is IntervalClass.SUPERADDITIVE:
        return holds(ClassicalProperty.SUPERADDITIVE, lower, upper, length)
    if cls is IntervalClass.SUPERMODULAR:
        return holds(ClassicalProperty.CONVEX, lower, upper)
    if cls is IntervalClass.CONVEX:
        return holds(ClassicalProperty.CONVEX, lower, upper, length)
    raise ValueError(f"unknown interval class: {cls!r}")


def check_interval_class(w: IntervalGame, cls: IntervalClass) -> bool:
    """Interval classes are conjunctions of classical properties of the
    border and length games."""
    lower, upper, _ = w.integer_form
    return _interval_verdict(lower, upper, length_game(w).integer_form.lower, w.n, cls)


def classify(w: IntervalGame) -> tuple[dict, dict[IntervalClass, bool], dict[SelectionClass, bool]]:
    """Every class verdict of one game, each kernel run at most once.

    Returns the classical properties of the lower, upper and length games
    (keyed by those names), the interval classes and the selection classes.
    The three games are read from the integer form, and superadditivity
    reads the convexity verdict of the same borders.
    """
    lower, upper, _ = w.integer_form
    length = length_game(w).integer_form.lower
    n = w.n
    games = {
        name: {prop: _verdict(g, g, n, prop) for prop in ClassicalProperty}
        for name, g in (("lower", lower), ("upper", upper), ("length", length))
    }
    interval = {cls: _interval_verdict(lower, upper, length, n, cls) for cls in IntervalClass}
    selection = {cls: _verdict(lower, upper, n, _SELECTION_TO_CLASSICAL[cls]) for cls in SelectionClass}
    return games, interval, selection


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


# the kernels every verdict runs (superadditivity is read off convexity in
# _verdict), and the pair and 3^n scans they replaced, which stay as the
# oracles the local forms are tested against
_KERNELS = {
    ClassicalProperty.MONOTONIC: _monotonic_local,
    ClassicalProperty.CONVEX: _convex_local,
}

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
    lo, up, _ = w.integer_form
    return _verdict(lo, up, w.n, _selection_property(cls))


def check_selection_convex_variant(w: IntervalGame, variant: str) -> bool:
    """Three equivalent renderings of selection convexity.

    ``pairs``            endpoint inequality over incomparable coalition pairs
    ``marginal``         marginal worth of adding any nonempty coalition grows
                         with the base coalition
    ``marginal-single``  the same with single-player additions only
    """
    lo, up, _ = w.integer_form
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
    if w.n > ORACLE_MAX_PLAYERS:
        raise BudgetExceededError(
            f"endpoint selection oracle supports at most {ORACLE_MAX_PLAYERS} players, got {w.n}"
        )
    kernel = _ORACLE_KERNELS[_selection_property(cls)]
    lo, up, _ = w.integer_form
    n = w.n
    m = (1 << n) - 1
    vals = [0] * (m + 1)
    for pick in range(1 << m):
        for c in range(1, m + 1):
            vals[c] = up[c] if (pick >> (c - 1)) & 1 else lo[c]
        if not kernel(vals, vals, n):
            return False
    return True
