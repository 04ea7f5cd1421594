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
property is the lo = up case of its selection kernel: a classical game,
and each endpoint selection the oracle tries, passes its worths as both
borders.  Additivity, which no selection class uses, is the one
classical-only check.

All comparisons are made on integers after rescaling a game's worths by a
common denominator, which preserves every inequality exactly.
"""

from enum import Enum
from functools import lru_cache
from math import lcm

from .errors import BudgetExceededError
from .games import ClassicalGame, IntervalGame, border_games, length_game

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


def _scaled_values(v: ClassicalGame) -> tuple[int, ...]:
    scale = lcm(*(x.denominator for x in v.values))
    return tuple(x.numerator * (scale // x.denominator) for x in v.values)


def _scaled_borders(w: IntervalGame) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # one shared denominator, the characterizations mix both borders
    scale = 1
    for iv in w.values:
        scale = lcm(scale, iv.lower.denominator, iv.upper.denominator)
    lo = tuple(iv.lower.numerator * (scale // iv.lower.denominator) for iv in w.values)
    up = tuple(iv.upper.numerator * (scale // iv.upper.denominator) for iv in w.values)
    return lo, up


def _additive(vals, n: int) -> bool:
    # peeling off the lowest player, every worth must be the sum of its
    # singletons, which is additivity over all disjoint coalition pairs
    for s in range(1, 1 << n):
        low = s & -s
        if vals[s] != vals[s ^ low] + vals[low]:
            return False
    return True


@lru_cache(maxsize=256)
def check_classical(v: ClassicalGame, prop: ClassicalProperty) -> bool:
    """Exact check of a classical property.

    Monotonicity, superadditivity and convexity run the selection kernel
    with both borders set to v; additivity is one pass over the coalitions.
    """
    vals = _scaled_values(v)
    if prop is ClassicalProperty.ADDITIVE:
        return _additive(vals, v.n)
    kernel = _KERNELS.get(prop)
    if kernel is None:
        raise ValueError(f"unknown classical property: {prop!r}")
    return kernel(vals, vals, v.n)


def check_interval_class(w: IntervalGame, cls: IntervalClass) -> bool:
    """Interval classes are conjunctions of classical properties of the
    border and length games."""
    lower, upper = border_games(w)
    length = length_game(w)
    if cls is IntervalClass.SIZE_MONOTONIC:
        return check_classical(length, ClassicalProperty.MONOTONIC)
    if cls is IntervalClass.SUPERADDITIVE:
        return (
            check_classical(lower, ClassicalProperty.SUPERADDITIVE)
            and check_classical(upper, ClassicalProperty.SUPERADDITIVE)
            and check_classical(length, ClassicalProperty.SUPERADDITIVE)
        )
    if cls is IntervalClass.SUPERMODULAR:
        return check_classical(lower, ClassicalProperty.CONVEX) and check_classical(
            upper, ClassicalProperty.CONVEX
        )
    if cls is IntervalClass.CONVEX:
        return (
            check_classical(lower, ClassicalProperty.CONVEX)
            and check_classical(upper, ClassicalProperty.CONVEX)
            and check_classical(length, ClassicalProperty.CONVEX)
        )
    raise ValueError(f"unknown interval class: {cls!r}")


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


_KERNELS = {
    ClassicalProperty.MONOTONIC: _monotonic,
    ClassicalProperty.SUPERADDITIVE: _superadditive,
    ClassicalProperty.CONVEX: _convex_pairs,
}

_SELECTION_TO_CLASSICAL = {
    SelectionClass.MONOTONIC: ClassicalProperty.MONOTONIC,
    SelectionClass.SUPERADDITIVE: ClassicalProperty.SUPERADDITIVE,
    SelectionClass.CONVEX: ClassicalProperty.CONVEX,
}


def _selection_kernel(cls: SelectionClass):
    prop = _SELECTION_TO_CLASSICAL.get(cls)
    if prop is None:
        raise ValueError(f"unknown selection class: {cls!r}")
    return _KERNELS[prop]


def check_selection_class(w: IntervalGame, cls: SelectionClass) -> bool:
    """Endpoint characterization of a selection class."""
    lo, up = _scaled_borders(w)
    return _selection_kernel(cls)(lo, up, w.n)


def check_selection_convex_variant(w: IntervalGame, variant: str) -> bool:
    """Three equivalent renderings of selection convexity.

    ``pairs``            endpoint inequality over incomparable coalition pairs
    ``marginal``         marginal worth of adding any nonempty coalition grows
                         with the base coalition
    ``marginal-single``  the same with single-player additions only
    """
    lo, up = _scaled_borders(w)
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
    in ``2**n``, hence capped at ``ORACLE_MAX_PLAYERS`` players.
    """
    if w.n > ORACLE_MAX_PLAYERS:
        raise BudgetExceededError(
            f"endpoint selection oracle supports at most {ORACLE_MAX_PLAYERS} players, got {w.n}"
        )
    kernel = _selection_kernel(cls)
    lo, up = _scaled_borders(w)
    n = w.n
    m = (1 << n) - 1
    vals = [0] * (m + 1)
    for pick in range(1 << m):
        for c in range(1, m + 1):
            vals[c] = up[c] if (pick >> (c - 1)) & 1 else lo[c]
        if not kernel(vals, vals, n):
            return False
    return True
