"""Solution concepts for classical and interval games.

Classical side: imputations, core membership, core nonemptiness (decided by
exact linear feasibility).  Interval side, three competing readings of
"solution" coexist and all are implemented:

* selection-based point solutions: a payoff vector counts when some
  selection of the interval game accepts it (selection imputations and the
  selection core SC), or when every selection does (the strong imputation
  and the strong core).
* interval-valued payoffs: vectors of intervals compared with the
  weakly-better order (interval imputations, interval core).
* points generated by the interval core: x belongs when it can be fattened
  into an interval payoff vector lying in the interval core, i.e. when
  nonnegative slack vectors l, u exist with x - l in the lower border core
  and x + u in the upper one.  The two halves share no variables and are
  solved once each; a negative answer carries its failing half
  (``NotGenerated``), so no caller re-solves to report it.
  ``generated_core_system`` stacks them block-diagonally as a reference.

Every point concept is one test on a pair of borders (lo, up):
lo(N) <= x(N) <= up(N), and x(S) >= lo(S) for every proper coalition S (a
core) or for every singleton S (an imputation).  A classical game v runs it
on (v, v).  "Some selection accepts x" runs it on (lower, upper): a
selection may set the grand worth to x(N) and every other coalition to its
minimum.  "Every selection accepts x" runs it on (upper, lower): the worst
selection puts each coalition at its maximum, and the grand range is empty
unless w(N) is degenerate.  Interval payoffs are added and compared
endpoint by endpoint, so an interval imputation or interval core member is
a pair of classical ones: the lower endpoints on (lower, lower) and the
upper endpoints on (upper, upper).  The closed forms are validated against
endpoint-enumeration oracles in the test suite.  Every coalition system is
the row form of the same test, built by ``_core_system`` (the slack halves
run it on the gaps lower - x and upper - x); a grand range that is a single
point is one equality row.

Each witness and counterexample is verified once, here, before it is
returned: the simplex checks every point it returns against its system (for
the generated core, the two halves), ``selection_core_witness`` checks its
sub-game with ``verify_selection_core_witness``, and ``core_coincidence``
checks its counterexample with the closed-form selection-core test.
Callers, the command line included, use the results without checking them
again.

The coincidence question asks whether the generated set equals SC.  The
generated set is the projection of a polyhedron (the joint system with x
free) and hence convex, and it is always contained in SC, so equality
holds exactly when every vertex of the SC polytope is generated.  Vertices
are enumerated exactly by double description (``lpcore``), whose work
follows the vertices it finds (120 at n = 5, 720 at n = 6 for a strictly
convex game), and checked in lexicographic order; the first failure is
returned as the counterexample.
"""

from dataclasses import dataclass
from fractions import Fraction

from .classes import ORACLE_MAX_PLAYERS
from .errors import BudgetExceededError
from .games import (
    ClassicalGame,
    IntervalGame,
    _as_interval,
    border_games,
    grand_coalition,
)
from .lpcore import LinearSystem, enumerate_vertices, feasible
from .numerics import Interval, Scalar, as_fraction


@dataclass(frozen=True)
class GeneratedCoreWitness:
    """Nonnegative slack pair certifying generated-core membership of a point.

    ``l`` is how far each payoff may sink and still cover the lower border
    game; ``u`` is how far it may rise to cover the upper one.  The interval
    vector ``[x_i - l_i, x_i + u_i]`` then lies in the interval core.
    """

    l: tuple[Scalar, ...]
    u: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "l", tuple(as_fraction(v) for v in self.l))
        object.__setattr__(self, "u", tuple(as_fraction(v) for v in self.u))
        if len(self.l) != len(self.u):
            raise ValueError("slack vectors must have equal length")
        if any(v < 0 for v in self.l) or any(v < 0 for v in self.u):
            raise ValueError("slack vectors must be nonnegative")

    def interval_payoff(self, x) -> tuple[Interval, ...]:
        """The interval payoff vector this witness wraps around ``x``."""
        point = _payoff(x, len(self.l))
        return tuple(
            Interval(xi - li, xi + ui) for xi, li, ui in zip(point, self.l, self.u)
        )


@dataclass(frozen=True)
class NotGenerated:
    """Which slack half (sinks l, rises u) is feasible for a point outside the generated set."""

    lower_feasible: bool
    upper_feasible: bool


@dataclass(frozen=True)
class CoincidenceVerdict:
    """Outcome of the coincidence decision between SC and the generated set.

    When not coincident, ``counterexample`` is a selection-core point that
    no interval-core element generates, and ``miss`` says which half failed.
    """

    coincident: bool
    counterexample: tuple[Scalar, ...] | None = None
    miss: NotGenerated | None = None


def _payoff(x, n: int) -> tuple[Fraction, ...]:
    point = tuple(as_fraction(v) for v in x)
    if len(point) != n:
        raise ValueError(f"payoff vector has {len(point)} entries, expected {n}")
    return point


def _interval_payoff(entries, n: int) -> tuple[Interval, ...]:
    payoff = tuple(_as_interval(e) for e in entries)
    if len(payoff) != n:
        raise ValueError(f"interval payoff has {len(payoff)} entries, expected {n}")
    return payoff


def _coalition_sums(x: tuple[Fraction, ...]) -> list[Fraction]:
    """sums[m] = total payoff of the coalition with bitmask m."""
    sums = [Fraction(0)] * (1 << len(x))
    for m in range(1, len(sums)):
        low = m & -m
        sums[m] = sums[m ^ low] + x[low.bit_length() - 1]
    return sums


def _accepts(point: tuple[Fraction, ...], lo, up, core: bool) -> bool:
    """lo(N) <= x(N) <= up(N), and x(S) >= lo(S) for every proper S (a core)
    or for every singleton S (an imputation); lo and up are indexed by mask."""
    full = grand_coalition(len(point))
    if not lo[full] <= sum(point) <= up[full]:
        return False
    if not core:
        return all(xi >= lo[1 << i] for i, xi in enumerate(point))
    sums = _coalition_sums(point)
    return all(sums[m] >= lo[m] for m in range(1, full))


def _rows(n: int, masks, rhs, sign: int = 1) -> tuple:
    """One row ``sign * y(S) >= rhs[S]`` (or ``=``) per coalition S in masks."""
    return tuple((tuple(sign if m >> i & 1 else 0 for i in range(n)), rhs[m]) for m in masks)


def _core_system(n: int, lo, up, sign: int = 1, nonneg=frozenset()) -> LinearSystem:
    """The rows of ``_accepts(sign * y, lo, up, core=True)`` over y.

    The grand range lo(N) <= sign * y(N) <= up(N) is one equality when it is
    a single point and two inequality rows otherwise; every proper S adds
    sign * y(S) >= lo(S).  lo and up are indexed by mask.
    """
    full = grand_coalition(n)
    grand = _rows(n, [full], lo, sign)
    proper = _rows(n, range(1, full), lo, sign)
    if lo[full] == up[full]:
        return LinearSystem(dim=n, equalities=grand, inequalities=proper, nonneg=nonneg)
    cap = _rows(n, [full], {full: -up[full]}, -sign)
    return LinearSystem(dim=n, inequalities=grand + cap + proper, nonneg=nonneg)


# ---------------------------------------------------------------------------
# classical game solutions


def is_imputation(v: ClassicalGame, x) -> bool:
    """Efficiency plus individual rationality, checked exactly."""
    return _accepts(_payoff(x, v.n), v.values, v.values, core=False)


def is_core_member(v: ClassicalGame, x) -> bool:
    """Efficient and no coalition can improve on its summed payoff."""
    return _accepts(_payoff(x, v.n), v.values, v.values, core=True)


def core_system(v: ClassicalGame) -> LinearSystem:
    """Core of a classical game as an exact linear system over payoffs."""
    return _core_system(v.n, v.values, v.values)


def core_witness(v: ClassicalGame) -> tuple[Fraction, ...] | None:
    ok, point = feasible(core_system(v))
    return point if ok else None


def core_nonempty(v: ClassicalGame) -> bool:
    return core_witness(v) is not None


# ---------------------------------------------------------------------------
# selection-based point solutions


def is_selection_imputation(w: IntervalGame, x) -> bool:
    """Some selection accepts x as an imputation: the test on (lower, upper)."""
    lower, upper = border_games(w)
    return _accepts(_payoff(x, w.n), lower.values, upper.values, core=False)


def is_selection_core_member(w: IntervalGame, x) -> bool:
    """Some selection puts x in its core (x lies in the SC polytope)."""
    lower, upper = border_games(w)
    return _accepts(_payoff(x, w.n), lower.values, upper.values, core=True)


def selection_core_witness(w: IntervalGame, x) -> IntervalGame | None:
    """A sub-game of w each of whose selections has x in its core.

    Construction: pin the grand coalition at the total of x and cap every
    other coalition at what x pays it; any selection of the result is a
    selection of w that accepts x.
    """
    point = _payoff(x, w.n)
    if not is_selection_core_member(w, point):
        return None
    sums = _coalition_sums(point)
    full = grand_coalition(w.n)
    total = sums[full]

    def worth(m: int) -> Interval:
        if m == full:
            return Interval(total)
        original = w.worth(m)
        return Interval(original.lower, min(sums[m], original.upper))

    witness = IntervalGame.from_function(w.n, worth)
    if not verify_selection_core_witness(w, point, witness):
        raise AssertionError("internal error: witness sub-game failed verification")
    return witness


def verify_selection_core_witness(w: IntervalGame, x, s: IntervalGame) -> bool:
    """Pure re-check of a witness sub-game: s lies inside w and x is in the
    core of every selection of s, which is the strong core of s."""
    point = _payoff(x, w.n)
    if s.n != w.n:
        return False
    if any(s.worth(m) not in w.worth(m) for m in range(1, grand_coalition(w.n) + 1)):
        return False
    return is_strong_core_member(s, point)


def selection_core_system(w: IntervalGame) -> LinearSystem:
    """The SC polytope over payoff vectors: the border test on (lower, upper)."""
    lower, upper = border_games(w)
    return _core_system(w.n, lower.values, upper.values)


# ---------------------------------------------------------------------------
# interval-valued payoff solutions


def _accepts_endpoints(w: IntervalGame, payoff, core: bool) -> bool:
    # interval sums and the weakly-better order both act endpoint by endpoint
    entries = _interval_payoff(payoff, w.n)
    lows, ups = tuple(p.lower for p in entries), tuple(p.upper for p in entries)
    lower, upper = border_games(w)
    return (
        _accepts(lows, lower.values, lower.values, core)
        and _accepts(ups, upper.values, upper.values, core)
    )


def is_interval_imputation(w: IntervalGame, payoff) -> bool:
    """Interval payoffs summing exactly to w(N), each weakly above its singleton."""
    return _accepts_endpoints(w, payoff, core=False)


def is_interval_core_member(w: IntervalGame, payoff) -> bool:
    return _accepts_endpoints(w, payoff, core=True)


# ---------------------------------------------------------------------------
# points generated by the interval core


def _lower_system(w: IntervalGame, sums: list[Fraction]) -> LinearSystem:
    """Sink slacks l >= 0 with x - l in the lower border core: -l on the gap lower - x."""
    gap = [iv.lower - s for iv, s in zip(w.values, sums)]
    return _core_system(w.n, gap, gap, sign=-1, nonneg=frozenset(range(w.n)))


def _upper_system(w: IntervalGame, sums: list[Fraction]) -> LinearSystem:
    """Rise slacks u >= 0 with x + u in the upper border core: u on the gap upper - x."""
    gap = [iv.upper - s for iv, s in zip(w.values, sums)]
    return _core_system(w.n, gap, gap, nonneg=frozenset(range(w.n)))


def generated_core_system(w: IntervalGame, x) -> LinearSystem:
    """Joint system over (l, u) certifying that x is generated by the interval core.

    The lower and upper halves stacked block-diagonally: a single
    2n-variable system for verification, while the solver-facing path uses
    the two independent halves.
    """
    sums = _coalition_sums(_payoff(x, w.n))
    lower, upper = _lower_system(w, sums), _upper_system(w, sums)
    zero = (0,) * w.n

    def stack(left, right):
        return tuple((c + zero, b) for c, b in left) + tuple((zero + c, b) for c, b in right)

    return LinearSystem(
        dim=2 * w.n,
        equalities=stack(lower.equalities, upper.equalities),
        inequalities=stack(lower.inequalities, upper.inequalities),
        nonneg=frozenset(range(2 * w.n)),
    )


def generated_core_witness(w: IntervalGame, x) -> GeneratedCoreWitness | NotGenerated:
    """Feasible slack pair for x, or which half is infeasible.

    The lower and upper halves share no variables, so each is solved once on
    its own; the simplex has checked each half's point against its system,
    which verifies the pair against the joint system.
    """
    sums = _coalition_sums(_payoff(x, w.n))
    lower_ok, l = feasible(_lower_system(w, sums))
    upper_ok, u = feasible(_upper_system(w, sums))
    if lower_ok and upper_ok:
        return GeneratedCoreWitness(l=l, u=u)
    return NotGenerated(lower_feasible=lower_ok, upper_feasible=upper_ok)


def is_generated_core_member(w: IntervalGame, x) -> bool:
    return isinstance(generated_core_witness(w, x), GeneratedCoreWitness)


def core_coincidence(w: IntervalGame, budget: int = 6) -> CoincidenceVerdict:
    """Decide whether the generated set fills the whole SC polytope.

    The generated set is convex (projection of the joint slack polyhedron)
    and contained in SC, so equality holds iff every SC vertex is
    generated.  Vertices are visited in lexicographic order and the first
    failure is reported; an empty SC is vacuously coincident.  The budget
    caps the player count because vertex enumeration is exponential.
    """
    if isinstance(budget, (bool, float)):
        raise TypeError(f"budget must be an int, got {type(budget).__name__} {budget!r}")
    if w.n > budget:
        raise BudgetExceededError(
            f"coincidence needs vertex enumeration; {w.n} players exceeds budget {budget}"
        )
    for vertex in enumerate_vertices(selection_core_system(w)):
        result = generated_core_witness(w, vertex)
        if isinstance(result, NotGenerated):
            if not is_selection_core_member(w, vertex):
                raise AssertionError("internal error: counterexample lies outside the selection core")
            return CoincidenceVerdict(coincident=False, counterexample=vertex, miss=result)
    return CoincidenceVerdict(coincident=True)


# ---------------------------------------------------------------------------
# strong imputation and strong core


def is_strong_imputation(w: IntervalGame, x) -> bool:
    """x is an imputation of every selection: the test on (upper, lower).

    Efficiency under every choice of grand worth forces w(N) degenerate;
    individual rationality must survive each singleton's upper endpoint.
    """
    lower, upper = border_games(w)
    return _accepts(_payoff(x, w.n), upper.values, lower.values, core=False)


def is_strong_core_member(w: IntervalGame, x) -> bool:
    """x is in the core of every selection (worst case: upper endpoints)."""
    lower, upper = border_games(w)
    return _accepts(_payoff(x, w.n), upper.values, lower.values, core=True)


def strong_core_system(w: IntervalGame) -> LinearSystem:
    """The strong core: the border test on (upper, lower), whose two grand
    rows contradict each other when w(N) is non-degenerate."""
    lower, upper = border_games(w)
    return _core_system(w.n, upper.values, lower.values)


def strong_core_witness(w: IntervalGame) -> tuple[Fraction, ...] | None:
    """A strong core member when one exists: any core point of the upper border."""
    if not w.worth(grand_coalition(w.n)).degenerate:
        return None
    return core_witness(border_games(w)[1])


def strong_core_nonempty(w: IntervalGame) -> bool:
    return strong_core_witness(w) is not None


def is_strongly_balanced(w: IntervalGame) -> bool:
    """Every selection has a nonempty core.

    Decided on the single worst selection: upper endpoints everywhere
    except the grand coalition at its lower endpoint.  A core point of that
    game, with any grand surplus handed to one player, is a core point of
    every other selection, and the worst selection is itself a selection.
    With w(N) degenerate the worst selection is the upper border game, so
    the answer is strong-core nonemptiness.
    """
    lower, upper = border_games(w)
    # the grand coalition has the last mask
    return core_nonempty(ClassicalGame(w.n, upper.values[:-1] + lower.values[-1:]))


# ---------------------------------------------------------------------------
# brute-force oracles (small n), used to validate the closed forms


def _candidate_selections(w: IntervalGame, total: Fraction):
    """Endpoint selections, with the grand worth also allowed at the given total."""
    n = w.n
    full = grand_coalition(n)
    proper = list(range(1, full))
    grand = w.worth(full)
    grand_choices = [grand.lower]
    if grand.upper != grand.lower:
        grand_choices.append(grand.upper)
    if grand.lower < total < grand.upper:
        grand_choices.append(total)
    for pick in range(1 << len(proper)):
        values = [Fraction(0)] * (full + 1)
        for k, m in enumerate(proper):
            worth = w.worth(m)
            values[m] = worth.upper if pick >> k & 1 else worth.lower
        for g in grand_choices:
            values[full] = g
            yield ClassicalGame(n=n, values=tuple(values))


def _selection_oracle(w: IntervalGame, x, accept) -> bool:
    if w.n > ORACLE_MAX_PLAYERS:
        raise BudgetExceededError(
            f"selection oracle enumerates endpoint games; {w.n} players exceeds {ORACLE_MAX_PLAYERS}"
        )
    point = _payoff(x, w.n)
    total = sum(point)
    return any(accept(v, point) for v in _candidate_selections(w, total))


def selection_imputation_oracle(w: IntervalGame, x) -> bool:
    """Exhaustive check that some candidate selection accepts x as an imputation."""
    return _selection_oracle(w, x, is_imputation)


def selection_core_oracle(w: IntervalGame, x) -> bool:
    """Exhaustive check that some candidate selection has x in its core."""
    return _selection_oracle(w, x, is_core_member)
