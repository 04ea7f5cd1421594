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
  decided once each; a negative answer carries its failing half
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
point is one equality row.  The test reads the game's integer form
(``games.IntegerForm``) and one point form, integers X over a positive d,
not necessarily reduced, for x = X / d: ``_accepts`` compares X(S) * scale
with lo(S) * d.  A public function converts its payoff to (X, d) once and
makes Fractions once, for what it returns; in between, every witness,
slack and counterexample is built and checked as (X, d).  The simplex's
points (``lpcore._solve``) and the SC vertices (``lpcore._vertices``)
arrive in that form, in lowest terms.

Convex borders are decided in closed form, without a linear program or
vertex enumeration (polymatroid facts: Shapley 1971, Edmonds 1970).  Each
closed form runs behind one gate, ``check_classical(border, CONVEX)``,
the verdict ``classes`` caches on the border interned by its worths;
coincidence asks it of the lower border alone.  Any other input takes the
general route below, which is also the oracle the tests compare the
closed forms with.  Below, v is supermodular, and so is each border a
closed form reads; every game is worth 0 on the empty set, and y(S) is the
sum of y over S.

* Marginal vectors.  Along any order of the players, the vector paying
  each player what it adds to those before it lies in core(v).  The sum
  telescopes to v(N).  For a coalition S, take its members in that order;
  the j-th one joins a set P that contains the earlier members S_j of S,
  so by supermodularity it gets v(P + i) - v(P) >= v(S_j + i) - v(S_j),
  and these lower bounds sum to v(S).  So ``core_witness`` on a convex
  game returns its identity-order marginal vector, which also decides
  ``strong_core_witness`` (the upper border) and ``is_strongly_balanced``
  (the worst selection) whenever the game they solve is convex.
* Slack halves.  On a ``_slack_halves`` gap form g (lo - x for the sinks,
  up - x for the rises), each half asks for z >= 0 with z(S) <= cap(S) for
  every S and z(N) = cap(N).  Sinks l, with x - l in core(lo), are z = l
  under cap = -g.  Rises u, with x + u in core(up), are z = u under cap(S)
  = g(N) - g(N - S): given u(N) = g(N), u(N - S) >= g(N - S) reads u(S) <=
  cap(S).  Both caps are submodular with cap(empty) = 0, as lo and up are
  supermodular and x is additive.  A solution exists iff cap >= 0.
  Necessity: cap(S) >= z(S) >= 0.  Sufficiency is the greedy of
  ``_greedy_slack``: each player i in turn takes the least remaining cap
  cap(S) - z(S) over the S that contain it.  That keeps every remaining
  cap nonnegative (only sets holding i change, each by at most its
  remainder) and makes some S_i holding i tight, z(S_i) = cap(S_i).  Tight
  sets are closed under | and &: for tight A and B, z(A | B) + z(A & B) =
  cap(A) + cap(B) >= cap(A | B) + cap(A & B), while each term on the left
  is at most its counterpart on the right, so both are tight.  A tight
  set stays tight: a later player inside it takes 0, and one outside it
  does not touch it.  At the end every player lies in a tight set, so
  their union N is tight and z solves the half.  When some cap(S) < 0, no
  take falls below zero, and z(S) >= 0 > cap(S) remains; so the border
  scan that ends row generation, ``_accepts(sign * z, g)``, decides the
  half.  In x, the sinks exist iff x(S) >= lo(S) for every S, N included,
  and the rises iff x(S) + up(N - S) <= up(N) for every S.
* Coincidence.  Only the lower border is convex here; up is any upper
  border.  Let lo' be lo with lo'(N) raised to up(N).  lo' is still
  supermodular: N is the union of an incomparable pair only on the
  left-hand side of the inequality.  The lower half holds on all of SC,
  since SC asks x(S) >= lo(S) for proper S and x(N) >= lo(N).  The upper
  half holds on all of SC iff core(lo') is contained in core(up), for any
  up.  If: for x in SC, hand up(N) - x(N) >= 0 to one player; the result
  x' keeps x'(S) >= lo(S) and has x'(N) = up(N), so x' lies in core(lo'),
  hence in core(up), and u = x' - x >= 0 is a rise slack.  Only if: a
  point x' of core(lo') lies in SC, and a rise slack u >= 0 with x' + u in
  core(up) has u(N) = up(N) - x'(N) = 0, so u = 0: x' has a rise slack
  only if x' itself lies in core(up).  If every proper coalition's worth is degenerate, up = lo',
  which is supermodular, so the containment holds and the game is
  coincident.  Otherwise let T be the lowest-mask proper coalition with
  lo(T) < up(T).  The marginal vector x of lo' along T's players and then
  the rest, each in ascending order, lies in core(lo'), hence in SC, with
  x(N) = up(N) and x(T) = lo(T).  It is not generated: x(T) = lo(T) <
  up(T) puts x outside core(up), and by the only-if step no rise slack
  lifts it there.  On a convex up the rise test fails at S = N - T; on any
  other, row generation finds the rise half infeasible.

Every other coalition LP (core nonemptiness, the strong core, strong
balancedness and the generated-core halves of a non-convex border) is
decided by row generation (``_core_feasible``), the cutting-plane scheme
of nucleolus codes (Hallefjord, Helming and Jørnsten 1995).  The grand
rows are always present; of the 2^n - 2 proper-coalition rows only an
active set is solved, starting from the singletons.  After each solve one
scan of the coalition sums lists the proper coalitions the point leaves
short, and the up to n largest shortfalls (ties by mask) join the active
set.  It is exact and it terminates.  An infeasible subsystem has fewer
rows than the full system, so the full system is infeasible too.  Every
added row is violated by the current point, which satisfies every active
row, so no row is added twice and the active set grows strictly until the
scan finds no shortfall.  That final scan is ``_accepts`` on the point:
the simplex has checked the grand rows and nonnegativity marks, and the
scan every proper coalition, so the point satisfies every row of the full
system.

Each witness and counterexample is verified once, here, before it is
returned: the simplex checks every point it returns against its active
subsystem and row generation the rest (for the generated core, the two
halves); every marginal vector passes ``_accepts`` on its border, and every
greedy slack on its half's gap form; ``selection_core_witness`` checks its
sub-game by the test of ``verify_selection_core_witness`` (``_verified``); and
``core_coincidence`` checks its counterexample with the closed-form
selection-core test.  Callers, the command line included, use the results
without checking them again.

Off a convex lower border, the coincidence question is decided by
vertices (``_coincidence_by_vertices``).  The generated set is the
projection of a polyhedron (the joint system with x free) and hence
convex, and it is always contained in SC, so equality holds exactly when
every vertex of the SC polytope is generated.  Vertices are enumerated
exactly by double description (``lpcore``), whose work follows the
intermediate rays it meets, not the vertices it returns (a strictly
convex game has 120 vertices at n = 5 and 720 at n = 6, while a game with
one vertex can meet hundreds of rays at n = 8), and checked in
lexicographic order; the first failure is returned as the counterexample.
Its budget caps the player count of that enumeration only.
"""

from dataclasses import dataclass
from fractions import Fraction

from .classes import ORACLE_MAX_PLAYERS, ClassicalProperty, check_classical
from .errors import BudgetExceededError
from .games import (
    ClassicalGame,
    IntegerForm,
    IntervalGame,
    _as_interval,
    _checked_form,
    _within,
    border_games,
    grand_coalition,
)
from .lpcore import LinearSystem, _solve, _vertices
from .numerics import Interval, Scalar, as_fraction, integers


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
        point = _fractions(*_payoff(x, len(self.l)))
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


def _payoff(x, n: int) -> tuple[list[int], int]:
    """The payoff x as the point (X, d): x = X / d, d its least common denominator."""
    point = [as_fraction(v) for v in x]
    if len(point) != n:
        raise ValueError(f"payoff vector has {len(point)} entries, expected {n}")
    return integers(point)


def _interval_payoff(entries, n: int) -> tuple[Interval, ...]:
    payoff = tuple(_as_interval(e) for e in entries)
    if len(payoff) != n:
        raise ValueError(f"interval payoff has {len(payoff)} entries, expected {n}")
    return payoff


def _fractions(ints: list[int], d: int) -> tuple[Fraction, ...]:
    """The payoff X / d, in lowest terms."""
    return tuple(Fraction(a, d) for a in ints)


def _scaled_sums(ints: list[int], scale: int) -> list[int]:
    """sums[m] is X(S) * scale for the coalition S with bitmask m."""
    sums = [0]
    for a in ints:
        # the coalitions holding this player follow, in mask order, those
        # of the players before it
        xi = a * scale
        sums += [s + xi for s in sums]
    return sums


def _shortfalls(ints: list[int], d: int, form: IntegerForm):
    """Yield (shortfall, S) for every proper coalition S with x(S) < lo(S),
    x = X / d, the shortfall being x(S) - lo(S) times the positive scale * d."""
    sums = _scaled_sums(ints, form.scale)
    floor = [b * d for b in form.lower]
    return ((sums[m] - floor[m], m) for m in range(1, len(sums) - 1) if sums[m] < floor[m])


def _accepts(ints: list[int], d: int, form: IntegerForm, core: bool) -> bool:
    """lo(N) <= x(N) <= up(N), and x(S) >= lo(S) for every proper S (a core)
    or for every singleton S (an imputation), for x = X / d and the borders
    (lo, up) of form: X(S) * scale is compared with lo(S) * d."""
    lo, up, scale = form
    full = grand_coalition(len(ints))
    if not lo[full] * d <= sum(ints) * scale <= up[full] * d:
        return False
    if not core:
        return all(a * scale >= lo[1 << i] * d for i, a in enumerate(ints))
    return next(_shortfalls(ints, d, form), None) is None


def _rows(n: int, masks, worths, scale: int, sign: int = 1) -> tuple:
    """One row ``sign * y(S) >= worths[S] / scale`` (or ``=``) per coalition S
    in masks, given as ``sign * scale * y(S) >= worths[S]``."""
    step = sign * scale
    return tuple((tuple(step if m >> i & 1 else 0 for i in range(n)), worths[m]) for m in masks)


def _core_system(n: int, form: IntegerForm, sign: int = 1, nonneg=frozenset(), masks=None) -> LinearSystem:
    """The rows of ``_accepts(sign * y, form, core=True)`` over y.

    The grand range lo(N) <= sign * y(N) <= up(N) is one equality when it is
    a single point and two inequality rows otherwise; every proper S in
    masks (all of them by default) adds sign * y(S) >= lo(S).  The right-hand
    sides are the form's integers over its scale.
    """
    lo, up, scale = form
    full = grand_coalition(n)
    grand = _rows(n, [full], lo, scale, sign)
    proper = _rows(n, range(1, full) if masks is None else masks, lo, scale, sign)
    if lo[full] == up[full]:
        return LinearSystem(dim=n, equalities=grand, inequalities=proper, nonneg=nonneg)
    cap = _rows(n, [full], {full: -up[full]}, scale, -sign)
    return LinearSystem(dim=n, inequalities=grand + cap + proper, nonneg=nonneg)


def _core_feasible(n: int, form: IntegerForm, sign: int = 1, nonneg=frozenset()) -> tuple[list[int], int] | None:
    """A point (Y, d) of ``_core_system(n, form, sign, nonneg)``, or None
    when it has none, by row generation over the proper coalitions.

    Each round solves the grand rows plus the active coalitions (at first
    the singletons), then scans every proper coalition once and adds the up
    to n with the largest shortfall, ties broken by mask.
    """
    active = [1 << i for i in range(n)]
    while True:
        point = _solve(_core_system(n, form, sign, nonneg, masks=active))
        if point is None:
            return None
        ints, d = point
        missed = sorted(_shortfalls([sign * a for a in ints], d, form))
        if not missed:
            return ints, d
        active = sorted(active + [m for _, m in missed[:n]])


def _marginal_vector(form: IntegerForm, order) -> tuple[list[int], int]:
    """What each player adds to the players before it in order, on form's
    lower border, as the point (X, scale)."""
    lo, _, scale = form
    x = [0] * len(order)
    before = 0
    for i in order:
        x[i] = lo[before | 1 << i] - lo[before]
        before |= 1 << i
    return x, scale


# ---------------------------------------------------------------------------
# classical game solutions


def is_imputation(v: ClassicalGame, x) -> bool:
    """Efficiency plus individual rationality, checked exactly."""
    return _accepts(*_payoff(x, v.n), _checked_form(v, ClassicalGame), core=False)


def is_core_member(v: ClassicalGame, x) -> bool:
    """Efficient and no coalition can improve on its summed payoff."""
    return _accepts(*_payoff(x, v.n), _checked_form(v, ClassicalGame), core=True)


def core_system(v: ClassicalGame) -> LinearSystem:
    """Core of a classical game as an exact linear system over payoffs."""
    return _core_system(v.n, _checked_form(v, ClassicalGame))


def _core_point(v: ClassicalGame) -> tuple[list[int], int] | None:
    """A core point (X, d): the identity-order marginal vector of a convex
    game, otherwise row generation."""
    if not check_classical(v, ClassicalProperty.CONVEX):
        return _core_feasible(v.n, v.integer_form)
    x = _marginal_vector(v.integer_form, range(v.n))
    if not _accepts(*x, v.integer_form, core=True):
        raise AssertionError("internal error: marginal vector of a convex game left its core")
    return x


def core_witness(v: ClassicalGame) -> tuple[Fraction, ...] | None:
    """A core point, or None when the core is empty (``_core_point``)."""
    x = _core_point(v)
    return None if x is None else _fractions(*x)


def core_nonempty(v: ClassicalGame) -> bool:
    return _core_point(v) is not None


# ---------------------------------------------------------------------------
# selection-based point solutions


def is_selection_imputation(w: IntervalGame, x) -> bool:
    """Some selection accepts x as an imputation: the test on (lower, upper)."""
    return _accepts(*_payoff(x, w.n), _checked_form(w, IntervalGame), core=False)


def is_selection_core_member(w: IntervalGame, x) -> bool:
    """Some selection puts x in its core (x lies in the SC polytope)."""
    return _accepts(*_payoff(x, w.n), _checked_form(w, IntervalGame), core=True)


def selection_core_witness(w: IntervalGame, x) -> IntervalGame | None:
    """A sub-game of w each of whose selections has x in its core.

    Construction: pin the grand coalition at the total of x and cap every
    other coalition at what x pays it; any selection of the result is a
    selection of w that accepts x, built over w's scale times x's denominator.
    """
    lo, up, scale = form = _checked_form(w, IntervalGame)
    ints, d = _payoff(x, w.n)
    if not _accepts(ints, d, form, core=True):
        return None
    sums = _scaled_sums(ints, scale)
    lower = [b * d for b in lo[:-1]] + sums[-1:]
    upper = [min(s, b * d) for s, b in zip(sums[:-1], up)] + sums[-1:]
    witness = IntervalGame._from_form(w.n, IntegerForm(tuple(lower), tuple(upper), scale * d))
    if not _verified(w, ints, d, witness):
        raise AssertionError("internal error: witness sub-game failed verification")
    return witness


def verify_selection_core_witness(w: IntervalGame, x, s: IntervalGame) -> bool:
    """Pure re-check of a witness sub-game: s lies inside w and x is in the
    core of every selection of s, which is the strong core of s."""
    return _verified(w, *_payoff(x, w.n), s)


def _verified(w: IntervalGame, ints: list[int], d: int, s: IntervalGame) -> bool:
    """``verify_selection_core_witness`` on the point x = X / d."""
    outer = _checked_form(w, IntervalGame)
    lo, up, scale = inner = _checked_form(s, IntervalGame)
    if s.n != w.n or not _within(inner, outer):
        return False
    return _accepts(ints, d, IntegerForm(up, lo, scale), core=True)


def selection_core_system(w: IntervalGame) -> LinearSystem:
    """The SC polytope over payoff vectors: the border test on (lower, upper)."""
    return _core_system(w.n, _checked_form(w, IntervalGame))


# ---------------------------------------------------------------------------
# interval-valued payoff solutions


def _accepts_endpoints(w: IntervalGame, payoff, core: bool) -> bool:
    # interval sums and the weakly-better order both act endpoint by endpoint
    entries = _interval_payoff(payoff, w.n)
    lows, ups = tuple(p.lower for p in entries), tuple(p.upper for p in entries)
    lo, up, scale = _checked_form(w, IntervalGame)
    lower, upper = IntegerForm(lo, lo, scale), IntegerForm(up, up, scale)
    return _accepts(*integers(lows), lower, core) and _accepts(*integers(ups), upper, core)


def is_interval_imputation(w: IntervalGame, payoff) -> bool:
    """Interval payoffs summing exactly to w(N), each weakly above its singleton."""
    return _accepts_endpoints(w, payoff, core=False)


def is_interval_core_member(w: IntervalGame, payoff) -> bool:
    return _accepts_endpoints(w, payoff, core=True)


# ---------------------------------------------------------------------------
# points generated by the interval core


def _slack_halves(w: IntervalGame, ints: list[int], d: int) -> tuple[tuple, tuple]:
    """``_core_system`` arguments of the sink and the rise slack half of
    x = X / d, on one scaling of its coalition sums.  Sink slacks l >= 0 with
    x - l in the lower border core are -l on the gap lower - x; rise slacks
    u >= 0 with x + u in the upper border core are u on the gap upper - x."""
    lo, up, scale = _checked_form(w, IntervalGame)
    sums = _scaled_sums(ints, scale)
    nonneg = frozenset(range(w.n))

    def half(border, sign):
        gap = [b * d - s for b, s in zip(border, sums)]
        return w.n, IntegerForm(gap, gap, scale * d), sign, nonneg

    return half(lo, -1), half(up, 1)


def _greedy_slack(n: int, form: IntegerForm, sign: int, nonneg) -> tuple[list[int], int] | None:
    """The slack (Z, scale) of one half on a convex border, or None when it
    has none; the arguments are one of ``_slack_halves``, as for
    ``_core_feasible``, and every Z it builds is nonnegative, as nonneg asks.

    With g the gap form's worths, z(S) is capped by cap = -g for sinks and
    cap(S) = g(N) - g(N - S) for rises.  Each player in turn takes the least
    remaining cap over the coalitions that contain it, never below 0, and
    the border scan that ends row generation decides: the greedy slack is a
    slack exactly when one exists (module docstring).
    """
    g, _, scale = form
    full = grand_coalition(n)
    cap = [-v for v in g] if sign < 0 else [g[full] - g[full ^ m] for m in range(full + 1)]
    z = [0] * n
    for i in range(n):
        bit = 1 << i
        # the coalitions holding i come in blocks of 2^i, every other block:
        # sliced block by block, or offset by offset when blocks outnumber offsets
        parts = [slice(b, b + bit) for b in range(bit, full + 1, 2 * bit)]
        if len(parts) > bit:
            parts = [slice(o, None, 2 * bit) for o in range(bit, 2 * bit)]
        take = min([min(cap[part]) for part in parts])
        if take > 0:
            z[i] = take
            for part in parts:
                cap[part] = [c - take for c in cap[part]]
    return (z, scale) if _accepts(z if sign > 0 else [-v for v in z], scale, form, core=True) else None


def generated_core_system(w: IntervalGame, x) -> LinearSystem:
    """Joint system over (l, u) certifying that x is generated by the interval core.

    The lower and upper halves stacked block-diagonally: a single
    2n-variable system for verification, while the solver-facing path uses
    the two independent halves.
    """
    lower, upper = (_core_system(*half) for half in _slack_halves(w, *_payoff(x, w.n)))
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

    The lower and upper halves share no variables, so each is decided once
    on its own: by the greedy when its border is convex, by row generation
    otherwise, both on ``_slack_halves``' gap forms.  Each half's slack has
    passed the border scan, which verifies the pair against the joint system.
    """
    slacks = _generated(w, *_payoff(x, w.n))
    if isinstance(slacks, NotGenerated):
        return slacks
    return GeneratedCoreWitness(*(_fractions(*z) for z in slacks))


def _generated(w: IntervalGame, ints: list[int], d: int) -> tuple | NotGenerated:
    """The slacks (l, u) of x = X / d, each a point (Z, d'), or the failing half."""
    l, u = (
        (_greedy_slack if check_classical(border, ClassicalProperty.CONVEX) else _core_feasible)(*half)
        for border, half in zip(border_games(w), _slack_halves(w, ints, d))
    )
    if l is None or u is None:
        return NotGenerated(lower_feasible=l is not None, upper_feasible=u is not None)
    return l, u


def is_generated_core_member(w: IntervalGame, x) -> bool:
    return not isinstance(_generated(w, *_payoff(x, w.n)), NotGenerated)


def core_coincidence(w: IntervalGame, budget: int = 6) -> CoincidenceVerdict:
    """Decide whether the generated set fills the whole SC polytope.

    A game whose lower border passes the convexity gate
    ``check_classical(lower, CONVEX)`` is decided in closed form
    (``_convex_lower_coincidence``), whatever its upper border; any other
    game by its SC vertices (``_coincidence_by_vertices``).  The budget
    caps the player count of that vertex enumeration only.
    """
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise TypeError(f"budget must be an int, got {type(budget).__name__} {budget!r}")
    if check_classical(border_games(w)[0], ClassicalProperty.CONVEX):
        return _convex_lower_coincidence(w)
    if w.n > budget:
        raise BudgetExceededError(
            f"coincidence needs vertex enumeration; {w.n} players exceeds budget {budget}"
        )
    return _coincidence_by_vertices(w)


def _convex_lower_coincidence(w: IntervalGame) -> CoincidenceVerdict:
    """Coincident iff every proper coalition's worth is degenerate.

    Otherwise T is the lowest-mask proper coalition with a real interval,
    and the counterexample is the marginal vector of the lower border, its
    grand worth raised to up(N), along T's players and then the rest, each
    part in ascending order (module docstring).  w's lower border has
    passed the convexity gate; its upper border may be any.
    """
    n = w.n
    full = grand_coalition(n)
    lo, up, scale = w.integer_form
    t = next((m for m in range(1, full) if lo[m] != up[m]), None)
    if t is None:
        return CoincidenceVerdict(coincident=True)
    order = [i for i in range(n) if t >> i & 1] + [i for i in range(n) if not t >> i & 1]
    x = _marginal_vector(IntegerForm(lo[:-1] + up[-1:], up, scale), order)
    if not _accepts(*x, w.integer_form, core=True):
        raise AssertionError("internal error: counterexample lies outside the selection core")
    miss = _generated(w, *x)
    if not isinstance(miss, NotGenerated):
        raise AssertionError("internal error: counterexample is generated")
    return CoincidenceVerdict(coincident=False, counterexample=_fractions(*x), miss=miss)


def _coincidence_by_vertices(w: IntervalGame) -> CoincidenceVerdict:
    """The generated set is convex (projection of the joint slack
    polyhedron) and contained in SC, so equality holds iff every SC vertex
    is generated.  Vertices are visited in lexicographic order and the
    first failure is reported; an empty SC is vacuously coincident."""
    for x in _vertices(selection_core_system(w)):
        result = _generated(w, *x)
        if isinstance(result, NotGenerated):
            if not _accepts(*x, w.integer_form, core=True):
                raise AssertionError("internal error: counterexample lies outside the selection core")
            return CoincidenceVerdict(coincident=False, counterexample=_fractions(*x), miss=result)
    return CoincidenceVerdict(coincident=True)


# ---------------------------------------------------------------------------
# strong imputation and strong core


def is_strong_imputation(w: IntervalGame, x) -> bool:
    """x is an imputation of every selection: the test on (upper, lower).

    Efficiency under every choice of grand worth forces w(N) degenerate;
    individual rationality must survive each singleton's upper endpoint.
    """
    lo, up, scale = _checked_form(w, IntervalGame)
    return _accepts(*_payoff(x, w.n), IntegerForm(up, lo, scale), core=False)


def is_strong_core_member(w: IntervalGame, x) -> bool:
    """x is in the core of every selection (worst case: upper endpoints)."""
    lo, up, scale = _checked_form(w, IntervalGame)
    return _accepts(*_payoff(x, w.n), IntegerForm(up, lo, scale), core=True)


def strong_core_system(w: IntervalGame) -> LinearSystem:
    """The strong core: the border test on (upper, lower), whose two grand
    rows contradict each other when w(N) is non-degenerate."""
    lo, up, scale = _checked_form(w, IntervalGame)
    return _core_system(w.n, IntegerForm(up, lo, scale))


def strong_core_witness(w: IntervalGame) -> tuple[Fraction, ...] | None:
    """A strong core member when one exists: any core point of the upper border."""
    lo, up, _ = _checked_form(w, IntervalGame)
    if lo[-1] != up[-1]:
        return None
    return core_witness(border_games(w)[1])


def strong_core_nonempty(w: IntervalGame) -> bool:
    lo, up, _ = _checked_form(w, IntervalGame)
    return lo[-1] == up[-1] and core_nonempty(border_games(w)[1])


def is_strongly_balanced(w: IntervalGame) -> bool:
    """Every selection has a nonempty core.

    Decided on the single worst selection: upper endpoints everywhere
    except the grand coalition at its lower endpoint.  A core point of that
    game, with any grand surplus handed to one player, is a core point of
    every other selection, and the worst selection is itself a selection.
    With w(N) degenerate the worst selection is the upper border game, so
    the answer is strong-core nonemptiness.
    """
    lo, up, scale = _checked_form(w, IntervalGame)
    # the grand coalition has the last mask
    worst = up[:-1] + lo[-1:]
    return core_nonempty(ClassicalGame._from_form(w.n, IntegerForm(worst, worst, scale)))


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
    _checked_form(w, IntervalGame)
    if w.n > ORACLE_MAX_PLAYERS:
        raise BudgetExceededError(
            f"selection oracle enumerates endpoint games; {w.n} players exceeds {ORACLE_MAX_PLAYERS}"
        )
    point = _fractions(*_payoff(x, w.n))
    total = sum(point)
    return any(accept(v, point) for v in _candidate_selections(w, total))


def selection_imputation_oracle(w: IntervalGame, x) -> bool:
    """Exhaustive check that some candidate selection accepts x as an imputation."""
    return _selection_oracle(w, x, is_imputation)


def selection_core_oracle(w: IntervalGame, x) -> bool:
    """Exhaustive check that some candidate selection has x in its core."""
    return _selection_oracle(w, x, is_core_member)
