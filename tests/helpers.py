"""Seeded generators shared across the test modules.

Everything takes an explicit ``random.Random`` so corpora are reproducible;
test files freeze their seeds.
"""

import random
from fractions import Fraction
from itertools import product

from intervalgames import ClassicalGame, Interval, IntervalGame, grand_coalition
from intervalgames.lpcore import LinearSystem, UnboundedRegionError, _extend_echelon, _Tableau, satisfies

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


def rand_additive_classical(rng: random.Random, n: int, lo: int = -4, hi: int = 8) -> ClassicalGame:
    a = [rand_fraction(rng, lo, hi) for _ in range(n)]

    def worth(mask: int) -> Fraction:
        return sum((a[i] for i in range(n) if mask >> i & 1), Fraction(0))

    return ClassicalGame.from_function(n, worth)


def rand_convex_classical(rng: random.Random, n: int) -> ClassicalGame:
    """Additive part plus a nonnegative mix of unanimity games (always convex)."""
    a = [rand_fraction(rng, -3, 3) for _ in range(n)]
    full = grand_coalition(n)
    bonus: dict[int, Fraction] = {}
    for _ in range(rng.randint(1, 4)):
        t = rng.randint(1, full)
        if bin(t).count("1") >= 2:
            bonus[t] = bonus.get(t, Fraction(0)) + abs(rand_fraction(rng, 0, 4))

    def worth(mask: int) -> Fraction:
        total = sum((a[i] for i in range(n) if mask >> i & 1), Fraction(0))
        for t, weight in bonus.items():
            if t & mask == t:
                total += weight
        return total

    return ClassicalGame.from_function(n, worth)


def rand_additive_border_game(rng: random.Random, n: int) -> IntervalGame:
    """Both border games additive, lower <= upper everywhere."""
    base = [rand_fraction(rng, -3, 5) for _ in range(n)]
    widths = [abs(rand_fraction(rng, 0, 3)) for _ in range(n)]

    def worth(mask: int) -> Interval:
        lo = sum((base[i] for i in range(n) if mask >> i & 1), Fraction(0))
        wd = sum((widths[i] for i in range(n) if mask >> i & 1), Fraction(0))
        return Interval(lo, lo + wd)

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


def walk_vertices(system: LinearSystem) -> tuple[tuple[Fraction, ...], ...]:
    """Oracle vertex enumeration by the basis walk.

    One simplex tableau: phase one decides feasibility, and maximizing
    +x1, -x1, +x2, ... as phase-two runs on that tableau proves the region
    bounded (Bland's rule terminates from any feasible basis, so each probe
    starts where the previous one stopped).  Then every independent subset
    of dim rows (inequalities and nonnegativity marks, on top of the
    equalities) is solved exactly, and the solutions that satisfy the whole
    system are the vertices, deduplicated and sorted.  The walk visits
    C(rows, dim) subsets, so it is kept for small systems only.
    """
    tab = _Tableau(system)
    if not tab.phase_one():
        return ()
    dim = system.dim
    for j in range(dim):
        for sign in (1, -1):
            direction = tuple(Fraction(sign) if k == j else Fraction(0) for k in range(dim))
            if not tab.phase_two(direction):
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
