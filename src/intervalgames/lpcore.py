"""Exact linear feasibility and vertex enumeration.

Systems mix equality rows, ``coeffs . x >= rhs`` inequality rows, and
nonnegativity marks on individual variables.  Feasibility uses a dense
phase-one simplex on ``fractions.Fraction`` with Bland's rule (so no
cycling, no tolerances).  Each call builds one tableau for its system and
runs phase one on it once; ``_Tableau.solution`` checks the point it
returns with ``satisfies``.  Every LP question of the solver asks for a
feasible point, not an optimum, so phase one is the whole simplex.

Vertex enumeration runs no simplex.  It uses the double-description method
(Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and Prodon 1996) on the
cone C over (lam, x) that homogenises the system: -b lam + a . x = 0 for an
equality row a . x = b, lam >= 0, -b lam + a . x >= 0 for an inequality row
a . x >= b, and x_j >= 0 for a mark.  Its points at lam = 1 are the region.
The method starts from the whole space, with the unit vectors as lineality
basis and no rays, and reads the rows in that order.  A row h that is
nonzero on some lineality vector l (the first one, turned so that
h . l > 0) moves every other generator g along l onto h . y = 0, as
(h . l) g - (h . g) l; that keeps the sign of g on each earlier row, which
l is zero on.  An equality then drops l, and an inequality keeps it as a
new ray, tight on every row inserted before it.  A row that is zero on
every lineality vector is deferred: an equality is then implied by the
earlier ones, since no ray exists while equalities are read, and an
inequality is cut once the pass is over.  The pass leaves a simplicial cone
over the remaining lineality, one ray per dimension D of its pointed part
(dim + 1 - rank(equalities) - len(lineality)).  A deferred row h keeps the
rays with h . r >= 0 and adds the ray (h . p) n - (h . n) p, which lies on
h . y = 0, for each adjacent pair p, n on opposite sides.  Adjacency is
combinatorial, on bitmasks of the rows tight on each ray: p and n are
adjacent when at least D - 2 rows are tight on both and no third ray is
tight on all of those rows.  When the rows have full rank, the rows that
use up the lineality are the first independent ones and their rays are the
columns of their inverse, up to positive scale: the textbook simplicial
start, so every deferred row meets the rays that solving the equalities
first and starting from that basis would give, in the same order.

Rows are scaled to coprime integers and every generator is divided by its
gcd, so the whole pass runs on Python ints.  It is exact, and each entry
stays within a subdeterminant of the rows: every ray lies in the span of
the unit vectors that the used-up lineality vectors started from, where
the rows it is zero on fix it up to scale.  The answer is read off lam.  No
ray with lam > 0 means an empty region.  The rays with lam = 0 and
+-lineality generate the recession cone: the region is unbounded in +x_j
or -x_j exactly when one of them moves x_j that way, and the first such
direction in the order +x1, -x1, +x2, ... is reported.  Otherwise each ray
r is the vertex X / D with X = r[1:] and D = r[0], checked before it
becomes Fractions.  Vertex output is sorted lexicographically, so identical
systems always enumerate identically.  The work follows the rays met along
the way, not the C(rows, dim) candidate bases of a basis walk.

The simplex and double description share one point check,
``_satisfies_integer``: the system's own rows, each scaled to coprime
integers (a, b), hold at the point X / D when a . X >= b D (= for an
equality row) and X_j >= 0 on a mark.  ``satisfies`` scales its point once
to X / D and runs that check; a vertex arrives as X / D already.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .numerics import as_fraction, integers

Row = tuple[tuple[Fraction, ...], Fraction]


class UnboundedRegionError(RuntimeError):
    """The feasible region is unbounded where a bounded one was required."""


def _norm_rows(rows, dim: int) -> tuple[Row, ...]:
    out = []
    for coeffs, rhs in rows:
        coeffs = tuple(as_fraction(c) for c in coeffs)
        if len(coeffs) != dim:
            raise ValueError(f"row has {len(coeffs)} coefficients, expected {dim}")
        out.append((coeffs, as_fraction(rhs)))
    return tuple(out)


@dataclass(frozen=True)
class LinearSystem:
    """Constraint system over ``dim`` real variables.

    ``equalities`` hold with equality, ``inequalities`` are of the form
    ``coeffs . x >= rhs``, and variables listed in ``nonneg`` must be >= 0.
    """

    dim: int
    equalities: tuple[Row, ...] = ()
    inequalities: tuple[Row, ...] = ()
    nonneg: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if isinstance(self.dim, bool):
            raise TypeError(f"dimension must be an int, got bool {self.dim!r}")
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "equalities", _norm_rows(self.equalities, self.dim))
        object.__setattr__(self, "inequalities", _norm_rows(self.inequalities, self.dim))
        idx = frozenset(self.nonneg)
        for j in idx:
            if isinstance(j, bool):
                raise TypeError(f"nonnegative-variable index must be an int, got bool {j!r}")
            if not isinstance(j, int) or not 0 <= j < self.dim:
                raise ValueError(f"nonnegative-variable index out of range: {j!r}")
        object.__setattr__(self, "nonneg", idx)


def satisfies(system: LinearSystem, x) -> bool:
    """Exact check of a candidate point against every row of the system: the
    point is scaled once to integers X / D and checked on the integer rows."""
    point = tuple(as_fraction(v) for v in x)
    if len(point) != system.dim:
        raise ValueError(f"point has {len(point)} coordinates, expected {system.dim}")
    X, D = integers(point)
    return _satisfies_integer(_integer_system(system), X, D)


def _integer_system(system: LinearSystem) -> tuple:
    """The system's own equality and inequality rows, each scaled by a
    positive factor to coprime integers ``(a, b)``, and its nonnegativity
    marks."""

    def scaled(rows):
        return [(r[:-1], r[-1]) for r in (_integer_row(coeffs + (rhs,)) for coeffs, rhs in rows)]

    return scaled(system.equalities), scaled(system.inequalities), sorted(system.nonneg)


def _satisfies_integer(rows: tuple, X: list[int], D: int) -> bool:
    """Whether the point X / D (D > 0) satisfies rows from ``_integer_system``:
    a . X = b D on equalities, a . X >= b D on inequalities, X_j >= 0 on marks."""
    equalities, inequalities, nonneg = rows
    for a, b in equalities:
        if sum(c * v for c, v in zip(a, X) if c) != b * D:
            return False
    for a, b in inequalities:
        if sum(c * v for c, v in zip(a, X) if c) < b * D:
            return False
    return all(X[j] >= 0 for j in nonneg)


class _Tableau:
    """Dense simplex tableau in equality standard form, all variables >= 0.

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
        for coeffs, b in system.equalities:
            row = self._expand(coeffs, ncols)
            if b < 0:
                row = [-v for v in row]
                b = -b
            rows.append((row, b, None))
        for k, (coeffs, b) in enumerate(system.inequalities):
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
        if not satisfies(self.system, point):
            raise AssertionError("internal error: simplex point failed verification")
        return point


def feasible(system: LinearSystem) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Decide feasibility; on success the witness satisfies the system exactly."""
    tab = _Tableau(system)
    if not tab.phase_one():
        return False, None
    return True, tab.solution()


def _coprime(ints: list[int]) -> list[int]:
    """Integers divided by their gcd; an all-zero list stays as it is."""
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _integer_row(values) -> list[int]:
    """Rational entries scaled by a positive factor to coprime integers."""
    return _coprime(integers(values)[0])


def _cone_generators(
    equalities: list[list[int]], inequalities: list[list[int]], width: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Extreme rays and a lineality basis, as coprime integer lists, of the
    cone {y : e . y = 0 for every equality row e, h . y >= 0 for every
    inequality row h}, by double description from the whole space."""
    rows = equalities + inequalities
    lineality = [[int(i == j) for j in range(width)] for i in range(width)]
    rays, tights, deferred = [], [], []
    inserted = 0  # bitmask of the inequality rows inserted so far
    for k, h in enumerate(rows):
        inequality = k >= len(equalities)
        values = [sum(a * b for a, b in zip(h, vec) if a) for vec in lineality]
        i = next((i for i, v in enumerate(values) if v), None)
        if i is None:
            # an inequality waits for the cut below; an equality meets no
            # ray, since rays come from inequalities, so earlier ones imply it
            if inequality:
                deferred.append(k)
            continue
        line, hl = lineality.pop(i), values.pop(i)
        if hl < 0:
            line, hl = [-v for v in line], -hl
        # every other generator moves along the line onto h . y = 0
        values += [sum(a * b for a, b in zip(h, ray) if a) for ray in rays]
        moved = [
            _coprime([hl * a - v * b for a, b in zip(vec, line)]) for vec, v in zip(lineality + rays, values)
        ]
        lineality, rays = moved[: len(lineality)], moved[len(lineality) :]
        if inequality:
            bit = 1 << k
            tights = [t | bit for t in tights] + [inserted]
            rays.append(line)
            inserted |= bit
    # the rays so far span a simplicial cone over the lineality, one per
    # dimension of its pointed part: width - rank(equalities) - len(lineality)
    pointed = len(rays)
    for k in deferred:
        h, bit = rows[k], 1 << k
        values = [sum(a * b for a, b in zip(h, ray)) for ray in rays]
        kept = [q for q, v in enumerate(values) if v >= 0]
        positive = [q for q in kept if values[q] > 0]
        negative = [q for q, v in enumerate(values) if v < 0]
        new_rays = [rays[q] for q in kept]
        new_tights = [tights[q] | bit if values[q] == 0 else tights[q] for q in kept]
        for p in positive:
            for q in negative:
                common = tights[p] & tights[q]
                # adjacent: enough common tight rows, and no third ray tight on all of them
                if common.bit_count() < pointed - 2 or sum(t & common == common for t in tights) > 2:
                    continue
                new_rays.append(_coprime([values[p] * b - values[q] * a for a, b in zip(rays[p], rays[q])]))
                new_tights.append(common | bit)
        rays, tights = new_rays, new_tights
    return rays, lineality


def enumerate_vertices(system: LinearSystem) -> tuple[tuple[Fraction, ...], ...]:
    """All vertices (basic feasible points) of a bounded feasible region.

    Returns () for an infeasible system and raises ``UnboundedRegionError``
    when some coordinate direction is unbounded, since an unbounded region
    is not described by its vertices.  The error names the first unbounded
    direction in the order +x1, -x1, +x2, ...
    """
    rows = _integer_system(system)
    equalities, inequalities, nonneg = rows
    width = system.dim + 1
    # homogenise over (lam, x): a . x >= b becomes -b lam + a . x >= 0
    rays, lineality = _cone_generators(
        [[-b] + a for a, b in equalities],
        [[1] + [0] * system.dim]
        + [[-b] + a for a, b in inequalities]
        + [[int(c == j + 1) for c in range(width)] for j in nonneg],
        width,
    )
    if all(ray[0] == 0 for ray in rays):
        return ()
    # the recession cone is generated by the rays at lam = 0 and by +-lineality
    directions = [ray for ray in rays if ray[0] == 0] + lineality
    directions += [[-v for v in vec] for vec in lineality]
    for j in range(1, width):
        steps = [vec[j] for vec in directions]
        for sign, hit in (("+", any(s > 0 for s in steps)), ("-", any(s < 0 for s in steps))):
            if hit:
                raise UnboundedRegionError(f"region is unbounded in direction {sign}x{j}")
    points = []
    for ray in rays:
        if not _satisfies_integer(rows, ray[1:], ray[0]):
            raise AssertionError("internal error: enumerated vertex failed verification")
        points.append(tuple(Fraction(v, ray[0]) for v in ray[1:]))
    return tuple(sorted(points))
