"""Exact linear feasibility and vertex enumeration.

Systems mix equality rows, ``coeffs . x >= rhs`` inequality rows, and
nonnegativity marks on individual variables.  ``LinearSystem`` stores each
row scaled by a positive factor to coprime integers (a, b), the only row
form: the simplex, double description and the point check all read it, and
Fractions are built only for the points returned.

Feasibility is a dense phase-one simplex with Bland's rule (so no cycling,
no tolerances), run once per call on one tableau.  Every LP question of the
solver asks for a feasible point, not an optimum, so phase one is the whole
simplex.  Its pivots are fraction-free (Edmonds 1967; Bareiss 1968): the
tableau is kept as T = D B^-1 [A | b], A the integer rows with their
surplus and artificial columns, B the basis and D = det B.  The start basis
is unit columns, so D = 1.  A pivot on (r, c) with p = T[r][c] keeps row r,
turns every other row t into (p t - t[c] T[r]) // D, and sets D = p.  By
Cramer's rule each entry of D B^-1 [A | b] is a minor of [A | b], so an
integer, and the division is exact.  p = D (B^-1 A)[r][c] is the det of
the new basis, and the ratio test pivots on positive entries only, so D
stays positive.  The Fraction tableau of the same rows is T / D, so Bland's
rule reads the same signs, and the ratio test compares the ratios
T[i][-1] / T[i][c] by cross-products with positive denominators: the same
order and the same ties (broken by lowest basic column).  The phase-one
objective is one more row of that form, in which artificial i weighs
1 / |l_i|, l_i the first nonzero entry of row i's (a, b) (1 on a zero row),
times the lcm of the |l_i|.  Dividing row i by c > 0, its artificial with
it, changes no structural or surplus entry of B^-1 [A | b] (c cancels in
B^-1), and artificials never re-enter; so the pivots and the point X / D
are those of the Fraction tableau, artificials unweighted, on the rows
divided by |l_i|.  They depend on the stored rows alone, not on how a
caller scaled them; a coalition row of ``solutions`` so divided is its
+-1-indicator row as written.  ``_Tableau.solution`` checks (X, D) with
``_satisfies_integer``.

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
``_satisfies_integer``: the stored rows (a, b) hold at the point X / D when
a . X >= b D (= for an equality row) and X_j >= 0 on a mark.
``satisfies`` scales its point once to X / D and runs that check; a
simplex point and a vertex arrive as X / D already.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .numerics import as_fraction, integers

Row = tuple[tuple[int, ...], int]


class UnboundedRegionError(RuntimeError):
    """The feasible region is unbounded where a bounded one was required."""


def _norm_rows(rows, dim: int) -> tuple[Row, ...]:
    """Each row (coeffs, rhs) scaled by a positive factor to coprime integers."""
    out = []
    for coeffs, rhs in rows:
        # ints go to integers as they are; as_fraction refuses floats and bools
        values = [v if type(v) is int else as_fraction(v) for v in (*coeffs, rhs)]
        if len(values) != dim + 1:
            raise ValueError(f"row has {len(values) - 1} coefficients, expected {dim}")
        *a, b = _coprime(integers(values)[0])
        out.append((tuple(a), b))
    return tuple(out)


@dataclass(frozen=True)
class LinearSystem:
    """Constraint system over ``dim`` real variables.

    ``equalities`` hold with equality, ``inequalities`` are of the form
    ``coeffs . x >= rhs``, and variables listed in ``nonneg`` must be >= 0.
    Each row is stored scaled by a positive factor to coprime integers
    ``(a, b)``, so scaling a row changes neither the system nor any answer.
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
    return _satisfies_integer(system, X, D)


def _satisfies_integer(system: LinearSystem, X: list[int], D: int) -> bool:
    """Whether the point X / D (D > 0) satisfies the system's rows (a, b):
    a . X = b D on equalities, a . X >= b D on inequalities, X_j >= 0 on marks."""
    for a, b in system.equalities:
        if sum(c * v for c, v in zip(a, X) if c) != b * D:
            return False
    for a, b in system.inequalities:
        if sum(c * v for c, v in zip(a, X) if c) < b * D:
            return False
    return all(X[j] >= 0 for j in system.nonneg)


class _Tableau:
    """Dense simplex tableau in equality standard form, all variables >= 0,
    on the system's integer rows, kept as T = D B^-1 [A | b].

    Free variables are split into positive and negative parts; every
    inequality gets a surplus column; rows that cannot start from a surplus
    basis get an artificial column.
    """

    def __init__(self, system: LinearSystem):
        self.system = system
        equalities, inequalities = system.equalities, system.inequalities
        # structural columns: (j, 1) for x_j, then (j, -1) for the negative part of a free x_j
        self.cols = [(j, s) for j in range(system.dim) for s in ((1,) if j in system.nonneg else (1, -1))]
        self.art_start = len(self.cols) + len(inequalities)  # structural plus surplus columns
        self.ncols = self.art_start + len(equalities) + sum(b > 0 for _, b in inequalities)
        self.basis: list[int] = []
        self.T: list[list[int]] = []
        self.D = 1  # the last pivot; the starting basis is unit columns
        art_col = self.art_start
        for i, (a, b) in enumerate(equalities + inequalities):
            row = [s * a[j] for j, s in self.cols] + [0] * (self.ncols - len(self.cols)) + [b]
            surplus = len(self.cols) + i - len(equalities)
            if i >= len(equalities):
                row[surplus] = -1
            if i >= len(equalities) and b <= 0:
                # negated, the surplus column turns +1 and can be basic
                row, basic = [-v for v in row], surplus
            else:
                if b < 0:
                    row = [-v for v in row]
                row[art_col], basic = 1, art_col
                art_col += 1
            self.basis.append(basic)
            self.T.append(row)

    def _pivot(self, r: int, c: int, obj: list[int]) -> None:
        """Pivot on (r, c): row r stays, every other row and obj become
        (p row - row[c] row_r) // D with p = T[r][c], and D becomes p."""
        T, D = self.T, self.D
        prow = T[r]
        p = prow[c]
        for i, row in enumerate(T):
            if i != r:
                f = row[c]
                T[i] = [(p * a - f * b) // D for a, b in zip(row, prow)]
        f = obj[c]
        obj[:] = [(p * a - f * b) // D for a, b in zip(obj, prow)]
        self.D = p
        self.basis[r] = c

    def phase_one(self) -> bool:
        """Drive artificial variables to zero by Bland-rule pivoting; True
        when the system is feasible.

        An artificial may stay basic at zero on a redundant row; that is
        harmless, since ``solution`` reads the structural columns only.
        """
        T = self.T
        basis = self.basis
        # artificial i weighs 1 / |l_i|, l_i the leading nonzero entry of row
        # i, times the lcm of the |l_i| (module docstring)
        rows = self.system.equalities + self.system.inequalities
        art = [i for i, b in enumerate(basis) if b >= self.art_start]
        lead = {i: abs(next((c for c in rows[i][0] if c), rows[i][1]) or 1) for i in art}
        scale = lcm(*lead.values())
        obj = [0] * (self.ncols + 1)
        for i, l in lead.items():
            obj = [o + scale // l * t for o, t in zip(obj, T[i])]
            obj[basis[i]] = 0
        while True:
            enter = -1
            for j in range(self.art_start):  # artificials never re-enter
                if obj[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return obj[-1] == 0
            leave = -1
            for i, row in enumerate(T):
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave = i
                        continue
                    # ratio row[-1] / a against the best's, by cross-products
                    lhs, rhs = row[-1] * T[leave][enter], T[leave][-1] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                raise AssertionError("phase one cannot be unbounded")
            self._pivot(leave, enter, obj)

    def solution(self) -> tuple[list[int], int]:
        """The current basic point as (X, D), checked exactly against the
        rows the tableau was built from."""
        X = [0] * self.system.dim
        for row, b in zip(self.T, self.basis):
            if b < len(self.cols):
                j, s = self.cols[b]
                X[j] += s * row[-1]
        if not _satisfies_integer(self.system, X, self.D):
            raise AssertionError("internal error: simplex point failed verification")
        return X, self.D


def feasible(system: LinearSystem) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Decide feasibility; on success the witness satisfies the system exactly."""
    tab = _Tableau(system)
    if not tab.phase_one():
        return False, None
    X, D = tab.solution()
    return True, tuple(Fraction(v, D) for v in X)


def _coprime(ints: list[int]) -> list[int]:
    """Integers divided by their gcd; an all-zero list stays as it is."""
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


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
    width = system.dim + 1
    # homogenise over (lam, x): a . x >= b becomes -b lam + a . x >= 0
    rays, lineality = _cone_generators(
        [[-b, *a] for a, b in system.equalities],
        [[1] + [0] * system.dim]
        + [[-b, *a] for a, b in system.inequalities]
        + [[int(c == j + 1) for c in range(width)] for j in sorted(system.nonneg)],
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
        if not _satisfies_integer(system, ray[1:], ray[0]):
            raise AssertionError("internal error: enumerated vertex failed verification")
        points.append(tuple(Fraction(v, ray[0]) for v in ray[1:]))
    return tuple(sorted(points))
