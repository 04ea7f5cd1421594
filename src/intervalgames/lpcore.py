"""Exact linear feasibility, optimization, and vertex enumeration.

Systems mix equality rows, ``coeffs . x >= rhs`` inequality rows, and
nonnegativity marks on individual variables.  Feasibility and optimization
use a dense two-phase simplex on ``fractions.Fraction`` with Bland's rule
(so no cycling, no tolerances).  Each call builds one tableau for its
system and runs phase one on it once; every point the simplex returns is
checked against the system in ``_Tableau.solution``.

Vertex enumeration runs no simplex.  It uses the double-description method
(Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and Prodon 1996).
Gauss-Jordan elimination solves the equalities as x = x0 + Z t, and each
inequality and nonnegativity mark becomes a row h of the homogenised cone
C = {(lam, t) : lam >= 0, h . (lam, t) >= 0}, whose points at lam = 1 are
the region.  A pointed cone is generated by its extreme rays.  The method
starts from d + 1 independent rows, whose cone is simplicial with the
columns of their inverse as rays, and adds the other rows one at a time:
a row h keeps the rays with h . r >= 0 and adds the ray (h . p) n - (h . n) p,
which lies on h . y = 0, for each adjacent pair p, n on opposite sides.
Adjacency is combinatorial, on bitmasks of the rows tight on each ray: p
and n are adjacent when at least d - 1 rows are tight on both and no third
ray is tight on all of those rows.

Rows are scaled to coprime integers and rays are divided by their gcd, so
the whole pass runs on Python ints: exact, and each ray entry stays within
a subdeterminant of the rows, since the rows tight on an extreme ray fix it
up to scale.  The answer is read off lam.  No ray with lam > 0 means an
empty region.  Rays with lam = 0 generate the recession cone: the region is
unbounded in +x_j or -x_j exactly when one of them moves x_j that way, and
the first such direction in the order +x1, -x1, +x2, ... is reported.
Otherwise each ray is a vertex x0 + Z t / lam, checked with ``satisfies``.
Rows of rank below d + 1 leave a cone with a lineality space, which joins
the recession generators; y_f = 0 on the columns f outside a full-rank set
leaves the pointed part.  Vertex output is sorted lexicographically, so
identical systems always enumerate identically.  The work follows the rays
met along the way, not the C(rows, dim) candidate bases of a basis walk.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .numerics import as_fraction

Row = tuple[tuple[Fraction, ...], Fraction]


class UnboundedRegionError(RuntimeError):
    """The feasible region is unbounded where a bounded one was required."""


class InfeasibleSystemError(RuntimeError):
    """No point satisfies the system."""


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
    """Exact check of a candidate point against every row of the system."""
    point = tuple(as_fraction(v) for v in x)
    if len(point) != system.dim:
        raise ValueError(f"point has {len(point)} coordinates, expected {system.dim}")
    for coeffs, rhs in system.equalities:
        if sum(c * v for c, v in zip(coeffs, point) if c) != rhs:
            return False
    for coeffs, rhs in system.inequalities:
        if sum(c * v for c, v in zip(coeffs, point) if c) < rhs:
            return False
    return all(point[j] >= 0 for j in system.nonneg)


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

    def _pivot(self, r: int, c: int, obj: list[Fraction] | None = None) -> None:
        T = self.T
        piv = T[r][c]
        T[r] = [v / piv for v in T[r]]
        prow = T[r]
        for i in range(len(T)):
            if i != r:
                f = T[i][c]
                if f:
                    T[i] = [a - f * b for a, b in zip(T[i], prow)]
        if obj is not None and obj[c]:
            f = obj[c]
            obj[:] = [a - f * b for a, b in zip(obj, prow)]
        self.basis[r] = c

    def _run(self, obj: list[Fraction], cols: int) -> bool:
        """Bland-rule pivoting until optimal; False when unbounded."""
        T = self.T
        basis = self.basis
        while True:
            enter = -1
            for j in range(cols):
                if obj[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return True
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
                return False
            self._pivot(leave, enter, obj)

    def phase_one(self) -> bool:
        """Drive artificial variables to zero; True when the system is feasible."""
        obj = [Fraction(0)] * (self.ncols + 1)
        for i, b in enumerate(self.basis):
            if b >= self.art_start:
                row = self.T[i]
                for j in range(self.ncols + 1):
                    obj[j] += row[j]
        for j in range(self.art_start, self.ncols):
            obj[j] -= 1
        bounded = self._run(obj, self.art_start)  # artificials never re-enter
        if not bounded:
            raise AssertionError("phase one cannot be unbounded")
        if obj[-1] != 0:
            return False
        self._drop_artificials()
        return True

    def _drop_artificials(self) -> None:
        keep: list[int] = []
        for i in range(len(self.T)):
            if self.basis[i] < self.art_start:
                keep.append(i)
                continue
            pivot_col = -1
            for j in range(self.art_start):
                if self.T[i][j]:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                self._pivot(i, pivot_col)
                keep.append(i)
            # otherwise the row is redundant (all zeros, rhs zero) and is dropped
        self.T = [self.T[i][: self.art_start] + [self.T[i][-1]] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        self.ncols = self.art_start

    def phase_two(self, objective) -> bool:
        """Maximize ``objective . x`` (Fraction coefficients) from the current
        feasible basis; False when unbounded."""
        cost = [Fraction(0)] * self.ncols
        for j, c in enumerate(objective):
            if c:
                cost[self.pos[j]] = c
                if self.neg[j] is not None:
                    cost[self.neg[j]] = -c
        obj = list(cost) + [Fraction(0)]
        for i, b in enumerate(self.basis):
            cb = cost[b]
            if cb:
                row = self.T[i]
                for j in range(self.ncols + 1):
                    obj[j] -= cb * row[j]
        return self._run(obj, self.ncols)

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


def maximize(system: LinearSystem, objective) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact maximum of ``objective . x`` over the system, with an argmax."""
    objective = tuple(as_fraction(c) for c in objective)
    if len(objective) != system.dim:
        raise ValueError("objective length must match the system dimension")
    tab = _Tableau(system)
    if not tab.phase_one():
        raise InfeasibleSystemError("system has no feasible point")
    if not tab.phase_two(objective):
        raise UnboundedRegionError("objective is unbounded over the system")
    x = tab.solution()
    return sum(c * v for c, v in zip(objective, x)), x


def _extend_echelon(echelon, coeffs, rhs, dim):
    """Reduce a row against a Gauss-Jordan echelon; None when dependent."""
    r = list(coeffs)
    c = rhs
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


def _integer_row(values) -> list[int]:
    """Rational entries scaled by a positive factor to coprime integers."""
    scale = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _parametrize(system: LinearSystem) -> list[list[Fraction]] | None:
    """Solve the equalities by Gauss-Jordan elimination: x = x0 + Z t.

    One affine form ``[constant, coefficient of t_1, ..., t_d]`` per
    coordinate, where t runs over the coordinates that are not pivots of the
    echelon form; None when the equalities are inconsistent.
    """
    dim = system.dim
    echelon = []
    for coeffs, rhs in system.equalities:
        step = _extend_echelon(echelon, coeffs, rhs, dim)
        if step is not None:
            echelon = step
    pivots = {pc: (er, eb) for pc, er, eb in echelon}
    free = [j for j in range(dim) if j not in pivots]
    forms = []
    for j in range(dim):
        if j in pivots:
            er, eb = pivots[j]
            forms.append([eb] + [-er[f] for f in free])
        else:
            forms.append([Fraction(0)] + [Fraction(f == j) for f in free])
    x0 = [form[0] for form in forms]
    for coeffs, rhs in system.equalities:
        # x0 meets every echelon row, so it misses a row only if they conflict
        if sum(c * v for c, v in zip(coeffs, x0)) != rhs:
            return None
    return forms


def _cone_generators(rows: list[list[int]], width: int) -> tuple[list[list[int]], list[list[Fraction]]]:
    """Extreme rays (coprime integer lists) and a lineality basis of the
    cone {y : h . y >= 0 for every row h}, by double description."""
    rows = list(rows)
    echelon, basis = [], []
    for k, h in enumerate(rows):
        step = _extend_echelon(echelon, [Fraction(v) for v in h], 0, width)
        if step is not None:
            echelon, basis = step, basis + [k]
    pivots = {pc for pc, _, _ in echelon}
    lineality = []
    for f in range(width):
        if f not in pivots:
            vec = [Fraction(c == f) for c in range(width)]
            for pc, er, _ in echelon:
                vec[pc] = -er[f]
            lineality.append(vec)
            # the rows y_f >= 0 and -y_f >= 0 leave a pointed cone
            unit = [int(c == f) for c in range(width)]
            basis.append(len(rows))
            rows += [unit, [-v for v in unit]]
    # Gauss-Jordan on [B | I], B the basis rows, leaves [I | B^-1]; column i
    # of B^-1 is tight on every basis row but the i-th
    inverse = []
    for i, k in enumerate(basis):
        unit = [Fraction(i == q) for q in range(width)]
        inverse = _extend_echelon(inverse, [Fraction(v) for v in rows[k]] + unit, 0, width)
    inverse_rows = {pc: er[width:] for pc, er, _ in inverse}
    rays = [_integer_row([inverse_rows[p][i] for p in range(width)]) for i in range(width)]
    basis_bits = sum(1 << k for k in basis)
    tights = [basis_bits ^ (1 << k) for k in basis]
    for k, h in enumerate(rows):
        if basis_bits >> k & 1:
            continue
        bit = 1 << k
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
                if common.bit_count() < width - 2 or sum(t & common == common for t in tights) > 2:
                    continue
                ray = [values[p] * b - values[q] * a for a, b in zip(rays[p], rays[q])]
                g = gcd(*ray)
                new_rays.append([v // g for v in ray] if g > 1 else ray)
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
    forms = _parametrize(system)
    if forms is None:
        return ()
    d = len(forms[0]) - 1
    # homogenise over (lam, t): a . x >= b becomes (a . x0 - b) lam + (a Z) t >= 0
    rows = [[1] + [0] * d]
    for coeffs, rhs in system.inequalities:
        form = [sum(c * f[k] for c, f in zip(coeffs, forms) if c) for k in range(d + 1)]
        form[0] -= rhs
        rows.append(_integer_row(form))
    rows.extend(_integer_row(forms[j]) for j in sorted(system.nonneg))
    rays, lineality = _cone_generators([h for h in rows if any(h)], d + 1)
    if all(ray[0] == 0 for ray in rays):
        return ()
    # the recession cone is generated by the rays at lam = 0 and by +-lineality
    directions = [ray for ray in rays if ray[0] == 0] + lineality
    directions += [[-v for v in vec] for vec in lineality]
    if directions:
        for j, form in enumerate(forms):
            steps = [sum(c * t for c, t in zip(form[1:], vec[1:])) for vec in directions]
            for sign, hit in (("+", any(s > 0 for s in steps)), ("-", any(s < 0 for s in steps))):
                if hit:
                    raise UnboundedRegionError(f"region is unbounded in direction {sign}x{j + 1}")
        raise AssertionError("internal error: a recession direction moves no coordinate")
    points = []
    for ray in rays:
        lam = ray[0]
        point = tuple(
            form[0] + Fraction(sum(c * t for c, t in zip(form[1:], ray[1:]) if t), lam)
            for form in forms
        )
        if not satisfies(system, point):
            raise AssertionError("internal error: enumerated vertex failed verification")
        points.append(point)
    return tuple(sorted(points))
