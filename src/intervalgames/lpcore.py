"""Exact linear feasibility, optimization, and vertex enumeration.

Systems mix equality rows, ``coeffs . x >= rhs`` inequality rows, and
nonnegativity marks on individual variables.  Everything runs on
``fractions.Fraction``: feasibility and optimization use a dense two-phase
simplex with Bland's rule (so no cycling, no tolerances).  Each call builds
one tableau for its system and runs phase one on it once; every point the
simplex returns is checked against the system in ``_Tableau.solution``.

Vertex enumeration first proves the region bounded by maximizing each
``+x_j`` and ``-x_j`` as phase-two runs on that one tableau (Bland's rule
terminates from any feasible basis, so each run starts where the previous
one stopped).  It then walks all independent subsets of tight rows, solving
each candidate basis exactly and keeping the solutions that satisfy the
whole system.  Vertex output is deduplicated and sorted lexicographically,
so identical systems always enumerate identically.

The basis walk is exponential in the number of rows choose the dimension;
it is meant for desk-scale systems (games with a handful of players), not
for bulk polyhedral computation.
"""

from dataclasses import dataclass, field
from fractions import Fraction

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
        if sum(c * v for c, v in zip(coeffs, point)) != rhs:
            return False
    for coeffs, rhs in system.inequalities:
        if sum(c * v for c, v in zip(coeffs, point)) < rhs:
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
        return None  # dependent; a contradiction here just means an empty face
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


def enumerate_vertices(system: LinearSystem) -> tuple[tuple[Fraction, ...], ...]:
    """All vertices (basic feasible points) of a bounded feasible region.

    Returns () for an infeasible system and raises ``UnboundedRegionError``
    when some coordinate direction is unbounded, since an unbounded region
    is not described by its vertices.
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
    candidates: list[Row] = list(system.inequalities)
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
