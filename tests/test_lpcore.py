import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from intervalgames import embed_classical, lpcore, selection_core_system, strong_core_system
from intervalgames.lpcore import (
    InfeasibleSystemError,
    LinearSystem,
    UnboundedRegionError,
    enumerate_vertices,
    feasible,
    maximize,
    satisfies,
)
from helpers import (
    rand_additive_border_game,
    rand_convex_classical,
    rand_interval_game,
    walk_vertices,
)

F = Fraction


def box(dim, bound=4, extra=()):
    """0 <= x_j <= bound plus extra rows; always bounded."""
    lid = tuple(
        (tuple(F(-(j == k)) for k in range(dim)), F(-bound)) for j in range(dim)
    )
    return LinearSystem(
        dim=dim,
        inequalities=lid + tuple(extra),
        nonneg=frozenset(range(dim)),
    )


def rand_system(rng, dim):
    rows = []
    for _ in range(rng.randint(1, 3)):
        coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
        rows.append((coeffs, F(rng.randint(-6, 6))))
    return box(dim, bound=rng.randint(2, 5), extra=rows)


def open_system(rng, dim):
    """Free and nonnegative variables; each bounding row is left out at
    random, so the region may be unbounded in any coordinate direction."""
    nonneg = frozenset(j for j in range(dim) if rng.random() < 0.5)
    rows = []
    for j in range(dim):
        unit = tuple(F(k == j) for k in range(dim))
        if rng.random() < 0.7:
            rows.append((tuple(-c for c in unit), F(-rng.randint(1, 4))))
        if j not in nonneg and rng.random() < 0.7:
            rows.append((unit, F(-rng.randint(0, 4))))
    for _ in range(rng.randint(0, 2)):
        rows.append((tuple(F(rng.randint(-2, 2)) for _ in range(dim)), F(rng.randint(-4, 4))))
    rng.shuffle(rows)
    return LinearSystem(dim=dim, inequalities=rows, nonneg=nonneg)


def brute_vertices(system):
    """Reference route: every dim-subset of rows with a unique solution that
    satisfies the whole system is a vertex, and every vertex arises that way."""
    rows = list(system.equalities) + list(system.inequalities)
    for j in sorted(system.nonneg):
        unit = tuple(F(k == j) for k in range(system.dim))
        rows.append((unit, F(0)))
    syms = sympy.symbols(f"x:{system.dim}")
    found = set()
    for subset in itertools.combinations(rows, system.dim):
        eqs = []
        for coeffs, rhs in subset:
            e = sympy.Eq(
                sum(sympy.Rational(c) * s for c, s in zip(coeffs, syms)), sympy.Rational(rhs)
            )
            if e in (sympy.true, sympy.false):
                # an all-zero row is either redundant or contradictory;
                # either way the subset cannot pin down a unique point
                eqs = None
                break
            eqs.append(e)
        if eqs is None:
            continue
        sol = sympy.linsolve(eqs, syms)
        if len(sol) != 1:
            continue
        (point,) = sol
        if any(v.free_symbols for v in point):
            continue
        x = tuple(F(sympy.Rational(v)) for v in point)
        if satisfies(system, x):
            found.add(x)
    return tuple(sorted(found))


class TestLinearSystem:
    def test_row_normalization(self):
        sys_ = LinearSystem(dim=2, equalities=[([1, 2], 3)])
        ((coeffs, rhs),) = sys_.equalities
        assert coeffs == (F(1), F(2)) and rhs == F(3)
        assert all(isinstance(c, F) for c in coeffs)

    @pytest.mark.parametrize("dim", [0, -1, "2"])
    def test_bad_dimension(self, dim):
        with pytest.raises(ValueError):
            LinearSystem(dim=dim)

    def test_bad_row_length(self):
        with pytest.raises(ValueError):
            LinearSystem(dim=2, inequalities=[([1], 0)])

    def test_bad_nonneg_index(self):
        with pytest.raises(ValueError):
            LinearSystem(dim=2, nonneg={2})

    def test_bools_in_the_shape_are_refused(self):
        with pytest.raises(TypeError):
            LinearSystem(dim=True, inequalities=[([1], 0)])
        with pytest.raises(TypeError):
            LinearSystem(dim=2, nonneg={True})

    def test_satisfies(self):
        sys_ = LinearSystem(
            dim=2,
            equalities=[([1, 1], 1)],
            inequalities=[([1, -1], 0)],
            nonneg={0, 1},
        )
        assert satisfies(sys_, (F(1, 2), F(1, 2)))
        assert satisfies(sys_, (1, 0))
        assert not satisfies(sys_, (0, 1))  # inequality fails
        assert not satisfies(sys_, (2, -1))  # nonneg fails
        assert not satisfies(sys_, (1, 1))  # equality fails
        with pytest.raises(ValueError):
            satisfies(sys_, (1,))


class TestFeasible:
    def test_simplex_face(self):
        sys_ = LinearSystem(dim=2, equalities=[([1, 1], 1)], nonneg={0, 1})
        ok, x = feasible(sys_)
        assert ok and satisfies(sys_, x)

    def test_contradictory_equalities(self):
        sys_ = LinearSystem(dim=1, equalities=[([1], 1), ([1], 2)])
        assert feasible(sys_) == (False, None)

    def test_free_variables(self):
        sys_ = LinearSystem(dim=2, equalities=[([1, -1], 5)])
        ok, x = feasible(sys_)
        assert ok and x[0] - x[1] == 5

    def test_negative_rhs_rows(self):
        sys_ = LinearSystem(
            dim=2,
            equalities=[([-1, -1], -3)],
            inequalities=[([-1, 0], -2)],
            nonneg={0, 1},
        )
        ok, x = feasible(sys_)
        assert ok and satisfies(sys_, x)

    def test_empty_box_is_detected(self):
        sys_ = box(2, bound=1, extra=[(((F(1), F(1))), F(3))])
        assert feasible(sys_) == (False, None)

    def test_random_systems_built_around_a_point(self):
        rng = random.Random(31)
        for _ in range(40):
            dim = rng.randint(1, 4)
            target = tuple(F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(dim))
            eqs, ineqs = [], []
            for _ in range(rng.randint(0, 2)):
                coeffs = tuple(F(rng.randint(-4, 4)) for _ in range(dim))
                eqs.append((coeffs, sum(c * t for c, t in zip(coeffs, target))))
            for _ in range(rng.randint(0, 4)):
                coeffs = tuple(F(rng.randint(-4, 4)) for _ in range(dim))
                slack = F(rng.randint(0, 3))
                ineqs.append((coeffs, sum(c * t for c, t in zip(coeffs, target)) - slack))
            sys_ = LinearSystem(dim=dim, equalities=eqs, inequalities=ineqs, nonneg=frozenset(range(dim)))
            ok, x = feasible(sys_)
            assert ok and satisfies(sys_, x)


class TestMaximize:
    def test_textbook_optimum(self):
        sys_ = LinearSystem(
            dim=2,
            inequalities=[([-1, -2], -4), ([-1, 0], -3)],
            nonneg={0, 1},
        )
        value, x = maximize(sys_, (1, 1))
        assert value == F(7, 2)
        assert x == (F(3), F(1, 2))

    def test_single_point_region(self):
        sys_ = LinearSystem(dim=2, equalities=[([1, 0], 2), ([0, 1], 3)])
        value, x = maximize(sys_, (5, -1))
        assert value == 7 and x == (2, 3)

    def test_optimum_at_origin(self):
        sys_ = LinearSystem(dim=1, nonneg={0})
        value, x = maximize(sys_, (-1,))
        assert value == 0 and x == (0,)

    def test_infeasible_raises(self):
        sys_ = LinearSystem(dim=1, equalities=[([1], 1), ([1], 2)])
        with pytest.raises(InfeasibleSystemError):
            maximize(sys_, (1,))

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedRegionError):
            maximize(LinearSystem(dim=2, nonneg={0, 1}), (1, 0))

    def test_objective_may_be_an_iterator(self):
        sys_ = LinearSystem(dim=2, inequalities=[([-1, 0], -3), ([0, -1], -5)], nonneg={0, 1})
        assert maximize(sys_, (c for c in [1, 1])) == (8, (3, 5))

    def test_floats_and_bools_are_refused(self):
        with pytest.raises(TypeError):
            LinearSystem(dim=1, inequalities=[([0.5], 0)])
        with pytest.raises(TypeError):
            LinearSystem(dim=1, equalities=[([1], 0.5)])
        with pytest.raises(TypeError):
            LinearSystem(dim=1, inequalities=[([True], 0)])
        sys_ = LinearSystem(dim=1, inequalities=[([-1], -3)], nonneg={0})
        with pytest.raises(TypeError):
            satisfies(sys_, (1.0,))
        with pytest.raises(TypeError):
            maximize(sys_, (1.0,))

    def test_agrees_with_vertex_scan(self):
        rng = random.Random(32)
        checked = 0
        for _ in range(25):
            sys_ = rand_system(rng, rng.randint(2, 3))
            if not feasible(sys_)[0]:
                continue
            verts = enumerate_vertices(sys_)
            obj = tuple(F(rng.randint(-3, 3)) for _ in range(sys_.dim))
            value, x = maximize(sys_, obj)
            best = max(sum(c * v for c, v in zip(obj, vert)) for vert in verts)
            assert value == best
            assert satisfies(sys_, x)
            checked += 1
        assert checked >= 10


class TestEnumerateVertices:
    def test_unit_square(self):
        verts = enumerate_vertices(box(2, bound=1))
        assert verts == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_triangle(self):
        sys_ = LinearSystem(dim=2, inequalities=[([-1, -1], -1)], nonneg={0, 1})
        assert enumerate_vertices(sys_) == ((0, 0), (0, 1), (1, 0))

    def test_single_point(self):
        sys_ = LinearSystem(dim=2, equalities=[([1, 0], 2), ([0, 1], 3)])
        assert enumerate_vertices(sys_) == ((2, 3),)

    def test_infeasible_region(self):
        sys_ = LinearSystem(dim=1, equalities=[([1], 1), ([1], 2)])
        assert enumerate_vertices(sys_) == ()

    @pytest.mark.parametrize(
        "sys_",
        [
            LinearSystem(dim=2, nonneg={0, 1}),
            LinearSystem(dim=1, inequalities=[([-1], 0)]),
        ],
    )
    def test_unbounded_raises(self, sys_):
        with pytest.raises(UnboundedRegionError):
            enumerate_vertices(sys_)

    def test_boundedness_probes_match_fresh_solves(self, monkeypatch):
        # in the oracle walk every probe after the first starts from the
        # basis the previous one left; record pivots per probe to see that
        # such warm starts occur.  Double description must reach the same
        # bounded/unbounded verdict without probing.
        pivots = [0]
        probes = []  # (pivots, bounded) per phase-two run
        pivot, phase_two = lpcore._Tableau._pivot, lpcore._Tableau.phase_two

        def counting_pivot(self, *args):
            pivots[0] += 1
            return pivot(self, *args)

        def recording_phase_two(self, objective):
            before = pivots[0]
            bounded = phase_two(self, objective)
            probes.append((pivots[0] - before, bounded))
            return bounded

        monkeypatch.setattr(lpcore._Tableau, "_pivot", counting_pivot)
        monkeypatch.setattr(lpcore._Tableau, "phase_two", recording_phase_two)
        rng = random.Random(37)
        bounded = warm_unbounded = 0
        for _ in range(80):
            sys_ = open_system(rng, rng.randint(1, 3))
            if not feasible(sys_)[0]:
                assert enumerate_vertices(sys_) == ()
                continue
            probes.clear()
            try:
                walk_vertices(sys_)
            except UnboundedRegionError:
                # the raising probe is the last one; an earlier probe pivoted
                warm_unbounded += any(p for p, _ in probes[:-1])
            try:
                verts = enumerate_vertices(sys_)
            except UnboundedRegionError:
                verts = None
            fresh_unbounded = False
            for j in range(sys_.dim):
                for sign in (1, -1):
                    try:
                        maximize(sys_, tuple(sign * (k == j) for k in range(sys_.dim)))
                    except UnboundedRegionError:
                        fresh_unbounded = True
            assert (verts is None) == fresh_unbounded
            if verts is not None:
                assert verts == brute_vertices(sys_)
                bounded += 1
        assert bounded >= 10
        assert warm_unbounded >= 10

    def test_two_player_core_shape(self):
        # band 1 <= x1 + x2 <= 4 with x_i >= 1: a triangle; the midpoint
        # (2, 2) is feasible but interior, so it must not be listed
        sys_ = LinearSystem(
            dim=2,
            inequalities=[([1, 1], 1), ([-1, -1], -4), ([1, 0], 1), ([0, 1], 1)],
        )
        verts = enumerate_vertices(sys_)
        assert verts == ((1, 1), (1, 3), (3, 1))
        assert satisfies(sys_, (2, 2))

    def test_redundant_rows_do_not_duplicate(self):
        sys_ = LinearSystem(
            dim=2,
            inequalities=[([-1, -1], -1), ([-2, -2], -2), ([-1, -1], -1)],
            nonneg={0, 1},
        )
        assert enumerate_vertices(sys_) == ((0, 0), (0, 1), (1, 0))

    def test_row_order_is_irrelevant(self):
        rng = random.Random(33)
        base = rand_system(rng, 3)
        expected = enumerate_vertices(base)
        for _ in range(5):
            rows = list(base.inequalities)
            rng.shuffle(rows)
            shuffled = LinearSystem(
                dim=base.dim,
                equalities=base.equalities,
                inequalities=tuple(rows),
                nonneg=base.nonneg,
            )
            assert enumerate_vertices(shuffled) == expected

    def test_matches_brute_force(self):
        rng = random.Random(34)
        nonempty = 0
        for _ in range(25):
            sys_ = rand_system(rng, rng.randint(2, 3))
            expected = brute_vertices(sys_)
            if feasible(sys_)[0]:
                assert enumerate_vertices(sys_) == expected
                nonempty += bool(expected)
            else:
                assert expected == ()
                assert enumerate_vertices(sys_) == ()
        assert nonempty >= 10

    def test_equality_seeded_regions(self):
        rng = random.Random(35)
        for _ in range(10):
            dim = 3
            coeffs = tuple(F(rng.randint(1, 3)) for _ in range(dim))
            sys_ = LinearSystem(
                dim=dim,
                equalities=[(coeffs, F(rng.randint(2, 6)))],
                inequalities=[
                    (tuple(F(-(j == k)) for k in range(dim)), F(-5)) for j in range(dim)
                ],
                nonneg=frozenset(range(dim)),
            )
            assert enumerate_vertices(sys_) == brute_vertices(sys_)

    def test_witness_lies_in_vertex_hull(self):
        rng = random.Random(36)
        checked = 0
        for _ in range(15):
            sys_ = rand_system(rng, rng.randint(2, 3))
            ok, x = feasible(sys_)
            if not ok:
                continue
            verts = enumerate_vertices(sys_)
            hull = LinearSystem(
                dim=len(verts),
                equalities=[(tuple(F(1) for _ in verts), F(1))]
                + [
                    (tuple(vert[j] for vert in verts), x[j])
                    for j in range(sys_.dim)
                ],
                nonneg=frozenset(range(len(verts))),
            )
            assert feasible(hull)[0]
            checked += 1
        assert checked >= 8


def outcome(enumerate_, system):
    """Vertex tuple, or the message of the UnboundedRegionError raised."""
    try:
        return enumerate_(system)
    except UnboundedRegionError as err:
        return str(err)


def with_equalities(rng, system):
    """The system plus one or two random equality rows, now and then a
    contradictory copy of the first."""
    dim = system.dim
    rows = []
    for _ in range(rng.randint(1, 2)):
        rows.append((tuple(F(rng.randint(-2, 2)) for _ in range(dim)), F(rng.randint(-3, 5))))
    if rng.random() < 0.2:
        coeffs, rhs = rows[0]
        rows.append((tuple(2 * c for c in coeffs), 2 * rhs + 1))
    return LinearSystem(
        dim=dim, equalities=rows, inequalities=system.inequalities, nonneg=system.nonneg
    )


def rank_deficient_system(rng, dim):
    """Every row is a combination of fewer than dim directions, so a
    nonempty region contains a line; now and then x1 is boxed in, so the
    line moves other coordinates only."""
    rows = []
    directions = []
    if dim > 1 and rng.random() < 0.5:
        unit = tuple(F(k == 0) for k in range(dim))
        rows += [(unit, F(rng.randint(-2, 0))), (tuple(-c for c in unit), F(-rng.randint(0, 2)))]
        directions.append(unit)
    directions += [
        tuple(rng.randint(-2, 2) for _ in range(dim))
        for _ in range(rng.randint(0, dim - 1 - len(directions)))
    ]
    for _ in range(rng.randint(0, 4)):
        weights = [rng.randint(-2, 2) for _ in directions]
        coeffs = tuple(F(sum(w * d[k] for w, d in zip(weights, directions))) for k in range(dim))
        rows.append((coeffs, F(rng.randint(-4, 4))))
    return LinearSystem(dim=dim, inequalities=rows)


def seeded_systems(rng, count):
    kinds = (rand_system, open_system)
    for i in range(count):
        system = kinds[i % 2](rng, rng.randint(1, 4))
        yield with_equalities(rng, system) if i % 3 == 0 else system


class TestDoubleDescription:
    """enumerate_vertices against the basis walk and the sympy brute force."""

    def test_agrees_with_the_walk(self):
        rng = random.Random(60)
        seen = {"bounded": 0, "unbounded": 0, "empty": 0}
        for system in seeded_systems(rng, 300):
            got = outcome(enumerate_vertices, system)
            assert got == outcome(walk_vertices, system)
            kind = "unbounded" if isinstance(got, str) else "bounded" if got else "empty"
            seen[kind] += 1
        assert min(seen.values()) >= 30

    def test_agrees_with_brute_force(self):
        rng = random.Random(61)
        bounded = 0
        for system in seeded_systems(rng, 60):
            if system.dim > 3:
                continue
            got = outcome(enumerate_vertices, system)
            if not isinstance(got, str):
                assert got == brute_vertices(system)
                bounded += bool(got)
        assert bounded >= 10

    def test_inconsistent_equalities(self):
        clash = LinearSystem(
            dim=3,
            equalities=[([1, 2, 0], 1), ([0, 1, 1], 2), ([1, 3, 1], 4)],
            inequalities=[([1, 0, 0], -5)],
        )
        assert enumerate_vertices(clash) == walk_vertices(clash) == ()
        rng = random.Random(62)
        empty = 0
        for system in seeded_systems(rng, 90):
            system = with_equalities(rng, system)
            got = outcome(enumerate_vertices, system)
            assert got == outcome(walk_vertices, system)
            empty += got == ()
        assert empty >= 20

    def test_redundant_and_shuffled_rows(self):
        rng = random.Random(63)
        for system in seeded_systems(rng, 60):
            expected = outcome(walk_vertices, system)
            rows = list(system.inequalities)
            rows += [(tuple(2 * c for c in coeffs), 2 * rhs) for coeffs, rhs in rows[:2]]
            rows += [(tuple(F(0) for _ in range(system.dim)), F(-1))]
            for _ in range(3):
                rng.shuffle(rows)
                equalities = list(system.equalities)
                rng.shuffle(equalities)
                variant = LinearSystem(
                    dim=system.dim,
                    equalities=equalities,
                    inequalities=rows,
                    nonneg=system.nonneg,
                )
                assert outcome(enumerate_vertices, variant) == expected

    def test_rank_deficient_systems(self):
        rng = random.Random(64)
        seen = {"empty": 0, "unbounded": 0}
        for _ in range(120):
            system = rank_deficient_system(rng, rng.randint(1, 4))
            got = outcome(enumerate_vertices, system)
            assert got == outcome(walk_vertices, system)
            assert got == () or isinstance(got, str)
            seen["unbounded" if got else "empty"] += 1
        assert min(seen.values()) >= 10

    def test_starts_no_tableau(self, monkeypatch):
        def refuse(self, system):
            raise AssertionError("enumerate_vertices started a simplex tableau")

        rng = random.Random(65)
        systems = list(seeded_systems(rng, 60))
        systems += [rank_deficient_system(rng, rng.randint(1, 4)) for _ in range(20)]
        monkeypatch.setattr(lpcore._Tableau, "__init__", refuse)
        for system in systems:
            outcome(enumerate_vertices, system)

    def test_selection_and_strong_cores_of_seeded_games(self):
        rng = random.Random(66)
        kinds = (
            lambda n: rand_interval_game(rng, n, lo=-2, hi=3),
            lambda n: rand_interval_game(rng, n, lo=-2, hi=3, degenerate_grand=True),
            lambda n: embed_classical(rand_convex_classical(rng, n)),
            lambda n: rand_additive_border_game(rng, n),
        )
        nonempty = Counter()
        for i in range(320):
            w = kinds[i % 4](2 + i // 4 % 3)
            for system in (selection_core_system(w), strong_core_system(w)):
                got = enumerate_vertices(system)
                assert got == walk_vertices(system)
                nonempty[i % 4] += bool(got)
        assert min(nonempty.values()) >= 20


class TestOnePhaseOne:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_phase_one_per_call(self, dim, monkeypatch):
        calls = []
        phase_one = lpcore._Tableau.phase_one

        def counting_phase_one(self):
            calls.append(self)
            return phase_one(self)

        monkeypatch.setattr(lpcore._Tableau, "phase_one", counting_phase_one)
        sys_ = box(dim, extra=[(tuple(F(1) for _ in range(dim)), F(1))])
        # double description runs no simplex at all
        for call, phase_ones in (
            (lambda: feasible(sys_), 1),
            (lambda: maximize(sys_, (1,) * dim), 1),
            (lambda: enumerate_vertices(sys_), 0),
        ):
            calls.clear()
            call()
            assert len(calls) == phase_ones
