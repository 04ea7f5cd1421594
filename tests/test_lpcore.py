import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest
import sympy

from intervalgames import (
    ClassicalGame,
    ClassicalProperty,
    Interval,
    IntervalGame,
    border_games,
    check_classical,
    core_system,
    core_witness,
    embed_classical,
    lpcore,
    selection_core_system,
    strong_core_system,
)
from intervalgames.lpcore import (
    LinearSystem,
    UnboundedRegionError,
    enumerate_vertices,
    feasible,
    satisfies,
)
from intervalgames.numerics import integers
from helpers import (
    FractionTableau,
    fraction_feasible,
    fraction_satisfies,
    rand_fraction,
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
        # each row is stored scaled by a positive factor to coprime integers
        for row, stored in ((([1, 2], 3), ((1, 2), 3)), (([1], F(1, 2)), ((2,), 1))):
            ((coeffs, rhs),) = LinearSystem(dim=len(row[0]), equalities=[row]).equalities
            assert (coeffs, rhs) == stored
            assert all(type(c) is int for c in coeffs + (rhs,))
        # so proportional systems compare equal and give the same point
        rows = [([1, -2], F(-1, 3)), ([2, 1], 1)]
        scaled = [([F(5, 2) * c for c in a], F(5, 2) * b) for a, b in rows]
        system = LinearSystem(dim=2, inequalities=rows, nonneg={0})
        assert system == LinearSystem(dim=2, inequalities=scaled, nonneg={0})
        assert feasible(system) == feasible(LinearSystem(dim=2, inequalities=scaled, nonneg={0}))

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

    @pytest.mark.parametrize(
        "equalities, clash",
        [
            # a repeated equality
            ([([1, 1, 0], 2), ([1, 1, 0], 2)], ([1, 1, 0], 3)),
            # an equality that is the sum of two others
            ([([1, 0, 1], 1), ([0, 1, 1], 2), ([1, 1, 2], 3)], ([1, 1, 2], 4)),
            # a zero row
            ([([1, 2, 3], 6), ([0, 0, 0], 0)], ([0, 0, 0], 1)),
        ],
    )
    def test_artificial_left_basic_at_zero(self, equalities, clash):
        # phase one ends with an artificial basic at zero on the redundant
        # row; the point is read off the structural columns and still checks
        sys_ = LinearSystem(dim=3, equalities=equalities, nonneg={0, 1, 2})
        tab = lpcore._Tableau(sys_)
        assert tab.phase_one()
        assert any(b >= tab.art_start for b in tab.basis)
        ok, x = feasible(sys_)
        assert ok and satisfies(sys_, x)
        contradictory = LinearSystem(dim=3, equalities=equalities + [clash], nonneg={0, 1, 2})
        assert feasible(contradictory) == (False, None)

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

    def test_boundedness_probes_match_fresh_solves(self):
        # the walk probes boundedness with one fresh feasibility solve per
        # direction on the recession cone; double description must reach the
        # same verdict, name the same direction, and on a bounded region list
        # the vertices the sympy brute force finds
        rng = random.Random(37)
        bounded = unbounded = 0
        for _ in range(80):
            sys_ = open_system(rng, rng.randint(1, 3))
            got = outcome(enumerate_vertices, sys_)
            assert got == outcome(walk_vertices, sys_)
            if isinstance(got, str):
                unbounded += 1
            else:
                assert got == brute_vertices(sys_)
                bounded += bool(got)
        assert bounded >= 10
        assert unbounded >= 10

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
        # every other system gets equalities, which the lines may survive,
        # and every fourth also gets nonnegativity marks, which may cut them
        rng = random.Random(64)
        seen = {"empty": 0, "unbounded": 0, "bounded": 0}
        for i in range(240):
            system = rank_deficient_system(rng, rng.randint(1, 4))
            if i % 2:
                system = with_equalities(rng, system)
                if i % 4 == 3:
                    marks = frozenset(j for j in range(system.dim) if rng.random() < 0.5)
                    system = replace(system, nonneg=marks)
            got = outcome(enumerate_vertices, system)
            assert got == outcome(walk_vertices, system)
            if i % 2 == 0:
                assert got == () or isinstance(got, str)
            seen["unbounded" if isinstance(got, str) else "bounded" if got else "empty"] += 1
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

    def test_integer_vertices_are_those_of_enumerate_vertices(self):
        # enumerate_vertices is the Fraction edge of _vertices: the same
        # points as (X, D) in lowest terms, in the same order, and the same
        # refusal of an unbounded region
        rng = random.Random(67)
        systems = list(seeded_systems(rng, 200))
        systems += [rank_deficient_system(rng, rng.randint(1, 4)) for _ in range(40)]
        for i in range(60):
            w = rand_interval_game(rng, 2 + i % 3, lo=-2, hi=3)
            systems += [selection_core_system(w), strong_core_system(w)]
        seen = Counter()
        for system in systems:
            want = outcome(lambda s: [integers(v) for v in enumerate_vertices(s)], system)
            assert outcome(lpcore._vertices, system) == want
            seen["unbounded" if isinstance(want, str) else "bounded" if want else "empty"] += 1
        assert min(seen.values()) >= 30


def rescaled(rng, system):
    """The same region with every row multiplied by a random positive
    fraction, so coefficients and right-hand sides are fractional: the
    system built from those rows, and the Fraction rows as written."""

    def scale(rows):
        out = []
        for coeffs, rhs in rows:
            f = F(rng.randint(1, 9), rng.randint(1, 9))
            out.append((tuple(f * c for c in coeffs), f * rhs))
        return out

    written = SimpleNamespace(
        equalities=scale(system.equalities),
        inequalities=scale(system.inequalities),
        nonneg=system.nonneg,
    )
    return LinearSystem(dim=system.dim, **vars(written)), written


class TestIntegerVertexCheck:
    """satisfies and enumerate_vertices check points X / D against the
    system's stored integer rows; satisfies and that check must both agree
    with the Fraction row check on the fractional rows the system was built
    from, so the stored rows keep the caller's region."""

    def test_agrees_with_satisfies(self):
        rng = random.Random(67)
        seen = Counter()
        for system in seeded_systems(rng, 240):
            system, written = rescaled(rng, system)
            points = [tuple(F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(system.dim))]
            vertices = outcome(enumerate_vertices, system)
            if not isinstance(vertices, str):
                for vertex in vertices[:6]:
                    assert fraction_satisfies(written, vertex)
                    step = F(rng.choice([-1, 1]), rng.randint(2, 7))
                    j = rng.randrange(system.dim)
                    points += [vertex, vertex[:j] + (vertex[j] + step,) + vertex[j + 1 :]]
            for point in points:
                expected = fraction_satisfies(written, point)
                assert satisfies(system, point) == expected
                D = lcm(*(v.denominator for v in point)) * rng.randint(1, 3)
                X = [int(v * D) for v in point]
                assert lpcore._satisfies_integer(system, X, D) == expected
                seen[expected, bool(system.equalities)] += 1
        assert min(seen.values()) >= 50


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
            (lambda: enumerate_vertices(sys_), 0),
        ):
            calls.clear()
            call()
            assert len(calls) == phase_ones


class TestIntegerEnumeration:
    def test_one_fraction_per_output_coordinate(self, monkeypatch):
        # double description runs on Python ints: a Fraction is built for
        # each coordinate of each vertex returned, and for nothing else
        def around_a_point(mask):
            # borders around x = (1, ..., 5): lowered by mask % 5, raised by
            # 1, and the single grand worth x(N)
            total = sum(i + 1 for i in range(5) if mask >> i & 1)
            return Interval(total) if mask == 31 else Interval(total - mask % 5, total + 1)

        convex = embed_classical(ClassicalGame.from_function(6, lambda mask: F(mask.bit_count() ** 2)))
        nonconvex = IntervalGame.from_function(5, around_a_point)
        assert not any(check_classical(border, ClassicalProperty.CONVEX) for border in border_games(nonconvex))
        built = []

        def counting_fraction(*args):
            built.append(args)
            return F(*args)

        for game, count in ((convex, 720), (nonconvex, 9)):
            system = selection_core_system(game)
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(lpcore, "Fraction", counting_fraction)
                vertices = enumerate_vertices(system)
            assert len(vertices) == count
            assert len(built) == system.dim * count


def around_a_point(rng):
    """A feasible system built around a point x, some of whose coordinates
    are 0: equality rows through x, inequality rows at or below it,
    fractional coefficients or 0 and +-1 ones, free and nonnegative
    variables, now and then a redundant multiple of an equality and zero
    rows."""
    dim = rng.randint(1, 5)
    zeros = rng.random()  # the share of zero coordinates
    x = [F(0) if rng.random() < zeros else rand_fraction(rng, -3, 3) for _ in range(dim)]
    nonneg = frozenset(j for j in range(dim) if x[j] >= 0 and rng.random() < 0.5)

    unit = rng.random() < 0.5  # 0 and +-1 coefficients, as in the coalition rows

    def row():
        if unit:
            return tuple(F(rng.randint(-1, 1)) for _ in range(dim))
        return tuple(rand_fraction(rng, -3, 3) if rng.random() < 0.7 else F(0) for _ in range(dim))

    def at_x(coeffs):
        return sum(c * v for c, v in zip(coeffs, x))

    eqs = [(a, at_x(a)) for a in (row() for _ in range(rng.randint(0, dim)))]
    # half of the inequality rows are tight at x, so the ratio test meets ties
    ineqs = [
        (a, at_x(a) - (abs(rand_fraction(rng, 0, 2)) if rng.random() < 0.5 else 0))
        for a in (row() for _ in range(rng.randint(0, 3 * dim)))
    ]
    if eqs and rng.random() < 0.5:
        a, b = eqs[0]
        eqs.append((tuple(2 * c for c in a), 2 * b))
    if rng.random() < 0.3:
        ineqs.append(((F(0),) * dim, F(-1)))
    if rng.random() < 0.2:
        eqs.append(((F(0),) * dim, F(0)))
    return LinearSystem(dim=dim, equalities=eqs, inequalities=ineqs, nonneg=nonneg)


def perturbed(rng, system):
    """An infeasible copy: an inequality row a . x >= b joined by
    a . x <= b - 1, or an equality row a . x = b by 2a . x = 2b + 1."""
    if system.equalities and (not system.inequalities or rng.random() < 0.5):
        (a, b), *_ = system.equalities
        extra = {"equalities": system.equalities + ((tuple(2 * c for c in a), 2 * b + 1),)}
    else:
        a, b = rng.choice(system.inequalities) if system.inequalities else ((F(0),) * system.dim, F(0))
        extra = {"inequalities": system.inequalities + ((tuple(-c for c in a), 1 - b),)}
    return replace(system, **extra)


class TestIntegerSimplex:
    """feasible pivots on the system's integer rows.  The Fraction
    tableau it replaced, helpers.FractionTableau, is its oracle: the same
    status, the identical point and the same final basis on every system."""

    def test_matches_the_fraction_tableau(self):
        rng = random.Random(81)
        seen = Counter()
        for _ in range(400):
            system = around_a_point(rng)
            for case in (system, perturbed(rng, system)):
                fraction = FractionTableau(case)
                ok = fraction.phase_one()
                assert feasible(case) == (ok, fraction.solution() if ok else None)
                # the same pivot sequence ends in the same basis, even where
                # a degenerate pivot leaves the point as it is
                integer = lpcore._Tableau(case)
                assert integer.phase_one() == ok and integer.basis == fraction.basis
                seen[ok, bool(case.equalities), bool(case.nonneg)] += 1
        assert len(seen) == 8 and min(seen.values()) >= 30

    def test_no_artificial_column_and_the_fraction_tableau_pivots(self, monkeypatch):
        # every row holds its structural and surplus entries and its
        # right-hand side only, and phase one pivots on the same (r, c) as
        # the Fraction tableau, which stores its artificial columns
        pivots = {lpcore._Tableau: [], FractionTableau: []}
        for cls, calls in pivots.items():

            def recording(self, r, c, obj, calls=calls, pivot=cls._pivot):
                calls.append((r, c))
                pivot(self, r, c, obj)

            monkeypatch.setattr(cls, "_pivot", recording)
        rng = random.Random(83)
        artificials = pivoted = 0
        for _ in range(200):
            system = around_a_point(rng)
            for case in (system, perturbed(rng, system)):
                for calls in pivots.values():
                    calls.clear()
                integer = lpcore._Tableau(case)
                width = integer.art_start + 1
                artificials += sum(b >= integer.art_start for b in integer.basis)
                assert all(len(row) == width for row in integer.T)
                assert integer.phase_one() == FractionTableau(case).phase_one()
                assert all(len(row) == width for row in integer.T)
                assert pivots[lpcore._Tableau] == pivots[FractionTableau]
                pivoted += len(pivots[FractionTableau])
        assert artificials >= 1000 and pivoted >= 1000

    def test_solve_is_the_point_of_feasible_in_integers(self):
        # feasible is the Fraction edge of _solve: (X, D) is its point over
        # the least common denominator, None when there is none
        rng = random.Random(84)
        seen = Counter()
        for _ in range(200):
            system = around_a_point(rng)
            for case in (system, perturbed(rng, system)):
                ok, x = feasible(case)
                assert lpcore._solve(case) == (integers(x) if ok else None)
                seen[ok] += 1
        assert min(seen.values()) >= 100

    def test_rows_off_the_pivot_column_are_only_rescaled(self, monkeypatch):
        # a row with 0 in the pivot column becomes p row // D, each entry
        # divided exactly, and phase one keeps the Fraction tableau's status,
        # point and final basis
        rescaled_rows = 0
        pivot = lpcore._Tableau._pivot

        def checking(self, r, c, obj):
            nonlocal rescaled_rows
            p, D = self.T[r][c], self.D
            before = {i: row for i, row in enumerate(self.T) if i != r and row[c] == 0}
            pivot(self, r, c, obj)
            for i, row in before.items():
                assert all(p * a % D == 0 for a in row)
                assert self.T[i] == [p * a // D for a in row]
            rescaled_rows += len(before)

        monkeypatch.setattr(lpcore._Tableau, "_pivot", checking)
        rng = random.Random(85)
        for _ in range(200):
            system = around_a_point(rng)
            for case in (system, perturbed(rng, system)):
                fraction = FractionTableau(case)
                ok = fraction.phase_one()
                assert feasible(case) == (ok, fraction.solution() if ok else None)
                integer = lpcore._Tableau(case)
                assert integer.phase_one() == ok and integer.basis == fraction.basis
        assert rescaled_rows >= 1000

    def test_coalition_rows_keep_the_point_of_the_rows_as_written(self):
        # stored as coprime integers, this game's core rows lead with 1, 3, 4
        # or 6; the phase-one weights keep the point the Fraction tableau finds
        # on the +-1 rows as written, where unweighted artificials would
        # reach the core point (7/3, -3/2, -7/4)
        v = ClassicalGame(3, tuple(F(s) for s in ("0", "4/3", "-2", "5/6", "-19/4", "-5/3", "-13/4", "-11/12")))
        point = (F(4, 3), F(-1, 2), F(-7, 4))
        assert {abs(a[0] or a[1] or a[2]) for a, _ in core_system(v).inequalities} == {1, 3, 4, 6}
        assert core_witness(v) == point
        assert feasible(core_system(v)) == fraction_feasible(core_system(v)) == (True, point)

    def test_fractions_only_for_the_point(self, monkeypatch):
        # the tableau, its pivots and its point check run on Python ints: a
        # feasible system builds one Fraction per coordinate of its point, an
        # infeasible one none, and neither calls satisfies
        rng = random.Random(82)
        systems = [around_a_point(rng) for _ in range(30)]
        systems += [perturbed(rng, system) for system in systems]
        built, checks = [], []

        def counting_fraction(*args):
            built.append(args)
            return F(*args)

        def counting_satisfies(*args):
            checks.append(args)
            return satisfies(*args)

        for system in systems:
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(lpcore, "Fraction", counting_fraction)
                patch.setattr(lpcore, "satisfies", counting_satisfies)
                ok, x = feasible(system)
            assert len(built) == (system.dim if ok else 0)
            assert x is None or fraction_satisfies(system, x)
        assert not checks
