import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from intervalgames import (
    BudgetExceededError,
    ClassicalGame,
    CoincidenceVerdict,
    GeneratedCoreWitness,
    Interval,
    IntervalGame,
    LinearSystem,
    NotGenerated,
    border_games,
    core_coincidence,
    core_nonempty,
    core_system,
    core_witness,
    embed_classical,
    enumerate_vertices,
    generated_core_system,
    generated_core_witness,
    grand_coalition,
    is_core_member,
    is_generated_core_member,
    is_imputation,
    is_interval_core_member,
    is_interval_imputation,
    is_selection_core_member,
    is_selection_imputation,
    is_strong_core_member,
    is_strong_imputation,
    is_strongly_balanced,
    satisfies,
    selection_core_oracle,
    selection_core_system,
    selection_core_witness,
    selection_imputation_oracle,
    strong_core_nonempty,
    strong_core_system,
    strong_core_witness,
    verify_selection_core_witness,
    weakly_better,
)
from intervalgames import solutions
from intervalgames.lpcore import feasible
from helpers import (
    endpoint_selections,
    majority_game,
    rand_additive_border_game,
    rand_additive_classical,
    rand_classical,
    rand_convex_classical,
    rand_fraction,
    rand_interval_game,
    rand_payoff,
    random_selection,
)

F = Fraction

# two singletons worth [1, 3] with a grand band [1, 4]; its selection core
# is the triangle with corners (1,1), (1,3), (3,1) and nothing is generated
BAND = IntervalGame.from_map(2, {(1,): (1, 3), (2,): (1, 3), (1, 2): (1, 4)})

# unit singletons with a [0, 2] grand band; (0,0) is generated, the other
# two selection-core corners are not
UNIT = IntervalGame.from_map(2, {(1,): (0, 1), (2,): (0, 1), (1, 2): (0, 2)})

# degenerate grand worth with a nonempty strong core at (2, 2, 2)
TIGHT = IntervalGame.from_map(
    3,
    {
        (1,): (1, 2), (2,): (1, 2), (3,): (1, 2),
        (1, 2): (2, 3), (1, 3): (2, 3), (2, 3): (2, 3),
        (1, 2, 3): (6, 6),
    },
)


def test_system_rows_for_the_band_game():
    # rows, their order and the nonnegativity marks decide which vertex the
    # simplex returns, so every builder is pinned row by row
    lower, _ = border_games(BAND)
    sums = solutions._coalition_sums((F(2), F(2)))
    assert core_system(lower) == LinearSystem(
        dim=2, equalities=(((1, 1), 1),), inequalities=(((1, 0), 1), ((0, 1), 1))
    )
    assert selection_core_system(BAND) == LinearSystem(
        dim=2, inequalities=(((1, 1), 1), ((-1, -1), -4), ((1, 0), 1), ((0, 1), 1))
    )
    # a degenerate grand range is one equality row
    assert selection_core_system(TIGHT) == LinearSystem(
        dim=3,
        equalities=(((1, 1, 1), 6),),
        inequalities=(
            ((1, 0, 0), 1), ((0, 1, 0), 1), ((1, 1, 0), 2),
            ((0, 0, 1), 1), ((1, 0, 1), 2), ((0, 1, 1), 2),
        ),
    )
    # the slack halves are the core rows of -l and u on their gaps; the
    # grand equality already implies the grand inequality, so there is none
    assert solutions._lower_system(BAND, sums) == LinearSystem(
        dim=2,
        equalities=(((-1, -1), -3),),
        inequalities=(((-1, 0), -1), ((0, -1), -1)),
        nonneg=frozenset({0, 1}),
    )
    assert solutions._upper_system(BAND, sums) == LinearSystem(
        dim=2,
        equalities=(((1, 1), 0),),
        inequalities=(((1, 0), 1), ((0, 1), 1)),
        nonneg=frozenset({0, 1}),
    )
    assert generated_core_system(BAND, (2, 2)) == LinearSystem(
        dim=4,
        equalities=(((-1, -1, 0, 0), -3), ((0, 0, 1, 1), 0)),
        inequalities=(
            ((-1, 0, 0, 0), -1), ((0, -1, 0, 0), -1),
            ((0, 0, 1, 0), 1), ((0, 0, 0, 1), 1),
        ),
        nonneg=frozenset(range(4)),
    )
    # (upper, lower): the band [1, 4] gives two contradictory grand rows
    assert strong_core_system(BAND) == LinearSystem(
        dim=2, inequalities=(((1, 1), 4), ((-1, -1), -1), ((1, 0), 3), ((0, 1), 3))
    )


class TestClassicalSolutions:
    def test_two_player_split(self):
        v = ClassicalGame.from_map(2, {(1,): 2, (2,): 1, (1, 2): 4})
        assert is_imputation(v, (2, 2)) and is_core_member(v, (2, 2))
        assert is_core_member(v, (F(5, 2), F(3, 2)))
        assert not is_imputation(v, (4, 0))
        assert not is_core_member(v, (3, 2))  # over-distributes

    def test_majority_core_is_empty(self):
        v = majority_game()
        assert is_imputation(v, (F(1, 3), F(1, 3), F(1, 3)))
        assert not core_nonempty(v)
        assert core_witness(v) is None
        assert enumerate_vertices(core_system(v)) == ()

    def test_additive_core_is_a_single_point(self):
        rng = random.Random(41)
        for _ in range(10):
            v = rand_additive_classical(rng, rng.randint(1, 3))
            point = tuple(v.worth(1 << i) for i in range(v.n))
            assert core_witness(v) == point
            assert enumerate_vertices(core_system(v)) == (point,)

    def test_convex_games_have_nonempty_cores(self):
        rng = random.Random(42)
        for _ in range(20):
            v = rand_convex_classical(rng, rng.randint(1, 4))
            x = core_witness(v)
            assert x is not None and is_core_member(v, x)

    def test_wrong_length_payoff(self):
        v = majority_game()
        with pytest.raises(ValueError):
            is_core_member(v, (1, 0))

    def test_floats_and_bools_are_refused(self):
        v = ClassicalGame.from_map(2, {(1,): 0, (2,): 0, (1, 2): 2})
        assert is_core_member(v, (1, 1))
        with pytest.raises(TypeError):
            is_core_member(v, (1.0, 1.0))
        with pytest.raises(TypeError):
            is_selection_core_member(BAND, (2, True))
        with pytest.raises(TypeError):
            generated_core_witness(BAND, (2.0, 2))
        with pytest.raises(TypeError):
            GeneratedCoreWitness(l=(0.5, 0), u=(0, 0))
        with pytest.raises(TypeError):
            GeneratedCoreWitness(l=(0, 0), u=(0, True))


class TestSelectionMembership:
    def test_band_game_points(self):
        assert is_selection_imputation(BAND, (2, 2))
        assert is_selection_core_member(BAND, (2, 2))
        for corner in ((1, 1), (1, 3), (3, 1)):
            assert is_selection_core_member(BAND, corner)
        assert not is_selection_core_member(BAND, (1, 0))
        assert not is_selection_core_member(BAND, (F(1, 2), F(1, 2)))
        assert not is_selection_imputation(BAND, (4, 1))  # sum above the band

    def test_closed_form_matches_oracle(self):
        rng = random.Random(43)
        seen = {True: 0, False: 0}
        for _ in range(25):
            n = rng.randint(2, 3)
            w = rand_interval_game(rng, n, lo=0, hi=4, max_width=2)
            points = [rand_payoff(rng, n) for _ in range(3)]
            points += list(enumerate_vertices(selection_core_system(w))[:2])
            for x in points:
                got = is_selection_core_member(w, x)
                assert got == selection_core_oracle(w, x)
                assert is_selection_imputation(w, x) == selection_imputation_oracle(w, x)
                seen[got] += 1
        assert seen[True] and seen[False]

    def test_membership_comes_from_an_actual_selection(self):
        # whenever the closed form accepts x, some endpoint selection or the
        # exact-sum selection must put x in its core; spot check by search
        rng = random.Random(44)
        for _ in range(10):
            w = rand_interval_game(rng, 2, lo=0, hi=3, max_width=2)
            for x in (rand_payoff(rng, 2), rand_payoff(rng, 2)):
                if not is_selection_core_member(w, x):
                    continue
                total = sum(F(v) for v in x)
                hit = False
                for v in endpoint_selections(w):
                    if w.worth(3).lower <= total <= w.worth(3).upper:
                        vals = list(v.values)
                        vals[3] = total
                        v = ClassicalGame(n=2, values=tuple(vals))
                    hit = hit or is_core_member(v, x)
                assert hit

    def test_oracle_budget(self):
        w = rand_interval_game(random.Random(45), 5)
        with pytest.raises(BudgetExceededError):
            selection_core_oracle(w, (0, 0, 0, 0, 0))

    def test_core_implies_imputation(self):
        rng = random.Random(46)
        hits = 0
        for _ in range(60):
            n = rng.randint(1, 4)
            w = rand_interval_game(rng, n)
            x = rand_payoff(rng, n)
            if is_selection_core_member(w, x):
                hits += 1
                assert is_selection_imputation(w, x)
        assert hits


class TestSelectionCoreWitness:
    def test_band_game_witness(self):
        s = selection_core_witness(BAND, (2, 2))
        assert s is not None
        assert s.worth(3) == Interval(4)
        assert s.worth(1) == Interval(1, 2) and s.worth(2) == Interval(1, 2)
        assert verify_selection_core_witness(BAND, (2, 2), s)

    def test_rejected_points_get_no_witness(self):
        assert selection_core_witness(BAND, (1, 0)) is None
        assert selection_core_witness(BAND, (5, 5)) is None

    def test_verifier_rejects_forgeries(self):
        x = (2, 2)
        good = selection_core_witness(BAND, x)
        assert verify_selection_core_witness(BAND, x, good)
        outside = IntervalGame.from_map(2, {(1,): (0, 2), (2,): (1, 2), (1, 2): (4, 4)})
        assert not verify_selection_core_witness(BAND, x, outside)
        loose = IntervalGame.from_map(2, {(1,): (1, 2), (2,): (1, 2), (1, 2): (1, 4)})
        assert not verify_selection_core_witness(BAND, x, loose)
        blocking = IntervalGame.from_map(2, {(1,): (1, 3), (2,): (1, 2), (1, 2): (4, 4)})
        assert not verify_selection_core_witness(BAND, x, blocking)

    def test_every_selection_of_the_witness_accepts_x(self):
        rng = random.Random(47)
        for _ in range(15):
            n = rng.randint(2, 3)
            w = rand_interval_game(rng, n, lo=0, hi=4, max_width=2)
            verts = enumerate_vertices(selection_core_system(w))
            if not verts:
                continue
            x = verts[0]
            s = selection_core_witness(w, x)
            assert s is not None and verify_selection_core_witness(w, x, s)
            for _ in range(4):
                assert is_core_member(random_selection(rng, s), x)


class TestIntervalMembership:
    def test_band_game_interval_core_is_empty(self):
        # each component must dominate [1, 3], so upper parts alone already
        # sum past the grand upper bound 4
        assert not is_interval_imputation(BAND, ((1, 3), (0, 1)))
        assert not is_interval_core_member(BAND, ((1, 3), (1, 3)))

    def test_unit_game_interval_core_member(self):
        payoff = ((0, 1), (0, 1))
        assert is_interval_imputation(UNIT, payoff)
        assert is_interval_core_member(UNIT, payoff)
        assert not is_interval_core_member(UNIT, ((0, 1), (0, 2)))  # sum too wide

    def test_invalid_interval_entry(self):
        with pytest.raises(ValueError):
            is_interval_imputation(UNIT, ((0, 3), (2, 0)))

    def test_embedding_collapse(self):
        rng = random.Random(48)
        for _ in range(15):
            n = rng.randint(1, 3)
            v = rand_classical(rng, n)
            w = embed_classical(v)
            x = rand_payoff(rng, n)
            boxed = tuple((xi, xi) for xi in x)
            assert is_interval_core_member(w, boxed) == is_core_member(v, x)
            assert is_interval_imputation(w, boxed) == is_imputation(v, x)

    def test_interval_core_implies_interval_imputation(self):
        rng = random.Random(49)
        hits = 0
        for _ in range(40):
            n = rng.randint(2, 3)
            w = rand_interval_game(rng, n)
            entries = tuple(
                (lo, lo + F(rng.randint(0, 2))) for lo in rand_payoff(rng, n)
            )
            if is_interval_core_member(w, entries):
                hits += 1
            if is_interval_core_member(w, entries):
                assert is_interval_imputation(w, entries)
        # membership is rare for arbitrary games; the border games of an
        # additive-border game always qualify
        w = rand_additive_border_game(random.Random(50), 3)
        payoff = tuple((w.worth(1 << i).lower, w.worth(1 << i).upper) for i in range(3))
        assert is_interval_core_member(w, payoff)


class TestGeneratedCore:
    def test_band_game_generates_nothing(self):
        # singleton lower worths already overshoot the grand lower bound, so
        # the sink half is infeasible at every point
        for x in ((1, 1), (1, 3), (3, 1), (2, 2)):
            assert not is_generated_core_member(BAND, x)
        assert generated_core_witness(BAND, (2, 2)) == NotGenerated(
            lower_feasible=False, upper_feasible=False
        )

    def test_unit_game_memberships(self):
        wit = generated_core_witness(UNIT, (0, 0))
        assert wit == GeneratedCoreWitness(l=(0, 0), u=(1, 1))
        assert wit.interval_payoff((0, 0)) == (Interval(0, 1), Interval(0, 1))
        assert is_interval_core_member(UNIT, wit.interval_payoff((0, 0)))

        assert generated_core_witness(UNIT, (1, 1)) == GeneratedCoreWitness(
            l=(1, 1), u=(0, 0)
        )
        assert not is_generated_core_member(UNIT, (0, 2))
        assert not is_generated_core_member(UNIT, (2, 0))
        assert generated_core_witness(UNIT, (0, 2)) == NotGenerated(
            lower_feasible=True, upper_feasible=False
        )

    def test_witness_validation(self):
        with pytest.raises(ValueError):
            GeneratedCoreWitness(l=(-1, 0), u=(0, 0))
        with pytest.raises(ValueError):
            GeneratedCoreWitness(l=(0,), u=(0, 0))

    def test_split_agrees_with_joint_system(self):
        rng = random.Random(51)
        seen = {True: 0, False: 0}
        for _ in range(40):
            n = rng.randint(1, 3)
            w = rand_interval_game(rng, n, lo=0, hi=4)
            x = rand_payoff(rng, n)
            wit = generated_core_witness(w, x)
            ok, _ = feasible(generated_core_system(w, x))
            assert isinstance(wit, GeneratedCoreWitness) == ok
            if ok:
                assert satisfies(generated_core_system(w, x), wit.l + wit.u)
            seen[ok] += 1
        assert seen[True] and seen[False]

    def test_generated_points_are_selection_core_points(self):
        rng = random.Random(52)
        hits = 0
        for _ in range(30):
            n = rng.randint(1, 3)
            w = rand_interval_game(rng, n, lo=0, hi=4)
            verts = enumerate_vertices(selection_core_system(w))
            points = [rand_payoff(rng, n)] + list(verts[:3])
            if len(verts) > 1:
                points.append(
                    tuple((a + b) / 2 for a, b in zip(verts[0], verts[-1]))
                )
            for x in points:
                wit = generated_core_witness(w, x)
                if not isinstance(wit, GeneratedCoreWitness):
                    continue
                hits += 1
                assert is_selection_core_member(w, x)
                assert is_interval_core_member(w, wit.interval_payoff(x))
        assert hits >= 10

    def test_failing_half_matches_the_border_cores(self):
        # the sink half asks whether core(lower) meets {y <= x}, the rise
        # half whether core(upper) meets {y >= x}; both are rebuilt here
        # from core_system plus bound rows, not from the slack systems
        def meets(v: ClassicalGame, x, sign: int) -> bool:
            core = core_system(v)
            bounds = tuple(
                (tuple(sign if j == i else 0 for j in range(v.n)), sign * xi)
                for i, xi in enumerate(x)
            )
            ok, _ = feasible(
                LinearSystem(
                    dim=v.n,
                    equalities=core.equalities,
                    inequalities=core.inequalities + bounds,
                )
            )
            return ok

        rng = random.Random(61)
        seen = Counter()
        for k in range(220):
            n = 1 + k % 4
            w = rand_interval_game(rng, n, lo=0, hi=4)
            x = rand_payoff(rng, n, lo=-1, hi=4)
            lower, upper = border_games(w)
            expected = (meets(lower, x, -1), meets(upper, x, 1))
            result = generated_core_witness(w, x)
            if expected == (True, True):
                assert isinstance(result, GeneratedCoreWitness)
            else:
                assert result == NotGenerated(*expected)
            seen[expected] += 1
        assert all(seen[bits] >= 10 for bits in ((True, False), (False, True), (False, False)))

    def test_additive_border_box(self):
        rng = random.Random(53)
        for _ in range(10):
            n = rng.randint(2, 3)
            w = rand_additive_border_game(rng, n)
            q = tuple(w.worth(1 << i).lower for i in range(n))
            r = tuple(w.worth(1 << i).upper for i in range(n))
            widths = tuple(w.worth(1 << i).width for i in range(n))
            assert generated_core_witness(w, q) == GeneratedCoreWitness(
                l=(0,) * n, u=widths
            )
            assert generated_core_witness(w, r) == GeneratedCoreWitness(
                l=widths, u=(0,) * n
            )
            # anything between the two corners is generated as well, with
            # the slack pair sliding along the box
            for _ in range(5):
                x = tuple(
                    qi + F(rng.randint(0, 4), 4) * wi for qi, wi in zip(q, widths)
                )
                l = tuple(xi - qi for xi, qi in zip(x, q))
                u = tuple(ri - xi for ri, xi in zip(r, x))
                assert satisfies(generated_core_system(w, x), l + u)
                assert is_generated_core_member(w, x)


class TestCoincidence:
    def test_band_game_disagrees_at_the_cheap_corner(self):
        verdict = core_coincidence(BAND)
        assert verdict == CoincidenceVerdict(
            coincident=False,
            counterexample=(1, 1),
            miss=NotGenerated(lower_feasible=False, upper_feasible=False),
        )
        assert is_selection_core_member(BAND, verdict.counterexample)
        assert not is_generated_core_member(BAND, verdict.counterexample)

    def test_unit_game_disagrees_at_a_lopsided_corner(self):
        verdict = core_coincidence(UNIT)
        assert not verdict.coincident
        assert verdict.counterexample == (0, 2)
        assert not is_generated_core_member(UNIT, (2, 0))

    def test_single_player_games_coincide(self):
        w = IntervalGame.from_map(1, {(1,): (2, 5)})
        assert core_coincidence(w) == CoincidenceVerdict(coincident=True)
        assert is_generated_core_member(w, (3,))

    def test_degenerate_embeddings_coincide(self):
        rng = random.Random(54)
        for _ in range(8):
            v = rand_convex_classical(rng, rng.randint(1, 3))
            assert core_coincidence(embed_classical(v)).coincident

    def test_degenerate_proper_worths_coincide(self):
        # when only the grand worth is a real interval, the sink slacks are
        # forced to the additive floor and the rise slacks soak up whatever
        # the band allows, so every selection-core point is generated
        rng = random.Random(55)
        for _ in range(8):
            n = rng.randint(2, 3)
            base = [F(rng.randint(-2, 4)) for _ in range(n)]
            full = (1 << n) - 1

            def worth(m, base=base, full=full, n=n):
                total = sum(base[i] for i in range(n) if m >> i & 1)
                if m == full:
                    return (total, total + 3)
                return (total, total)

            w = IntervalGame.from_function(n, worth)
            assert core_coincidence(w).coincident

    def test_additive_borders_with_width_do_not_coincide(self):
        # the selection core piles the whole band surplus onto one player,
        # which overshoots that player's upper border worth
        w = IntervalGame.from_map(2, {(1,): (1, 2), (2,): (1, 3), (1, 2): (2, 5)})
        verdict = core_coincidence(w)
        assert verdict == CoincidenceVerdict(
            coincident=False,
            counterexample=(1, 4),
            miss=NotGenerated(lower_feasible=True, upper_feasible=False),
        )
        assert generated_core_witness(w, (1, 4)) == NotGenerated(
            lower_feasible=True, upper_feasible=False
        )

    def test_empty_selection_core_is_vacuously_coincident(self):
        w = IntervalGame.from_map(2, {(1,): (5, 6), (2,): (5, 6), (1, 2): (0, 1)})
        assert enumerate_vertices(selection_core_system(w)) == ()
        assert core_coincidence(w) == CoincidenceVerdict(coincident=True)

    def test_budget(self):
        rng = random.Random(56)
        with pytest.raises(BudgetExceededError):
            core_coincidence(rand_interval_game(rng, 7))
        with pytest.raises(BudgetExceededError):
            core_coincidence(BAND, budget=1)

    @pytest.mark.parametrize("budget", [True, 6.0])
    def test_bool_and_float_budgets_are_refused(self, budget):
        with pytest.raises(TypeError, match="budget must be an int"):
            core_coincidence(BAND, budget=budget)


def strictly_convex(rng, n):
    """A convex game plus |S|^2: every marginal vector is a distinct vertex."""
    v = rand_convex_classical(rng, n)
    return ClassicalGame.from_function(n, lambda m: v.values[m] + bin(m).count("1") ** 2)


def marginal_vectors(v: ClassicalGame) -> tuple:
    """The distinct marginal vectors of v over all n! player orders."""
    found = set()
    for order in permutations(range(v.n)):
        x = [F(0)] * v.n
        before = 0
        for i in order:
            x[i] = v.values[before | 1 << i] - v.values[before]
            before |= 1 << i
        found.add(tuple(x))
    return tuple(sorted(found))


class TestBeyondFourPlayers:
    """Oracles that reach past the basis walk: for a convex game the core
    vertices are exactly the distinct marginal vectors (Shapley 1971;
    Ichiishi 1981), and an embedded game's selection core is its core."""

    def test_convex_cores_at_five_players_are_the_marginal_vectors(self):
        rng = random.Random(57)
        games = [rand_convex_classical(rng, 5) for _ in range(4)] + [strictly_convex(rng, 5)]
        for v in games:
            verts = enumerate_vertices(selection_core_system(embed_classical(v)))
            assert verts == marginal_vectors(v)
        assert len(verts) == 120

    def test_a_convex_core_at_six_players_is_the_marginal_vectors(self):
        v = strictly_convex(random.Random(58), 6)
        verts = enumerate_vertices(selection_core_system(embed_classical(v)))
        assert len(verts) == 720
        assert verts == marginal_vectors(v)

    def test_coincidence_verdicts_at_five_players(self):
        rng = random.Random(59)
        # all 120 selection-core vertices are generated
        assert core_coincidence(embed_classical(strictly_convex(rng, 5))).coincident
        w = rand_additive_border_game(rng, 5)
        verdict = core_coincidence(w)
        assert not verdict.coincident
        # the selection core is the simplex {x >= b, x(N) <= b(N) + d(N)} and
        # the generated set is the box [b, b + d]: the counterexample spends
        # the whole grand upper worth and leaves the box
        x = verdict.counterexample
        base = [w.worth(1 << i).lower for i in range(5)]
        top = [w.worth(1 << i).upper for i in range(5)]
        assert sum(x) == w.worth(grand_coalition(5)).upper
        assert is_selection_core_member(w, x)
        assert any(not b <= xi <= t for xi, b, t in zip(x, base, top))
        assert generated_core_witness(w, x) == verdict.miss
        assert isinstance(verdict.miss, NotGenerated)


class TestStrongConcepts:
    def test_tight_game_memberships(self):
        assert is_strong_imputation(TIGHT, (2, 2, 2))
        assert is_strong_core_member(TIGHT, (2, 2, 2))
        assert not is_strong_imputation(TIGHT, (3, 2, 1))  # last player under 2
        assert not is_strong_imputation(TIGHT, (2, 2, 3))  # sum off the worth
        assert strong_core_nonempty(TIGHT)
        x = strong_core_witness(TIGHT)
        assert x is not None and is_strong_core_member(TIGHT, x)
        assert is_strongly_balanced(TIGHT)

    def test_band_game_has_no_strong_anything(self):
        # nondegenerate grand worth: both strong sets are empty by definition
        for x in ((2, 2), (1, 3)):
            assert not is_strong_imputation(BAND, x)
            assert not is_strong_core_member(BAND, x)
        assert not strong_core_nonempty(BAND)
        assert strong_core_witness(BAND) is None
        assert enumerate_vertices(strong_core_system(BAND)) == ()

    def test_strong_core_points_are_generated_with_zero_slack(self):
        verts = enumerate_vertices(strong_core_system(TIGHT))
        assert verts
        zeros = (F(0),) * 6
        for x in verts:
            assert is_strong_core_member(TIGHT, x)
            assert satisfies(generated_core_system(TIGHT, x), zeros)
            assert is_generated_core_member(TIGHT, x)
            assert is_selection_core_member(TIGHT, x)

    def test_embedding_collapse(self):
        rng = random.Random(57)
        for _ in range(15):
            n = rng.randint(1, 3)
            v = rand_classical(rng, n)
            w = embed_classical(v)
            x = rand_payoff(rng, n)
            assert is_strong_imputation(w, x) == is_imputation(v, x)
            assert is_strong_core_member(w, x) == is_core_member(v, x)
            assert strong_core_nonempty(w) == core_nonempty(v)

    def test_strong_core_tracks_the_upper_border_core(self):
        rng = random.Random(58)
        seen = {True: 0, False: 0}
        for _ in range(20):
            w = rand_interval_game(rng, rng.randint(2, 3), degenerate_grand=True)
            upper = ClassicalGame(
                n=w.n, values=tuple(iv.upper for iv in w.values)
            )
            shifted = ClassicalGame(
                n=w.n,
                values=tuple(
                    w.worth(m).lower if m == (1 << w.n) - 1 else iv.upper
                    for m, iv in enumerate(w.values)
                ),
            )
            got = strong_core_nonempty(w)
            assert got == core_nonempty(shifted)
            seen[got] += 1
        assert seen[True] and seen[False]


class TestStronglyBalanced:
    def test_degenerate_grand_is_strong_core_nonemptiness(self):
        # with w(N) degenerate the worst selection is the upper border game
        rng = random.Random(62)
        seen = Counter()
        for _ in range(40):
            n = rng.randint(2, 4)
            v = rand_convex_classical(rng, n)
            full = grand_coalition(n)
            widths = [abs(rand_fraction(rng, 0, 2)) for _ in range(full)]
            w = IntervalGame.from_function(
                n,
                lambda m, v=v, full=full, widths=widths: (
                    v.values[m], v.values[m] + (0 if m == full else widths[m])
                ),
            )
            got = is_strongly_balanced(w)
            assert got == strong_core_nonempty(w)
            seen[got] += 1
        assert seen[True] >= 10 and seen[False] >= 10

    def test_knowns(self):
        assert is_strongly_balanced(
            IntervalGame.from_map(2, {(1,): (0, 0), (2,): (0, 0), (1, 2): (1, 2)})
        )
        assert not is_strongly_balanced(embed_classical(majority_game()))
        assert is_strongly_balanced(TIGHT)

    def test_equivalent_to_all_selections_having_cores(self):
        rng = random.Random(59)
        games = [rand_interval_game(rng, rng.randint(2, 3), max_width=1) for _ in range(15)]
        games += [embed_classical(rand_convex_classical(rng, 3)) for _ in range(3)]
        seen = {True: 0, False: 0}
        for w in games:
            got = is_strongly_balanced(w)
            assert got == all(core_nonempty(v) for v in endpoint_selections(w))
            seen[got] += 1
        assert seen[True] and seen[False]

    def test_balanced_games_accept_lifted_witnesses(self):
        # a core point of the worst selection lifts to any selection by
        # handing the slack to one player
        rng = random.Random(60)
        for _ in range(10):
            w = rand_interval_game(rng, 2, max_width=1)
            if not is_strongly_balanced(w):
                continue
            for v in endpoint_selections(w):
                assert core_nonempty(v)


# ---------------------------------------------------------------------------
# every point predicate runs one border test; these plain loops over the
# definitions are the slow routes it replaces


def plain_imputation(v: ClassicalGame, x) -> bool:
    full = grand_coalition(v.n)
    if sum(x) != v.values[full]:
        return False
    for i in range(v.n):
        if x[i] < v.values[1 << i]:
            return False
    return True


def plain_core_member(v: ClassicalGame, x) -> bool:
    full = grand_coalition(v.n)
    if sum(x) != v.values[full]:
        return False
    for m in range(1, full):
        if sum(x[i] for i in range(v.n) if m >> i & 1) < v.values[m]:
            return False
    return True


def plain_interval_total(payoff, m: int) -> Interval:
    total = Interval(0)
    for i, p in enumerate(payoff):
        if m >> i & 1:
            total = total + p
    return total


def plain_interval_imputation(w: IntervalGame, payoff) -> bool:
    full = grand_coalition(w.n)
    if plain_interval_total(payoff, full) != w.values[full]:
        return False
    return all(weakly_better(payoff[i], w.values[1 << i]) for i in range(w.n))


def plain_interval_core_member(w: IntervalGame, payoff) -> bool:
    full = grand_coalition(w.n)
    if plain_interval_total(payoff, full) != w.values[full]:
        return False
    return all(weakly_better(plain_interval_total(payoff, m), w.values[m]) for m in range(1, full))


def game_around(rng: random.Random, lows, highs) -> IntervalGame:
    """A game whose worths sit at or near the coalition totals of the
    endpoint vectors lows and highs, so that both verdicts come up often.
    Half of the grand worths are exactly the totals; the rest are moved
    and most of them are nondegenerate."""
    n = len(lows)
    full = grand_coalition(n)

    def worth(m: int) -> Interval:
        lo = sum(lows[i] for i in range(n) if m >> i & 1)
        hi = sum(highs[i] for i in range(n) if m >> i & 1)
        if m == full:
            if rng.random() < 0.5:
                return Interval(lo, hi)
            return Interval(lo - rng.choice((0, 1)), hi + rng.choice((0, 1, 1)))
        lo -= rng.choice((-1, 0, 1, 1, 2))
        hi -= rng.choice((-1, 0, 1, 1, 2))
        return Interval(lo, max(lo, hi))

    return IntervalGame.from_function(n, worth)


class TestBorderKernelCrossChecks:
    def test_strong_predicates_match_every_endpoint_selection(self):
        rng = random.Random(61)
        seen = {(name, verdict): 0 for name in ("imputation", "core") for verdict in (True, False)}
        for _ in range(300):
            n = rng.randint(1, 3)
            x = rand_payoff(rng, n)
            # both borders near the totals of x: half of the grand worths
            # are exactly [x(N), x(N)]
            w = game_around(rng, x, x)
            selections = list(endpoint_selections(w))
            got = is_strong_imputation(w, x)
            assert got == all(plain_imputation(v, x) for v in selections)
            seen["imputation", got] += 1
            got = is_strong_core_member(w, x)
            assert got == all(plain_core_member(v, x) for v in selections)
            seen["core", got] += 1
        assert min(seen.values()) >= 10, seen

    def test_interval_predicates_match_the_definitions(self):
        rng = random.Random(62)
        seen = {(name, verdict): 0 for name in ("imputation", "core") for verdict in (True, False)}
        for _ in range(300):
            n = rng.randint(1, 3)
            lows = rand_payoff(rng, n)
            highs = tuple(a + rng.choice((F(1, 2), F(1), F(2))) for a in lows)
            payoff = tuple(Interval(a, b) for a, b in zip(lows, highs))
            w = game_around(rng, lows, highs)
            got = is_interval_imputation(w, payoff)
            assert got == plain_interval_imputation(w, payoff)
            seen["imputation", got] += 1
            got = is_interval_core_member(w, payoff)
            assert got == plain_interval_core_member(w, payoff)
            seen["core", got] += 1
        assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# every coalition system is the row form of the border test


class TestRowFormMatchesPointForm:
    def test_satisfies_agrees_with_the_predicates(self):
        rng = random.Random(63)
        pairs = ("core", "selection core", "strong core")
        seen = {(name, verdict): 0 for name in pairs for verdict in (True, False)}
        for _ in range(60):
            n = rng.randint(1, 4)
            x = rand_payoff(rng, n)
            # half of the grand worths are exactly [x(N), x(N)]
            w = game_around(rng, x, x)
            lower, _ = border_games(w)
            systems = {
                "core": (core_system(lower), lambda p: is_core_member(lower, p)),
                "selection core": (selection_core_system(w), lambda p: is_selection_core_member(w, p)),
                "strong core": (strong_core_system(w), lambda p: is_strong_core_member(w, p)),
            }
            points = [x, rand_payoff(rng, n)]
            points += enumerate_vertices(systems["selection core"][0])[:2]
            for name, (system, predicate) in systems.items():
                for p in points:
                    got = satisfies(system, p)
                    assert got == predicate(p), (name, w, p)
                    seen[name, got] += 1
        assert min(seen.values()) >= 10, seen

    def test_degenerate_grand_equality_keeps_the_vertices(self):
        # the single equality row for w(N) spans the same polytope as two
        # opposite inequality rows
        rng = random.Random(64)
        for _ in range(12):
            n = rng.randint(2, 4)
            w = rand_interval_game(rng, n, lo=0, hi=4, max_width=2, degenerate_grand=True)
            full = grand_coalition(n)
            grand = tuple([1] * n)
            two_rows = LinearSystem(
                dim=n,
                inequalities=((grand, w.worth(full).lower), (tuple([-1] * n), -w.worth(full).upper))
                + selection_core_system(w).inequalities,
            )
            assert selection_core_system(w).equalities == ((grand, w.worth(full).lower),)
            assert enumerate_vertices(selection_core_system(w)) == enumerate_vertices(two_rows)
