import random
from fractions import Fraction

import pytest

from intervalgames import (
    BudgetExceededError,
    ClassicalGame,
    ClassicalProperty,
    IntervalClass,
    IntervalGame,
    SELECTION_CONVEX_VARIANTS,
    SelectionClass,
    border_games,
    check_classical,
    check_interval_class,
    check_selection_class,
    check_selection_convex_variant,
    embed_classical,
    family,
    format_game,
    grand_coalition,
    length_game,
    parse_game,
    selection_class_oracle,
    truncate_grand,
)
from intervalgames import classes, games, numerics
from intervalgames.cli import classify_report
from helpers import (
    additive_worths,
    endpoint_selections,
    majority_game,
    rand_additive_classical,
    rand_classical,
    rand_convex_classical,
    rand_interval_game,
    random_selection,
)

MATCHING = {
    SelectionClass.MONOTONIC: ClassicalProperty.MONOTONIC,
    SelectionClass.SUPERADDITIVE: ClassicalProperty.SUPERADDITIVE,
    SelectionClass.CONVEX: ClassicalProperty.CONVEX,
}


def convex_by_marginals(v: ClassicalGame) -> bool:
    """Independent convexity route: single-player marginal contributions
    never shrink as the base coalition grows."""
    full = grand_coalition(v.n)
    for i in range(v.n):
        bit = 1 << i
        rest = full & ~bit
        t = rest
        while True:
            s = t
            while True:
                if v.values[s | bit] - v.values[s] > v.values[t | bit] - v.values[t]:
                    return False
                if s == 0:
                    break
                s = (s - 1) & t
            if t == 0:
                break
            t = (t - 1) & rest
    return True


def monotonic_by_pairs(v: ClassicalGame) -> bool:
    """Plain scan of every nested pair S within T."""
    size = 1 << v.n
    return all(
        v.values[s] <= v.values[t] for s in range(size) for t in range(size) if s & t == s
    )


def superadditive_by_pairs(v: ClassicalGame) -> bool:
    """Plain scan of every disjoint pair S, T."""
    size = 1 << v.n
    return all(
        v.values[s] + v.values[t] <= v.values[s | t]
        for s in range(size) for t in range(size) if not s & t
    )


def additive_by_pairs(v: ClassicalGame) -> bool:
    """Plain scan of every disjoint pair S, T."""
    size = 1 << v.n
    return all(
        v.values[s] + v.values[t] == v.values[s | t]
        for s in range(size) for t in range(size) if not s & t
    )


PAIR_ORACLES = {
    ClassicalProperty.MONOTONIC: monotonic_by_pairs,
    ClassicalProperty.SUPERADDITIVE: superadditive_by_pairs,
    ClassicalProperty.ADDITIVE: additive_by_pairs,
    ClassicalProperty.CONVEX: convex_by_marginals,
}


def nested_pairs_only(v: ClassicalGame) -> bool:
    """The supermodular inequality restricted to comparable pairs."""
    full = grand_coalition(v.n)
    for s in range(full + 1):
        t = (s - 1) & s
        while True:
            if v.values[t] + v.values[s] > v.values[t | s] + v.values[t & s]:
                return False
            if t == 0:
                break
            t = (t - 1) & s
    return True


class TestClassicalProperties:
    def test_nonnegative_additive_game(self):
        v = ClassicalGame.from_map(2, {(1,): 1, (2,): 2, (1, 2): 3})
        for prop in ClassicalProperty:
            assert check_classical(v, prop)

    def test_additive_with_negative_part_is_not_monotonic(self):
        v = ClassicalGame.from_map(2, {(1,): -1, (2,): 2, (1, 2): 1})
        assert check_classical(v, ClassicalProperty.ADDITIVE)
        assert check_classical(v, ClassicalProperty.SUPERADDITIVE)
        assert check_classical(v, ClassicalProperty.CONVEX)
        assert not check_classical(v, ClassicalProperty.MONOTONIC)

    def test_majority_game(self):
        v = majority_game()
        assert check_classical(v, ClassicalProperty.MONOTONIC)
        assert check_classical(v, ClassicalProperty.SUPERADDITIVE)
        assert not check_classical(v, ClassicalProperty.ADDITIVE)
        assert not check_classical(v, ClassicalProperty.CONVEX)

    def test_unanimity_game_is_convex(self):
        v = ClassicalGame.from_function(3, lambda m: Fraction(m & 0b011 == 0b011))
        assert check_classical(v, ClassicalProperty.CONVEX)
        assert not check_classical(v, ClassicalProperty.ADDITIVE)

    def test_monotonic_requires_nonnegativity(self):
        v = ClassicalGame.from_map(1, {(1,): -1})
        assert not check_classical(v, ClassicalProperty.MONOTONIC)

    def test_convex_agrees_with_marginal_route(self):
        rng = random.Random(11)
        seen = {True: 0, False: 0}
        for _ in range(60):
            n = rng.randint(1, 4)
            v = rand_convex_classical(rng, n) if rng.random() < 0.4 else rand_classical(rng, n)
            verdict = check_classical(v, ClassicalProperty.CONVEX)
            assert verdict == convex_by_marginals(v)
            seen[verdict] += 1
        assert seen[True] and seen[False]

    def test_every_property_agrees_with_its_plain_scan(self):
        rng = random.Random(14)
        makers = (
            lambda n: rand_classical(rng, n),
            lambda n: rand_additive_classical(rng, n),
            lambda n: rand_additive_classical(rng, n, lo=0),
            lambda n: rand_convex_classical(rng, n),
        )
        seen = {prop: {True: 0, False: 0} for prop in ClassicalProperty}
        for k in range(200):
            v = makers[k % len(makers)](rng.randint(1, 5))
            for prop, oracle in PAIR_ORACLES.items():
                verdict = check_classical(v, prop)
                assert verdict == oracle(v), (prop, v.values)
                seen[prop][verdict] += 1
        assert all(counts[True] and counts[False] for counts in seen.values()), seen

    def test_comparable_pairs_constrain_nothing(self):
        # the supermodular inequality is an identity on nested pairs, so a
        # check restricted to them accepts every game; only incomparable
        # pairs separate convex from non-convex
        rng = random.Random(12)
        for _ in range(30):
            v = rand_classical(rng, rng.randint(2, 4))
            assert nested_pairs_only(v)
        assert not check_classical(majority_game(), ClassicalProperty.CONVEX)

    def test_generators_hit_their_classes(self):
        rng = random.Random(13)
        for _ in range(20):
            assert check_classical(
                rand_convex_classical(rng, rng.randint(2, 4)), ClassicalProperty.CONVEX
            )
            assert check_classical(
                rand_additive_classical(rng, rng.randint(1, 4)), ClassicalProperty.ADDITIVE
            )


class TestIntervalClasses:
    def test_worked_example_classes(self):
        w = IntervalGame.from_map(2, {(1,): (1, 3), (2,): (1, 3), (1, 2): (1, 4)})
        assert check_interval_class(w, IntervalClass.SIZE_MONOTONIC)
        assert not check_interval_class(w, IntervalClass.SUPERADDITIVE)
        assert not check_interval_class(w, IntervalClass.SUPERMODULAR)
        assert not check_interval_class(w, IntervalClass.CONVEX)

    def test_convex_embedding_is_in_all_convex_classes(self):
        rng = random.Random(14)
        w = embed_classical(rand_convex_classical(rng, 3))
        assert check_interval_class(w, IntervalClass.SUPERMODULAR)
        assert check_interval_class(w, IntervalClass.CONVEX)
        assert check_interval_class(w, IntervalClass.SIZE_MONOTONIC)

    def test_embedding_collapse(self):
        pairs = {
            IntervalClass.SUPERADDITIVE: ClassicalProperty.SUPERADDITIVE,
            IntervalClass.SUPERMODULAR: ClassicalProperty.CONVEX,
            IntervalClass.CONVEX: ClassicalProperty.CONVEX,
        }
        rng = random.Random(15)
        for _ in range(25):
            v = rand_classical(rng, rng.randint(1, 3))
            w = embed_classical(v)
            for icls, prop in pairs.items():
                assert check_interval_class(w, icls) == check_classical(v, prop)
            # zero length game is monotonic no matter what v does
            assert check_interval_class(w, IntervalClass.SIZE_MONOTONIC)


class TestSelectionClasses:
    def test_characterization_matches_oracle(self):
        rng = random.Random(16)
        games = [rand_interval_game(rng, rng.randint(2, 3), max_width=2) for _ in range(30)]
        # member-rich side: families and embeddings of well-behaved games
        games += [family(k, 3) for k in ("sel-superadditive", "sel-convex")]
        games += [embed_classical(rand_convex_classical(rng, 3)) for _ in range(3)]
        seen = {True: 0, False: 0}
        for w in games:
            for cls in SelectionClass:
                got = check_selection_class(w, cls)
                assert got == selection_class_oracle(w, cls)
                seen[got] += 1
        assert seen[True] and seen[False]

    def test_members_have_the_property_in_every_sampled_selection(self):
        rng = random.Random(17)
        games = [family(k, 3) for k in ("sel-superadditive", "sel-convex")]
        games += [rand_interval_game(rng, 3) for _ in range(10)]
        for w in games:
            for cls in SelectionClass:
                if not check_selection_class(w, cls):
                    continue
                for _ in range(5):
                    v = random_selection(rng, w)
                    assert check_classical(v, MATCHING[cls])

    def test_non_members_have_a_violating_endpoint_selection(self):
        w = IntervalGame.from_map(2, {(1,): (0, 5), (2,): (0, 5), (1, 2): (4, 6)})
        assert not check_selection_class(w, SelectionClass.SUPERADDITIVE)
        assert any(
            not check_classical(v, ClassicalProperty.SUPERADDITIVE)
            for v in endpoint_selections(w)
        )

    def test_selection_convex_implies_selection_superadditive(self):
        rng = random.Random(18)
        hits = 0
        for _ in range(40):
            w = rand_interval_game(rng, rng.randint(2, 3), max_width=1)
            if check_selection_class(w, SelectionClass.CONVEX):
                hits += 1
                assert check_selection_class(w, SelectionClass.SUPERADDITIVE)
        for n in (2, 3, 4):
            assert check_selection_class(family("sel-convex", n), SelectionClass.SUPERADDITIVE)

    def test_embedding_collapse(self):
        rng = random.Random(19)
        for _ in range(25):
            v = rand_classical(rng, rng.randint(1, 3))
            w = embed_classical(v)
            for cls, prop in MATCHING.items():
                assert check_selection_class(w, cls) == check_classical(v, prop)

    def test_oracle_budget(self):
        w = rand_interval_game(random.Random(20), 5)
        with pytest.raises(BudgetExceededError):
            selection_class_oracle(w, SelectionClass.MONOTONIC)

    def test_unknown_variant_rejected(self):
        w = family("sel-convex", 2)
        with pytest.raises(ValueError):
            check_selection_convex_variant(w, "nope")

    def test_unknown_property_or_class_rejected(self):
        # a plain string is not a member of the enums; every checker says
        # ValueError, none leaks the KeyError of an internal lookup
        w = family("sel-convex", 2)
        v, _ = border_games(w)
        # a game of the other type is a TypeError: a classical check of an
        # interval game would answer the selection question, whose verdict
        # differs from its lower border's here
        u = family("interval-superadditive", 3)
        assert check_classical(border_games(u)[0], ClassicalProperty.SUPERADDITIVE)
        assert not check_selection_class(u, SelectionClass.SUPERADDITIVE)
        with pytest.raises(TypeError, match="expected a ClassicalGame, got IntervalGame"):
            check_classical(u, ClassicalProperty.SUPERADDITIVE)
        # the convexity variants and the oracle too: a classical game would
        # pass as a degenerate interval game, ClassicalGame(2, (0, 1, 1, 3))
        # as selection-convex
        c = ClassicalGame(2, (0, 1, 1, 3))
        interval_checks = (
            (check_interval_class, IntervalClass.CONVEX),
            (check_selection_class, SelectionClass.CONVEX),
            (check_selection_convex_variant, "pairs"),
            (selection_class_oracle, SelectionClass.CONVEX),
        )
        for check, cls in interval_checks:
            for game in (v, c):
                with pytest.raises(TypeError, match="expected an IntervalGame, got ClassicalGame"):
                    check(game, cls)
        with pytest.raises(ValueError, match="unknown classical property"):
            check_classical(v, "convex")
        with pytest.raises(ValueError, match="unknown interval class"):
            check_interval_class(w, "convex-interval")
        with pytest.raises(ValueError, match="unknown selection class"):
            check_selection_class(w, "selection-convex")
        with pytest.raises(ValueError, match="unknown selection class"):
            selection_class_oracle(w, "selection-convex")


class TestConvexityVariants:
    def test_variants_agree_on_random_games(self):
        rng = random.Random(21)
        seen = {True: 0, False: 0}
        for _ in range(60):
            w = rand_interval_game(rng, rng.randint(2, 4), max_width=1)
            verdicts = {
                v: check_selection_convex_variant(w, v) for v in SELECTION_CONVEX_VARIANTS
            }
            assert len(set(verdicts.values())) == 1
            seen[verdicts["pairs"]] += 1
        assert seen[True] and seen[False]

    def test_variants_agree_on_families(self):
        for kind in ("sel-superadditive", "interval-superadditive", "sel-convex"):
            for n in (2, 3, 4):
                w = family(kind, n)
                verdicts = {
                    check_selection_convex_variant(w, v) for v in SELECTION_CONVEX_VARIANTS
                }
                assert len(verdicts) == 1


class TestSeparations:
    """The named families sit strictly on one side of each class pair."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sel_superadditive_family(self, n):
        w = family("sel-superadditive", n)
        assert check_selection_class(w, SelectionClass.SUPERADDITIVE)
        assert not check_interval_class(w, IntervalClass.SUPERADDITIVE)
        # the separating slack is exactly zero on disjoint pairs
        full = grand_coalition(n)
        lo = {m: w.worth(m).lower for m in range(full + 1)}
        up = {m: w.worth(m).upper for m in range(full + 1)}
        for s in range(1, full + 1):
            for t in range(1, full + 1):
                if s & t == 0:
                    assert up[s] + up[t] == lo[s | t]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_interval_superadditive_family(self, n):
        w = family("interval-superadditive", n)
        assert check_interval_class(w, IntervalClass.SUPERADDITIVE)
        assert not check_selection_class(w, SelectionClass.SUPERADDITIVE)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sel_convex_family(self, n):
        w = family("sel-convex", n)
        assert check_selection_class(w, SelectionClass.CONVEX)
        # both borders are convex games...
        assert check_interval_class(w, IntervalClass.SUPERMODULAR)
        # ...but the all-ones length game is not, so the convex interval
        # class (which also constrains the length game) excludes the family
        assert not check_interval_class(w, IntervalClass.CONVEX)
        assert not check_classical(
            ClassicalGame.from_function(n, lambda m: Fraction(1)), ClassicalProperty.CONVEX
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_truncated_sel_convex_family(self, n):
        w = truncate_grand(family("sel-convex", n))
        assert check_selection_class(w, SelectionClass.CONVEX)
        assert not check_interval_class(w, IntervalClass.CONVEX)
        # its upper border game stays convex after the truncation
        assert check_interval_class(w, IntervalClass.SUPERMODULAR)


# ---------------------------------------------------------------------------
# local kernels against the pair and 3^n scans they replaced

def superadditive_verdict(lo, up, n: int) -> bool:
    """The cached route every superadditivity verdict takes: convexity,
    else the superadditivity kernel."""
    lo, up = classes._border(tuple(lo), n), classes._border(tuple(up), n)
    return classes._verdict(lo, up, ClassicalProperty.SUPERADDITIVE)


LOCAL_AND_ORACLE = {
    ClassicalProperty.MONOTONIC: (classes._monotonic_local, classes._monotonic),
    ClassicalProperty.SUPERADDITIVE: (superadditive_verdict, classes._superadditive),
    ClassicalProperty.CONVEX: (classes._convex_local, classes._convex_pairs),
}


def _size(m: int) -> int:
    return bin(m).count("1")


def random_borders(rng, n):
    lo = [0] + [rng.randint(-4, 8) for _ in range((1 << n) - 1)]
    return lo, [0] + [a + rng.randint(0, 3) for a in lo[1:]]


def embedded_convex_borders(rng, n):
    v = rand_convex_classical(rng, n).integer_form.lower
    return v, v


def convex_with_widths(rng, n, curvature=None):
    """lo = shares + c|S|^2 + a nonnegative unanimity mix, so every
    incomparable pair has supermodular surplus at least 2c; widths up to c
    keep every selection convex, and nonnegative shares keep it monotonic."""
    c = curvature or rng.randint(1, 3)
    low_share = rng.choice((-2 * c - 1, 0))
    shares = [rng.randint(low_share, 3) for _ in range(n)]
    bonus = [(rng.randint(1, (1 << n) - 1), rng.randint(0, 4)) for _ in range(rng.randint(0, 3))]
    lo = [0] * (1 << n)
    for m in range(1, 1 << n):
        lo[m] = sum(shares[i] for i in range(n) if m >> i & 1) + c * _size(m) ** 2
        lo[m] += sum(w for t, w in bonus if t & m == t)
    up = [0] + [a + rng.randint(0, c) for a in lo[1:]]
    return lo, up


def perturbed_upper(rng, n):
    """A convex-with-widths game with one upper endpoint pushed up to 3c,
    which may or may not break a local inequality."""
    c = rng.randint(1, 3)
    lo, up = convex_with_widths(rng, n, c)
    m = rng.randint(1, (1 << n) - 1)
    up[m] += rng.randint(1, 3 * c)
    return lo, up


def noisy_quadratic(rng, n):
    """K|S|^2 plus noise up to 4K on coalitions of two or more, widths up to
    K: the noise can beat the 2K supermodular surplus of S+i and S+j, but
    never the 2K|S||T| superadditive surplus of disjoint S and T; the widths
    can."""
    k = rng.randint(1, 3)
    lo = [0] * (1 << n)
    for m in range(1, 1 << n):
        lo[m] = k * _size(m) ** 2 + (rng.randint(0, 4 * k) if _size(m) > 1 else 0)
    return lo, [0] + [a + rng.randint(0, k) for a in lo[1:]]


def noisy_symmetric(rng, n):
    """c|S|^2 plus noise up to d on each lower worth and widths up to w:
    disjoint S and T keep a surplus of at least 2c|S||T| - 2d - 2w, so
    d + w <= c passes and more noise may fail."""
    c = rng.randint(2, 4)
    d = rng.randint(0, c)
    w = rng.randint(0, 2 * c - d)
    lo = [c * _size(m) ** 2 + rng.randint(0, d) if m else 0 for m in range(1 << n)]
    return lo, [0] + [a + rng.randint(0, w) for a in lo[1:]]


BORDER_MAKERS = (
    random_borders, embedded_convex_borders, convex_with_widths, perturbed_upper, noisy_quadratic,
)


def seeded_border_pairs(seed: int, count: int, players: int = 6):
    """(lo, up), (lo, lo) and (up, up) of seeded games with n = 1..players."""
    rng = random.Random(seed)
    for k in range(count):
        n = 1 + k % players
        lo, up = BORDER_MAKERS[k % len(BORDER_MAKERS)](rng, n)
        for pair in ((lo, up), (lo, lo), (up, up)):
            yield n, pair


class TestLocalKernels:
    def test_each_local_kernel_agrees_with_its_oracle(self):
        seen = {prop: {True: 0, False: 0} for prop in LOCAL_AND_ORACLE}
        for n, (lo, up) in seeded_border_pairs(31, 1800):
            for prop, (local, oracle) in LOCAL_AND_ORACLE.items():
                verdict = local(lo, up, n)
                assert verdict == oracle(lo, up, n), (prop, n, lo, up)
                seen[prop][verdict] += 1
        assert all(min(counts.values()) >= 1000 for counts in seen.values()), seen

    def test_local_convexity_agrees_with_the_marginal_forms(self):
        seen = {True: 0, False: 0}
        for n, (lo, up) in seeded_border_pairs(32, 600):
            verdict = classes._convex_local(lo, up, n)
            assert verdict == classes._convex_marginal(lo, up, n, single_only=True)
            assert verdict == classes._convex_marginal(lo, up, n, single_only=False)
            seen[verdict] += 1
        assert min(seen.values()) >= 300, seen

    def test_superadditive_shortcut_agrees_with_the_scan_where_convexity_fails(self):
        seen = {True: 0, False: 0}
        for n, (lo, up) in seeded_border_pairs(33, 1800):
            if classes._convex_local(lo, up, n):
                # the implication the shortcut rests on
                assert classes._superadditive(lo, up, n)
                continue
            verdict = superadditive_verdict(lo, up, n)
            assert verdict == classes._superadditive(lo, up, n)
            seen[verdict] += 1
        assert min(seen.values()) >= 500, seen

    @pytest.fixture
    def fresh_verdicts(self):
        # verdicts of broken kernels must not outlive the test in the cache
        classes._verdict.cache_clear()
        yield
        classes._verdict.cache_clear()

    def test_oracle_does_not_run_the_local_kernels(self, monkeypatch, fresh_verdicts):
        # with every local kernel and the superadditivity kernel behind the
        # convexity shortcut broken, the oracle still answers from the pair
        # and 3^n scans, so the two routes can disagree
        w = family("sel-convex", 3)

        def broken(lo, up, n):
            return False

        for prop in classes._KERNELS:
            monkeypatch.setitem(classes._KERNELS, prop, broken)
        monkeypatch.setattr(classes, "_superadditive_kernel", broken)
        for cls in SelectionClass:
            assert selection_class_oracle(w, cls)
            assert not check_selection_class(w, cls)


def superadditive_scans(lo, up, n: int) -> tuple[bool, list]:
    """The kernel's verdict on (lo, up) and the player counts of the 3^n
    scans it ran: the screen's min(n, ``_SCREEN_PLAYERS``), then n where
    neither the screen nor the size certificate decided."""
    scans = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classes, "_superadditive", recording(scans, "scan", classes._superadditive))
        verdict = classes._superadditive_kernel(tuple(lo), tuple(up), n)
    return verdict, [run[-1] for run in scans]


def tight_borders(n: int) -> tuple[list, list]:
    """The borders [2|S| - 2, 2|S| - 1] of the sel-superadditive family,
    whose disjoint pairs are all tight."""
    lo = [2 * _size(m) - 2 if m else 0 for m in range(1 << n)]
    return lo, [0] + [a + 1 for a in lo[1:]]


class TestSuperadditiveKernel:
    """The screen and the size certificate against the 3^n scan they put off
    on the verdict path."""

    def test_kernel_agrees_with_the_scan(self):
        seen = {True: 0, False: 0}
        rng = random.Random(36)
        pairs = list(seeded_border_pairs(37, 600, players=10))
        pairs += [(n, noisy_symmetric(rng, n)) for n in (1 + k % 10 for k in range(400))]
        for n, (lo, up) in pairs:
            lo, up = tuple(lo), tuple(up)
            verdict = classes._superadditive(lo, up, n)
            assert classes._superadditive_kernel(lo, up, n) == verdict, (n, lo, up)
            seen[verdict] += 1
        assert min(seen.values()) >= 400, seen

    def test_the_size_certificate_is_sound(self):
        # every certified game passes the scan; noisy symmetric games are
        # mostly certified, and some games fail only past the screen, where
        # a loose certificate would pass them
        certified, late_failures = {}, 0
        for maker in (noisy_symmetric, noisy_quadratic, convex_with_widths):
            rng = random.Random(38)
            certified[maker.__name__] = 0
            for k in range(200):
                n = 5 + k % 5
                lo, up = maker(rng, n)
                oracle = classes._superadditive(tuple(lo), tuple(up), n)
                if classes._size_certificate(lo, up, n):
                    assert oracle, (maker, n, lo, up)
                    certified[maker.__name__] += 1
                verdict, scans = superadditive_scans(lo, up, n)
                assert verdict == oracle, (maker, n, lo, up)
                late_failures += not verdict and scans == [classes._SCREEN_PLAYERS, n]
        assert certified["noisy_symmetric"] >= 80, certified
        assert late_failures >= 100, (late_failures, certified)

    def test_the_size_certificate_is_exact_where_worths_follow_the_size(self):
        # there a(k) and b(k) are the worths of size k and every pair of
        # sizes i + j <= n has disjoint coalitions, so the certificate is the
        # scan
        seen = {True: 0, False: 0}
        rng = random.Random(39)
        for k in range(300):
            n = 2 + k % 8
            lows = [0] + [3 * size - 3 + rng.randint(0, 2) for size in range(1, n + 1)]
            ups = [0] + [a + rng.randint(0, 2) for a in lows[1:]]
            lo, up = ([worths[_size(m)] for m in range(1 << n)] for worths in (lows, ups))
            verdict = classes._superadditive(tuple(lo), tuple(up), n)
            assert classes._size_certificate(lo, up, n) == verdict, (n, lows, ups)
            seen[verdict] += 1
        assert min(seen.values()) >= 40, seen

    def test_families_skip_the_full_scan(self, monkeypatch):
        scans = []
        monkeypatch.setattr(classes, "_superadditive", recording(scans, "scan", classes._superadditive))
        for n in (8, 12):
            for kind in sorted(FAMILY_LABELS):
                classes._verdict.cache_clear()
                classify_report(family(kind, n))
            assert scans and all(run[-1] < n for run in scans), [run[-1] for run in scans]
            scans.clear()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_the_screen_decides_a_game_failing_among_the_first_players(self, n):
        lo, up = tight_borders(n)
        up[0b1] += 1  # up({1}) + up({2}) now exceeds lo({1,2})
        assert superadditive_scans(lo, up, n) == (False, [min(n, classes._SCREEN_PLAYERS)])

    @pytest.mark.parametrize("n", range(1, 5))
    def test_up_to_the_screen_the_scan_is_the_verdict(self, n):
        # adding 1 to player 1's worths keeps every disjoint pair tight but
        # defeats the size certificate from 2 players on
        lo, up = ([a + (m & 1) for m, a in enumerate(border)] for border in tight_borders(n))
        assert superadditive_scans(lo, up, n) == (True, [n])


# the lane widths the packer chooses among: the array codes' and the first
# multiple of 64 past them
WIDTHS = (16, 32, 64, 128)
NEXT_WIDTH = dict(zip(WIDTHS, WIDTHS[1:] + (192,)))


def packed_verdicts(lo, up, n: int, width: int) -> dict:
    """The packed kernels on (lo, up) at any n, both borders packed at
    ``width``, which must hold their worths."""
    (low, low_width), (high, high_width) = (classes._pack(tuple(v), n, width) for v in (lo, up))
    assert low_width == high_width == width, (low_width, high_width, width)
    return {
        ClassicalProperty.MONOTONIC: classes._monotonic_lanes(low, high, n, width),
        ClassicalProperty.CONVEX: classes._convex_lanes(low, high, n, width),
    }


def kernel_verdicts(lo, up, n: int) -> dict:
    """What every verdict runs: ``_KERNELS`` on the two borders."""
    lo, up = classes._Border(tuple(lo), n), classes._Border(tuple(up), n)
    return {prop: kernel(lo, up, n) for prop, kernel in classes._KERNELS.items()}


def pair_width(lo, up, n: int) -> int:
    """The width a pair kernel packs (lo, up) at."""
    return max(classes._Border(tuple(lo), n).width, classes._Border(tuple(up), n).width)


LOOPS_AND_ORACLES = {prop: LOCAL_AND_ORACLE[prop] for prop in classes._KERNELS}


def shifted(lo, up, by: int):
    return [a + by for a in lo], [b + by for b in up]


def scaled_to_the_bound(lo, up, bound: int):
    """A positive affine image of (lo, up), which keeps every verdict, whose
    least worth is -bound and whose greatest is below bound."""
    least, most = min(lo), max(up)
    k = (2 * bound - 1) // max(most - least, 1)
    assert k >= 1, (bound, least, most)
    return shifted([k * a for a in lo], [k * b for b in up], -bound - k * least)


def recording(runs: list, name: str, kernel):
    def wrapped(*args):
        runs.append((name, *args))
        return kernel(*args)

    return wrapped


class TestPackedKernels:
    """The packed kernels against the loops and the pair and 3^n oracles, on
    both sides of the player threshold, at every lane width and at each
    width's bound."""

    def test_packed_kernels_agree_with_the_loops_and_the_oracles(self):
        seen = {(prop, big): {True: 0, False: 0}
                for prop in LOOPS_AND_ORACLES for big in (False, True)}
        for n, (lo, up) in seeded_border_pairs(36, 400, players=10):
            expected = kernel_verdicts(lo, up, n)
            for width in WIDTHS:
                assert packed_verdicts(lo, up, n, width) == expected, (width, n, lo, up)
            for prop, (loop, oracle) in LOOPS_AND_ORACLES.items():
                verdict = loop(lo, up, n)
                assert expected[prop] == verdict == oracle(lo, up, n), (prop, n, lo, up)
                seen[prop, n >= classes._PACKED_MIN_PLAYERS][verdict] += 1
        assert all(min(counts.values()) >= 40 for counts in seen.values()), seen

    def test_worths_at_the_lane_bound(self):
        # scaled to either end of a width's bound the worths pack at that
        # width and the packed kernels agree with the loops; one step past
        # either end they pack at the next width and still agree
        seen = {True: 0, False: 0}
        for n, (lo, up) in seeded_border_pairs(37, 200, players=10):
            expected = {prop: loop(lo, up, n) for prop, (loop, _) in LOOPS_AND_ORACLES.items()}
            for width in WIDTHS:
                bound = 1 << (width - 3)
                low = scaled_to_the_bound(lo, up, bound)
                high = shifted(*low, bound - 1 - max(low[1]))
                assert min(low[0]) == -bound and max(high[1]) == bound - 1
                past = shifted(*low, -1), shifted(*high, 1)
                for at, pairs in ((width, (low, high)), (NEXT_WIDTH[width], past)):
                    for pair in pairs:
                        assert pair_width(*pair, n) == at, (width, n, lo, up)
                        verdicts = packed_verdicts(*pair, n, at)
                        assert verdicts == kernel_verdicts(*pair, n) == expected, (width, n, lo, up)
            seen[expected[ClassicalProperty.CONVEX]] += 1
        assert min(seen.values()) >= 50, seen

    def test_the_lane_bound_is_tight(self):
        # a worth packs at the narrowest width whose bound holds it, past
        # either end of the bound and past the array code's range at the
        # next, and every lane holds its worth plus 2^(W-3)
        for n in (1, 3, classes._PACKED_MIN_PLAYERS):
            for width in WIDTHS:
                bound, top = 1 << (width - 3), 1 << (width - 1)
                for worth, at in ((bound - 1, width), (-bound, width), (bound, NEXT_WIDTH[width]),
                                  (-bound - 1, NEXT_WIDTH[width]), (top, NEXT_WIDTH[width]),
                                  (-top - 1, NEXT_WIDTH[width])):
                    worths = [0] * (1 << n)
                    worths[-1] = worth
                    lanes = sum((v + (1 << (at - 3))) << (at * s) for s, v in enumerate(worths))
                    assert classes._pack(tuple(worths), n) == (lanes, at), (n, worth)

    def test_the_player_count_and_the_worths_choose_the_kernel(self, monkeypatch):
        runs = []
        for name in ("_convex_local", "_convex_lanes"):
            monkeypatch.setattr(classes, name, recording(runs, name, getattr(classes, name)))
        rng = random.Random(38)
        threshold = classes._PACKED_MIN_PLAYERS
        for n, packed in ((threshold - 1, False), (threshold, True), (threshold + 2, True)):
            lo, up = convex_with_widths(rng, n)
            for width, passes in ((16, True), (128, False)):
                if width == 128:
                    # too high for lo(S+1+n) + lo(S) at S empty, which the
                    # screen does not reach, and wider than 64 bits: the
                    # lanes decide it all the same
                    up[1 << (n - 1)] = 1 << 61
                left, right = classes._Border(tuple(lo), n), classes._Border(tuple(up), n)
                runs.clear()
                assert classes._convex_kernel(left, right, n) == passes
                # from the threshold on, the loop screens the first players'
                # coalitions before the lanes decide
                if packed:
                    assert [run[0] for run in runs] == ["_convex_local", "_convex_lanes"]
                    assert runs[0][3] == classes._SCREEN_PLAYERS
                    assert runs[1][3:] == (n, width)
                else:
                    assert [(run[0], run[3]) for run in runs] == [("_convex_local", n)]

    def test_borders_of_different_widths_pack_at_the_wider(self, monkeypatch):
        # one border's grand worth raised past the narrower bounds: the
        # other, 16 bits wide, is packed at the raised one's width too
        runs = []
        for name in ("_monotonic_lanes", "_convex_lanes"):
            monkeypatch.setattr(classes, name, recording(runs, name, getattr(classes, name)))
        seen = {True: 0, False: 0}
        pairs = [(n, pair) for n, pair in seeded_border_pairs(40, 150, players=10)
                 if n >= classes._PACKED_MIN_PLAYERS]
        for k, (n, (lo, up)) in enumerate(pairs):
            width = WIDTHS[1 + k % 3]
            for narrow_lo in (True, False):
                raised = list(up if narrow_lo else lo)
                raised[-1] = 1 << (width - 4)
                low, high = (lo, raised) if narrow_lo else (raised, up)
                left, right = classes._Border(tuple(low), n), classes._Border(tuple(high), n)
                assert (left.width, right.width) == ((16, width) if narrow_lo else (width, 16))
                runs.clear()
                expected = {prop: loop(low, high, n) for prop, (loop, _) in LOOPS_AND_ORACLES.items()}
                assert {prop: kernel(left, right, n) for prop, kernel in classes._KERNELS.items()} == expected
                lanes = classes._pack(tuple(low), n, width)[0], classes._pack(tuple(high), n, width)[0]
                assert all(run[1:] == (*lanes, n, width) for run in runs), (n, width)
                seen[expected[ClassicalProperty.CONVEX]] += bool(runs)
        assert min(seen.values()) >= 100, seen

    def test_a_passing_selection_property_implies_the_border_property(self):
        seen = dict.fromkeys(LOCAL_AND_ORACLE, 0)
        for n, (lo, up) in seeded_border_pairs(39, 1800, players=8):
            if lo is up:
                continue
            for prop, (local, oracle) in LOCAL_AND_ORACLE.items():
                if local(lo, up, n):
                    # the implication classify rests on, checked by the oracles
                    assert oracle(lo, lo, n) and oracle(up, up, n), (prop, n, lo, up)
                    seen[prop] += 1
        assert min(seen.values()) >= 150, seen


def _labels(lower, upper, length, interval, selection) -> dict:
    names = [p.value for p in ClassicalProperty]
    return {
        "border_games": {
            "lower": dict(zip(names, lower)),
            "upper": dict(zip(names, upper)),
            "length": dict(zip(names, length)),
        },
        "interval_classes": dict(zip((c.value for c in IntervalClass), interval)),
        "selection_classes": dict(zip((c.value for c in SelectionClass), selection)),
    }


# Hand labels of the built-in families for n >= 3, the same as the
# benchmark corpus's; sel-convex is not convex-interval (README, "Known
# failing check").
FAMILY_LABELS = {
    "sel-superadditive": _labels(
        (True, True, False, True), (True, True, False, True), (True, False, False, False),
        (True, False, True, False), (True, True, False),
    ),
    "interval-superadditive": _labels(
        (True, True, True, True), (True, True, True, True), (True, True, True, True),
        (True, True, True, True), (False, False, False),
    ),
    "sel-convex": _labels(
        (True, True, False, True), (True, True, False, True), (True, False, False, False),
        (True, False, True, False), (True, True, True),
    ),
}


@pytest.mark.parametrize("kind", sorted(FAMILY_LABELS))
def test_classify_families_at_twelve_players(kind):
    report = classify_report(family(kind, 12))
    assert report.pop("players") == 12
    assert report == FAMILY_LABELS[kind]


@pytest.mark.parametrize("kind", sorted(FAMILY_LABELS))
def test_scaled_families_classify_as_the_family(kind, monkeypatch):
    # scaled by 2^20 the worths need 32- or 64-bit lanes, by 2^70 128-bit
    # ones; a positive scale keeps every verdict.  interval-superadditive
    # packs nothing: its selection pair fails before the lanes and its
    # three borders are additive
    widths = []
    pack = classes._pack

    def recording(worths, n, least=16):
        lanes, width = pack(worths, n, least)
        widths.append(width)
        return lanes, width

    monkeypatch.setattr(classes, "_pack", recording)
    for n in (8, 16):
        w = family(kind, n)
        table = classify_report(w)
        lower, upper, _ = w.integer_form
        for factor, lanes in ((1 << 20, (32, 64)), (1 << 70, (128,))):
            # interned borders keep their lanes, so pack afresh
            classes._border.cache_clear()
            widths.clear()
            scaled = IntervalGame(n, [(factor * a, factor * b) for a, b in zip(lower, upper)])
            assert classify_report(scaled) == table, (n, factor)
            if kind == "interval-superadditive":
                assert widths == [], (n, factor, widths)
            else:
                assert max(widths) in lanes, (n, factor, widths)


class TestOneReport:
    """classify decides every verdict of a report once, with the verdicts
    the single-class checks give."""

    def games(self):
        rng = random.Random(34)
        out = [family(kind, n) for kind in sorted(FAMILY_LABELS) for n in (2, 4, 6)]
        out += [rand_interval_game(rng, 1 + k % 5) for k in range(60)]
        out += [embed_classical(rand_convex_classical(rng, 1 + k % 5)) for k in range(20)]
        # from the packed kernels' threshold on: every family, selection
        # classes passing and failing, lo = up, and borders equal to the
        # length game (interval-superadditive's lower border is 0)
        big = range(classes._PACKED_MIN_PLAYERS, classes._PACKED_MIN_PLAYERS + 3)
        out += [family(kind, n) for kind in sorted(FAMILY_LABELS) for n in big]
        for n in big:
            out += [rand_interval_game(rng, n), embed_classical(rand_convex_classical(rng, n))]
            for maker in (convex_with_widths, perturbed_upper, noisy_quadratic):
                lo, up = maker(rng, n)
                out.append(IntervalGame(n, list(zip(lo, up))))
        return out

    def test_classify_matches_the_single_checks(self):
        for w in self.games():
            lower, upper = border_games(w)
            length = length_game(w)
            games, interval, selection = classes.classify(w)
            assert games == {
                name: {p: check_classical(v, p) for p in ClassicalProperty}
                for name, v in (("lower", lower), ("upper", upper), ("length", length))
            }
            assert interval == {c: check_interval_class(w, c) for c in IntervalClass}
            assert selection == {c: check_selection_class(w, c) for c in SelectionClass}

    def test_the_checks_reuse_the_verdicts_of_classify(self, monkeypatch):
        # one cache serves classify and the single checks: after classify a
        # check runs a kernel only on a border whose verdict classify read
        # off its passing selection pair, so a game failing every selection
        # class runs none.  interval-superadditive is one, and its upper and
        # length games, with equal worths, are decided once
        runs = []
        for prop, name in ((ClassicalProperty.CONVEX, "convex"), (ClassicalProperty.MONOTONIC, "monotonic")):
            monkeypatch.setitem(classes._KERNELS, prop, recording(runs, name, classes._KERNELS[prop]))
        for name in ("_superadditive_kernel", "_additive"):
            monkeypatch.setattr(classes, name, recording(runs, name, getattr(classes, name)))
        implies = {"convex": SelectionClass.CONVEX, "monotonic": SelectionClass.MONOTONIC}
        implies["_superadditive_kernel"] = SelectionClass.SUPERADDITIVE

        def games_of(run):
            # the kernels take borders, the scan and additivity worths
            return {getattr(game, "worths", game) for game in run[1:-1]}

        failing = 0
        for w in [family("interval-superadditive", n) for n in (4, classes._PACKED_MIN_PLAYERS)] + self.games():
            classes._verdict.cache_clear()
            runs.clear()
            _, _, selection = classes.classify(w)
            decided = [(run[0], *sorted(games_of(run))) for run in runs]
            assert len(set(decided)) == len(decided)
            runs.clear()
            hits = check_classical.cache_info().hits
            for v in (*border_games(w), length_game(w)):
                for prop in ClassicalProperty:
                    check_classical(v, prop)
            for check, kinds in ((check_interval_class, IntervalClass), (check_selection_class, SelectionClass)):
                for cls in kinds:
                    check(w, cls)
            assert check_classical.cache_info().hits > hits
            lower, upper, _ = w.integer_form
            for run in runs:
                games = games_of(run)
                assert run[0] in implies and selection[implies[run[0]]], (run[0], w)
                assert len(games) == 1 and games <= {lower, upper}, (run[0], w)
            failing += not any(selection.values())
        assert failing >= 20, failing

    def test_a_parsed_report_rescales_nothing_and_runs_each_kernel_once(self, monkeypatch):
        calls = {"convex": 0, "monotonic": 0, "scan": 0, "additive": 0, "integers": 0, "interval": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        for prop, name in ((ClassicalProperty.CONVEX, "convex"), (ClassicalProperty.MONOTONIC, "monotonic")):
            monkeypatch.setitem(classes._KERNELS, prop, counting(name, classes._KERNELS[prop]))
        scan = classes._superadditive_kernel
        monkeypatch.setattr(classes, "_superadditive_kernel", counting("scan", scan))
        monkeypatch.setattr(classes, "_additive_kernel", counting("additive", classes._additive_kernel))
        for module in (games, numerics):
            monkeypatch.setattr(module, "integers", counting("integers", numerics.integers))
        monkeypatch.setattr(numerics.Interval, "__init__", counting("interval", numerics.Interval.__init__))
        rng = random.Random(35)
        made = [rand_interval_game(rng, 4) for _ in range(20)]
        made += [family(kind, n) for kind in sorted(FAMILY_LABELS) for n in (4, classes._PACKED_MIN_PLAYERS)]
        made += [embed_classical(rand_convex_classical(rng, n)) for n in (4, classes._PACKED_MIN_PLAYERS)]
        for n in (4, classes._PACKED_MIN_PLAYERS):
            for maker in (convex_with_widths, perturbed_upper):
                lo, up = maker(rng, n)
                made.append(IntervalGame(n, list(zip(lo, up))))
        # a degenerate additive game: its selection pair is decided by additivity
        made += [embed_classical(rand_additive_classical(rng, n)) for n in (4, classes._PACKED_MIN_PLAYERS)]
        kernels = {"convex": classes._convex_local, "monotonic": classes._monotonic_local}
        for text in map(format_game, made):
            classes._verdict.cache_clear()
            for name in calls:
                calls[name] = 0
            w = parse_game(text)
            classify_report(w)
            # the parser builds the integer form, and the report reads it
            # without building a Fraction worth or rescaling anything
            assert calls["integers"] == calls["interval"] == 0
            assert "values" not in vars(w)
            # the selection pair once; a border only where its selection
            # verdict failed (a degenerate game's borders are its selection
            # pair); the length game once; games with equal worths once;
            # additivity once per distinct game, and nothing else on an
            # additive one, selection pair included
            n = w.n
            lower, upper, _ = w.integer_form
            length = tuple(b - a for a, b in zip(lower, upper))
            selection = {name: kernel(lower, upper, n) for name, kernel in kernels.items()}
            superadditive = selection["convex"] or scan(lower, upper, n)
            expected = {"convex": 1, "monotonic": 1, "scan": int(not selection["convex"])}
            expected["additive"] = len({lower, upper, length})
            if lower == upper and classes._additive(lower, n):
                expected.update(convex=0, monotonic=0, scan=0)
            decided = [lower] if lower == upper else []
            for game in (lower, upper, length):
                if game not in decided:
                    decided.append(game)
                    if classes._additive(game, n):
                        continue
                    for name in kernels:
                        expected[name] += game is length or not selection[name]
                    # the superadditivity kernel where convexity failed and
                    # nothing implies superadditivity
                    implied = game is not length and superadditive
                    expected["scan"] += not implied and not kernels["convex"](game, game, n)
            assert {name: calls[name] for name in expected} == expected


# ---------------------------------------------------------------------------
# additivity first: an additive classical pair is decided without its kernels

def additive_border(rng, n: int, least: int = -3) -> list:
    """Integer additive worths with singletons in least..3."""
    return [int(w) for w in additive_worths([rng.randint(least, 3) for _ in range(n)], n)]


def off_by_one(rng, worths: list, n: int) -> list:
    """worths with one coalition of two or more players, one of them past
    the first ``_SCREEN_PLAYERS``, moved by 1: additive on the first
    players' coalitions, which the screen checks, and not past them."""
    m = rng.choice([m for m in range(1 << classes._SCREEN_PLAYERS, 1 << n) if m & (m - 1)])
    moved = list(worths)
    moved[m] += rng.choice((-1, 1))
    return moved


def additive_first_games(rng, n: int) -> list:
    """(lo, up) of seeded games around the additive ones: additive borders
    with and without negative singletons and with additive widths (all
    three games additive), the zero game, and from 5 players on, borders
    off by 1 past the screen's coalitions."""
    zero = [0] * (1 << n)
    plain, nonnegative = additive_border(rng, n), additive_border(rng, n, least=0)
    widths = additive_border(rng, n, least=0)
    wide = [a + b for a, b in zip(plain, widths)]
    pairs = [(zero, zero), (plain, plain), (nonnegative, nonnegative), (plain, wide), (zero, widths)]
    if n > classes._SCREEN_PLAYERS:
        moved = off_by_one(rng, plain, n)
        pairs += [(moved, moved), (plain, [max(a, b) for a, b in zip(plain, off_by_one(rng, wide, n))])]
        pairs += [(zero, off_by_one(rng, widths, n))]
    return pairs


# the loop kernels, which the packed ones are tested against
LOOP_KERNELS = {
    ClassicalProperty.MONOTONIC: classes._monotonic_local,
    ClassicalProperty.SUPERADDITIVE: classes._superadditive_kernel,
    ClassicalProperty.CONVEX: classes._convex_local,
}


class TestAdditiveFirst:
    """A classical pair asks additivity first; where it holds, the verdicts
    read off it must be the oracles' and the loop kernels'."""

    def test_verdicts_agree_with_the_oracles_and_the_loops(self):
        seen = {"additive, not monotonic": 0, "additive, monotonic": 0, "caught past the screen": 0}
        rng = random.Random(41)
        for n in range(1, 11):
            for _ in range(3 if n < 9 else 1):
                for lo, up in additive_first_games(rng, n):
                    lo, up = tuple(lo), tuple(up)
                    length = tuple(b - a for a, b in zip(lo, up))
                    for worths in {lo, up, length}:
                        additive = classes._additive(worths, n)
                        border = classes._Border(worths, n)
                        assert classes._additive_kernel(worths, n) == additive, (n, worths)
                        assert classes._verdict(border, border, ClassicalProperty.ADDITIVE) == additive
                        for prop, oracle in classes._ORACLE_KERNELS.items():
                            verdict = oracle(worths, worths, n)
                            assert LOOP_KERNELS[prop](worths, worths, n) == verdict, (prop, n, worths)
                            assert classes._verdict(border, border, prop) == verdict, (prop, n, worths)
                        if additive:
                            monotonic = classes._monotonic(worths, worths, n)
                            seen[f"additive, {'' if monotonic else 'not '}monotonic"] += 1
                        screened = classes._additive(worths, min(n, classes._SCREEN_PLAYERS))
                        seen["caught past the screen"] += screened and not additive
                    # the selection pair and classify, through interned borders
                    w = IntervalGame(n, list(zip(lo, up)))
                    classes._verdict.cache_clear()
                    games, _, selection = classes.classify(w)
                    for cls, prop in MATCHING.items():
                        assert selection[cls] == classes._ORACLE_KERNELS[prop](lo, up, n), (cls, n, lo, up)
                    for name, worths in (("lower", lo), ("upper", up), ("length", length)):
                        expected = {prop: oracle(worths, worths, n) for prop, oracle in classes._ORACLE_KERNELS.items()}
                        expected[ClassicalProperty.ADDITIVE] = classes._additive(worths, n)
                        assert games[name] == expected, (name, n, lo, up)
        assert min(seen.values()) >= 40, seen

    @pytest.mark.parametrize("n", (classes._PACKED_MIN_PLAYERS, 12, 16))
    def test_interval_superadditive_packs_nothing(self, n, monkeypatch):
        # its selection pair fails the screens and its three borders are
        # additive, so classify packs no lanes
        packs = []
        monkeypatch.setattr(classes, "_pack", recording(packs, "_pack", classes._pack))
        classes._border.cache_clear()
        classes._verdict.cache_clear()
        report = classify_report(family("interval-superadditive", n))
        assert report.pop("players") == n
        assert report == FAMILY_LABELS["interval-superadditive"]
        assert packs == []
