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
    grand_coalition,
    length_game,
    selection_class_oracle,
    truncate_grand,
)
from intervalgames import classes
from intervalgames.cli import classify_report
from helpers import (
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

LOCAL_AND_ORACLE = {
    ClassicalProperty.MONOTONIC: (classes._monotonic_local, classes._monotonic),
    ClassicalProperty.SUPERADDITIVE: (classes._superadditive_after_convex, classes._superadditive),
    ClassicalProperty.CONVEX: (classes._convex_local, classes._convex_pairs),
}


def _size(m: int) -> int:
    return bin(m).count("1")


def random_borders(rng, n):
    lo = [0] + [rng.randint(-4, 8) for _ in range((1 << n) - 1)]
    return lo, [0] + [a + rng.randint(0, 3) for a in lo[1:]]


def embedded_convex_borders(rng, n):
    v = classes._scaled_values(rand_convex_classical(rng, n))
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


BORDER_MAKERS = (
    random_borders, embedded_convex_borders, convex_with_widths, perturbed_upper, noisy_quadratic,
)


def seeded_border_pairs(seed: int, count: int):
    """(lo, up), (lo, lo) and (up, up) of seeded games with n = 1..6."""
    rng = random.Random(seed)
    for k in range(count):
        n = 1 + k % 6
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
            verdict = classes._superadditive_after_convex(lo, up, n)
            assert verdict == classes._superadditive(lo, up, n)
            seen[verdict] += 1
        assert min(seen.values()) >= 500, seen

    def test_oracle_does_not_run_the_local_kernels(self, monkeypatch):
        # with every local kernel broken, the oracle still answers from the
        # pair and 3^n scans, so the two routes can disagree
        w = family("sel-convex", 3)
        for prop in LOCAL_AND_ORACLE:
            monkeypatch.setitem(classes._KERNELS, prop, lambda lo, up, n: False)
        for cls in SelectionClass:
            assert selection_class_oracle(w, cls)
            assert not check_selection_class(w, cls)


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


class TestOneReport:
    """classify decides every verdict of a report once, with the verdicts
    the single-class checks give."""

    def games(self):
        rng = random.Random(34)
        out = [family(kind, n) for kind in sorted(FAMILY_LABELS) for n in (2, 4, 6)]
        out += [rand_interval_game(rng, 1 + k % 5) for k in range(60)]
        out += [embed_classical(rand_convex_classical(rng, 1 + k % 5)) for k in range(20)]
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

    def test_a_report_rescales_once_and_runs_each_kernel_once(self, monkeypatch):
        calls = {"convex": 0, "monotonic": 0, "scan": 0, "rescale": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        for prop, name in ((ClassicalProperty.CONVEX, "convex"), (ClassicalProperty.MONOTONIC, "monotonic")):
            monkeypatch.setitem(classes._KERNELS, prop, counting(name, classes._KERNELS[prop]))
        monkeypatch.setattr(classes, "_superadditive", counting("scan", classes._superadditive))
        monkeypatch.setattr(classes, "_scaled_borders", counting("rescale", classes._scaled_borders))
        monkeypatch.setattr(classes, "_scaled_values", counting("rescale", classes._scaled_values))
        rng = random.Random(35)
        for _ in range(20):
            w = rand_interval_game(rng, 4)
            lower, upper, length = classes._scaled_games(w)
            classes._verdict.cache_clear()
            for name in calls:
                calls[name] = 0
            classify_report(w)
            # lower, upper and length games, and the selection borders, each
            # once; the 3^n scan only for those that are not convex
            distinct = len({lower, upper, length}) + 1
            convex = [classes._convex_local(*pair, 4) for pair in
                      ((lower, lower), (upper, upper), (length, length), (lower, upper))]
            assert calls["rescale"] == 1
            assert calls["convex"] == calls["monotonic"] == distinct
            assert calls["scan"] <= convex.count(False)
