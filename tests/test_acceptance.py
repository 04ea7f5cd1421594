"""Acceptance gate: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All checks are exact rational arithmetic; the only tolerances anywhere are
the wall-clock budgets stated in the criteria themselves.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

from intervalgames import (
    ClassicalProperty,
    GeneratedCoreWitness,
    IntervalClass,
    IntervalGame,
    SELECTION_CONVEX_VARIANTS,
    SelectionClass,
    border_games,
    check_classical,
    check_interval_class,
    check_selection_class,
    check_selection_convex_variant,
    core_coincidence,
    core_nonempty,
    embed_classical,
    enumerate_vertices,
    family,
    generated_core_system,
    generated_core_witness,
    grand_coalition,
    is_core_member,
    is_generated_core_member,
    is_imputation,
    is_selection_core_member,
    is_selection_imputation,
    is_strong_core_member,
    is_strong_imputation,
    satisfies,
    selection_class_oracle,
    selection_core_system,
    strong_core_nonempty,
    strong_core_system,
    truncate_grand,
)
from intervalgames.cli import classify_report
from helpers import (
    rand_additive_border_game,
    rand_classical,
    rand_convex_classical,
    rand_interval_game,
    rand_payoff,
)

F = Fraction
CORPUS_SEED = 20260815


def _report(num: int, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"criterion {num}: {tag}{suffix}")
    return ok


@lru_cache(maxsize=1)
def _corpus():
    rng = random.Random(CORPUS_SEED)
    return tuple(rand_interval_game(rng, 3) for _ in range(200))


def _probe_points(w):
    points = []
    vertices = enumerate_vertices(selection_core_system(w))
    points.extend(vertices[:4])
    if len(vertices) > 1:
        k = len(vertices)
        points.append(tuple(sum(vs) / k for vs in zip(*vertices)))
    points.append(tuple(w.worth(1 << i).lower for i in range(w.n)))
    points.append(tuple(w.worth(1 << i).upper for i in range(w.n)))
    return points


def test_criterion_01_two_player_band_example():
    w = IntervalGame.from_map(2, {(1,): (1, 3), (2,): (1, 3), (1, 2): (1, 4)})
    start = time.perf_counter()
    in_sc = is_selection_core_member(w, (2, 2))
    in_gen = is_generated_core_member(w, (2, 2))
    verdict = core_coincidence(w)
    elapsed = time.perf_counter() - start
    ok = in_sc and not in_gen and not verdict.coincident and elapsed < 1.0
    assert _report(
        1,
        ok,
        f"sel-core {in_sc}, gen {in_gen}, coincident {verdict.coincident}, "
        f"{elapsed:.3f}s",
    )


def test_criterion_02_characterizations_match_oracle():
    start = time.perf_counter()
    mismatches = 0
    for w in _corpus():
        for cls in SelectionClass:
            if check_selection_class(w, cls) != selection_class_oracle(w, cls):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    assert _report(
        2, ok, f"200 games x 3 classes, {mismatches} mismatches, {elapsed:.2f}s"
    )


def test_criterion_03_convexity_variant_equivalence():
    games = list(_corpus())
    for kind in ("sel-superadditive", "interval-superadditive", "sel-convex"):
        for n in (2, 3, 4):
            games.append(family(kind, n))
    disagreements = 0
    for w in games:
        verdicts = {check_selection_convex_variant(w, v) for v in SELECTION_CONVEX_VARIANTS}
        if len(verdicts) != 1:
            disagreements += 1
    ok = disagreements == 0
    assert _report(3, ok, f"{len(games)} games, {disagreements} variant disagreements")


def test_criterion_04_family_separations():
    clauses = {
        "sel-superadditive family selection-superadditive but not interval-superadditive": True,
        "interval-superadditive family interval-superadditive but not selection-superadditive": True,
        "sel-convex family selection-convex and interval-convex": True,
        "truncated sel-convex family selection-convex but not interval-convex": True,
    }
    for n in (2, 3, 4):
        f1 = family("sel-superadditive", n)
        clauses[
            "sel-superadditive family selection-superadditive but not interval-superadditive"
        ] &= check_selection_class(f1, SelectionClass.SUPERADDITIVE) and not check_interval_class(
            f1, IntervalClass.SUPERADDITIVE
        )
        f2 = family("interval-superadditive", n)
        clauses[
            "interval-superadditive family interval-superadditive but not selection-superadditive"
        ] &= check_interval_class(f2, IntervalClass.SUPERADDITIVE) and not check_selection_class(
            f2, SelectionClass.SUPERADDITIVE
        )
        f3 = family("sel-convex", n)
        clauses["sel-convex family selection-convex and interval-convex"] &= check_selection_class(
            f3, SelectionClass.CONVEX
        ) and check_interval_class(f3, IntervalClass.CONVEX)
        t3 = truncate_grand(f3)
        clauses[
            "truncated sel-convex family selection-convex but not interval-convex"
        ] &= check_selection_class(t3, SelectionClass.CONVEX) and not check_interval_class(
            t3, IntervalClass.CONVEX
        )
    failed = [name for name, ok in clauses.items() if not ok]
    detail = "all four clauses hold" if not failed else "failing clause(s): " + "; ".join(failed)
    assert _report(4, not failed, detail)


def test_criterion_05_generated_points_lie_in_selection_core():
    rng = random.Random(501)
    games = [rand_interval_game(rng, rng.randint(1, 4)) for _ in range(50)]
    games += [rand_additive_border_game(rng, rng.randint(2, 4)) for _ in range(50)]
    checked = 0
    escapes = 0
    for w in games:
        for x in _probe_points(w) + [rand_payoff(rng, w.n)]:
            if not is_generated_core_member(w, x):
                continue
            checked += 1
            if not is_selection_core_member(w, x):
                escapes += 1
    ok = len(games) == 100 and checked >= 100 and escapes == 0
    assert _report(
        5, ok, f"{checked} generated points across 100 games, {escapes} escaped"
    )


def test_criterion_06_box_between_two_generated_points():
    rng = random.Random(601)
    games = [rand_additive_border_game(rng, rng.randint(2, 4)) for _ in range(50)]
    bad = 0
    for w in games:
        q = tuple(w.worth(1 << i).lower for i in range(w.n))
        r = tuple(w.worth(1 << i).upper for i in range(w.n))
        wit_q = generated_core_witness(w, q)
        wit_r = generated_core_witness(w, r)
        assert isinstance(wit_q, GeneratedCoreWitness)
        assert isinstance(wit_r, GeneratedCoreWitness)
        for _ in range(10):
            x = tuple(
                qi + F(rng.randint(0, 8), 8) * (ri - qi) for qi, ri in zip(q, r)
            )
            l = tuple(xi - qi + li for xi, qi, li in zip(x, q, wit_q.l))
            u = tuple(ri - xi + ui for ri, xi, ui in zip(r, x, wit_r.u))
            if not satisfies(generated_core_system(w, x), l + u):
                bad += 1
            elif not is_generated_core_member(w, x):
                bad += 1
    ok = bad == 0
    assert _report(6, ok, f"500 box points, {bad} failed the shifted-slack witness")


def test_criterion_07_additive_borders_lower_corner():
    rng = random.Random(701)
    bad = 0
    for _ in range(50):
        w = rand_additive_border_game(rng, rng.randint(2, 4))
        n = w.n
        q = tuple(w.worth(1 << i).lower for i in range(n))
        widths = tuple(w.worth(1 << i).width for i in range(n))
        if not satisfies(generated_core_system(w, q), (F(0),) * n + widths):
            bad += 1
            continue
        vertices = enumerate_vertices(selection_core_system(w))
        floor = tuple(min(vs) for vs in zip(*vertices))
        if floor != q:
            bad += 1
    ok = bad == 0
    assert _report(
        7, ok, f"50 games: zero-sink witness accepted, corner = vertex floor, {bad} bad"
    )


def test_criterion_08_strong_core_routes_agree():
    rng = random.Random(801)
    games = []
    for _ in range(25):
        v = rand_convex_classical(rng, rng.randint(2, 4))
        full = grand_coalition(v.n)
        games.append(
            IntervalGame.from_function(
                v.n,
                lambda m, v=v, full=full: (
                    (v.worth(m), v.worth(m))
                    if m == full
                    else (v.worth(m) - rng.randint(0, 2), v.worth(m))
                ),
            )
        )
    games += [
        rand_interval_game(rng, rng.randint(1, 4), degenerate_grand=True)
        for _ in range(25)
    ]
    games += [rand_interval_game(rng, rng.randint(1, 4)) for _ in range(50)]
    nonempty = 0
    bad = 0
    for w in games:
        grand = w.worth(grand_coalition(w.n))
        upper = border_games(w)[1]
        closed = strong_core_nonempty(w)
        manual = grand.degenerate and core_nonempty(upper)
        vertices = enumerate_vertices(strong_core_system(w))
        if closed != manual or closed != bool(vertices):
            bad += 1
            continue
        nonempty += bool(vertices)
        zeros = (F(0),) * (2 * w.n)
        for x in vertices:
            if not (
                is_strong_core_member(w, x)
                and satisfies(generated_core_system(w, x), zeros)
            ):
                bad += 1
    ok = bad == 0 and len(games) == 100 and nonempty >= 10
    assert _report(
        8,
        ok,
        f"100 games, {nonempty} nonempty strong cores, all three routes agree, {bad} bad",
    )


def test_criterion_09_degenerate_embedding_collapse():
    rng = random.Random(901)
    class_pairs = {
        SelectionClass.MONOTONIC: ClassicalProperty.MONOTONIC,
        SelectionClass.SUPERADDITIVE: ClassicalProperty.SUPERADDITIVE,
        SelectionClass.CONVEX: ClassicalProperty.CONVEX,
    }
    interval_pairs = {
        IntervalClass.SUPERADDITIVE: ClassicalProperty.SUPERADDITIVE,
        IntervalClass.SUPERMODULAR: ClassicalProperty.CONVEX,
        IntervalClass.CONVEX: ClassicalProperty.CONVEX,
    }
    bad = 0
    for _ in range(50):
        v = rand_classical(rng, rng.randint(1, 4))
        w = embed_classical(v)
        agree = check_interval_class(w, IntervalClass.SIZE_MONOTONIC)
        for cls, prop in class_pairs.items():
            agree &= check_selection_class(w, cls) == check_classical(v, prop)
        for icls, prop in interval_pairs.items():
            agree &= check_interval_class(w, icls) == check_classical(v, prop)
        agree &= strong_core_nonempty(w) == core_nonempty(v)
        agree &= core_coincidence(w).coincident
        points = _probe_points(w) + [rand_payoff(rng, v.n)]
        for x in points:
            classical_core = is_core_member(v, x)
            agree &= is_selection_core_member(w, x) == classical_core
            agree &= is_generated_core_member(w, x) == classical_core
            agree &= is_strong_core_member(w, x) == classical_core
            agree &= is_selection_imputation(w, x) == is_imputation(v, x)
            agree &= is_strong_imputation(w, x) == is_imputation(v, x)
        bad += not agree
    ok = bad == 0
    assert _report(9, ok, f"50 embedded games, {bad} with a diverging verdict")


def test_criterion_10_performance_envelope():
    start = time.perf_counter()
    doc = classify_report(family("sel-convex", 10))
    classify_elapsed = time.perf_counter() - start

    w = IntervalGame.from_function(
        4,
        lambda m: (3, 5) if m == 15 else (m.bit_count() - 1, m.bit_count()),
    )
    start = time.perf_counter()
    verdict = core_coincidence(w)
    coincidence_elapsed = time.perf_counter() - start

    ok = (
        classify_elapsed < 5.0
        and coincidence_elapsed < 30.0
        and doc["players"] == 10
        and not verdict.coincident
    )
    assert _report(
        10,
        ok,
        f"classify n=10 in {classify_elapsed:.2f}s, coincidence n=4 in "
        f"{coincidence_elapsed:.2f}s",
    )
