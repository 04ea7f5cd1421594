"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verdicts  # noqa: E402
from intervalgames import cli  # noqa: E402


def _report(op: corpus.Op, tmp_path) -> tuple[int, str]:
    path = tmp_path / "game.txt"
    path.write_text(op.game.text())
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(op.argv(str(path)))
    return code, out.getvalue()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_digest_is_stable_for_a_seed(workload):
    first = corpus.digest(corpus.build(workload, 7))
    assert corpus.digest(corpus.build(workload, 7)) == first
    assert corpus.digest(corpus.build(workload, 8)) != first
    # no dependence on string hashing, which varies between processes
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import corpus; "
            f"print(corpus.digest(corpus.build({workload!r}, 7)))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == first


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_no_corpus_repeats_a_game(workload):
    for seed in range(5):
        ops = corpus.build(workload, seed)
        assert len({(op.game.lo, op.game.up) for op in ops}) == len(ops)


def test_fresh_draws_again_on_a_repeat():
    fresh = corpus._Fresh()
    games = iter([corpus.family_game("sel-convex", 3)] * 2 + [corpus.family_game("sel-superadditive", 3)])
    assert fresh(lambda: next(games)).lo == corpus.family_game("sel-convex", 3).lo
    assert fresh(lambda: next(games)).lo == corpus.family_game("sel-superadditive", 3).lo


def test_construction_labels_agree_with_brute_force():
    rng = random.Random(3)
    for n in (3, 4, 5):
        for kind, labels in corpus.FAMILY_LABELS.items():
            assert verdicts.classify_labels(corpus.family_game(kind, n)) == labels
        for monotone in (True, False):
            for _ in range(10):
                game = corpus.embedded_convex(rng, n, monotone)
                assert verdicts.classify_labels(game) == corpus.embedded_labels(monotone)
                game = corpus.convex_with_widths(rng, n, monotone)
                assert verdicts.classify_labels(game) == corpus.widths_labels(monotone)


def test_brute_force_labels_agree_with_the_package(tmp_path):
    rng = random.Random(4)
    makers = (corpus.random_game, corpus.additive_border, corpus.degenerate_grand_convex)
    for k in range(30):
        game = makers[k % 3](rng, 2 + k % 3)
        code, out = _report(corpus.Op("t", "classify", game), tmp_path)
        assert code == 0
        report = verdicts.flatten(json.loads(out))
        assert report.pop("players") == game.n
        assert report == verdicts.classify_labels(game)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_every_op_of_a_small_corpus_passes_the_check(workload, tmp_path):
    shape = {
        "classify": {9: {"embedded": 1, "widths": 1, "random": 1}, 10: {"embedded": 0, "widths": 0, "random": 0},
                     11: {"embedded": 0, "widths": 0, "random": 0}},
        "coincidence": {3: {"embedded": 2, "additive": 2}, 4: {"embedded": 0, "additive": 1}},
        "membership": {4: {"closed": 8, "gen-corner": 1, "gen-outside": 2, "strong": 1},
                       5: {"closed": 4, "gen-corner": 0, "gen-outside": 0, "strong": 0},
                       6: {"closed": 4, "gen-corner": 0, "gen-outside": 0, "strong": 0}},
    }
    ops = corpus.build(workload, 1, shape)
    if workload == "classify":
        ops = [op for op in ops if op.game.n == 9]
    for op in ops:
        code, out = _report(op, tmp_path)
        assert verdicts.check(op, code, out) == [], op.kind


def _tamper(out: str, edit) -> str:
    doc = json.loads(out)
    edit(doc)
    return json.dumps(doc)


def _first(workload: str, kind: str) -> corpus.Op:
    return next(op for op in corpus.build(workload, 2) if op.kind == kind)


def test_verdict_check_rejects_tampered_witnesses(tmp_path):
    op = _first("membership", "gen-corner")
    code, out = _report(op, tmp_path)
    assert verdicts.check(op, code, out) == []

    def bump_l(doc):
        doc["witness"]["l"][0] = str(Fraction(doc["witness"]["l"][0]) + 1)

    assert verdicts.check(op, code, _tamper(out, bump_l))
    assert verdicts.check(op, 1, out)  # wrong exit code

    op = _first("membership", "strong")
    code, out = _report(op, tmp_path)
    assert verdicts.check(op, code, out) == []

    def drop_payoff(doc):
        doc["witness"][0] = str(Fraction(doc["witness"][0]) - 1)

    assert verdicts.check(op, code, _tamper(out, drop_payoff))

    op = next(o for o in corpus.build("membership", 2)
              if o.kind == "closed-sel-core" and verdicts.expected(o)[0] == 0)
    code, out = _report(op, tmp_path)
    assert verdicts.check(op, code, out) == []

    def widen(doc):
        label = next(iter(doc["witness_subgame"]))
        doc["witness_subgame"][label] = "[-1000, 1000]"

    assert verdicts.check(op, code, _tamper(out, widen))


def test_verdict_check_rejects_a_tampered_counterexample(tmp_path):
    op = _first("coincidence", "criterion-10")
    code, out = _report(op, tmp_path)
    assert verdicts.check(op, code, out) == []

    def move(doc):
        doc["counterexample"] = ["1", "1", "1", "2"]  # in SC, but generated

    assert verdicts.check(op, code, _tamper(out, move))


def test_self_time_on_a_synthetic_span_tree():
    # root 0..10 with children 1..3 and 2..6 (overlap 2..3) and 8..9;
    # the 2..6 child has a grandchild 4..5
    tree = [
        ("root", 0.0, 10.0, -1, 0, 0),
        ("a", 1.0, 3.0, 0, 0, 0),
        ("b", 2.0, 6.0, 0, 0, 0),
        ("c", 4.0, 5.0, 2, 0, 0),
        ("d", 8.0, 9.0, 0, 0, 0),
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 3.0, 1.0, 1.0]


def test_layer_metrics_count_vertices_checked_inside_coincidence():
    tree = [
        ("solutions.core_coincidence", 0.0, 10.0, -1, 0, 0),
        ("lpcore.enumerate_vertices", 0.0, 4.0, 0, 0, 4),
        ("solutions.generated_core_witness", 4.0, 5.0, 0, 0, 0),
        ("solutions.generated_core_witness", 5.0, 6.0, 0, 0, 0),
        ("solutions.generated_core_witness", 11.0, 12.0, -1, 0, 0),  # a re-check outside
        ("lpcore.feasible", 5.0, 5.5, 3, 0, 10),
        ("lpcore.feasible", 5.5, 6.0, 3, 0, 20),
    ]
    metrics = spans.layer_metrics(tree)
    assert metrics["solutions.vertices_checked_share"] == 0.5
    assert metrics["lpcore.vertices"] == 4
    assert metrics["lpcore.feasible_rows"] == 15
    assert metrics["solutions.gen_witness_s"] == 1.0 + 0.0 + 1.0


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    bound = spans.bindings()
    names = {(module.__name__, attr) for module, attr, _, _ in bound}
    assert ("intervalgames.solutions", "feasible") in names
    assert ("intervalgames.lpcore", "feasible") in names
    assert ("intervalgames.cli", "check_classical") in names
    tracer = spans.Tracer(bound)
    op = _first("coincidence", "criterion-10")
    with tracer.installed():
        with pytest.raises(RuntimeError):
            spans.check_originals(bound)
        code, _ = _report(op, tmp_path)
    spans.check_originals(bound)
    assert code == 1
    called = {span[0] for span in tracer.spans}
    assert {"cli.main", "lpcore.enumerate_vertices", "lpcore.feasible"} <= called


def test_tail_has_ten_values_beyond_it():
    values = [float(v) for v in range(25)]
    value, pct = run.tail(values)
    assert sum(1 for v in values if v > value) == run.TAIL_BEYOND
    assert pct == 100 * 15 / 25


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "membership", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
