"""Verdict check for every benchmark op, independent of the timed route.

An op passes when the CLI returned without raising, its exit code is the
expected one, every labelled field of its JSON report holds the expected
value, and every witness or counterexample it returns survives a re-check
written here as plain loops over the game's endpoints.  Expected values
come from the corpus labels (hand-written or implied by construction), or,
for random ``classify`` games and closed-form membership ops, from the
plain-loop scans below, which run outside the timed region.
"""

import hashlib
import json
from fractions import Fraction

from corpus import Game, Op


def flatten(doc: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}/"))
        else:
            out[f"{prefix}{key}"] = value
    return out


def _sums(x, n: int) -> list[Fraction]:
    sums = [Fraction(0)] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        sums[m] = sums[m ^ low] + x[low.bit_length() - 1]
    return sums


# ---------------------------------------------------------------------------
# classify: brute-force scans.  Monotonicity and convexity use their local
# forms (single-player steps; Shapley 1971), which are exactly equivalent
# to the pair conditions the package scans, so they are an independent
# route to the same verdict.


def _monotonic(v, n: int) -> bool:
    return all(v[s] <= v[s | 1 << i] for s in range(1 << n) for i in range(n) if not s >> i & 1)


def _superadditive(a, b, c, n: int) -> bool:
    """a(S) + b(T) <= c(S | T) for all disjoint nonempty S, T."""
    full = (1 << n) - 1
    for s in range(1, full + 1):
        rest = full & ~s
        t = rest
        while t:
            if a[s] + b[t] > c[s | t]:
                return False
            t = (t - 1) & rest
    return True


def _additive(v, n: int) -> bool:
    return all(v[m] == s for m, s in enumerate(_sums([v[1 << i] for i in range(n)], n)))


def _convex(a, b, n: int) -> bool:
    """b(S+i) + b(S+j) <= a(S+i+j) + a(S) for i != j outside S."""
    for s in range(1 << n):
        for i in range(n):
            if s >> i & 1:
                continue
            for j in range(i + 1, n):
                if s >> j & 1:
                    continue
                si, sj = s | 1 << i, s | 1 << j
                if b[si] + b[sj] > a[si | sj] + a[s]:
                    return False
    return True


def _step_up(lo, up, n: int) -> bool:
    """up(S) <= lo(S+i): every selection is monotonic."""
    return all(up[s] <= lo[s | 1 << i] for s in range(1 << n) for i in range(n) if not s >> i & 1)


def classify_labels(game: Game) -> dict:
    n, lo, up = game.n, game.lo, game.up
    length = tuple(b - a for a, b in zip(lo, up))
    props = {}
    for name, v in (("lower", lo), ("upper", up), ("length", length)):
        props[name] = {
            "monotonic": _monotonic(v, n),
            "superadditive": _superadditive(v, v, v, n),
            "additive": _additive(v, n),
            "convex": _convex(v, v, n),
        }
    labels = {f"border_games/{b}/{p}": flag for b, flags in props.items() for p, flag in flags.items()}
    lower, upper, wide = props["lower"], props["upper"], props["length"]
    labels["interval_classes/size-monotonic"] = wide["monotonic"]
    labels["interval_classes/superadditive-interval"] = (
        lower["superadditive"] and upper["superadditive"] and wide["superadditive"]
    )
    labels["interval_classes/supermodular-interval"] = lower["convex"] and upper["convex"]
    labels["interval_classes/convex-interval"] = lower["convex"] and upper["convex"] and wide["convex"]
    labels["selection_classes/selection-monotonic"] = _step_up(lo, up, n)
    labels["selection_classes/selection-superadditive"] = _superadditive(up, up, lo, n)
    labels["selection_classes/selection-convex"] = _convex(lo, up, n)
    return labels


# ---------------------------------------------------------------------------
# membership: closed forms as plain loops


def closed_form_member(concept: str, game: Game, x) -> bool:
    n, lo, up = game.n, game.lo, game.up
    full = (1 << n) - 1
    sums = _sums(x, n)
    if concept == "sel-core":
        return lo[full] <= sums[full] <= up[full] and all(sums[m] >= lo[m] for m in range(1, full))
    if concept == "sel-imputation":
        return lo[full] <= sums[full] <= up[full] and all(x[i] >= lo[1 << i] for i in range(n))
    if concept == "strong-core":
        return lo[full] == up[full] == sums[full] and all(sums[m] >= up[m] for m in range(1, full))
    if concept == "strong-imputation":
        return lo[full] == up[full] == sums[full] and all(x[i] >= up[1 << i] for i in range(n))
    raise ValueError(f"no closed form for {concept!r}")


def _parse_interval(text: str) -> tuple[Fraction, Fraction]:
    a, b = text.strip()[1:-1].split(",")
    return Fraction(a.strip()), Fraction(b.strip())


def _label_mask(label: str) -> int:
    mask = 0
    for p in label.split(","):
        mask |= 1 << (int(p) - 1)
    return mask


def check_subgame_witness(game: Game, x, witness: dict) -> list[str]:
    """A sel-core witness: a sub-game pinned at x(N) whose upper border has x in its core."""
    n, full = game.n, (1 << game.n) - 1
    sums = _sums(x, n)
    entries = {_label_mask(k): _parse_interval(v) for k, v in witness.items()}
    if sorted(entries) != list(range(1, full + 1)):
        return ["witness sub-game does not list every coalition once"]
    for m, (a, b) in entries.items():
        if not game.lo[m] <= a <= b <= game.up[m]:
            return [f"witness worth of coalition {m} leaves the game's interval"]
        if m == full and not a == b == sums[full]:
            return ["witness grand worth is not pinned at x(N)"]
        if m != full and sums[m] < b:
            return [f"x pays coalition {m} less than the witness's upper worth"]
    return []


def check_slack_witness(game: Game, x, witness: dict) -> list[str]:
    """A gen witness: slacks l, u >= 0 with x - l in the lower core and x + u in the upper core."""
    n, full = game.n, (1 << game.n) - 1
    l = [Fraction(v) for v in witness["l"]]
    u = [Fraction(v) for v in witness["u"]]
    if len(l) != n or len(u) != n or min(l + u) < 0:
        return ["slack vectors are malformed or negative"]
    sink = _sums([a - b for a, b in zip(x, l)], n)
    rise = _sums([a + b for a, b in zip(x, u)], n)
    if sink[full] != game.lo[full] or any(sink[m] < game.lo[m] for m in range(1, full)):
        return ["x - l is not in the core of the lower border game"]
    if rise[full] != game.up[full] or any(rise[m] < game.up[m] for m in range(1, full)):
        return ["x + u is not in the core of the upper border game"]
    payoff = [_parse_interval(p) for p in witness["interval_payoff"]]
    if payoff != [(a - b, a + c) for a, b, c in zip(x, l, u)]:
        return ["interval payoff is not [x - l, x + u]"]
    return []


def check_strong_witness(game: Game, point) -> list[str]:
    n, full = game.n, (1 << game.n) - 1
    sums = _sums([Fraction(v) for v in point], n)
    if sums[full] != game.up[full] or any(sums[m] < game.up[m] for m in range(1, full)):
        return ["strong core witness is not in the core of the upper border game"]
    return []


def check_counterexample(game: Game, point) -> list[str]:
    """In the selection core, and provably not generated.

    The certificate: when x(N) = up(N) the rise slack u must be 0, so x is
    generated only if it lies in the upper border's core; a coalition paid
    less than its upper worth rules that out.
    """
    n, full = game.n, (1 << game.n) - 1
    x = [Fraction(v) for v in point]
    if len(x) != n:
        return ["counterexample has the wrong length"]
    sums = _sums(x, n)
    if not game.lo[full] <= sums[full] <= game.up[full] or any(sums[m] < game.lo[m] for m in range(1, full)):
        return ["counterexample is not in the selection core"]
    if sums[full] != game.up[full] or all(sums[m] >= game.up[m] for m in range(1, full)):
        return ["counterexample has no non-generation certificate"]
    return []


# ---------------------------------------------------------------------------


def expected(op: Op) -> tuple[int, dict]:
    """Expected exit code and labels of one op (plain-loop scans included)."""
    labels = dict(op.labels)
    code = op.code
    if op.command == "classify" and not labels:
        labels = classify_labels(op.game)
    if op.command == "membership" and code is None:
        member = closed_form_member(op.args[0], op.game, op.payoff)
        labels["member"] = member
        code = 0 if member else 1
    return code, labels


def check(op: Op, code: int | None, stdout: str) -> list[str]:
    """Problems with one op's result; empty when the verdict is right."""
    if code is None:
        return ["the CLI raised"]
    want_code, labels = expected(op)
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["report is not JSON"]
    flat = flatten(doc)
    for path, value in labels.items():
        if flat.get(path) != value:
            problems.append(f"{path} = {flat.get(path)!r}, expected {value!r}")
    if problems:
        return problems
    if op.command == "membership" and doc.get("member"):
        if op.args[0] == "sel-core":
            problems += check_subgame_witness(op.game, op.payoff, doc["witness_subgame"])
        elif op.args[0] == "gen":
            problems += check_slack_witness(op.game, op.payoff, doc["witness"])
    elif op.command == "coincidence" and not doc["coincident"]:
        problems += check_counterexample(op.game, doc["counterexample"])
    elif op.command == "strong" and doc["strong_core_nonempty"]:
        problems += check_strong_witness(op.game, doc["witness"])
    return problems


def verdict_digest(results) -> str:
    """Hash of every op's exit code and the boolean fields of its report.

    Witness values are left out: they are re-checked instead, and an
    exact engine may return another valid witness.
    """
    h = hashlib.sha256()
    for code, stdout in results:
        try:
            flat = flatten(json.loads(stdout))
        except ValueError:
            flat = {}
        verdict = sorted((k, v) for k, v in flat.items() if isinstance(v, bool))
        h.update(repr((code, verdict)).encode())
    return h.hexdigest()[:16]
