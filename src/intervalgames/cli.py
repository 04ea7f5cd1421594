"""Command-line front-end.

Subcommands:

* ``classify`` - class-membership report for a game file: classical
  properties of both border games and the length game, the weakly-better
  interval classes, and the selection-based classes.
* ``membership`` - decide one solution concept for one payoff vector.
* ``coincidence`` - decide whether the payoffs generated by the interval
  core fill the whole selection core.
* ``strong`` - strong core report, optionally judging a payoff vector.
* ``family`` - emit one of the built-in separating game families.
* ``oracle`` - cross-check the class characterizations and the closed-form
  membership tests against brute-force selection enumeration.

Games are read from a file argument or standard input ("-").  Reports are
plain text by default; ``--format json`` emits the same document as JSON
with every scalar kept as an exact rational string.

Witnesses and counterexamples are printed as the library returns them: the
library has verified each one once already (see ``solutions``), so this
module neither checks nor re-solves any of them.

Exit codes: 0 success / affirmative verdict, 1 negative verdict or oracle
disagreement, 2 input error, 3 enumeration budget exceeded.
"""

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .classes import (  # noqa: F401 - check_classical stays bound here for perfbench's tracer
    ORACLE_MAX_PLAYERS,
    SelectionClass,
    check_classical,
    check_selection_class,
    classify,
    selection_class_oracle,
)
from .errors import BudgetExceededError, GameFormatError
from .games import (
    FAMILY_KINDS,
    ClassicalGame,
    IntervalGame,
    _decimal,
    border_games,
    family,
    format_game,
    grand_coalition,
    is_selection,
    members,
    parse_game,
    to_classical,
)
from .lpcore import enumerate_vertices
from .numerics import format_interval, format_scalar, parse_scalar
from .solutions import (
    GeneratedCoreWitness,
    core_coincidence,
    generated_core_witness,
    is_core_member,
    is_imputation,
    is_selection_core_member,
    is_selection_imputation,
    is_strong_core_member,
    is_strong_imputation,
    is_strongly_balanced,
    selection_core_oracle,
    selection_core_system,
    selection_core_witness,
    selection_imputation_oracle,
    strong_core_witness,
)

MEMBERSHIP_CONCEPTS = (
    "imputation",
    "core",
    "sel-imputation",
    "sel-core",
    "gen",
    "strong-imputation",
    "strong-core",
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_game(path: str) -> IntervalGame:
    return parse_game(_read_text(path))


def _parse_payoff(text: str, n: int) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"payoff vector has {len(parts)} entries, expected {n}")
    return tuple(parse_scalar(p) for p in parts)


def _vec(values) -> list[str]:
    return [format_scalar(v) for v in values]


def _coalition_label(mask: int) -> str:
    return ",".join(str(i) for i in members(mask))


def _game_entries(w: IntervalGame) -> dict[str, str]:
    full = grand_coalition(w.n)
    return {
        _coalition_label(m): format_interval(w.worth(m)) for m in range(1, full + 1)
    }


# ---------------------------------------------------------------------------
# report builders


def classify_report(w: IntervalGame) -> dict:
    games, interval, selection = classify(w)
    return {
        "players": w.n,
        "border_games": {
            name: {p.value: verdict for p, verdict in props.items()} for name, props in games.items()
        },
        "interval_classes": {c.value: verdict for c, verdict in interval.items()},
        "selection_classes": {c.value: verdict for c, verdict in selection.items()},
    }


def _resolve_selection(w: IntervalGame, choice: str) -> tuple[str, ClassicalGame]:
    lower, upper = border_games(w)
    if choice == "lower":
        return "lower", lower
    if choice == "upper":
        return "upper", upper
    v = to_classical(_load_game(choice))
    if not is_selection(v, w):
        raise ValueError(f"game in {choice} is not a selection of the input game")
    return choice, v


def membership_report(w: IntervalGame, concept: str, x, selection: str | None) -> tuple[dict, int]:
    doc: dict = {"concept": concept, "payoff": _vec(x)}
    if concept in ("imputation", "core"):
        if selection is None:
            raise ValueError(
                "classical concepts need --selection (lower, upper, or a selection file)"
            )
        label, v = _resolve_selection(w, selection)
        doc["selection"] = label
        member = is_imputation(v, x) if concept == "imputation" else is_core_member(v, x)
    elif selection is not None:
        raise ValueError(f"--selection applies only to imputation and core, not {concept}")
    elif concept == "sel-imputation":
        member = is_selection_imputation(w, x)
    elif concept == "sel-core":
        witness = selection_core_witness(w, x)
        member = witness is not None
        if member:
            doc["witness_subgame"] = _game_entries(witness)
    elif concept == "gen":
        result = generated_core_witness(w, x)
        member = isinstance(result, GeneratedCoreWitness)
        if member:
            doc["witness"] = {
                "l": _vec(result.l),
                "u": _vec(result.u),
                "interval_payoff": [format_interval(p) for p in result.interval_payoff(x)],
            }
        else:
            doc["subsystems"] = dataclasses.asdict(result)
    elif concept == "strong-imputation":
        member = is_strong_imputation(w, x)
    elif concept == "strong-core":
        member = is_strong_core_member(w, x)
    else:
        raise ValueError(f"unknown concept: {concept}")
    doc["member"] = member
    return doc, 0 if member else 1


def coincidence_report(w: IntervalGame, budget: int) -> tuple[dict, int]:
    verdict = core_coincidence(w, budget=budget)
    doc: dict = {"players": w.n, "coincident": verdict.coincident}
    if verdict.coincident:
        return doc, 0
    doc["counterexample"] = _vec(verdict.counterexample)
    doc["counterexample_in_selection_core"] = True
    doc["infeasible_subsystems"] = dataclasses.asdict(verdict.miss)
    return doc, 1


def strong_report(w: IntervalGame, payoff: tuple[Fraction, ...] | None) -> tuple[dict, int]:
    grand = w.worth(grand_coalition(w.n))
    witness = strong_core_witness(w)
    doc: dict = {
        "grand_coalition": format_interval(grand),
        "grand_degenerate": grand.degenerate,
        "strong_core_nonempty": witness is not None,
    }
    if witness is not None:
        doc["witness"] = _vec(witness)
    doc["strongly_balanced"] = (witness is not None) if grand.degenerate else is_strongly_balanced(w)
    if payoff is None:
        return doc, 0 if witness is not None else 1
    doc["payoff"] = _vec(payoff)
    doc["strong_imputation"] = is_strong_imputation(w, payoff)
    doc["strong_core_member"] = is_strong_core_member(w, payoff)
    return doc, 0 if doc["strong_core_member"] else 1


def _oracle_points(w: IntervalGame) -> list[tuple[Fraction, ...]]:
    """Deterministic probe points: SC vertices, their centroid, nudged copies,
    and the all-lower / all-upper singleton vectors."""
    points: list[tuple[Fraction, ...]] = []
    vertices = enumerate_vertices(selection_core_system(w))
    points.extend(vertices)
    if vertices:
        k = len(vertices)
        centroid = tuple(sum(vs) / k for vs in zip(*vertices))
        points.append(centroid)
        first = vertices[0]
        for delta in (Fraction(1), Fraction(-1)):
            points.append((first[0] + delta,) + first[1:])
    points.append(tuple(w.worth(1 << i).lower for i in range(w.n)))
    points.append(tuple(w.worth(1 << i).upper for i in range(w.n)))
    return list(dict.fromkeys(points))


def oracle_report(w: IntervalGame) -> tuple[dict, int]:
    if w.n > ORACLE_MAX_PLAYERS:
        raise BudgetExceededError(
            f"oracle enumeration supports up to {ORACLE_MAX_PLAYERS} players, got {w.n}"
        )
    classes = []
    for cls in SelectionClass:
        charac = check_selection_class(w, cls)
        brute = selection_class_oracle(w, cls)
        classes.append(
            {
                "class": cls.value,
                "characterization": charac,
                "oracle": brute,
                "agree": charac == brute,
            }
        )
    memberships = []
    for point in _oracle_points(w):
        sc_closed = is_selection_core_member(w, point)
        sc_brute = selection_core_oracle(w, point)
        si_closed = is_selection_imputation(w, point)
        si_brute = selection_imputation_oracle(w, point)
        memberships.append(
            {
                "payoff": _vec(point),
                "sel_core": {"closed_form": sc_closed, "oracle": sc_brute, "agree": sc_closed == sc_brute},
                "sel_imputation": {"closed_form": si_closed, "oracle": si_brute, "agree": si_closed == si_brute},
            }
        )
    agreement = all(row["agree"] for row in classes) and all(
        row["sel_core"]["agree"] and row["sel_imputation"]["agree"] for row in memberships
    )
    doc = {
        "players": w.n,
        "classes": classes,
        "memberships": memberships,
        "agreement": agreement,
    }
    return doc, 0 if agreement else 1


# ---------------------------------------------------------------------------
# rendering


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _text_lines(doc: dict, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_text_lines(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(f"{pad}  -")
                lines.extend(_text_lines(item, indent + 2))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: ({', '.join(str(v) for v in value)})")
        else:
            lines.append(f"{pad}{key}: {_scalar_text(value)}")
    return lines


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(_text_lines(doc)))


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _count(text: str) -> int:
    value = _decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid count {text!r}: expected ASCII decimal digits")
    return value


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalgames",
        description="Exact solver for cooperative interval games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="class membership report")
    p.add_argument("game", help="game file, or - for stdin")
    _add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("membership", help="decide a solution concept for a payoff vector")
    p.add_argument("game")
    p.add_argument("concept", choices=MEMBERSHIP_CONCEPTS)
    p.add_argument("payoff", help="comma-separated rationals, e.g. 2,1/2")
    p.add_argument(
        "--selection",
        help="for classical concepts: lower, upper, or a degenerate game file",
    )
    _add_format(p)
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("coincidence", help="does the generated set fill the selection core?")
    p.add_argument("game")
    p.add_argument("--budget", type=_count, default=6, help="player cap for vertex enumeration")
    _add_format(p)
    p.set_defaults(func=_cmd_coincidence)

    p = sub.add_parser("strong", help="strong core report")
    p.add_argument("game")
    p.add_argument("--payoff", help="also judge this payoff vector")
    _add_format(p)
    p.set_defaults(func=_cmd_strong)

    p = sub.add_parser("family", help="emit a built-in separating family game")
    p.add_argument("kind", choices=FAMILY_KINDS)
    p.add_argument("n", type=_count, help="number of players (>= 2)")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("oracle", help="cross-check characterizations against brute force")
    p.add_argument("game")
    _add_format(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


def _cmd_classify(args) -> int:
    doc = classify_report(_load_game(args.game))
    _emit(doc, args.format)
    return 0


def _cmd_membership(args) -> int:
    w = _load_game(args.game)
    x = _parse_payoff(args.payoff, w.n)
    doc, code = membership_report(w, args.concept, x, args.selection)
    _emit(doc, args.format)
    return code


def _cmd_coincidence(args) -> int:
    doc, code = coincidence_report(_load_game(args.game), args.budget)
    _emit(doc, args.format)
    return code


def _cmd_strong(args) -> int:
    w = _load_game(args.game)
    payoff = _parse_payoff(args.payoff, w.n) if args.payoff is not None else None
    doc, code = strong_report(w, payoff)
    _emit(doc, args.format)
    return code


def _cmd_family(args) -> int:
    sys.stdout.write(format_game(family(args.kind, args.n)))
    return 0


def _cmd_oracle(args) -> int:
    doc, code = oracle_report(_load_game(args.game))
    _emit(doc, args.format)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GameFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
