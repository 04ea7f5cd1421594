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

A command line takes one of two routes to its arguments.  A well-formed
one (``_read_argv`` says which are) is read straight from ``_COMMANDS``,
the table of subcommands, their handlers and their ``add_argument`` calls,
without building a parser.  Anything else (help, ``=`` forms, abbreviated
flags, every usage error) goes to the ``argparse`` parser built from the
same table.  argparse stays: it is the only route for help and error
messages, and the reference the tests compare the direct reading against.

Exit codes: 0 success / affirmative verdict, 1 negative verdict or oracle
disagreement, 2 input error, 3 enumeration budget exceeded.
"""

import argparse
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

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
    _worth_texts,
    border_games,
    coalition_labels,
    family,
    format_game,
    is_selection,
    parse_game,
    to_classical,
)
from .lpcore import enumerate_vertices
from .numerics import Interval, format_interval, format_scalar, parse_scalar
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
    # one unbuffered read; the two replacements are text mode's universal newlines
    with open(path, "rb", buffering=0) as handle:
        return handle.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _load_game(path: str) -> IntervalGame:
    return parse_game(_read_text(path))


def _parse_payoff(text: str, n: int) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"payoff vector has {len(parts)} entries, expected {n}")
    return tuple(parse_scalar(p) for p in parts)


def _vec(values) -> list[str]:
    return [format_scalar(v) for v in values]


def _game_entries(w: IntervalGame) -> dict[str, str]:
    # the worths as format_game writes them, read from the integer form
    return dict(zip(coalition_labels(w.n)[1:], _worth_texts(w.integer_form)[1:]))


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
            doc["subsystems"] = {"lower_feasible": result.lower_feasible, "upper_feasible": result.upper_feasible}
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
    miss = verdict.miss
    doc["infeasible_subsystems"] = {"lower_feasible": miss.lower_feasible, "upper_feasible": miss.upper_feasible}
    return doc, 1


def strong_report(w: IntervalGame, payoff: tuple[Fraction, ...] | None) -> tuple[dict, int]:
    lower, upper, scale = w.integer_form
    grand = Interval(Fraction(lower[-1], scale), Fraction(upper[-1], scale))
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


def _json(value, pad: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2)`` for a report: dicts with
    string keys, lists, strings, bools and ints.  CPython's C encoder serves
    no indent, so this writes it without the pure-Python one."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        # encode_basestring_ascii raises TypeError on a key that is not a string
        items = [f"{encode_basestring_ascii(key)}: {_json(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(value, list):
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json(doc))
    else:
        print("\n".join(_text_lines(doc)))


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _count(text: str) -> int:
    value = _decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid count {text!r}: expected ASCII decimal digits")
    return value


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


def _arg(*flags, **options):
    return flags, options


_FORMAT = _arg("--format", choices=("text", "json"), default="text")
_BUDGET_HELP = "player cap for vertex enumeration only; a game whose lower border is convex needs none"

# name -> (help, handler, the add_argument calls of its parser)
_COMMANDS = {
    "classify": ("class membership report", _cmd_classify, (_arg("game", help="game file, or - for stdin"), _FORMAT)),
    "membership": ("decide a solution concept for a payoff vector", _cmd_membership, (
        _arg("game"),
        _arg("concept", choices=MEMBERSHIP_CONCEPTS),
        _arg("payoff", help="comma-separated rationals, e.g. 2,1/2"),
        _arg("--selection", help="for classical concepts: lower, upper, or a degenerate game file"),
        _FORMAT,
    )),
    "coincidence": ("does the generated set fill the selection core?", _cmd_coincidence, (
        _arg("game"), _arg("--budget", type=_count, default=6, help=_BUDGET_HELP), _FORMAT,
    )),
    "strong": ("strong core report", _cmd_strong, (
        _arg("game"), _arg("--payoff", help="also judge this payoff vector"), _FORMAT,
    )),
    "family": ("emit a built-in separating family game", _cmd_family, (
        _arg("kind", choices=FAMILY_KINDS), _arg("n", type=_count, help="number of players (>= 2)"),
    )),
    "oracle": ("cross-check characterizations against brute force", _cmd_oracle, (_arg("game"), _FORMAT)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalgames",
        description="Exact solver for cooperative interval games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for args, kwargs in arguments:
            p.add_argument(*args, **kwargs)
        p.set_defaults(func=handler)
    return parser


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``_build_parser().parse_args(argv)`` returns, read
    straight from ``_COMMANDS`` for a well-formed argv; None for any other.

    Well-formed: a subcommand name first; then exact long flags of that
    subcommand, each followed by a value that does not start with "-", and
    positionals, exactly as many as the subcommand declares; at most one
    "--", with at least one positional after it; and every ``type`` and
    ``choices`` check passing.  Help, "=" forms, abbreviations and every
    error are left to argparse, which words them.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    values = {"command": argv[0], "func": handler}
    positionals, options = [], {}
    for flags, kwargs in arguments:
        dest = flags[0].lstrip("-")
        values[dest] = kwargs.get("default")
        if flags[0].startswith("-"):
            options[flags[0]] = dest, kwargs
        else:
            positionals.append((dest, kwargs))
    head, tail = argv[1:], []
    if "--" in head:
        cut = head.index("--")
        head, tail = head[:cut], head[cut + 1:]
        if not tail or "--" in tail:
            return None
    given, settings, words = [], [], iter(head)
    for word in words:
        if not word.startswith("-"):
            given.append(word)
            continue
        value = next(words, "-")  # a flag with no value left reads as "-", refused below
        if word not in options or value.startswith("-"):
            return None
        settings.append((*options[word], value))
    given += tail
    if len(given) != len(positionals):
        return None
    settings += [(dest, kwargs, word) for (dest, kwargs), word in zip(positionals, given)]
    try:
        for dest, kwargs, word in settings:
            value = kwargs.get("type", str)(word)
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
            values[dest] = value
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
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
