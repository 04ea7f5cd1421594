"""Per-layer tracing from outside the program.

``Tracer`` wraps each layer's public functions at every module binding
they are called through (``lpcore.feasible`` and ``solutions.feasible``
are both replaced), so calls between layers and within a layer are seen
alike.  Each call records a span ``(name, start, end, parent, op)`` in
memory; ``self_times`` turns the span tree into per-function self time.
The wrappers exist only inside ``with tracer.installed():``; untraced runs
call the original function objects, which ``check_originals`` asserts.
"""

import contextlib
import sys
from collections import defaultdict
from time import perf_counter

# Public functions per layer (module of package ``intervalgames``).
LAYERS = {
    "games": ("parse_game", "border_games", "length_game", "family"),
    "classes": ("check_classical", "check_interval_class", "check_selection_class"),
    "lpcore": ("feasible", "enumerate_vertices", "satisfies"),
    "solutions": (
        "core_system", "selection_core_system", "_lower_system", "_upper_system",
        "generated_core_system", "strong_core_system",
        "generated_core_witness", "generated_core_diagnosis", "core_coincidence",
        "strong_core_witness", "is_strongly_balanced",
    ),
    "cli": ("classify_report", "membership_report", "coincidence_report", "strong_report", "main"),
}

SYSTEM_BUILDERS = (
    "solutions.core_system", "solutions.selection_core_system", "solutions._lower_system",
    "solutions._upper_system", "solutions.generated_core_system", "solutions.strong_core_system",
)
REPORTS = ("cli.classify_report", "cli.membership_report", "cli.coincidence_report", "cli.strong_report")


def _work(name: str, args, result) -> int:
    """Size of a call, where the metrics need one: rows per solved system,
    vertices per enumeration."""
    if name == "lpcore.feasible":
        system = args[0]
        return len(system.equalities) + len(system.inequalities)
    if name == "lpcore.enumerate_vertices":
        return len(result)
    return 0


def package_modules(package: str = "intervalgames") -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == package or name.startswith(package + ".")]


def bindings(package: str = "intervalgames") -> list[tuple[object, str, object, str]]:
    """Every (module, attribute, function, span name) that binds a layer function."""
    targets = {}
    for layer, names in LAYERS.items():
        module = sys.modules[f"{package}.{layer}"]
        for name in names:
            fn = getattr(module, name, None)  # a later refactor may drop one
            if fn is not None:
                targets[id(fn)] = (fn, f"{layer}.{name}")
    found = []
    for module in package_modules(package):
        for attr, value in vars(module).items():
            hit = targets.get(id(value))
            if hit is not None and hit[0] is value:
                found.append((module, attr, value, hit[1]))
    return found


def check_originals(bound) -> None:
    """Raise unless every binding holds its original function object."""
    for module, attr, fn, _ in bound:
        if getattr(module, attr) is not fn:
            raise RuntimeError(f"{module.__name__}.{attr} is still wrapped")


class Tracer:
    def __init__(self, bound):
        self.bound = bound
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, _work(name, args, result))

        return traced

    @contextlib.contextmanager
    def installed(self):
        wrappers = {}
        try:
            for module, attr, fn, name in self.bound:
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, name)
                setattr(module, attr, wrappers[id(fn)])
            yield self
        finally:
            for module, attr, fn, _ in self.bound:
                setattr(module, attr, fn)


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children = defaultdict(list)
    for idx, (_, start, end, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _under(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, scale=None) -> dict[str, float]:
    """Per-layer totals over a list of spans (one traced pass).

    ``scale[op]``, when given, multiplies the self times of that op's spans
    (the benchmark's scaling to a nominal machine speed).
    """
    own = self_times(spans)
    if scale is not None:
        own = [t * scale[span[4]] for t, span in zip(own, spans)]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    for (name, *_rest, size), t in zip(spans, own):
        self_s[name] += t
        calls[name] += 1
        work[name] += size
    checked = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "solutions.generated_core_witness" and _under(spans, i, "solutions.core_coincidence")
    )
    enumerated = sum(
        span[5] for i, span in enumerate(spans)
        if span[0] == "lpcore.enumerate_vertices" and _under(spans, i, "solutions.core_coincidence")
    )
    feasible_calls = calls["lpcore.feasible"]
    return {
        "classes.classical_s": self_s["classes.check_classical"],
        "classes.interval_s": self_s["classes.check_interval_class"],
        "classes.selection_s": self_s["classes.check_selection_class"],
        "classes.calls": sum(calls[f"classes.{n}"] for n in LAYERS["classes"]),
        "lpcore.enumerate_s": self_s["lpcore.enumerate_vertices"],
        "lpcore.enumerate_calls": calls["lpcore.enumerate_vertices"],
        "lpcore.vertices": work["lpcore.enumerate_vertices"],
        "lpcore.feasible_s": self_s["lpcore.feasible"],
        "lpcore.feasible_calls": feasible_calls,
        "lpcore.feasible_rows": work["lpcore.feasible"] / feasible_calls if feasible_calls else 0.0,
        "lpcore.satisfies_s": self_s["lpcore.satisfies"],
        "lpcore.satisfies_calls": calls["lpcore.satisfies"],
        "solutions.gen_witness_s": self_s["solutions.generated_core_witness"],
        "solutions.gen_witness_calls": calls["solutions.generated_core_witness"],
        "solutions.system_build_s": sum(self_s[n] for n in SYSTEM_BUILDERS),
        "solutions.vertices_checked_share": checked / enumerated if enumerated else 0.0,
        "games.parse_s": self_s["games.parse_game"],
        "games.parse_calls": calls["games.parse_game"],
        "games.border_s": self_s["games.border_games"] + self_s["games.length_game"],
        "cli.report_s": sum(self_s[n] for n in REPORTS),
        "cli.render_s": self_s["cli.main"],
    }
