"""Benchmark of the intervalgames command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 40 --trace 0

Workloads (README.md in this directory says why each was chosen):
``classify``, ``coincidence`` and ``membership``.  Each builds a fixed
corpus from the seed, writes it as game files under ``.perfbench-work/``
and runs it through ``intervalgames.cli.main(argv)`` in this process, one
op at a time: a closed loop with one client, no threads, stdout captured.
Every op starts with the package's lru_caches cleared, as a fresh process
per game would.  Whole passes over the corpus repeat until the next one
would overrun ``--seconds``; each op's time is its median over passes.

Times are reported at a nominal machine speed.  On a host shared with
other virtual machines the CPU's speed drifts by up to 2x over minutes, so
a fixed pure-Python computation (``reference_work``) is timed just before
and just after every op, and the op's time is multiplied by
``REFERENCE_S`` over the median reference time of the ``REFERENCE_WINDOW``
samples nearest to it, which ignores a hiccup in any one sample.  The raw
times are printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
untraced and then traced, and prints the per-layer metrics instead.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``correct`` is false when an op failed its
verdict check.  Exit code 0 when that line was printed, 2 when the package
cannot be found under ``src/``.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import corpus
import spans
import verdicts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
BASELINE = HERE / "baseline.json"

# Set-up repeats in one run; setup_s is their median.
SETUP_REPEATS = 5
# op_tail_ms is the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10
# Nominal time of reference_work(), about its time on an unloaded 2-core
# Xeon virtual machine at 2.0 GHz under CPython 3.11.
REFERENCE_S = 0.003
# Reference samples around an op that set its scale: 3 before, 3 after.
REFERENCE_WINDOW = 3


def reference_work() -> int:
    """Fixed pure-Python work that shares no code with the package: exact
    rational arithmetic and a subset-pair scan, like the package's loops."""
    total = Fraction(0)
    for k in range(1, 300):
        total += Fraction(k % 13 - 6, k % 7 + 1) * Fraction(3, k % 5 + 2)
    vals = [(m * 2654435761) % 1009 for m in range(1 << 9)]
    count = 0
    for s in range(1, 1 << 9):
        vs = vals[s]
        t = (s - 1) & s
        while t:
            if vals[t] > vs:
                count += 1
            t = (t - 1) & s
    return count + total.denominator


def reference_time() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scales(refs: list[float]) -> list[float]:
    """Scale of each interval between consecutive reference samples."""
    w = REFERENCE_WINDOW
    return [REFERENCE_S / statistics.median(refs[max(0, k + 1 - w): k + 1 + w]) for k in range(len(refs) - 1)]


def import_cli():
    """Import the package afresh from this checkout's src/ and return its cli module."""
    for name in [n for n in sys.modules if n == "intervalgames" or n.startswith("intervalgames.")]:
        del sys.modules[name]
    cli = importlib.import_module("intervalgames.cli")
    where = Path(cli.__file__).resolve().parent
    if where != SRC / "intervalgames":
        raise ImportError(f"intervalgames was imported from {where}, not from {SRC}")
    return cli


def package_caches() -> list:
    found = {}
    for module in spans.package_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def run_op(cli, caches, argv: list[str]) -> tuple[float, int | None, str]:
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # counted as a failed op, never fatal to the run
            code = None
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


@dataclass
class Pass:
    raw: list[float]  # seconds per op as measured
    scale: list[float]  # REFERENCE_S over the reference time around each op
    results: list[tuple[int | None, str]]
    cache_hits: int
    tracer: spans.Tracer | None = None

    @property
    def times(self) -> list[float]:
        return [t * s for t, s in zip(self.raw, self.scale)]


class Bench:
    """One workload's set-up state: imported package, corpus and game files."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        refs = [reference_time() for _ in range(REFERENCE_WINDOW)]
        start = time.perf_counter()
        self.cli = import_cli()
        self.ops = corpus.build(workload, seed)
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        self.paths = []
        for k, op in enumerate(self.ops):
            path = workdir / f"op{k:03d}.game"
            path.write_text(op.game.text(), encoding="utf-8")
            self.paths.append(str(path))
        self.caches = package_caches()
        self.classical = sys.modules["intervalgames.classes"].check_classical
        self.bound = spans.bindings()
        warm = min(range(len(self.ops)), key=lambda k: self.ops[k].game.n)
        run_op(self.cli, self.caches, self.ops[warm].argv(self.paths[warm]))  # warm-up op
        self.setup_raw = time.perf_counter() - start
        refs += [reference_time() for _ in range(REFERENCE_WINDOW)]
        self.setup_s = self.setup_raw * scales(refs)[REFERENCE_WINDOW - 1]

    def run_pass(self, tracer: spans.Tracer | None = None) -> list[Pass]:
        """One pass over the corpus, untraced.  With a tracer, each op also
        runs traced right next to its untraced run, first on every other op,
        so that the two are timed at the same machine speed and neither
        always runs second; the traced runs form a second Pass."""
        modes = (None, tracer) if tracer is not None else (None,)
        runs = {mode: ([], [], []) for mode in modes}  # raw times, reference slots, results
        hits = dict.fromkeys(modes, 0)
        refs = [reference_time()]
        for k, (op, path) in enumerate(zip(self.ops, self.paths)):
            for mode in modes if k % 2 == 0 else modes[::-1]:
                if mode is None:
                    spans.check_originals(self.bound)
                    elapsed, code, out = run_op(self.cli, self.caches, op.argv(path))
                else:
                    mode.op = k
                    with mode.installed():
                        elapsed, code, out = run_op(self.cli, self.caches, op.argv(path))
                refs.append(reference_time())
                raw, slots, results = runs[mode]
                raw.append(elapsed)
                slots.append(len(refs) - 2)
                results.append((code, out))
                hits[mode] += self.classical.cache_info().hits
        scale = scales(refs)
        return [
            Pass(raw, [scale[i] for i in slots], results, hits[mode], mode)
            for mode, (raw, slots, results) in runs.items()
        ]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND values above it, and its percentile."""
    ordered = sorted(values)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def known_digest(workload: str, seed: int) -> str | None:
    if not BASELINE.is_file():
        return None
    doc = json.loads(BASELINE.read_text(encoding="utf-8"))
    return doc.get("verdict_digests", {}).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "intervalgames" / "__init__.py").is_file():
        print(f"error: no intervalgames package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, workdir)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # kept while it holds a spans file


def per_op_median(passes: list[Pass], attr: str = "times") -> list[float]:
    return [statistics.median(col) for col in zip(*(getattr(p, attr) for p in passes))]


def measure(args, workdir: Path) -> int:
    setups = []  # (as measured, scaled) seconds
    for _ in range(SETUP_REPEATS):
        bench = Bench(args.workload, args.seed, workdir)
        setups.append((bench.setup_raw, bench.setup_s))
    ops = bench.ops

    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes = bench.run_pass(spans.Tracer(bench.bound) if args.trace else None)
        plain.append(passes[0])
        traced.extend(passes[1:])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > args.seconds:
            break
    spans.check_originals(bench.bound)

    # verdict check, outside the timed region
    first = plain[0].results
    problems = {}
    for k, (op, (code, out)) in enumerate(zip(ops, first)):
        found = verdicts.check(op, code, out)
        if found:
            problems[k] = found
    failed = 0
    for p in plain + traced:
        failed += sum(1 for k, result in enumerate(p.results) if k in problems or result != first[k])
    attempted = len(ops) * (len(plain) + len(traced))
    digest = verdicts.verdict_digest(first)
    expected_digest = known_digest(args.workload, args.seed)
    digest_ok = expected_digest is None or expected_digest == digest
    if expected_digest is None:
        note = "no baseline for this seed"
    else:
        note = "matches baseline" if digest_ok else f"DIFFERS from baseline {expected_digest}"
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops x {len(plain)} untraced"
          f" + {len(traced)} traced passes; corpus digest {corpus.digest(ops)};"
          f" verdict digest {digest} ({note})")
    for k, found in sorted(problems.items()):
        print(f"FAIL op {k} ({ops[k].kind}, n={ops[k].game.n}): {'; '.join(found)}")
    print(f"fail_share {failed / attempted} share ({failed} of {attempted} op runs failed)")

    per_op = per_op_median(plain)
    wall = sum(per_op)
    if args.trace:
        layers = []
        for p in traced:
            layers.append(spans.layer_metrics(p.tracer.spans, p.scale))
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["classes.cache_hits"] = statistics.median(p.cache_hits for p in traced)
        metrics["trace.overhead_share"] = sum(per_op_median(traced)) / wall - 1
        units = {name: _unit(name) for name in metrics}
        WORK.mkdir(exist_ok=True)
        with open(WORK / f"spans-{args.workload}.jsonl", "w", encoding="utf-8") as handle:
            for number, p in enumerate(traced):
                for span in p.tracer.spans:
                    handle.write(json.dumps([number, *span]) + "\n")
    else:
        tail_s, tail_pct = tail(per_op)
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "wall_s": wall,
            "op_p50_ms": 1000 * statistics.median(per_op),
            "op_tail_ms": 1000 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}
        measured = per_op_median(plain, "raw")
        print(f"op_tail_ms is p{tail_pct:.1f}: {TAIL_BEYOND} of {len(per_op)} ops are slower")
        print(f"as measured, before scaling to the nominal speed: setup_s"
              f" {statistics.median(raw for raw, _ in setups)}, wall_s {sum(measured)},"
              f" op_p50_ms {1000 * statistics.median(measured)}, op_tail_ms {1000 * tail(measured)[0]}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_rows"):
        return "rows"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
