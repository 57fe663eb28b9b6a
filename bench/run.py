"""Known-answer benchmark for arboreal.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all          # every workload, one after another

Run from the repository root; the library is imported from ./src.

The load is a closed loop with one caller: no threads, and each query
starts after the previous one returns.  A pass imports `arboreal`
afresh and builds the workload's inputs for the seed (the set-up, timed
as setup_s), then runs its queries one at a time and checks each
against its known answer.  Every pass of a run builds the same inputs.

--trace 0 runs passes while the next one is expected to end within
--seconds, and at least MIN_PASSES.  On a shared host the speed of a
fixed piece of Python drifts by up to 1.7x within half an hour and
swings within seconds, so a pass also times `reference()`, a fixed piece
of pure-Python work, every REFERENCE_EVERY seconds between queries, and
every time metric is scaled to a host on which reference() takes
REFERENCE_S: a query's time is divided by its slowdown, the median of
the reference times within REFERENCE_WINDOW seconds of it over
REFERENCE_S.  The report prints the raw times beside them.

--trace 1 runs passes untraced, traced, traced, then alternately while
time lasts.  It prints the per-layer metrics of the traced passes and
the tracing overhead, and checks that every traced pass gives identical
counts.  Spans of the first traced pass and a run record go to
bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `attempted` counts the
distinct queries of a pass and `failed` those that failed in any pass,
so both are fixed for a seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7  # per untraced run: its passes, then extra set-ups
MIN_PASSES = 3
REFERENCE_S = 0.001  # nominal seconds of one reference() call
REFERENCE_EVERY = 0.02
REFERENCE_WINDOW = 0.5
REFERENCE_AT_START = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms",
    "query_tail_ms": "ms", "decided_share": "ratio", "failed_share": "ratio", "peak_rss_mb": "MB",
}
# Printed but kept out of the JSON line: failed_share is 0 on a healthy
# workload (the line carries `failed` instead), and the peak memory of a
# run is set by its single largest query.
JSON_END_TO_END = tuple(k for k in END_TO_END_UNITS if k not in ("failed_share", "peak_rss_mb"))


# -- statistics -----------------------------------------------------------------


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(p * n / 100 - 1e-9))


def tail_percentile(n: int) -> float:
    """Highest percentile of TAIL_LADDER with at least ten of n samples
    beyond it (nearest rank); the median when n is too small for any."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= 10:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[_rank(p, len(xs)) - 1]


# -- host speed ---------------------------------------------------------------------


def reference():
    """A fixed piece of pure-Python work (tuple keys, dict updates, a sort:
    the operations of the library's hot paths) that takes about
    REFERENCE_S on a quiet host."""
    d = {}
    for i in range(3000):
        k = (i & 63, i >> 6)
        d[k] = d.get(k, 0) + i
    return sorted(d.values())


def time_reference(samples: list, n: int = 1):
    """Append (start, seconds) of n reference() calls."""
    for _ in range(n):
        t = time.perf_counter()
        reference()
        samples.append((t, time.perf_counter() - t))


def slowdown(samples, start: float, end: float) -> float:
    """Median reference time over REFERENCE_S, of the samples within
    REFERENCE_WINDOW of [start, end], or of all when none is."""
    near = [d for t, d in samples if start - REFERENCE_WINDOW <= t <= end + REFERENCE_WINDOW]
    return statistics.median(near or [d for _, d in samples]) / REFERENCE_S


# -- passes -----------------------------------------------------------------------


def fresh_import():
    """Import arboreal from ./src with no module state left from a
    previous pass."""
    for name in [n for n in sys.modules if n == "arboreal" or n.startswith("arboreal.")]:
        del sys.modules[name]
    A = importlib.import_module("arboreal")
    if Path(A.__file__).resolve().parent != SRC / "arboreal":
        raise ImportError("arboreal was imported from %s, not from %s" % (A.__file__, SRC))
    return A


@dataclass
class Result:
    kind: str
    label: str
    seconds: float
    decided: bool
    problem: str | None
    raised: bool
    scaled: float = 0.0  # seconds divided by the slowdown around the query


@dataclass
class Pass:
    setup: float
    wall: float  # seconds spent in queries
    results: list
    tracer: object = None
    scaled_setup: float = 0.0


def build(workload, seed: int, tracer=None):
    """Set-up of one pass: (queries, seconds).  A tracer wraps the
    library only after the inputs are built."""
    gc.collect()
    t0 = time.perf_counter()
    A = fresh_import()
    queries = workload.build(A, seed)
    setup = time.perf_counter() - t0
    if tracer is not None:
        tracing.instrument(A, tracer)
    return queries, setup


def run_pass(workload, seed: int, tracer=None) -> Pass:
    refs: list = []
    time_reference(refs, REFERENCE_AT_START)
    queries, setup = build(workload, seed, tracer)
    scaled_setup = setup / slowdown(refs, refs[0][0], refs[-1][0])
    results, spans = [], []
    last = time.perf_counter()
    for qid, q in enumerate(queries):
        t = time.perf_counter()
        raised = False
        try:
            if tracer is not None:
                decided, problem = tracer.run_query(qid, q.run)
            else:
                decided, problem = q.run()
        except Exception as exc:  # a raising query is a failure; the run goes on
            decided, problem, raised = False, "raised %s: %s" % (type(exc).__name__, exc), True
        end = time.perf_counter()
        results.append(Result(q.kind, q.label, end - t, decided, problem, raised))
        spans.append((t, end))
        if end - last >= REFERENCE_EVERY:
            time_reference(refs)
            last = time.perf_counter()
    for x, (t, end) in zip(results, spans):
        x.scaled = x.seconds / slowdown(refs, t, end)
    wall = sum(x.seconds for x in results)
    return Pass(setup, wall, results, tracer, scaled_setup)


def extra_setup(workload, seed: int) -> float:
    """Set-up time of one more build, scaled like a pass's."""
    refs: list = []
    time_reference(refs, REFERENCE_AT_START)
    setup = build(workload, seed)[1]
    return setup / slowdown(refs, refs[0][0], refs[-1][0])


def run_passes(workload, seed: int, seconds: float, tracer_of, min_passes: int) -> list:
    """Run passes while the next one is expected to end within the
    budget; tracer_of(i) gives the tracer of pass i or None, and the
    first min_passes passes always run."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(workload, seed, tracer_of(len(passes))))
        typical = statistics.median(p.setup + p.wall for p in passes)
        if len(passes) >= min_passes and time.perf_counter() - start + typical > seconds:
            return passes


def failures(passes) -> list:
    """(result, passes it failed in) of each query that failed in any pass."""
    out = []
    for results in zip(*(p.results for p in passes)):
        bad = [x for x in results if x.problem]
        if bad:
            out.append((bad[0], len(bad)))
    return out


# -- reports --------------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "arboreal").glob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "src_lines": src_lines}


def end_to_end(passes, setups) -> tuple:
    """End-to-end metrics of untraced passes and the tail percentile used,
    from scaled times: a query's latency is the median of its scaled
    times over the passes, and wall_s the median over passes of their
    sum.  `setups` are scaled set-up times."""
    n = len(passes[0].results)
    lat = [statistics.median(x.scaled for x in results) for results in zip(*(p.results for p in passes))]
    wall = statistics.median(sum(x.scaled for x in p.results) for p in passes)
    p = tail_percentile(n)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "queries_per_s": n / wall,
        "query_p50_ms": 1000 * statistics.median(lat),
        "query_tail_ms": 1000 * percentile(lat, p),
        "decided_share": sum(x.decided for x in passes[0].results) / n,
        "failed_share": len(failures(passes)) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, p


def per_layer(traced, untraced) -> dict:
    """Per-layer metrics of the traced passes: counts (identical in
    every pass), median self times and module shares, tracing overhead."""
    counts = traced[0].tracer.counts()
    selfs = [r.tracer.self_by_name() for r in traced]
    out = {}
    for module, names in tracing.REPORTED.items():
        for name in names:
            key = "%s.%s" % (module, name)
            out[key + ".calls"] = (counts.get(key, 0), "count")
            out[key + ".self_s"] = (statistics.median(s.get(key, 0.0) for s in selfs), "s")
    for name in tracing.OUTCOMES:
        out[name] = (counts.get(name, 0), "count")
    calls = counts.get("elements.Interner.key", 0)
    inserts = counts.get("elements.Interner.key.inserts", 0)
    out["elements.Interner.key.hit_ratio"] = (1 - inserts / calls if calls else 0.0, "ratio")
    scanned = counts.get("perms.conjugators.scanned", 0)
    found = counts.get("perms.conjugators.found", 0)
    out["perms.conjugators.yield"] = (found / scanned if scanned else 0.0, "ratio")
    for module in tracing.MEASURED:
        shares = []
        for r, s in zip(traced, selfs):
            total = sum(x.seconds for x in r.results)
            shares.append(sum(v for k, v in s.items() if k.split(".", 1)[0] == module) / total)
        out[module + ".self_share"] = (statistics.median(shares), "ratio")
    overhead = min(r.wall for r in traced) / min(r.wall for r in untraced) - 1
    out["trace.overhead"] = (overhead, "ratio")
    return out


def run_traced(name, seed, seconds, workload, record) -> tuple:
    # U T T, then U T U T ... while time lasts
    def tracer_of(i):
        return tracing.Tracer() if i in (1, 2) or (i > 2 and i % 2 == 0) else None

    passes = run_passes(workload, seed, seconds, tracer_of, 3)
    tpasses = [p for p in passes if p.tracer is not None]
    upasses = [p for p in passes if p.tracer is None]
    reference = tpasses[0].tracer.counts()
    repeat = all(p.tracer.counts() == reference for p in tpasses[1:])
    metrics = per_layer(tpasses, upasses)
    OUT.mkdir(exist_ok=True)
    span_path = OUT / ("spans-%s-seed%d.jsonl" % (name, seed))
    tpasses[0].tracer.write_spans(span_path)
    print("passes: %d traced, %d untraced; counts identical across traced passes: %s"
          % (len(tpasses), len(upasses), "yes" if repeat else "NO"))
    print("spans: %d written to %s" % (len(tpasses[0].tracer.spans), span_path.relative_to(ROOT)))
    print("tracing overhead: %.1f%% of the untraced wall time" % (100 * metrics["trace.overhead"][0]))
    shares = sorted(((metrics[m + ".self_share"][0], m) for m in tracing.MEASURED), reverse=True)
    print("self-time share: " + ", ".join("%s %.1f%%" % (m, 100 * v) for v, m in shares))
    record.update(counts_repeat=repeat, counts=reference)
    return passes, metrics, repeat


def run(name: str, seed: int, seconds: float, traced: bool, workload=None) -> dict:
    """One benchmark run; prints the report and returns the JSON line."""
    workload = workload or WORKLOADS[name]
    env = environment()
    print("workload %s seed %d seconds %g trace %d" % (name, seed, seconds, traced))
    print("env python %s nproc %s cpu %r src_lines %d" % (env["python"], env["nproc"], env["cpu"], env["src_lines"]))
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced), "env": env}
    note = ""
    if traced:
        passes, metrics, repeat = run_traced(name, seed, seconds, workload, record)
    else:
        passes = run_passes(workload, seed, seconds, lambda i: None, MIN_PASSES)
        setups = [p.scaled_setup for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(extra_setup(workload, seed))
        values, p = end_to_end(passes, setups)
        metrics = {k: (values[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}
        repeat = True
        note = "p%g of %d queries, each its median of %d passes" % (p, len(passes[0].results), len(passes))
        scaled = [sum(x.scaled for x in p.results) for p in passes]
        print("pass wall s, raw: " + " ".join("%.3f" % x.wall for x in passes))
        print("pass wall s, scaled: " + " ".join("%.3f" % x for x in scaled))
        print("set-up s, scaled: " + " ".join("%.4f" % x for x in setups))
        record.update(setup_s=setups, pass_wall_s=[x.wall for x in passes], pass_scaled_wall_s=scaled)
    results = passes[0].results
    failed = failures(passes)
    kinds: dict = {}
    for x in results:
        kinds[x.kind] = kinds.get(x.kind, 0) + 1
    print("queries %d per pass, %d passes: %s" % (len(results), len(passes),
                                                 ", ".join("%s %d" % kv for kv in sorted(kinds.items()))))
    for key, (value, unit) in metrics.items():
        print("metric %-44s %14.6g %s%s" % (key, value, unit, "  (%s)" % note if key == "query_tail_ms" else ""))
    print("known-answer check: %d of %d queries failed" % (len(failed), len(results)))
    for x, n in failed:
        print("  FAIL workload=%s run-seed=%d %s %s (%d of %d passes): %s"
              % (name, seed, x.kind, x.label, n, len(passes), x.problem))
    # a query that raised failed, but gave no wrong answer
    correct = repeat and not any(not x.raised for x, _ in failed)
    keys = list(metrics) if traced else JSON_END_TO_END
    line = {
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keys},
    }
    record.update(queries=len(results), passes=len(passes), by_kind=kinds, result=line,
                  failures=["%s %s: %s" % (x.kind, x.label, x.problem) for x, _ in failed])
    OUT.mkdir(exist_ok=True)
    (OUT / ("record-%s-seed%d-trace%d.json" % (name, seed, int(traced)))).write_text(json.dumps(record, indent=1))
    return line


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and line["correct"]
        summary["attempted"] += line["attempted"]
        summary["failed"] += line["failed"]
        for k, v in line["metrics"].items():
            summary["metrics"]["%s.%s" % (name, k)] = v
    print(json.dumps(summary))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        fresh_import()
    except ImportError as exc:
        print("cannot import arboreal from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
