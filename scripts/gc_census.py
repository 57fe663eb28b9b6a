#!/usr/bin/env python3
"""Garbage-collector census of benchmark passes.

    python scripts/gc_census.py --workload bounded_planted --seed 1 --passes 3

Builds the queries of one `bench/workloads.py` workload, as a benchmark
pass does, and runs them one at a time.  Per pass it prints the
automatic collections of each generation made while the queries ran,
the seconds spent in them, and the seconds of the queries themselves.
After the last pass, with its inputs still alive, it prints the objects
the collector tracks after a full collection, then what the live
configuration spaces (`bounded.ConfigSpace`) hold between them: their
distinct configurations and their steps-memo entries, and how many of
those entries the collector still tracks.  Each pass imports the
library from ./src afresh; nothing is timed against a reference, so the
times are raw.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import WORKLOADS  # noqa: E402


def fresh_import():
    for name in [n for n in sys.modules if n == "arboreal" or n.startswith("arboreal.")]:
        del sys.modules[name]
    return importlib.import_module("arboreal")


def run_pass(workload, seed: int):
    """(A, queries, collections per generation, gc seconds, query seconds)."""
    gc.collect()
    A = fresh_import()
    queries = workload.build(A, seed)
    counts, spent, started = [0, 0, 0], [0.0], [0.0]

    def on_gc(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1
            started[0] = time.perf_counter()
        else:
            spent[0] += time.perf_counter() - started[0]

    gc.callbacks.append(on_gc)
    t0 = time.perf_counter()
    try:
        for q in queries:
            q.run()
    finally:
        wall = time.perf_counter() - t0
        gc.callbacks.remove(on_gc)
    return A, queries, counts, spent[0], wall


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="bounded_planted", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=3)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    print("workload %s seed %d passes %d" % (args.workload, args.seed, args.passes))
    for i in range(args.passes):
        A, queries, counts, spent, wall = run_pass(workload, args.seed)
        print("pass %d: collections gen0 %d gen1 %d gen2 %d, %.3f s in collections, %.3f s in queries"
              % (i + 1, *counts, spent, wall))
    gc.collect()
    tracked = gc.get_objects()
    print("objects tracked after a full collection %d" % len(tracked))
    # equal configurations of different systems are different ones
    spaces = [obj for obj in tracked if type(obj) is A.bounded.ConfigSpace]
    entries = [item for sp in spaces for item in sp._succ.items()]
    print("distinct configurations %d in %d spaces" % (sum(len(sp.configs) for sp in spaces), len(spaces)))
    print("steps-memo entries %d, tracked %d"
          % (len(entries), sum(gc.is_tracked(k) or gc.is_tracked(v) for k, v in entries)))
    del queries
    return 0


if __name__ == "__main__":
    sys.exit(main())
