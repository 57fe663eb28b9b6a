#!/usr/bin/env python3
"""Word-problem census of one benchmark pass.

    python scripts/probe_census.py --workload closure_growth --seed 1

Builds the queries of one `bench/workloads.py` workload, as a benchmark
pass does, then wraps private functions of the library in-process and
runs the queries once.  It prints what the queries asked of the word
problem: `Interner.key` calls, interner probes and the probes that
found their signature bucket empty, `_equal_words` calls, `_bisimulate`
calls by outcome, the words whose signature the queries computed (new
entries of the per-word signature memo), `FRSystem.section` calls, the
work of the simultaneous tuple graphs (constraint tuples built, the
Schreier words sectioned for them, and the surviving tuple vertices),
the pair conjugator graphs the Pol(0) decider built, the all-anchor
orbit-power closures built (two per pair graph), and the signature
depth of each alphabet degree seen.  The benchmark's tracer
wraps public functions only, so it cannot count these.  Work done while
building the inputs is not counted.  The library is the first
`arboreal` on PYTHONPATH, else the one in ./src, and the `library` line
names its directory:

    PYTHONPATH=OTHER/src python scripts/probe_census.py --workload aut_degree_sweep

measures OTHER's library on this checkout's workloads.  Nothing under
src/ or bench/ is changed.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.append(str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


def fresh_import():
    for name in [n for n in sys.modules if n == "arboreal" or n.startswith("arboreal.")]:
        del sys.modules[name]
    return importlib.import_module("arboreal")


def census(workload, seed: int) -> tuple:
    """(counts, signature depth per degree) of one pass of workload."""
    A = fresh_import()
    elements, FRSystem = A.elements, A.system.FRSystem
    counts = Counter()
    systems = []
    init = FRSystem.__init__

    def recorded_init(self, degree):
        init(self, degree)
        systems.append(self)

    FRSystem.__init__ = recorded_init
    queries = workload.build(A, seed)
    sigs_before = {id(s): len(s._sig) for s in systems}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    Interner = elements.Interner
    probe = Interner._probe

    def counted_probe(self, root):
        counts["probes"] += 1
        if len(root) <= elements.MAX_WORD_LENGTH and not self._buckets.get(self.system.signature(root)):
            counts["probes into an empty bucket"] += 1
        return probe(self, root)

    bisimulate = elements._bisimulate

    def counted_bisimulate(*args):
        res = bisimulate(*args)
        counts["_bisimulate %s" % (res if isinstance(res, bool) else "Exceeded")] += 1
        return res

    conjugacy = A.conjugacy
    constraint_pairs, sim_conj_graph = conjugacy._constraint_pairs, conjugacy.sim_conj_graph

    def counted_constraint_pairs(system, schreier, *rest):
        counts["constraint tuples built"] += 1
        counts["Schreier words sectioned"] += len(schreier)
        return constraint_pairs(system, schreier, *rest)

    def counted_sim_conj_graph(*args):
        graph = sim_conj_graph(*args)
        counts["tuple vertices kept"] += len(graph.vertices)
        return graph

    conjugacy._constraint_pairs = counted_constraint_pairs
    conjugacy.sim_conj_graph = counted_sim_conj_graph
    A.bounded.conj_graph = counted("Pol(0) pair graphs built", A.bounded.conj_graph)
    orbit_signalizer = A.classify.orbit_signalizer

    def counted_orbit_signalizer(g, cap=512, letters="least"):
        counts["all-anchor closures built"] += letters == "all"
        return orbit_signalizer(g, cap, letters)
    Interner.key = counted("Interner.key", Interner.key)
    FRSystem.section = counted("FRSystem.section", FRSystem.section)
    Interner._probe = counted_probe
    elements._bisimulate = counted_bisimulate
    # other modules, bounded.py among them, hold their own binding
    equal_words = elements._equal_words
    counted_equal = counted("_equal_words", equal_words)
    for mod in [m for n, m in sys.modules.items() if n.startswith("arboreal.")]:
        if getattr(mod, "_equal_words", None) is equal_words:
            mod._equal_words = counted_equal
        if getattr(mod, "orbit_signalizer", None) is orbit_signalizer:
            mod.orbit_signalizer = counted_orbit_signalizer
    for q in queries:
        q.run()
    counts["words newly signed"] = sum(len(s._sig) - sigs_before.get(id(s), 0) for s in systems)
    # a library with one signature depth for all degrees has no _sig_depth
    depths = {s.degree: getattr(s, "_sig_depth", None) for s in systems}
    return counts, depths


ROWS = (
    "Interner.key", "probes", "probes into an empty bucket", "_equal_words",
    "_bisimulate True", "_bisimulate False", "_bisimulate Exceeded", "words newly signed",
    "FRSystem.section", "constraint tuples built", "Schreier words sectioned", "tuple vertices kept",
    "Pol(0) pair graphs built", "all-anchor closures built",
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="closure_growth", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    counts, depths = census(WORKLOADS[args.workload], args.seed)
    print("workload %s seed %d" % (args.workload, args.seed))
    print("library %s" % Path(sys.modules["arboreal"].__file__).parent)
    for row in ROWS:
        print("%-28s %d" % (row, counts[row]))
    print("signature depth by degree    %s" % ", ".join("%d: %s" % kv for kv in sorted(depths.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
