#!/usr/bin/env python3
"""Identity corpus: one line per planted or negative pair, then a digest.

Each pair seed s of a slice builds a = the last symbol of
random_bounded(s), merges h = the last symbol of random_bounded(1000 + s)
into its system and plants b = h^-1 a h.  The negative pairs a with the
first merged random_bounded(2000 + 1000 r + s), r = 0, 1, ..., whose
depth-8 orbit-tree code differs from a's.  The slices are degree 2
(state budgets 4 and 3) and degree 3 (budgets 6 and 4).

A record holds the closure sizes, the finitary depths and witness, the
Pol(-1), Pol(0), Aut and simultaneous verdicts with their certificates
and witness texts, the conjugator of the Aut verdict, the greatest basic
conjugator and the number of basic conjugators of the pruned conjugator
graph, and digests of the canonical representatives.  The last line is
the sha256 of all records, so two versions of the library that print
the same digest gave the same verdicts, witnesses and symbol names on
the whole corpus:

    PYTHONPATH=src python scripts/identity_corpus.py > new.txt
"""

from __future__ import annotations

import argparse
import hashlib

from arboreal import (
    Element,
    all_basic_conjugators,
    basic_conjugator,
    canonical_representative,
    configurations,
    conj_graph,
    conjugate_in_aut,
    conjugate_in_aut_simultaneous,
    conjugate_in_pol0_cyclic,
    conjugate_in_pol_minus1,
    finitary_satisfiable,
    format_word,
    inverse,
    multiply,
    orbit_signalizer,
    orbit_tree_code,
    power,
    random_bounded,
    sim_basic_conjugator,
)
from arboreal.system import format_system, merge_into

# (degree, state budget of a, state budget of h, representative depth)
SLICES = ((2, 4, 3, 6), (3, 6, 4, 4))
CODE_DEPTH = 8
REDRAWS = 20


def merged(system, other) -> Element:
    ren = merge_into(system, other)
    return Element.symbol(system, ren[other.symbols[-1]])


def witness(g) -> str:
    """A conjugator's word and the definitions it reaches, on one line."""
    if g is None:
        return "-"
    names = sorted({s for s, _ in g.word})
    text = format_system(g.system, roots=names) if names else ""
    return "%s {%s}" % (format_word(g.word), "; ".join(text.splitlines()[1:]))


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def record(a: Element, b: Element, depth: int) -> list:
    out = []
    os_a = orbit_signalizer(a, letters="all")
    os_b = orbit_signalizer(b, letters="all")
    out.append("os %d/%d" % (len(os_a.elements), len(os_b.elements)))
    closure = configurations(a, b)
    out.append("configs %s %d/%d/%d %s" % (
        closure.status, len(closure.configs), len(closure.viable), len(closure.universe),
        digest([closure.space.describe(c) for c in closure.configs])))
    fin = finitary_satisfiable(closure)
    out.append("fin %s %s %s %s" % (fin.status, fin.root_depth, [d for _, d in fin.sat], witness(fin.witness)))
    for name, decide in (("pol-1", conjugate_in_pol_minus1), ("pol0", conjugate_in_pol0_cyclic)):
        dec = decide(a, b)
        out.append("%s %s %s %s %s" % (name, dec.tag, dec.cls, dec.certificate, witness(dec.conjugator)))
    dec = conjugate_in_aut(a, b)
    out.append("aut %s %s %d/%d" % (dec.tag, dec.reason, len(dec.graph.vertices), len(dec.graph.roots)))
    if dec.conjugate:
        graph = conj_graph(a, b)
        out.append("least %s" % witness(basic_conjugator(dec.graph).element))
        out.append("greatest %s" % witness(basic_conjugator(graph, "greatest").element))
        out.append("all %d" % len(all_basic_conjugators(graph, limit=4)))
    sim = conjugate_in_aut_simultaneous([a, power(a, 2)], [b, power(b, 2)])
    out.append("sim %s %s %d" % (sim.tag, sim.reason, len(sim.graph.vertices)))
    if sim.conjugate:
        out.append("sim-least %s" % witness(sim_basic_conjugator(sim.graph).element))
    out.append("rep %s %s" % tuple(digest(canonical_representative(g, depth).level_maps) for g in (a, b)))
    return out


def pairs(deg2: int, deg3: int):
    for (d, budget_a, budget_h, depth), n in zip(SLICES, (deg2, deg3)):
        for s in range(n):
            system = random_bounded(s, budget_a, d)
            a = Element.symbol(system, system.symbols[-1])
            h = merged(system, random_bounded(1000 + s, budget_h, d))
            yield "planted", d, s, a, multiply(multiply(inverse(h), a), h), depth
            code = orbit_tree_code(a, CODE_DEPTH)
            for r in range(REDRAWS):
                u = merged(system, random_bounded(2000 + 1000 * r + s, budget_a, d))
                if orbit_tree_code(u, CODE_DEPTH) != code:
                    yield "negative", d, s, a, u, depth
                    break


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--deg2", type=int, default=150, help="degree-2 pair seeds 0..N-1")
    ap.add_argument("--deg3", type=int, default=40, help="degree-3 pair seeds 0..N-1")
    ns = ap.parse_args(argv)
    total = hashlib.sha256()
    for kind, d, s, a, b, depth in pairs(ns.deg2, ns.deg3):
        line = "%s deg=%d seed=%d | %s" % (kind, d, s, " | ".join(record(a, b, depth)))
        print(line)
        total.update(line.encode() + b"\n")
    print("sha256 %s" % total.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
