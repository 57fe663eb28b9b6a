"""The three known-answer workloads.

A workload builds one pass of queries from the workload seed; every
pass of a run builds the same inputs afresh.  Building is the set-up: it
parses or generates every input and plants every known answer.  The
cost of a pass is meant not to depend on the seed, so each workload
draws its costly inputs from a fixed pool and lets the seed choose the
cheap parts and the query order.  Each query is a closure over those inputs
that calls the library, checks the result against the answer known by
construction, and returns (decided, problem): `decided` is False for
`unknown` / `Exceeded` results, `problem` is None or a one-line
description of a wrong answer or a witness that failed verification.

The library is passed in as the freshly imported `arboreal` package `A`,
so each pass starts with cold module state, and every call goes through
whatever names the tracer has wrapped.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

# Two families with fixed, well-known answers (the same texts as the
# test suite's fixtures).  BRANCH's orbit-power closure keeps growing;
# ZOO has one symbol per activity class.
BRANCH = """\
alphabet 2
a = (e, a) [1 0]
b = (a, c) [1 0]
c = (a, b)
"""
ZOO = """\
alphabet 2
s = (e, e) [1 0]
a = (e, a) [1 0]
m = (a, m)
l = (l, l) [1 0]
"""

# (order, activity class) of single symbols: the odometer `a` has
# infinite order, `s` and `l` are involutions, `m` has the odometer as a
# section; the classes are the acceptance-test goldens.
GOLDEN_ORDER = {
    ("ZOO", "s"): 2, ("ZOO", "a"): "infinite", ("ZOO", "m"): "infinite", ("ZOO", "l"): 2,
    ("ZOO", "e"): 1, ("BRANCH", "a"): "infinite", ("BRANCH", "e"): 1,
}
GOLDEN_CLASS = {
    ("ZOO", "s"): "Finitary(1)", ("ZOO", "a"): "Polynomial(0)", ("ZOO", "m"): "Polynomial(1)",
    ("ZOO", "l"): "Exponential", ("BRANCH", "a"): "Polynomial(0)", ("BRANCH", "b"): "Polynomial(1)",
}


@dataclass(frozen=True)
class Query:
    kind: str
    label: str
    run: Callable[[], tuple]


def leaf_depth(A, degree: int) -> int:
    """Deepest level the truncation oracle accepts at this degree."""
    n = 0
    while degree ** (n + 1) <= A.oracle.MAX_LEAVES:
        n += 1
    return n


def _conjugate_by(A, g, h):
    return A.multiply(A.multiply(A.inverse(h), g), h)


def _merge_symbol(A, system, other):
    """Merge `other` into `system`; the element of other's last symbol."""
    ren = A.system.merge_into(system, other)
    return A.Element.symbol(system, ren[other.symbols[-1]])


# -- aut_degree_sweep ---------------------------------------------------------


def _aut_main(A, g, target, cap, depth):
    dec = A.conjugate_in_aut(g, target, cap)
    if dec.tag == "unknown":
        return False, None
    if dec.tag != "conjugate":
        return True, "answered %s; g and g^-1 are conjugate" % dec.tag
    h = A.basic_conjugator(dec.graph)
    if A.verify_conjugator(h, g, target, depth) is not True:
        return True, "basic conjugator fails verify_conjugator at depth %d" % depth
    return True, None


def _aut_sim(A, gs, targets, cap, depth):
    dec = A.conjugate_in_aut_simultaneous(gs, targets, cap)
    if dec.tag == "unknown":
        return False, None
    if dec.tag != "conjugate":
        return True, "answered %s; the tuples are conjugate by a planted h" % dec.tag
    h = A.sim_basic_conjugator(dec.graph)
    for g, t in zip(gs, targets):
        if A.verify_conjugator(h, g, t, depth) is not True:
            return True, "simultaneous conjugator fails verify_conjugator at depth %d" % depth
    return True, None


@dataclass(frozen=True)
class AutSweep:
    """conjugate_in_aut(g, g^-1) on fresh random bounded systems of
    degrees 3-5, plus a minority of simultaneous queries with a planted
    conjugator.  The systems are random_bounded(k, 6, d) for the first
    `systems_per_degree` generator seeds k of each degree, and the planted
    conjugator of system k is random_bounded(1000 + k, 3, d).  The inputs
    are the same for every workload seed, which only orders the queries,
    so the cost of a pass does not depend on the seed.  The closure cap
    bounds the cost of one query: without it one degree-5 system in a
    hundred takes 8-60 s."""

    name = "aut_degree_sweep"
    systems_per_degree: int = 28
    degrees: tuple = (3, 4, 5)
    sim_every: int = 3
    closure_cap: int = 32
    tuple_cap: int = 256

    def build(self, A, seed: int) -> list:
        out = []
        for d in self.degrees:
            depth = leaf_depth(A, d)
            for k in range(self.systems_per_degree):
                system = A.random_bounded(k, 6, d)
                g = A.Element.symbol(system, system.symbols[-1])
                where = "deg=%d seed=%d" % (d, k)
                out.append(Query("main", where, partial(_aut_main, A, g, A.inverse(g), self.closure_cap, depth)))
                if k % self.sim_every == 0:
                    f = A.Element.symbol(system, system.symbols[0])
                    h = _merge_symbol(A, system, A.random_bounded(1000 + k, 3, d))
                    gs = [g, f]
                    targets = [_conjugate_by(A, x, h) for x in gs]
                    out.append(Query("simultaneous", where,
                                     partial(_aut_sim, A, gs, targets, self.tuple_cap, depth)))
        random.Random("%s:%d" % (self.name, seed)).shuffle(out)
        return out


# -- closure_growth -----------------------------------------------------------


def _signalizer(A, g, cap):
    os_ = A.orbit_signalizer(g, cap)
    if os_.complete:
        return True, "closure completed with %d elements; it grows past any cap" % len(os_.elements)
    return False, None


def _nucleus(A, g, cap):
    report = A.nucleus(g, cap)
    if report.contracting:
        return True, "reported contracting; a Polynomial(1) element is not"
    return False, None


def _order_query(A, g, key, inv_key, cap, depth, seen):
    res = A.order(g, cap)
    cls = str(A.polynomial_degree(g))
    value = res.value if res.tag == "finite" else res.tag
    problems = []
    if res.tag == "finite":
        t = A.truncated_order(g, depth)
        if t != res.value:
            problems.append("order %d but level %d has order %d" % (res.value, depth, t))
    if key in GOLDEN_ORDER and res.tag != "unknown" and value != GOLDEN_ORDER[key]:
        problems.append("order %s, golden %s" % (value, GOLDEN_ORDER[key]))
    if key in GOLDEN_CLASS and cls != GOLDEN_CLASS[key]:
        problems.append("class %s, golden %s" % (cls, GOLDEN_CLASS[key]))
    # g and g^-1 have the same order and the same activity
    if inv_key in seen:
        other = seen[inv_key]
        if "unknown" not in (value, other[0]) and value != other[0]:
            problems.append("order %s but the inverse has order %s" % (value, other[0]))
        if cls != other[1]:
            problems.append("class %s but the inverse is %s" % (cls, other[1]))
    seen[key] = (value, cls)
    return res.tag != "unknown", "; ".join(problems) or None


def reduced_words(symbols, length):
    """Every freely reduced word of at most `length` letters."""
    letters = [(s, x) for s in symbols for x in (1, -1)]
    out = [()]
    for n in range(1, length + 1):
        for w in itertools.product(letters, repeat=n):
            if all(not (u[0] == v[0] and u[1] == -v[1]) for u, v in zip(w, w[1:])):
                out.append(w)
    return out


@dataclass(frozen=True)
class ClosureGrowth:
    """Orbit-power closures, the nucleus search and orders over two
    parsed degree-2 families whose caches every query of the family
    shares.  Each family starts with its large closure query, which warms
    the caches for its word queries, shortest words first.  The inputs
    are fixed; the seed only decides which family runs first.  Shuffling
    the words instead would move which query pays for a cold cache, and
    with it the tail latency, from seed to seed."""

    name = "closure_growth"
    word_length: int = 2
    signalizer_cap: int = 150
    nucleus_cap: int = 256
    order_cap: int = 64

    def build(self, A, seed: int) -> list:
        out = []
        seen: dict = {}
        families = [("BRANCH", BRANCH), ("ZOO", ZOO)]
        random.Random("%s:%d" % (self.name, seed)).shuffle(families)
        for family, text in families:
            system = A.parse_system(text)
            depth = leaf_depth(A, system.degree)
            if family == "BRANCH":
                out.append(Query("signalizer", "BRANCH b cap %d" % self.signalizer_cap,
                                 partial(_signalizer, A, A.Element.symbol(system, "b"), self.signalizer_cap)))
            else:
                out.append(Query("nucleus", "ZOO m cap %d" % self.nucleus_cap,
                                 partial(_nucleus, A, A.Element.symbol(system, "m"), self.nucleus_cap)))
            for w in reduced_words(system.symbols, self.word_length):
                name = A.format_word(w)
                key = (family, name)
                inv_key = (family, A.format_word(A.system.invert_word(w)))
                g = A.Element(system, w)
                out.append(Query("order", "%s %s" % (family, name),
                                 partial(_order_query, A, g, key, inv_key, self.order_cap, depth, seen)))
        return out


# -- bounded_planted ----------------------------------------------------------

DECIDERS = ("pol_minus1", "pol0", "aut")
# Pol(-1) conjugate => Pol(0) conjugate => Aut conjugate
LATTICE = (("pol_minus1", "pol0"), ("pol0", "aut"), ("pol_minus1", "aut"))


def _decide(A, decider, a, b):
    """(tag, witness element or None) of one decider."""
    if decider == "aut":
        dec = A.conjugate_in_aut(a, b)
        witness = A.basic_conjugator(dec.graph).element if dec.tag == "conjugate" else None
        return dec.tag, witness
    fn = A.conjugate_in_pol_minus1 if decider == "pol_minus1" else A.conjugate_in_pol0_cyclic
    dec = fn(a, b)
    return dec.tag, dec.conjugator


def _bounded_query(A, decider, a, b, expect, depth, verdicts):
    tag, witness = _decide(A, decider, a, b)
    verdicts[decider] = tag
    problems = []
    if expect is not None and tag not in (expect, "unknown"):
        problems.append("answered %s, known %s" % (tag, expect))
    if tag == "conjugate" and A.verify_conjugator(witness, a, b, depth) is not True:
        problems.append("witness fails verify_conjugator at depth %d" % depth)
    if decider == DECIDERS[-1]:
        for lo, hi in LATTICE:
            if verdicts.get(lo) == "conjugate" and verdicts.get(hi) == "not_conjugate":
                problems.append("lattice: conjugate in %s but not in %s" % (lo, hi))
    return tag != "unknown", "; ".join(problems) or None


@dataclass(frozen=True)
class BoundedPlanted:
    """Planted conjugate pairs b = h^-1 a h of random bounded elements,
    and negatives with different orbit-tree codes, through all three
    restricted deciders.  Every pass takes every degree-2 pair seed
    0..deg2_pairs-1 and every degree-3 pair seed 0..deg3_pairs-1, known
    crash seeds included.  The unrelated element of the negative of pair
    seed s is random_bounded(2000 + s), or the next of 3000 + s, 4000 + s,
    ... whose orbit-tree code differs from a's, so every pair has one.
    The inputs are the same for every workload seed, which only orders
    the pairs, so the cost of a pass does not depend on the seed."""

    name = "bounded_planted"
    deg2_pairs: int = 150
    deg3_pairs: int = 40
    code_depth: int = 8
    redraws: int = 20

    def slices(self):
        # (degree, state budget of a, state budget of h, pair seeds)
        return ((2, 4, 3, self.deg2_pairs), (3, 6, 4, self.deg3_pairs))

    def unrelated(self, A, system, a, s, budget):
        """A merged element whose orbit-tree code differs from a's, or
        None when `redraws` draws all agree with it."""
        code = A.orbit_tree_code(a, self.code_depth)
        for r in range(self.redraws):
            other = A.random_bounded(2000 + 1000 * r + s, budget, system.degree)
            u = _merge_symbol(A, system, other)
            if A.orbit_tree_code(u, self.code_depth) != code:
                return u
        return None

    def build(self, A, seed: int) -> list:
        pairs = []
        for d, budget_a, budget_h, n in self.slices():
            for s in range(n):
                system = A.random_bounded(s, budget_a, d)
                a = A.Element.symbol(system, system.symbols[-1])
                hsys = A.random_bounded(1000 + s, budget_h, d)
                h = _merge_symbol(A, system, hsys)
                b = _conjugate_by(A, a, h)
                finitary = hsys.symbols[-1].startswith("f")
                pairs.append(("planted", d, s, a, b, finitary))
                u = self.unrelated(A, system, a, s, budget_a)
                if u is not None:
                    pairs.append(("negative", d, s, a, u, False))
        random.Random("%s:%d" % (self.name, seed)).shuffle(pairs)
        out = []
        for kind, d, s, a, b, finitary in pairs:
            verdicts: dict = {}
            for decider in DECIDERS:
                if kind == "negative":
                    expect = "not_conjugate"
                else:
                    expect = "conjugate" if decider != "pol_minus1" or finitary else None
                out.append(Query(kind, "deg=%d seed=%d decider=%s" % (d, s, decider),
                                 partial(_bounded_query, A, decider, a, b, expect, self.code_depth, verdicts)))
        return out


WORKLOADS = {w.name: w for w in (AutSweep(), ClosureGrowth(), BoundedPlanted())}
