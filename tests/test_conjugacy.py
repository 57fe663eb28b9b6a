"""Conjugator graphs over the full group, witness synthesis, the
simultaneous variant, and canonical representatives."""

import collections
import functools
import math

import pytest

from arboreal import (
    DegreeTooLarge,
    Element,
    Exceeded,
    all_basic_conjugators,
    basic_conjugator,
    canonical_representative,
    conj_graph,
    conjugate_in_aut,
    conjugate_in_aut_simultaneous,
    conjugators,
    equal,
    expand_to_finite_state,
    inverse,
    is_trivial,
    minimize,
    multiply,
    orbit_tree_code,
    power,
    sim_basic_conjugator,
    sim_conj_graph,
    verify_conjugator,
)
from arboreal import conjugacy
from arboreal.classify import orbit_signalizer
from arboreal.conjugacy import _joint_orbits
from arboreal.elements import Interner
from arboreal.graphs import refine, surviving
from arboreal.oracle import random_bounded
from arboreal.perms import identity, orbits
from arboreal.system import EMPTY, invert_word, join, merge_into, parse_system, parse_word, reduce_word

from conftest import BRANCH, CARRY, TWISTED, one, swap_chains
from test_identity_corpus import load as load_corpus


def _verified(h, a, b, depth=10):
    ok = verify_conjugator(h, a, b, depth)
    exact = equal(multiply(multiply(inverse(h), a), h), b)
    return ok and exact is True


def test_trivial_pair_has_two_conjugator_systems():
    sys = parse_system("alphabet 2\nr = (r, r) [1 0]\n")
    e = Element(sys, ())
    graph = conj_graph(e, e)
    assert len(graph.vertices) == 2
    witnesses = all_basic_conjugators(graph)
    assert len(witnesses) == 2
    # one is the identity, the other the full spine of swaps
    kinds = set()
    for w in witnesses:
        assert _verified(w.element, e, e)
        if equal(w.element, e) is True:
            kinds.add("trivial")
        elif equal(w.element, one(sys, "r")) is True:
            kinds.add("spine")
    assert kinds == {"trivial", "spine"}


def test_odometer_vs_inverse_two_witness_shapes():
    sys = parse_system(
        "alphabet 2\n"
        "a = (e, a) [1 0]\n"
        "r1 = (r1, r1*a^-1)\n"       # straight: fixes the root, absorbs a carry
        "r2 = (r2, r2) [1 0]\n"      # swapped: the involution spine
    )
    a = one(sys, "a")
    graph = conj_graph(a, inverse(a))
    assert len(graph.vertices) == 2
    witnesses = all_basic_conjugators(graph)
    assert len(witnesses) == 2
    for ref in ("r1", "r2"):
        assert any(equal(w.element, one(sys, ref)) is True for w in witnesses)
    for w in witnesses:
        assert _verified(w.element, a, inverse(a))


def test_odometer_vs_twisted_four_witnesses():
    sys = parse_system(
        TWISTED
        + "r3 = (s3, a*s3) [1 0]\n"  # the swapped witness threading a carry
        + "s3 = (r3, r3*b)\n"
    )
    a, b = one(sys, "a"), one(sys, "b")
    graph = conj_graph(a, b)
    assert len(graph.vertices) == 4
    spanned = {
        (graph.os_a.elements[i].word, graph.os_b.elements[j].word)
        for (i, j, pi) in graph.vertices
    }
    assert spanned == {((("a", 1),), (("b", 1),)), ((("a", 1),), (("b", -1),))}
    witnesses = all_basic_conjugators(graph)
    assert len(witnesses) == 4
    for w in witnesses:
        assert _verified(w.element, a, b)
    assert any(equal(w.element, one(sys, "r3")) is True for w in witnesses)


def test_every_surviving_vertex_keeps_total_edges():
    sys = parse_system(TWISTED)
    graph = conj_graph(one(sys, "a"), one(sys, "b"))
    for v in graph.vertices:
        assert graph.edges[v]
        for letter, targets in graph.edges[v].items():
            assert targets
            assert all(t in graph.vertices for t in targets)


def test_survival_fixpoint_on_hand_made_graphs():
    # each node has one option, its only successor; the chain dies from
    # its far end, a node with no option
    chain = [[[k + 1]] for k in range(40)] + [[]]
    assert surviving(chain) == [[False]] * 40 + [[]]
    # no option dies, an empty option lives, an option naming a dead node dies
    assert surviving([[], [[]], [[0]]]) == [[], [True], [False]]
    # a cycle survives, and so does a node that takes it over a dead option
    p, q, r, dead = range(4)
    assert surviving([[[q]], [[p]], [[dead], [p]], []]) == [[True], [True], [False, True], []]
    # the configuration form: one option per branch, naming its steps
    a, b, c, d = range(4)
    assert surviving([[[b], [c, a]], [[a, d]], [[c]], []]) == [[False, True], [False], [True], []]


def test_survival_fixpoint_counts_an_option_once_per_death():
    # an option naming a dead node twice dies once: the node keeps its
    # other option
    assert surviving([[[1, 1], [2]], [], [[2]], [[1, 1]]]) == [[False, True], [], [True], [False]]
    assert surviving([[[0, 0, 1]], [[1, 0]]]) == [[True], [True]]


def test_survival_fixpoint_on_a_long_chain():
    # listed from the end that lives longest: a sweep in id order kills
    # one node per pass
    n = 100_000
    chain = [[[k + 1]] for k in range(n - 1)] + [[]]
    flags = surviving(chain)
    assert len(flags) == n and not any(any(live) for live in flags)
    chain[-1] = [[n - 1]]
    assert all(live == [True] for live in surviving(chain))


def test_powers_of_the_odometer_are_not_conjugate(odometer):
    _, a = odometer
    dec = conjugate_in_aut(a, power(a, 2))
    assert dec.tag == "not_conjugate"
    assert conj_graph(a, power(a, 2)).roots == []


def test_self_conjugacy_always_holds(carry):
    _, p, q = carry
    for g in (p, q):
        dec = conjugate_in_aut(g, g)
        assert dec.conjugate
        h = basic_conjugator(dec.graph)
        assert _verified(h.element, g, g)


def test_exponential_pair_exceeds_the_cap(branch):
    sys, b = branch
    dec = conjugate_in_aut(b, one(sys, "c"), cap=50)
    assert dec.tag == "unknown"


def test_witness_expansion_when_it_fits():
    sys = parse_system("alphabet 2\na = (e, a) [1 0]\n")
    a = one(sys, "a")
    # the pruned graph holds both witnesses, the straight one and the
    # one that swaps the spine at the root
    witnesses = all_basic_conjugators(conj_graph(a, inverse(a)))
    assert len(witnesses) == 2
    for w in witnesses:
        m = expand_to_finite_state(w)
        assert m == minimize(w.element)
        assert m.n_states <= 2


def test_simultaneous_singleton_matches_plain(odometer):
    _, a = odometer
    dec = conjugate_in_aut_simultaneous([a], [inverse(a)])
    assert dec.conjugate
    h = sim_basic_conjugator(dec.graph)
    assert _verified(h.element, a, inverse(a))
    # one assignment (*node, pi, symbol) per tuple node, the root's first
    assert h.assignments[0] == dec.graph.roots[0] + (h.root,)
    assert all(s[:-1] in dec.graph.vertices for s in h.assignments)
    # planted and coded-negative corpus pairs: a 1-tuple gets the verdict
    # of the pair itself, and both syntheses verify
    for kind, degree, _, a, b, _ in load_corpus().pairs(30, 10):
        plain = conjugate_in_aut(a, b)
        sim = conjugate_in_aut_simultaneous([a], [b])
        assert sim.tag == plain.tag == ("conjugate" if kind == "planted" else "not_conjugate")
        if plain.conjugate:
            depth = 10 if degree == 2 else 6
            assert _verified(basic_conjugator(plain.graph).element, a, b, depth)
            assert _verified(sim_basic_conjugator(sim.graph).element, a, b, depth)


def test_simultaneous_pair_with_a_common_witness(twisted):
    _, a, b = twisted
    u = multiply(a, b)
    pair_a = [a, b]
    pair_b = [multiply(multiply(inverse(u), g), u) for g in pair_a]
    dec = conjugate_in_aut_simultaneous(pair_a, pair_b)
    assert dec.conjugate
    h = sim_basic_conjugator(dec.graph).element
    for x, y in zip(pair_a, pair_b):
        assert _verified(h, x, y, depth=8)


def test_policies_choose_among_surviving_permutations():
    sys = parse_system("alphabet 3\na = (e, a, e) [1 2 0]\n")
    a = one(sys, "a")
    swap = lambda pair, opts: (1, 0, 2)  # not a root conjugator of a 3-cycle
    for graph, synthesize in ((conj_graph(a, a), basic_conjugator),
                              (sim_conj_graph([a], [a]), sim_basic_conjugator)):
        assert _verified(synthesize(graph, "greatest").element, a, a, depth=6)
        with pytest.raises(ValueError, match="pruned permutation"):
            synthesize(graph, swap)


def test_simultaneous_detects_incompatible_components(odometer):
    _, a = odometer
    dec = conjugate_in_aut_simultaneous([a, a], [inverse(a), a])
    assert dec.tag == "not_conjugate"


def test_componentwise_yes_can_still_fail_jointly(odometer):
    # each coordinate alone is conjugate, the tuple is not
    _, a = odometer
    assert conjugate_in_aut(a, inverse(a)).conjugate
    assert conjugate_in_aut(a, a).conjugate
    assert not conjugate_in_aut_simultaneous([a, a], [inverse(a), a]).conjugate


def test_canonical_representatives_separate_classes(twisted):
    _, a, b = twisted
    assert canonical_representative(a, 6) == canonical_representative(inverse(a), 6)
    assert canonical_representative(a, 6) == canonical_representative(b, 6)
    assert canonical_representative(a, 6) != canonical_representative(power(a, 2), 6)
    assert canonical_representative(a, 6) != canonical_representative(multiply(a, inverse(a)), 6)


def test_root_permutation_conjugator_enumeration():
    assert set(conjugators((0, 1), (0, 1))) == {(0, 1), (1, 0)}
    assert set(conjugators((1, 0), (1, 0))) == {(0, 1), (1, 0)}
    assert conjugators((1, 0), (0, 1)) == ()
    with pytest.raises(DegreeTooLarge):
        conjugators(tuple(range(9)), tuple(range(9)))


# -- the triple-level graphs, as built before pair-level survival ---------------


def reference_surviving(groups) -> set:
    """Greatest fixpoint of survival by repeated sweeps: a node survives
    iff every one of its groups has a surviving member.

    groups maps each node to a re-iterable collection of groups, each a
    re-iterable collection of nodes.  A node with an empty group dies, a
    node with no groups survives, and a member that is not a key of
    groups never survives.  Sweeps repeat until nothing dies.
    """
    alive = set(groups)
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            for group in groups[v]:
                if alive.isdisjoint(group):
                    alive.discard(v)
                    changed = True
                    break
    return alive


def reference_conj_graph(a, b, cap=512):
    """(vertices, edges, roots, reachable) of the pruned conjugator graph
    over every pair of the two closures, or None when a closure exceeds
    the cap.  Every candidate triple lists, per orbit of its first
    component, all triples of its successor pair, and survival runs over
    triples alone.  reachable lists the pairs reachable from (0, 0)
    through candidate triples, in breadth-first order."""
    os_a = orbit_signalizer(a, cap, letters="all")
    os_b = orbit_signalizer(b, cap, letters="all")
    if not (os_a.complete and os_b.complete):
        return None
    succ_a = {(e[0], e[3]): e[2] for e in os_a.edges}
    succ_b = {(e[0], e[3]): e[2] for e in os_b.edges}
    perm_a = [g.root_perm for g in os_a.elements]
    perm_b = [g.root_perm for g in os_b.elements]

    def triples(i, j):
        return [(i, j, pi) for pi in conjugators(perm_a[i], perm_b[j])]

    all_edges = {}
    for i in range(len(perm_a)):
        for j in range(len(perm_b)):
            for v in triples(i, j):
                pi = v[2]
                all_edges[v] = {
                    orb[0]: triples(succ_a[(i, orb[0])], succ_b[(j, pi[orb[0]])])
                    for orb in orbits(perm_a[i])
                }
    alive = reference_surviving({v: e.values() for v, e in all_edges.items()})
    vertices = sorted(alive)
    edges = {
        v: {x: [s for s in succs if s in alive] for x, succs in all_edges[v].items()}
        for v in vertices
    }
    reachable = [(0, 0)]
    seen = {(0, 0)}
    for i, j in reachable:
        for pi in conjugators(perm_a[i], perm_b[j]):
            for orb in orbits(perm_a[i]):
                pair = (succ_a[(i, orb[0])], succ_b[(j, pi[orb[0]])])
                if pair not in seen:
                    seen.add(pair)
                    reachable.append(pair)
    return vertices, edges, [v for v in vertices if v[:2] == (0, 0)], reachable


def eval_index_word(words, iw):
    """The product word of the index word iw over words, reduced."""
    out = EMPTY
    for t, exp in iw:
        out = join(out, words[t] if exp == 1 else invert_word(words[t]))
    return out


def schreier_pairs(sys, a_words, b_words, perms_a, orbit_info, pi):
    """Constraint pairs at the least letter of one joint orbit.

    For every orbit letter y and every generator index t, the Schreier
    word t_y * g_t * t_{(y)g_t}^-1 stabilizes the base letter; its
    evaluations on the two sides, sectioned at the base letter and its
    pi-image, must be conjugate by the section of the conjugator there.
    Tree edges reduce to the empty word and are skipped.
    """
    y0, orb, words = orbit_info
    pairs = []
    seen = set()
    for y in orb:
        for t in range(len(a_words)):
            iw = reduce_word(words[y] + ((t, 1),) + invert_word(words[perms_a[t][y]]))
            if not iw:
                continue
            wa = sys.section(eval_index_word(a_words, iw), y0)
            wb = sys.section(eval_index_word(b_words, iw), pi[y0])
            key = (sys.find(wa), sys.find(wb))
            if key not in seen:
                seen.add(key)
                pairs.append((wa, wb))
    return pairs


def reference_sim_conj_graph(as_, bs, ordered=False, cap=None):
    """(vertices, edges, roots, number of vertices found) of the tuple
    graph, each orbit edge listing every vertex of its successor tuple,
    or None when a word comparison runs out of budget or more than cap
    vertices are found.  Every vertex builds the constraint tuple of each
    joint orbit from its own root conjugator.

    A tuple key is the sorted set of its constraint pairs of interner
    keys without the pair (e, e); with ordered, the distinct pairs in
    the order they come, (e, e) included, which gives other nodes but
    the same verdicts."""
    sys = as_[0].system
    intern = Interner(sys)

    def tuple_key(pairs):
        keys = []
        for wa, wb in pairs:
            k = (intern.key(wa), intern.key(wb))
            if isinstance(k[0], Exceeded) or isinstance(k[1], Exceeded):
                return None
            if k not in keys and (ordered or k != (intern.lookup(EMPTY),) * 2):
                keys.append(k)
        return tuple(keys if ordered else sorted(keys))

    def options(tk):
        opts = conjugators(identity(sys.degree), identity(sys.degree))
        for ka, kb in tk:
            cs = conjugators(sys.root_perm(intern.words[ka]), sys.root_perm(intern.words[kb]))
            opts = [p for p in opts if p in cs]
        return [(tk, tau) for tau in opts]

    root = tuple_key([(a.word, b.word) for a, b in zip(as_, bs)])
    found = options(root)
    seen = set(found)
    all_edges = {}
    pos = 0
    while pos < len(found):
        v = found[pos]
        pos += 1
        tk, pi = v
        a_words = [intern.words[ka] for ka, _ in tk]
        b_words = [intern.words[kb] for _, kb in tk]
        perms_a = [sys.root_perm(w) for w in a_words]
        all_edges[v] = {}
        for info in _joint_orbits(perms_a, sys.degree):
            tk2 = tuple_key(schreier_pairs(sys, a_words, b_words, perms_a, info, pi))
            if tk2 is None:
                return None
            all_edges[v][info[0]] = succs = options(tk2)
            for s in succs:
                if s not in seen:
                    seen.add(s)
                    found.append(s)
        if cap is not None and len(found) > cap:
            return None
    alive = reference_surviving({v: e.values() for v, e in all_edges.items()})
    vertices = [v for v in found if v in alive]
    edges = {
        v: {x: [s for s in succs if s in alive] for x, succs in all_edges[v].items()}
        for v in vertices
    }
    return vertices, edges, [v for v in vertices if v[0] == root], len(found)


def random_pairs():
    """Builders of (a, b) on fresh random bounded systems of degrees 2-5:
    (g, g^-1) and (g, f) for the last symbol g and the first f."""
    for d in (2, 3, 4, 5):
        for k in range(6):
            def build(k=k, d=d, inverted=True):
                sys = random_bounded(k, 6, d)
                g = one(sys, sys.symbols[-1])
                return g, inverse(g) if inverted else one(sys, sys.symbols[0])
            yield build
            yield lambda build=build: build(inverted=False)


def planted_pair(k, d):
    """([g, f], [g^h, f^h]) for g the last and f the first symbol of
    random_bounded(k, 6, d) and h the last of random_bounded(1000 + k,
    3, d): the simultaneous inputs of the Aut sweep."""
    sys = random_bounded(k, 6, d)
    other = random_bounded(1000 + k, 3, d)
    h = one(sys, merge_into(sys, other)[other.symbols[-1]])
    gs = [one(sys, sys.symbols[-1]), one(sys, sys.symbols[0])]
    return gs, [multiply(multiply(inverse(h), g), h) for g in gs]


def planted_tuples():
    """Builders of ([g, f], [g^h, f^h]) with a planted finite-state h, on
    random bounded systems of degrees 2-5 and on the CARRY fixture."""
    for d in (2, 3, 4, 5):
        for k in range(0, 12, 3):
            yield functools.partial(planted_pair, k, d)

    def carry():
        sys = parse_system(CARRY)
        gs, h = [one(sys, "p"), one(sys, "s")], one(sys, "q")
        return gs, [multiply(multiply(inverse(h), g), h) for g in gs]

    yield carry


def planted_triples():
    """Builders of ([g, f, x], [g^h, f^h, x^h]) with one planted
    finite-state h on random bounded systems of degrees 3 and 4, x the
    middle symbol: joint orbits with several generators, and root
    conjugators sharing the image of an orbit's least letter."""
    for d in (3, 4):
        for k in range(12):
            def build(k=k, d=d):
                sys = random_bounded(k, 6, d)
                other = random_bounded(1000 + k, 3, d)
                h = one(sys, merge_into(sys, other)[other.symbols[-1]])
                names = sys.symbols
                gs = [one(sys, names[-1]), one(sys, names[0]), one(sys, names[len(names) // 2])]
                return gs, [multiply(multiply(inverse(h), g), h) for g in gs]
            yield build


def trivial_tuples():
    """Builders of tuples with trivial components: [a, e] against
    [b, e] and against [a^-1, e], e spelled b*c*d in Grigorchuk's group,
    all-trivial tuples at degrees 2 and 3, a planted pair with e
    appended, and the negative [a, e] against [a^-1, a]."""
    def build(text, left, right):
        sys = parse_system(text)
        return [Element.parse(sys, w) for w in left], [Element.parse(sys, w) for w in right]

    yield functools.partial(build, TWISTED, ["a", "e"], ["b", "e"])
    yield functools.partial(build, TWISTED, ["a", "e"], ["a^-1", "e"])
    yield functools.partial(build, CLASSIC["grigorchuk"][0], ["a", "b*c*d"], ["a", "e"])
    yield functools.partial(build, TWISTED, ["e", "e"], ["e", "e"])
    yield functools.partial(build, CLASSIC["hanoi"][0], ["e"], ["x*x"])
    yield functools.partial(build, TWISTED, ["a", "e"], ["a^-1", "a"])

    def appended():
        gs, hs = planted_pair(3, 3)
        e = Element(gs[0].system, EMPTY)
        return gs + [e], hs + [e]

    yield appended


# degree 5 with trivial root permutations on a and b (and on their
# conjugates by t): every one of the 120 permutations is a common root
# conjugator of the input tuple
TRIVIAL_ROOTS = """\
alphabet 5
s = (e, e, e, e, e) [1 0 2 3 4]
r = (e, e, e, e, e) [1 2 0 3 4]
a = (s, e, r, e, a)
b = (e, r, e, s, e)
t = (r, e, e, e, s) [4 3 2 1 0]
"""


def test_pair_level_graph_matches_the_triple_level_reference():
    # survival of a reachable pair depends only on reachable pairs, so
    # the graph is the all-pairs reference restricted to the pairs
    # reachable from (0, 0), with the same roots
    complete = 0
    unreachable = 0
    for build in random_pairs():
        graph = conj_graph(*build(), cap=32)
        ref = reference_conj_graph(*build(), cap=32)
        assert graph.complete == (ref is not None)
        if ref is None:
            continue
        complete += 1
        vertices, edges, roots, reachable = ref
        restricted = [v for v in vertices if v[:2] in set(reachable)]
        unreachable += len(vertices) - len(restricted)
        assert graph.roots == roots
        assert sorted(graph.vertices) == restricted
        assert list(graph.edges) == graph.vertices
        for v in restricted:
            assert list(graph.edges[v].items()) == list(edges[v].items())
        # pairs come in discovery order, each with its survivors in
        # conjugator order
        assert list(graph.pairs) == [p for p in reachable if any(v[:2] == p for v in vertices)]
        for i, j in reachable:
            assert graph.pair_options(i, j) == [v[2] for v in vertices if v[:2] == (i, j)]
        assert graph.pair_options(len(graph.os_a.elements), 0) == []
    assert complete >= 40
    assert unreachable  # the slice has surviving vertices outside the reachable pairs


def test_the_pair_graph_and_the_one_tuple_graph_are_one_graph():
    # corpus pairs and the g against g^-1 inputs of the Aut sweep: a
    # 1-tuple node holds the one constraint pair of its closure pair, so
    # both graphs keep the same roots, vertices and nodes
    inputs = [(a, b) for _, _, _, a, b, _ in load_corpus().pairs(30, 10)]
    for d in (3, 4, 5):
        for k in range(28):
            sys = random_bounded(k, 6, d)
            g = one(sys, sys.symbols[-1])
            inputs.append((g, inverse(g)))
    compared = 0
    for a, b in inputs:
        graph = conj_graph(a, b, cap=32)
        if not graph.complete:
            continue
        tuples = sim_conj_graph([a], [b])
        assert tuples.complete
        assert [v[-1] for v in tuples.roots] == [v[-1] for v in graph.roots]
        assert len(tuples.vertices) == len(graph.vertices)
        assert len(tuples.pairs) == len(graph.pairs)
        compared += 1
    assert compared >= 100


def test_tuple_node_graph_matches_the_vertex_level_reference():
    shared_images = multi_generator = 0
    for build in [*planted_tuples(), *planted_triples()]:
        graph = sim_conj_graph(*build(), cap=10**6)
        vertices, edges, roots, _ = reference_sim_conj_graph(*build())
        assert graph.complete
        assert graph.vertices == vertices
        assert graph.roots == roots
        assert list(graph.edges) == vertices
        assert [list(graph.edges[v].items()) for v in vertices] == [list(edges[v].items()) for v in vertices]
        sys, words = graph.interner.system, graph.interner.words
        for (tk,), live in graph.pairs.items():
            perms = [sys.root_perm(words[ka]) for ka, _ in tk]
            for y0, orb, _ in _joint_orbits(perms, sys.degree):
                multi_generator += sum(any(p[y] != y for y in orb) for p in perms) > 1
                images = [v[-1][y0] for v in live]
                shared_images += len(set(images)) < len(images)
    # the inputs reach joint orbits moved by several components, and
    # surviving root conjugators that share an orbit's base image
    assert multi_generator and shared_images


def test_a_tuple_node_builds_one_constraint_tuple_per_orbit_and_image(monkeypatch):
    def build():
        sys = parse_system(TRIVIAL_ROOTS)
        gs, h = [one(sys, "a"), one(sys, "b")], one(sys, "t")
        return gs, [multiply(multiply(inverse(h), g), h) for g in gs]

    as_, bs = build()
    for a, b in zip(as_, bs):
        assert len(conjugators(a.root_perm, b.root_perm)) == 120
    # builds[n] counts the constraint tuples of the n-th expanded node,
    # which has orbit_counts[n] joint orbits
    builds, orbit_counts = [], []
    joint_orbits, constraint_pairs = conjugacy._joint_orbits, conjugacy._constraint_pairs

    def counted_orbits(perms, degree):
        out = joint_orbits(perms, degree)
        orbit_counts.append(len(out))
        builds.append(0)
        return out

    def counted_pairs(*args):
        builds[-1] += 1
        return constraint_pairs(*args)

    monkeypatch.setattr(conjugacy, "_joint_orbits", counted_orbits)
    monkeypatch.setattr(conjugacy, "_constraint_pairs", counted_pairs)
    graph = sim_conj_graph(as_, bs, cap=10**6)
    assert graph.complete and graph.roots
    # the root has five one-letter orbits and 120 vertices: 25 tuples, not 600
    assert builds[0] == 25
    assert all(n <= k * 5 for n, k in zip(builds, orbit_counts))
    monkeypatch.undo()
    vertices, edges, roots, _ = reference_sim_conj_graph(*build())
    assert graph.vertices == vertices
    assert graph.roots == roots
    assert [list(graph.edges[v].items()) for v in vertices] == [list(edges[v].items()) for v in vertices]


def test_the_tuple_cap_bounds_every_vertex_found():
    # a tuple graph is complete exactly when all the vertices it finds,
    # the roots included, fit under the cap
    for build in planted_tuples():
        found = reference_sim_conj_graph(*build())[3]
        for cap in sorted({0, 1, found - 1, found, found + 1}):
            if cap < 0:
                continue
            graph = sim_conj_graph(*build(), cap=cap)
            assert graph.complete == (found <= cap), (cap, found)
            if graph.complete:
                assert len(graph.vertices) <= cap


def test_a_tuple_key_is_the_sorted_set_of_its_non_trivial_pairs(monkeypatch):
    expanded = []
    tuple_words = conjugacy._tuple_words

    def recorded(graph, node):
        expanded.append(node)
        return tuple_words(graph, node)

    monkeypatch.setattr(conjugacy, "_tuple_words", recorded)
    unconstrained = 0
    for build in [*planted_tuples(), *trivial_tuples()]:
        expanded.clear()
        graph = sim_conj_graph(*build(), cap=10**6)
        assert graph.complete
        sys, words = graph.interner.system, graph.interner.words
        for (tk,) in expanded + list(graph.pairs):
            assert list(tk) == sorted(set(tk))
            for ka, kb in tk:
                assert not (is_trivial(Element(sys, words[ka])) and is_trivial(Element(sys, words[kb])))
        # the empty key leaves every permutation, each letter leading back
        if ((),) in graph.pairs:
            unconstrained += 1
            everything = graph.pairs[((),)]
            assert graph.pair_options(()) == list(conjugators(identity(sys.degree), identity(sys.degree)))
            assert len(everything) == math.factorial(sys.degree)
            for v in everything:
                assert graph.edges[v] == {x: everything for x in range(sys.degree)}
    assert unconstrained >= 3


def test_tuple_verdicts_match_the_ordered_keys_with_the_trivial_pair():
    # the ordered keys keeping (e, e) give other nodes, but a node means
    # "some h conjugates every pair in it" either way
    verdicts = collections.Counter()
    # the rest of the Aut sweep's tuples: planted_tuples holds k < 12
    sweep = [functools.partial(planted_pair, k, d) for d in (3, 4, 5) for k in range(12, 28, 3)]
    for build in [*planted_tuples(), *planted_triples(), *sweep, *trivial_tuples()]:
        as_, bs = build()
        graph = sim_conj_graph(as_, bs, cap=10**6)
        ref = reference_sim_conj_graph(*build(), ordered=True, cap=4096)
        assert graph.complete and ref is not None
        assert bool(graph.roots) == bool(ref[2])
        verdicts[bool(graph.roots)] += 1
        if graph.roots:
            h = sim_basic_conjugator(graph).element
            for a, b in zip(as_, bs):
                assert verify_conjugator(h, a, b, 6)
    assert verdicts == {True: 65, False: 1}


def test_a_one_tuple_at_cap_zero_is_unknown_like_the_pair(odometer):
    _, a = odometer
    assert conjugate_in_aut(a, inverse(a), cap=0).tag == "unknown"
    dec = conjugate_in_aut_simultaneous([a], [inverse(a)], cap=0)
    assert dec.tag == "unknown"
    assert dec.reason == "tuple graph exceeded cap 0"


# -- Aut conjugacy by colour refinement ------------------------------------------

# bounded groups as DSL text, each with words whose ordered pairs the
# colour corpus compares (the DSL takes only the exponents 1 and -1)
CLASSIC = {
    "grigorchuk": ("alphabet 2\na = (e, e) [1 0]\nb = (a, c)\nc = (a, d)\nd = (e, b)\n",
                   ["a", "b", "c", "d", "a*b", "a*c", "a*d", "a*b*a*c"]),
    "basilica": ("alphabet 2\na = (e, b)\nb = (e, a) [1 0]\n",
                 ["a", "b", "a^-1", "b^-1", "a*b", "b*a", "a*b^-1", "a*a*b"]),
    "hanoi": ("alphabet 3\nx = (e, e, x) [1 0 2]\ny = (e, y, e) [2 1 0]\nz = (z, e, e) [0 2 1]\n",
              ["x", "y", "z", "x*y", "y*x", "x*z", "x*y*z", "x*y*x"]),
    "odometer": ("alphabet 2\na = (e, a) [1 0]\n",
                 ["e", "a", "a^-1", "a*a", "a^-1*a^-1", "a*a*a", "a^-1*a^-1*a^-1", "a*a*a*a"]),
}


@functools.cache
def colour_corpus() -> list:
    """(degree, a, b): for d = 2..6 and k < 40, g the last symbol of
    random_bounded(k, 6, d) against g^-1, against the first symbol and
    against h^-1*g*h, h the last symbol of random_bounded(1000 + k, 3, d)
    merged in; then every ordered pair of words of each CLASSIC group."""
    out = []
    for d in range(2, 7):
        for k in range(40):
            sys = random_bounded(k, 6, d)
            g, f = one(sys, sys.symbols[-1]), one(sys, sys.symbols[0])
            other = random_bounded(1000 + k, 3, d)
            h = one(sys, merge_into(sys, other)[other.symbols[-1]])
            out += [(d, g, t) for t in (inverse(g), f, multiply(multiply(inverse(h), g), h))]
    for text, words in CLASSIC.values():
        sys = parse_system(text)
        elements = [Element(sys, parse_word(w)) for w in words]
        out += [(sys.degree, a, b) for a in elements for b in elements]
    return out


def test_colour_verdicts_match_the_pruned_graph():
    # wherever the pruned graph over the all-letter closures decides, the
    # colours of the least-letter closures give its verdict, and each
    # colour witness verifies; the smaller closures decide 3 pairs more
    tally = collections.Counter()
    for d, a, b in colour_corpus():
        dec = conjugate_in_aut(a, b)
        graph = conj_graph(a, b)
        if graph.complete:
            assert dec.tag == ("conjugate" if graph.roots else "not_conjugate"), (a, b)
        tally[dec.tag, graph.status] += 1
        if dec.conjugate:
            assert verify_conjugator(basic_conjugator(dec.graph), a, b, 10 if d == 2 else 6) is True, (a, b)
    assert tally == {("conjugate", "complete"): 501, ("not_conjugate", "complete"): 352,
                     ("conjugate", "exceeded"): 2, ("not_conjugate", "exceeded"): 1}


def test_colour_negatives_are_certified_by_the_orbit_tree_codes():
    # a negative names the first depth r at which the colours of a and b
    # differ: the leaf oracle's codes agree at depth r - 1 and differ at r
    depths = collections.Counter()
    for _, a, b in colour_corpus():
        dec = conjugate_in_aut(a, b)
        if dec.tag == "not_conjugate":
            r = int(dec.reason.removeprefix("orbit trees differ at depth "))
            assert orbit_tree_code(a, r - 1) == orbit_tree_code(b, r - 1), (a, b)
            assert orbit_tree_code(a, r) != orbit_tree_code(b, r), (a, b)
            depths[r] += 1
    assert depths == {1: 236, 2: 99, 3: 14, 4: 4}


def test_refinement_counts_multiplicities():
    # nodes 0 and 1 both have three orbits of size 1, into the same
    # classes but not equally often, so they part in round 2; a class
    # that splits keeps its id for its largest part, the first on a tie
    succ = [[(1, 2), (1, 2), (1, 3)], [(1, 2), (1, 3), (1, 3)], [(2, 2)], [(1, 3), (1, 3)]]
    rounds = [(list(colour), signed) for colour, signed in refine(succ)]
    assert rounds == [([0, 0, 1, 2], 4), ([0, 3, 1, 2], 4)]
    # one colour for unfoldings that agree at every depth
    assert [list(colour) for colour, _ in refine([[(1, 1)], [(1, 2)], [(1, 2)], [(1, 3)]])] == [[0, 0, 0, 0]]


def test_refinement_signs_a_chain_linearly(monkeypatch):
    # f1 and f2 of swap_chains(n) differ only where f1's chain ends, at
    # depth n - 1; each round signs again only the predecessors of the
    # nodes whose class split, two per round here, not the whole chains
    signed = []

    def counted(succ):
        for colour, n in refine(succ):
            signed.append(n)
            yield colour, n

    monkeypatch.setattr(conjugacy, "refine", counted)
    counts = []
    for levels in (200, 400):
        signed.clear()
        sys = parse_system(swap_chains(levels))
        f1, f2 = one(sys, "f1"), one(sys, "f2")
        dec = conjugate_in_aut(f1, f2, cap=4096)
        assert dec.reason == "orbit trees differ at depth %d" % (levels - 1)
        counts.append(sum(signed))
        if levels == 200:  # within the oracle's MAX_DEPTH
            assert orbit_tree_code(f1, 198) == orbit_tree_code(f2, 198)
            assert orbit_tree_code(f1, 199) != orbit_tree_code(f2, 199)
    assert counts == [797, 1597] and counts[1] <= 2.5 * counts[0]
