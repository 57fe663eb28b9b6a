"""Conjugator graphs over the full group, witness synthesis, the
simultaneous variant, and canonical representatives."""

import pytest

from arboreal import (
    DegreeTooLarge,
    Element,
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
    minimize,
    multiply,
    power,
    sim_basic_conjugator,
    sim_conj_graph,
    verify_conjugator,
)
from arboreal.graphs import surviving
from arboreal.system import parse_system

from conftest import BRANCH, TWISTED, one
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
    # each node has one group, its only successor; the chain dies from its
    # far end whatever order a sweep visits the nodes in
    chain = {k: [[k + 1]] for k in range(40)}
    chain[40] = [[]]
    assert surviving(chain) == set()
    # an empty group kills, no group at all survives, a non-node never survives
    assert surviving({"x": [], "y": [[]], "z": [["w"]]}) == {"x"}
    # a cycle survives, and so does a node that picks it over a dead member
    cyc = {"p": [["q"]], "q": [["p", "dead"]], "r": [["dead", "q"], ["p"]], "dead": [[]]}
    assert surviving(cyc) == {"p", "q", "r"}
    # the configuration form: a node needs one live branch, a branch every step
    branches = {
        "A": [[("A", 0), ("A", 1)]], ("A", 0): [("B",)], ("A", 1): [("C",), ("A",)],
        "B": [[("B", 0)]], ("B", 0): [("A",), ("D",)],
        "C": [[("C", 0)]], ("C", 0): [("C",)],
        "D": [[]],
    }
    assert surviving(branches) == {"A", ("A", 1), "C", ("C", 0)}


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
    dec = conjugate_in_aut(a, inverse(a))
    for w in all_basic_conjugators(dec.graph):
        m = expand_to_finite_state(w)
        assert m == minimize(w.element)
        assert m.n_states <= 2


def test_simultaneous_singleton_matches_plain(odometer):
    _, a = odometer
    dec = conjugate_in_aut_simultaneous([a], [inverse(a)])
    assert dec.conjugate
    h = sim_basic_conjugator(dec.graph)
    assert _verified(h.element, a, inverse(a))
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
