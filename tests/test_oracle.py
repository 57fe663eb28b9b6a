"""Leaf-level oracles: truncations, orbit codes, witness checking, and
the seeded generator they all get exercised against."""

from math import lcm

import pytest

from arboreal import (
    DepthTooLarge,
    Element,
    act,
    equal,
    inverse,
    is_bounded,
    minimize,
    multiply,
    orbit_tree_code,
    power,
    random_bounded,
    truncate,
    truncated_order,
    verify_conjugator,
)
from arboreal import elements
from arboreal.oracle import MAX_DEPTH, MAX_LEAVES
from arboreal.perms import orbits
from arboreal.system import FRSystem, format_system, merge_into, parse_system, rename_word

from conftest import BRANCH, CARRY, TWISTED, ZOO, one


def test_truncation_of_the_identity(odometer):
    sys, a = odometer
    t = truncate(multiply(a, inverse(a)), 5)
    for level in t.level_maps[1:]:
        assert list(level) == sorted(level)


def deepest_level(degree: int) -> int:
    n = 0
    while degree ** (n + 1) <= MAX_LEAVES:
        n += 1
    return n


def assert_matches_act(g, n):
    """Every level map of the truncation agrees with act, vertex by vertex."""
    d = g.system.degree
    t = truncate(g, n)
    vertices = [()]
    for k in range(n + 1):
        level = t.level_maps[k]
        assert len(level) == d**k
        for code, v in enumerate(vertices):
            image = 0
            for y in act(g, v):
                image = image * d + y
            assert level[code] == image
        vertices = [v + (x,) for v in vertices for x in range(d)]


def test_truncation_is_the_level_action(odometer):
    _, a = odometer
    t = truncate(a, 3)
    assert t.depth == 3
    assert len(t.level_maps[3]) == 8
    # the depth-3 map is an 8-cycle: +1 on bit-reversed indices
    seen, x = set(), 0
    for _ in range(8):
        seen.add(x)
        x = t.level_maps[3][x]
    assert len(seen) == 8
    assert_matches_act(a, 3)
    # wider alphabets at the deepest level the oracle accepts, on words
    # with an inverse factor
    for degree in (3, 4, 5):
        for seed in range(3):
            sys = random_bounded(seed, 6, degree)
            first, last = sys.symbols[0], sys.symbols[-1]
            g = Element(sys, ((last, 1), (first, -1), (last, 1)))
            assert_matches_act(g, deepest_level(degree))
    # exponential activity, alone and against an inverse factor
    zoo = parse_system(ZOO)
    assert_matches_act(one(zoo, "l"), deepest_level(2))
    assert_matches_act(Element(zoo, (("l", 1), ("m", -1))), deepest_level(2))


def reference_orbit_codes(maps, d):
    """Orbit-tree code at every depth 0..len(maps)-1, read off the level
    maps of a truncation: per orbit of each level, its size and the
    sorted distinct codes of the orbits of the next level below it, each
    after its count when more than one child orbit has it."""
    per_level = []  # (orbit id of each vertex, orbits)
    for level in maps:
        oid = [0] * len(level)
        cycles = orbits(level)
        for i, cyc in enumerate(cycles):
            for v in cyc:
                oid[v] = i
        per_level.append((oid, cycles))
    out = []
    for n in range(len(maps)):
        codes = ["(%d)" % len(c) for c in per_level[n][1]]
        for k in range(n - 1, -1, -1):
            oid, cycles = per_level[k]
            children = [[] for _ in cycles]
            for i, cyc in enumerate(per_level[k + 1][1]):
                children[oid[cyc[0] // d]].append(codes[i])
            codes = ["(%d:%s)" % (len(cyc), ",".join(c if kids.count(c) == 1 else "%dx%s" % (kids.count(c), c)
                                                     for c in sorted(set(kids))))
                     for cyc, kids in zip(cycles, children)]
        out.append(codes[0])
    return out


def first_difference(g, h, n):
    """The least level at most n whose maps differ under g and h, else None."""
    mine, theirs = truncate(g, n).level_maps, truncate(h, n).level_maps
    return next((k for k in range(n + 1) if mine[k] != theirs[k]), None)


def oracle_inputs():
    """Elements of every activity class, with inverse factors, each with
    the deepest level the truncation accepts at its degree."""
    for degree in (2, 3, 4, 5):
        for seed in range(3):
            sys = random_bounded(seed, 6, degree)
            first, last = sys.symbols[0], sys.symbols[-1]
            yield Element(sys, ((last, 1), (first, -1), (last, 1))), deepest_level(degree)
            yield Element(sys, ((first, 1), (last, 1))), deepest_level(degree)
    zoo = parse_system(ZOO)
    yield one(zoo, "l"), deepest_level(2)
    yield Element(zoo, (("l", 1), ("m", -1), ("a", 1))), deepest_level(2)
    branch = parse_system(BRANCH)
    for word in ("b", "a*b^-1*c", "c^-1*b*a"):
        yield Element.parse(branch, word), deepest_level(2)


def test_orbit_recursion_matches_the_level_maps():
    for g, deepest in oracle_inputs():
        maps = truncate(g, deepest).level_maps
        codes = reference_orbit_codes(maps, g.system.degree)
        for n in range(deepest + 1):
            assert truncated_order(g, n) == lcm(*(len(c) for c in orbits(maps[n]))), (g, n)
            assert orbit_tree_code(g, n) == codes[n], (g, n)


def test_pair_walk_matches_the_level_maps():
    refused = 0
    for h, deepest in oracle_inputs():
        a = one(h.system, h.system.symbols[-1])
        true = multiply(multiply(inverse(h), a), h)
        for b in (true, a, inverse(a)):
            first = first_difference(true, b, deepest)
            refused += first is not None
            for n in range(deepest + 1):
                # refused from the first differing level on, not before
                assert verify_conjugator(h, a, b, n) == (first is None or n < first), (h, b, n)
    assert refused


def test_oracles_share_no_state_with_the_deciders(monkeypatch):
    sys = random_bounded(16, 4, 2)
    a = one(sys, sys.symbols[-1])
    other = random_bounded(1016, 3, 2)
    h = one(sys, merge_into(sys, other)[other.symbols[-1]])
    # the target, rebuilt from its minimal machine, shares no spelling with h^-1*a*h
    msys, m = minimize(multiply(multiply(inverse(h), a), h)).to_system()
    b = Element(sys, rename_word(m.word, merge_into(sys, msys)))

    def forbidden(*args, **kwargs):
        raise AssertionError("a leaf oracle reached the word problem")

    monkeypatch.setattr(FRSystem, "find", forbidden)
    monkeypatch.setattr(FRSystem, "union", forbidden)
    monkeypatch.setattr(elements.Interner, "key", forbidden)
    monkeypatch.setattr(elements, "_equal_words", forbidden)
    n = deepest_level(2)
    assert verify_conjugator(h, a, b, n)
    assert not verify_conjugator(h, a, a, n)
    assert truncated_order(a, n) == truncated_order(b, n)
    assert orbit_tree_code(a, n) == orbit_tree_code(b, n)


def test_truncations_refuse_huge_depths(odometer):
    _, a = odometer
    with pytest.raises(DepthTooLarge):
        truncate(a, 20)


def test_the_pair_walk_guards_the_pairs_it_holds(odometer):
    # the odometer's sections are a and e, so every level of the walk
    # holds at most two pairs however deep it goes
    sys, a = odometer
    e = Element(sys, ())
    assert verify_conjugator(e, a, a, 40, max_leaves=2)
    with pytest.raises(DepthTooLarge):
        verify_conjugator(e, a, a, 40, max_leaves=1)


def test_a_closed_pair_walk_holds_at_every_depth():
    # the pairs of k^-1*a*k against a^-1, k the spine of swaps, close
    # after a few levels, so a depth no level-by-level walk could reach
    # is answered at once
    sys = parse_system("alphabet 2\na = (e, a) [1 0]\nk = (k, k) [1 0]\n")
    a, k = one(sys, "a"), one(sys, "k")
    assert verify_conjugator(k, a, inverse(a), 10**9, max_leaves=8)
    assert not verify_conjugator(k, a, a, 10**9)


def test_a_deep_first_mismatch_is_found():
    # b1 follows the odometer down its spine for four levels, then stops
    # carrying: the first root permutations that differ are at depth 4,
    # below a level that already repeats the pair (e, e)
    sys = parse_system("alphabet 2\na = (e, a) [1 0]\nb1 = (e, b2) [1 0]\n"
                       "b2 = (e, b3) [1 0]\nb3 = (e, b4) [1 0]\nb4 = (e, e) [1 0]\n")
    e, a, b = Element(sys, ()), one(sys, "a"), one(sys, "b1")
    assert [verify_conjugator(e, a, b, n) for n in range(12)] == [True] * 5 + [False] * 7
    assert not verify_conjugator(e, a, b, 10**9)


def test_truncated_order_growth(odometer):
    _, a = odometer
    assert [truncated_order(a, n) for n in (1, 2, 3, 10)] == [2, 4, 8, 1024]


def test_truncated_order_stabilizes(carry):
    _, _, q = carry
    assert truncated_order(q, 1) == 1  # the root acts trivially
    assert all(truncated_order(q, n) == 2 for n in (2, 3, 8))


def test_orbit_codes_are_conjugacy_invariants(odometer):
    _, a = odometer
    for n in range(1, 11):
        assert orbit_tree_code(a, n) == orbit_tree_code(inverse(a), n)
    assert orbit_tree_code(a, 1) != orbit_tree_code(multiply(a, inverse(a)), 1)
    assert orbit_tree_code(a, 2) != orbit_tree_code(power(a, 2), 2)


def test_orbit_codes_count_the_child_orbits():
    # a transposition and a double transposition at degree 5 have child
    # orbits of sizes 1 and 2 both, but not equally many
    sys = parse_system("alphabet 5\nu = (e, e, e, e, e) [1 0 2 3 4]\nv = (e, e, e, e, e) [1 0 3 2 4]\n")
    u, v = one(sys, "u"), one(sys, "v")
    assert orbit_tree_code(u, 0) == orbit_tree_code(v, 0) == "(1)"
    assert orbit_tree_code(u, 1) == "(1:3x(1),(2))"
    assert orbit_tree_code(v, 1) == "(1:(1),2x(2))"
    assert all(orbit_tree_code(u, n) != orbit_tree_code(v, n) for n in range(1, 13))
    # a subtree fixed pointwise has a code linear in its depth
    assert len(orbit_tree_code(Element(sys, ()), MAX_DEPTH)) < 10 * MAX_DEPTH


def test_orbit_codes_agree_across_the_carry_pair(carry):
    _, p, q = carry
    assert orbit_tree_code(p, 8) == orbit_tree_code(q, 8)


def test_conjugator_verification(twisted):
    sys, a, b = twisted
    assert verify_conjugator(Element(sys, ()), a, a, 10)
    assert not verify_conjugator(Element(sys, ()), a, inverse(a), 4)
    sys.define("h", (1, 0), [(), ()])  # the root swap does not centralize a
    assert not verify_conjugator(one(sys, "h"), a, a, 4)
    sys.define("k", (1, 0), [(("k", 1),), (("k", 1),)])
    assert verify_conjugator(one(sys, "k"), a, inverse(a), 10)


def test_verification_matches_exact_equality(twisted):
    sys, a, b = twisted
    sys.define("k", (1, 0), [(("k", 1),), (("k", 1),)])
    k = one(sys, "k")
    lhs = multiply(multiply(inverse(k), a), k)
    assert (equal(lhs, inverse(a)) is True) == verify_conjugator(k, a, inverse(a), 8)


def test_generator_is_deterministic():
    assert format_system(random_bounded(7)) == format_system(random_bounded(7))
    assert format_system(random_bounded(7)) != format_system(random_bounded(8))


def test_generator_output_is_bounded():
    for seed in range(60):
        sys = random_bounded(seed)
        for name in sys.symbols:
            assert is_bounded(one(sys, name))


def test_generator_hits_both_shapes():
    ringed = flat = 0
    for seed in range(40):
        names = set(random_bounded(seed).symbols)
        if any(n.startswith("c") for n in names):
            ringed += 1
        else:
            flat += 1
    assert ringed and flat


def test_generator_respects_degree():
    sys = random_bounded(3, degree=3)
    assert sys.degree == 3
    g = one(sys, next(iter(sys.symbols)))
    assert len(act(g, (0, 1, 2))) == 3
