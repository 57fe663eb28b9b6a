"""Leaf-level oracles: truncations, orbit codes, witness checking, and
the seeded generator they all get exercised against."""

import pytest

from arboreal import (
    DepthTooLarge,
    Element,
    act,
    equal,
    inverse,
    is_bounded,
    multiply,
    orbit_tree_code,
    power,
    random_bounded,
    truncate,
    truncated_order,
    verify_conjugator,
)
from arboreal.oracle import MAX_LEAVES
from arboreal.system import format_system, parse_system

from conftest import CARRY, TWISTED, ZOO, one


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


def test_truncations_refuse_huge_depths(odometer):
    _, a = odometer
    with pytest.raises(DepthTooLarge):
        truncate(a, 20)


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
