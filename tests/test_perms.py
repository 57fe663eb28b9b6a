"""Root conjugator enumeration by cycle type, against a scan of Sym(d)."""

import itertools
import math
import random

import pytest

from arboreal import CONJUGATOR_CAP, DegreeTooLarge, conjugators


def reference_conjugators(p, q):
    """Every r with r^-1 * p * r == q, scanning Sym(d) in lexicographic
    order: the enumeration before cycle types."""
    d = len(p)
    return tuple(
        r for r in itertools.permutations(range(d))
        if all(r[p[x]] == q[r[x]] for x in range(d))
    )


def test_every_pair_up_to_degree_four():
    for d in range(5):
        perms = list(itertools.permutations(range(d)))
        for p in perms:
            for q in perms:
                assert conjugators(p, q) == reference_conjugators(p, q), (p, q)


def test_seeded_pairs_at_degrees_five_to_seven():
    rng = random.Random(10)
    for d in (5, 6, 7):
        for _ in range(40):
            p = tuple(rng.sample(range(d), d))
            # half the targets share p's cycle type: q = r^-1 p r
            if rng.random() < 0.5:
                q = tuple(rng.sample(range(d), d))
            else:
                r = rng.sample(range(d), d)
                inv = [0] * d
                for x, y in enumerate(r):
                    inv[y] = x
                q = tuple(r[p[inv[y]]] for y in range(d))
            assert conjugators(p, q) == reference_conjugators(p, q), (p, q)


def test_the_cap_is_on_the_centralizer_not_the_degree():
    cycle = tuple((x + 1) % 9 for x in range(9))
    assert conjugators(cycle, cycle) == tuple(
        tuple((x + k) % 9 for x in range(9)) for k in range(9))
    with pytest.raises(DegreeTooLarge):
        conjugators(tuple(range(9)), tuple(range(9)))
    # every permutation of degree 8 is still accepted: the identity has
    # the largest centralizer, all of Sym(8)
    assert CONJUGATOR_CAP == math.factorial(8)
    assert len(conjugators(tuple(range(8)), tuple(range(8)))) == CONJUGATOR_CAP
    # different cycle types need no enumeration at any size
    assert conjugators(tuple(range(9)), cycle) == ()
    with pytest.raises(ValueError, match="degree mismatch"):
        conjugators((0, 1), (0, 1, 2))
