"""Shared systems for the suite.

Each constant is a DSL text; `one` wraps a single defined symbol as an
element.  Tests parse fresh copies so synthesized conjugators never
leak between cases.
"""

import itertools
import random

import pytest

from arboreal import Element
from arboreal.system import parse_system

# binary odometer: infinite order, bounded, one nontrivial state
ODOMETER = """\
alphabet 2
a = (e, a) [1 0]
"""

# the odometer next to its twisted sibling (inverse up to conjugation)
TWISTED = """\
alphabet 2
a = (e, a) [1 0]
b = (e, b^-1) [1 0]
"""

# two carry machines threading a root swap down opposite sides
CARRY = """\
alphabet 2
s = (e, e) [1 0]
p = (s, p)
q = (q, s)
"""

# one symbol per activity class
ZOO = """\
alphabet 2
s = (e, e) [1 0]
a = (e, a) [1 0]
m = (a, m)
l = (l, l) [1 0]
"""

# exponential activity; its orbit-power closure keeps growing
BRANCH = """\
alphabet 2
a = (e, a) [1 0]
b = (a, c) [1 0]
c = (a, b)
"""


def deep_chains(levels: int) -> str:
    """Degree-3 DSL text of two finitary chains of the given depth,
    fi = (f(i+1), e, e) [p_i] and ki = (k(i+1), e, e) [q_i], the last
    level's section e, each root permutation a non-identity one drawn
    per level from random.Random(1).  k1^-1*f1*k1 and f1 are conjugate
    by a finitary automorphism whose witness is as deep as the chains."""
    rng = random.Random(1)
    moving = [p for p in itertools.permutations(range(3)) if p != (0, 1, 2)]
    lines = ["alphabet 3"]
    for name in ("f", "k"):
        for i in range(1, levels + 1):
            below = "%s%d" % (name, i + 1) if i < levels else "e"
            perm = " ".join(map(str, rng.choice(moving)))
            lines.append("%s%d = (%s, e, e) [%s]" % (name, i, below, perm))
    return "\n".join(lines) + "\n"


def one(sys, name: str) -> Element:
    return Element(sys, ((name, 1),))


@pytest.fixture
def odometer():
    sys = parse_system(ODOMETER)
    return sys, one(sys, "a")


@pytest.fixture
def twisted():
    sys = parse_system(TWISTED)
    return sys, one(sys, "a"), one(sys, "b")


@pytest.fixture
def carry():
    sys = parse_system(CARRY)
    return sys, one(sys, "p"), one(sys, "q")


@pytest.fixture
def zoo():
    return parse_system(ZOO)


@pytest.fixture
def branch():
    sys = parse_system(BRANCH)
    return sys, one(sys, "b")
