"""Shared systems for the suite.

Each constant is a DSL text; `one` wraps a single defined symbol as an
element.  Tests parse fresh copies so synthesized conjugators never
leak between cases.
"""

import contextlib
import itertools
import random
import sys

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


def swap_chains(levels: int) -> str:
    """Degree-2 DSL text of two finitary chains of the given depth,
    fi = (f(i+1), e) and ki = (k(i+1), e) [1 0], each ending in
    (e, e) [1 0]: the states of a chain differ only at the chain's last
    level, so their words share signatures deep into the chains."""
    lines = ["alphabet 2"]
    for name, perm in (("f", ""), ("k", " [1 0]")):
        for i in range(1, levels):
            lines.append("%s%d = (%s%d, e)%s" % (name, i, name, i + 1, perm))
        lines.append("%s%d = (e, e) [1 0]" % (name, levels))
    return "\n".join(lines) + "\n"


def deep_bounded(chain: int, ring: int) -> str:
    """Degree-2 DSL text of two bounded automata with t = (e, e) [1 0]:
    ai = (a(i+1), t or e) and hi = (h(i+1), e) with root [1 0] or the
    identity, for i = 1..chain + ring, where the last state's first
    section is a(chain + 1), resp. h(chain + 1).  So a1 runs down a chain
    of length chain into a ring of length ring, h1 likewise, and
    h1^-1*a1*h1 is conjugate to a1 by the bounded h1.  The decorations
    and root permutations are drawn from random.Random(2), the ring's
    decorations redrawn until no rotation repeats them, so the ring's
    states are distinct."""
    rng = random.Random(2)
    marks = [rng.choice("te") for _ in range(chain + ring)]
    while any(marks[chain:] == marks[chain + k:] + marks[chain:chain + k] for k in range(1, ring)):
        marks[chain:] = [rng.choice("te") for _ in range(ring)]
    n = chain + ring
    lines = ["alphabet 2", "t = (e, e) [1 0]"]
    for i in range(1, n + 1):
        below = i + 1 if i < n else chain + 1
        lines.append("a%d = (a%d, %s)" % (i, below, marks[i - 1]))
    for i in range(1, n + 1):
        below = i + 1 if i < n else chain + 1
        lines.append("h%d = (h%d, e)%s" % (i, below, rng.choice(["", " [1 0]"])))
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def recursion_headroom(frames: int):
    """Lower the process's recursion limit to the current stack depth
    plus frames inside the block, and restore it afterwards."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def one(sys, name: str) -> Element:
    return Element(sys, ((name, 1),))


def short_words(sys) -> list[Element]:
    """The elements of every word of length at most 2 over the symbols
    of sys and their inverses, the empty word included."""
    letters = [((name, x),) for name in sys.symbols for x in (1, -1)]
    return [Element(sys, w) for w in [()] + letters + [u + v for u in letters for v in letters]]


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
