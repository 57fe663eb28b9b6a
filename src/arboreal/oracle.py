"""Brute-force ground truth on depth-truncated trees.

Nothing here knows about the decision procedures: actions are unrolled
level by level straight from the recursion, so these functions serve as
independent cross-checks for order, conjugacy and classification.  The
vertices of a level share one row per identical reduced section word;
no two distinct words are merged, even when they name one element.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .elements import Element, inverse, multiply
from .perms import identity, orbits
from .system import EMPTY, FRSystem


class DepthTooLarge(ValueError):
    pass


MAX_LEAVES = 16384


@dataclass(frozen=True)
class TruncatedAut:
    """Action on the tree cut at a depth: one permutation per level,
    on integer-coded words (code(vx) = code(v)*d + x)."""

    degree: int
    depth: int
    level_maps: tuple


def _check_depth(degree: int, n: int, max_leaves: int):
    if degree**n > max_leaves:
        raise DepthTooLarge("degree %d at depth %d exceeds %d leaves" % (degree, n, max_leaves))


def _level_maps(g: Element, n: int):
    """Yield the permutation of each level 0..n as a list of image codes.

    Each vertex carries the index of its section word in a table of the
    distinct reduced words of its level; the root permutation and the
    child indices of a word are computed once and shared by every vertex
    with that same word.  Words are grouped by syntactic identity alone,
    never by the word problem, so two spellings of one element get two
    rows and the unrolling stays independent of the deciders it checks.
    """
    sys = g.system
    d = sys.degree
    words = [g.word]
    state = [0]
    img = [0]
    yield img
    for _ in range(n):
        index: dict = {}
        rows = []
        for w in words:
            kids = []
            for x in range(d):
                kids.append(index.setdefault(sys.section(w, x), len(index)))
            rows.append((sys.root_perm(w), kids))
        nimg: list = []
        nstate: list = []
        for base, k in zip(img, state):
            p, kids = rows[k]
            base *= d
            nimg.extend([base + y for y in p])
            nstate.extend(kids)
        yield nimg
        words, state, img = list(index), nstate, nimg


def truncate(g: Element, n: int, max_leaves: int = MAX_LEAVES) -> TruncatedAut:
    _check_depth(g.system.degree, n, max_leaves)
    maps = tuple(tuple(m) for m in _level_maps(g, n))
    return TruncatedAut(g.system.degree, n, maps)


def truncated_order(g: Element, n: int, max_leaves: int = MAX_LEAVES) -> int:
    """Order of the induced permutation on level n; divides the true
    order whenever that is finite."""
    _check_depth(g.system.degree, n, max_leaves)
    last = None
    for m in _level_maps(g, n):
        last = m
    return lcm(*(len(c) for c in orbits(last)))


def orbit_tree_code(g: Element, n: int, max_leaves: int = MAX_LEAVES) -> str:
    """Canonical string of the orbit tree of <g> on the truncated tree:
    per orbit, its size and the sorted codes of its child orbits.
    Conjugate automorphisms get equal codes at every depth."""
    t = truncate(g, n, max_leaves)
    d = g.system.degree
    per_level = []  # (orbit_id array, orbit count, sizes)
    for k in range(n + 1):
        cycles = orbits(t.level_maps[k])
        oid = [0] * (d**k)
        sizes = []
        for i, cyc in enumerate(cycles):
            sizes.append(len(cyc))
            for v in cyc:
                oid[v] = i
        per_level.append((oid, sizes))
    codes = ["(%d)" % s for s in per_level[n][1]]
    for k in range(n - 1, -1, -1):
        oid, sizes = per_level[k]
        child_oid = per_level[k + 1][0]
        children = [[] for _ in sizes]
        for v, i in enumerate(child_oid):
            children[oid[v // d]].append(codes[i])
        # one orbit contributes d^?|duplicates per member; keep each child once
        codes = [
            "(%d:%s)" % (sizes[i], ",".join(sorted(set(children[i]))))
            for i in range(len(sizes))
        ]
    return codes[0]


def verify_conjugator(h, a: Element, b: Element, n: int, max_leaves: int = MAX_LEAVES) -> bool:
    """act(h^-1 * a * h, v) == act(b, v) for every v of length <= n."""
    h = getattr(h, "element", h)
    _check_depth(a.system.degree, n, max_leaves)
    lhs = multiply(multiply(inverse(h), a), h)
    for mine, theirs in zip(_level_maps(lhs, n), _level_maps(b, n)):
        if mine != theirs:
            return False
    return True


def random_bounded(seed: int, state_budget: int = 4, degree: int = 2) -> FRSystem:
    """Deterministic generator of bounded systems: a layered stack of
    finitary symbols, optionally with one ring of symbols threaded by a
    single section each, so the only cycle among nontrivial states is
    that ring."""
    rng = random.Random(seed)
    d = degree
    total = rng.randint(1, state_budget)
    ring_len = rng.choice([0, 0] + list(range(1, total + 1)))
    n_fin = total - ring_len
    sys = FRSystem(d)
    fin_names: list[str] = []

    def finitary_word(rng):
        if not fin_names or rng.random() < 0.4:
            return EMPTY
        length = 1 if rng.random() < 0.7 else 2
        w = EMPTY
        for _ in range(length):
            w = w + ((rng.choice(fin_names), rng.choice((1, 1, -1))),)
        return w

    def random_perm(rng):
        images = list(range(d))
        rng.shuffle(images)
        return tuple(images)

    for i in range(n_fin):
        name = "f%d" % (i + 1)
        secs = [finitary_word(rng) for _ in range(d)]
        perm = random_perm(rng)
        if perm == identity(d) and all(not w for w in secs):
            j = rng.randrange(d - 1)
            images = list(range(d))
            images[j], images[j + 1] = images[j + 1], images[j]
            perm = tuple(images)
        sys.define(name, perm, secs)
        fin_names.append(name)
    for i in range(ring_len):
        name = "c%d" % (i + 1)
        succ = "c%d" % (1 + (i + 1) % ring_len)
        secs = [finitary_word(rng) for _ in range(d)]
        secs[rng.randrange(d)] = ((succ, rng.choice((1, 1, -1))),)
        sys.define(name, random_perm(rng), secs)
    sys.validate()
    return sys
