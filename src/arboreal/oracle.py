"""Ground truth on depth-truncated trees.

Nothing here knows about the decision procedures, so these functions
serve as independent cross-checks for order, conjugacy and
classification.  `truncate` unrolls the action level by level straight
from the recursion and is the definition the others are tested against.
`verify_conjugator` is a state-pair walk and `truncated_order` and
`orbit_tree_code` are an orbit-power recursion; both group section
words by syntactic identity alone, never by the word problem, so two
spellings of one element are walked twice and no decider state is read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from math import lcm

from .elements import MAX_WORD_LENGTH, Element, inverse, multiply
from .perms import identity, orbits
from .system import EMPTY, FRSystem


class DepthTooLarge(ValueError):
    pass


MAX_LEAVES = 16384
# deepest level of the orbit-power recursions, at about three frames a
# level well inside Python's default recursion limit of 1000
MAX_DEPTH = 256


@dataclass(frozen=True)
class TruncatedAut:
    """Action on the tree cut at a depth: one permutation per level,
    on integer-coded words (code(vx) = code(v)*d + x)."""

    degree: int
    depth: int
    level_maps: tuple


def _check_depth(degree: int, n: int):
    if degree**n > MAX_LEAVES:
        raise DepthTooLarge("degree %d at depth %d exceeds %d leaves" % (degree, n, MAX_LEAVES))


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


def truncate(g: Element, n: int) -> TruncatedAut:
    _check_depth(g.system.degree, n)
    maps = tuple(tuple(m) for m in _level_maps(g, n))
    return TruncatedAut(g.system.degree, n, maps)


def _orbit_powers(sys: FRSystem, w):
    """(m, w^m|_x) for each orbit of the root permutation of w, x its
    least letter and m its length."""
    return [(len(c), sys.power_sections(w, c[0])[-1]) for c in orbits(sys.root_perm(w))]


def truncated_order(g: Element, n: int) -> int:
    """Order of the induced permutation on level n; divides the true
    order whenever that is finite.

    Orbit-power recursion, grouped by syntactic identity: below an orbit
    (x, m) of the root permutation of w, <w> acts on level k as <w^m|_x>
    acts on level k-1 with every orbit m times longer, so the order L
    has L(w, k) = lcm of m * L(w^m|_x, k-1) and L(w, 0) = 1.  Memoised on
    (w, k) for one call.
    """
    sys = g.system
    if n > MAX_DEPTH:
        raise DepthTooLarge("depth %d exceeds %d levels" % (n, MAX_DEPTH))

    @cache
    def level_order(w, k):
        return 1 if k == 0 else lcm(*(m * level_order(u, k - 1) for m, u in _orbit_powers(sys, w)))

    return level_order(g.word, n)


def orbit_tree_code(g: Element, n: int) -> str:
    """Canonical string of the orbit tree of <g> on the truncated tree:
    per orbit, its size and the sorted distinct codes of its child
    orbits, each after its count kx when k > 1 child orbits share it.
    Two automorphisms get equal codes at depth n iff their orbit trees
    cut at depth n are isomorphic, which holds at every depth iff they
    are conjugate in Aut(T).  Counts, not repeats, keep the code of a
    subtree fixed pointwise linear in its depth.

    Orbit-power recursion, grouped by syntactic identity: an orbit of
    size s whose power section is w has one child orbit of size s*m per
    orbit (x, m) of the root permutation of w, with power section
    w^m|_x.  Memoised for one call: the orbit powers on w, the code on
    (w, k, s).
    """
    sys = g.system
    if n > MAX_DEPTH:
        raise DepthTooLarge("depth %d exceeds %d levels" % (n, MAX_DEPTH))
    powers = cache(lambda w: _orbit_powers(sys, w))

    @cache
    def code(w, k, s):
        if k == 0:
            return "(%d)" % s
        kids: dict = {}  # child code -> number of child orbits with it
        for m, u in powers(w):
            c = code(u, k - 1, s * m)
            kids[c] = kids.get(c, 0) + 1
        return "(%d:%s)" % (s, ",".join(c if kids[c] == 1 else "%dx%s" % (kids[c], c) for c in sorted(kids)))

    return code(g.word, n, 1)


def verify_conjugator(h, a: Element, b: Element, n: int, max_leaves: int = MAX_LEAVES) -> bool:
    """act(h^-1 * a * h, v) == act(b, v) for every v of length <= n.

    State-pair walk: the two level-k maps agree exactly when the root
    permutations agree at every vertex above level k, so walk the pairs
    of sections (h^-1*a*h|_v, b|_v), syntactically distinct, and compare
    root permutations at depths 0..n-1.  One visited set spans all
    levels and each level expands only the pairs it adds; a level that
    adds none closes the walk, and the check then holds at every depth.
    The guard is on what the walk holds, not on the d^n vertices of a
    level: DepthTooLarge when it holds more than max_leaves pairs or a
    section word more than MAX_WORD_LENGTH letters.
    """
    h = getattr(h, "element", h)
    sa, sb = a.system, b.system
    level = {(multiply(multiply(inverse(h), a), h).word, b.word)}
    seen = set(level)
    for depth in range(n):
        if len(seen) > max_leaves:
            raise DepthTooLarge("%d section pairs at depth %d exceed %d" % (len(seen), depth, max_leaves))
        if any(len(u) > MAX_WORD_LENGTH or len(v) > MAX_WORD_LENGTH for u, v in level):
            raise DepthTooLarge("a section word at depth %d exceeds %d letters" % (depth, MAX_WORD_LENGTH))
        if any(sa.root_perm(u) != sb.root_perm(v) for u, v in level):
            return False
        if depth == n - 1:
            break
        level = {(sa.section(u, x), sb.section(v, x)) for u, v in level for x in range(sa.degree)} - seen
        if not level:
            break
        seen |= level
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
