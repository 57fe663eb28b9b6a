"""Tree automorphisms presented as words over the symbols of a system.

An Element never enumerates the tree: its action, sections and powers
are evaluated lazily through the defining recursion of its system.
Equality is the word problem and is decided by a bisimulation over
pairs of words, up to the equalities already known, with a budget; a
decision is remembered, so repeated set membership tests cost one
dictionary lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perms import Perm
from .system import EMPTY, FRSystem, Word, format_word, invert_word, join, parse_word

# the number of section pairs one equality walk may merge
EQUALITY_BUDGET = 10**6
MINIMIZE_BUDGET = 10**5
# words longer than this are not explored: systems that are not finite
# state can double section lengths per level, so a count budget alone
# would exhaust memory long before it exhausts the count
MAX_WORD_LENGTH = 2**15


@dataclass(frozen=True)
class Exceeded:
    """A search budget ran out; a value, not an error."""

    kind: str
    budget: int

    def __bool__(self):
        raise TypeError("Exceeded is not a verdict; compare explicitly")


class Element:
    """A word over system symbols, acting on the rooted tree from the right."""

    __slots__ = ("system", "word")

    def __init__(self, system: FRSystem, word):
        self.system = system
        self.word = system.check_word(word)

    # -- construction ----------------------------------------------------

    @staticmethod
    def parse(system: FRSystem, text: str) -> "Element":
        return Element(system, parse_word(text))

    @staticmethod
    def trivial(system: FRSystem) -> "Element":
        return Element(system, EMPTY)

    @staticmethod
    def symbol(system: FRSystem, name: str) -> "Element":
        return Element(system, ((name, 1),))

    @staticmethod
    def _of(system: FRSystem, word: Word) -> "Element":
        """Element of a word already reduced over defined symbols, which
        is not checked again."""
        g = object.__new__(Element)
        g.system, g.word = system, word
        return g

    # -- basic protocol ---------------------------------------------------

    def __repr__(self):
        return "<Element %s>" % format_word(self.word)

    def __str__(self):
        return format_word(self.word)

    def __hash__(self):
        return hash((id(self.system), self.word))

    def __eq__(self, other):
        # structural identity only; semantic equality is equal()
        return isinstance(other, Element) and self.system is other.system and self.word == other.word

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def __invert__(self) -> "Element":
        return inverse(self)

    def __pow__(self, n: int) -> "Element":
        return power(self, n)

    # -- evaluation --------------------------------------------------------

    @property
    def root_perm(self) -> Perm:
        return self.system.root_perm(self.word)

    def section(self, letter: int) -> "Element":
        return Element(self.system, self.system.section(self.word, letter))


def _same_system(g: Element, h: Element) -> FRSystem:
    if g.system is not h.system:
        raise ValueError("elements live in different systems; merge them first")
    return g.system


# -- group operations -----------------------------------------------------


def multiply(g: Element, h: Element) -> Element:
    sys = _same_system(g, h)
    return Element._of(sys, join(g.word, h.word))


def inverse(g: Element) -> Element:
    return Element(g.system, invert_word(g.word))


def power(g: Element, n: int) -> Element:
    base = g.word if n >= 0 else invert_word(g.word)
    return Element(g.system, base * abs(n))


def act(g: Element, vertex) -> tuple[int, ...]:
    """Image of a vertex (sequence of letters) under the automorphism."""
    sys = g.system
    w = g.word
    out = []
    for x in vertex:
        if not 0 <= x < sys.degree:
            raise ValueError("letter %r outside alphabet of degree %d" % (x, sys.degree))
        out.append(sys.root_perm(w)[x])
        w = sys.section(w, x)
    return tuple(out)


def section(g: Element, vertex) -> Element:
    w = g.word
    for x in vertex:
        w = g.system.section(w, x)
    return Element(g.system, w)


# -- orbits -----------------------------------------------------------------


def orbit(g: Element, letter: int) -> tuple[int, ...]:
    """Orbit of a letter under the root permutation, starting at the letter."""
    p = g.root_perm
    orb = [letter]
    y = p[letter]
    while y != letter:
        orb.append(y)
        y = p[y]
    return tuple(orb)


def orbit_power_section(g: Element, letter: int) -> tuple[int, Element]:
    """(m, g^m|_letter) for m the orbit length of the letter.

    Computed as the product of sections along the orbit, never by
    raising g to the m-th power first.
    """
    powers = g.system.power_sections(g.word, letter)
    return len(powers) - 1, Element(g.system, powers[-1])


# -- the word problem --------------------------------------------------------


def _bisimulate(sys: FRSystem, u: Word, v: Word, budget: int):
    """Decide u == v for two different union-find representatives of at
    most MAX_WORD_LENGTH letters: True, False or Exceeded.

    A breadth-first walk over pairs of section words, up to equivalence
    (Hopcroft and Karp): a pair is skipped when its two words are the
    same, when the system already knows them equal, or when the pairs
    merged so far already join them.  A pair whose root permutations
    differ, or that the system knows to be different, answers False,
    for the walk and for each merged pair on its path (_refute).
    Every merged pair is assumed equal, which is sound because the walk
    closes them under sections.  The budget counts merged pairs, the
    first one included.
    """
    root, section, find, eq = sys.root_perm, sys.section, sys.find, sys._eq
    if root(u) != root(v):
        return False
    # run-local union-find: each merge points one class root at another;
    # merged pairs are walked in the order they are merged, and up[i] is
    # the index of the pair whose sections merged[i] is
    joined = {u: v}
    merged = [(u, v)]
    up = [-1]
    i = 0
    while i < len(merged):
        s, t = merged[i]
        for x in range(sys.degree):
            a, b = find(section(s, x)), find(section(t, x))
            if len(a) > MAX_WORD_LENGTH or len(b) > MAX_WORD_LENGTH:
                return Exceeded("word length", MAX_WORD_LENGTH)
            if a == b:
                continue
            known = eq.get((a, b) if a <= b else (b, a))
            if known is False:
                return _refute(eq, merged, up, i)
            if known:
                continue
            ra, rb = a, b
            while ra in joined:
                ra = joined[ra]
            while rb in joined:
                rb = joined[rb]
            if ra == rb:
                continue
            if root(a) != root(b):
                return _refute(eq, merged, up, i)
            if len(merged) >= budget:
                return Exceeded("bisimulation pairs", budget)
            joined[ra] = rb
            merged.append((a, b))
            up.append(i)
        i += 1
    # a*b^-1 is trivial for each merged pair: these are the words a walk
    # of the quotient u*v^-1 visits, up to the representatives it picks,
    # and the union-find learns them as it would from that walk
    sys.union(u, v)
    for a, b in merged:
        sys.union(join(a, invert_word(b)), EMPTY)
    return True


def _refute(eq: dict, merged: list, up: list, i: int) -> bool:
    """False, recorded in eq for merged[i] and every pair above it on
    the walk: each has an unequal section on the path down to the pair
    that failed."""
    while i >= 0:
        a, b = merged[i]
        eq[(a, b) if a <= b else (b, a)] = False
        i = up[i]
    return False


def is_trivial(g: Element):
    """True / False / Exceeded: g == e, decided as equal decides it."""
    return _equal_words(g.system, g.word, EMPTY, EQUALITY_BUDGET)


def _equal_words(sys: FRSystem, u: Word, v: Word, budget: int):
    """Decide u == v for two reduced words: the union-find, the cache of
    decided pairs and the signature classes, one level permutation per
    word (system.py), first; then _bisimulate.
    A word longer than MAX_WORD_LENGTH that neither of the first two
    decides is Exceeded, before any signature is built."""
    u, v = sys.find(u), sys.find(v)
    if u == v:
        return True
    key = (u, v) if u <= v else (v, u)
    cached = sys._eq.get(key)
    if cached is not None:
        return cached
    if len(u) > MAX_WORD_LENGTH or len(v) > MAX_WORD_LENGTH:
        return Exceeded("word length", MAX_WORD_LENGTH)
    if sys.signature(u) != sys.signature(v):
        sys._eq[key] = False
        return False
    res = _bisimulate(sys, u, v, budget)
    if isinstance(res, bool):
        sys._eq[key] = res
    return res


def equal(g: Element, h: Element, budget: int = EQUALITY_BUDGET):
    """Decide g == h as tree automorphisms.  True / False / Exceeded."""
    return _equal_words(_same_system(g, h), g.word, h.word, budget)


class Interner:
    """Assigns stable integer keys to reduced words by semantic equality.

    Keys are handed out in first-seen order; words[k] is the union-find
    representative the key was created for.  Lookup first tries the
    representative, then the bucket of its signature class, its
    permutation of one tree level (system.py), and only runs
    bisimulations against candidates sharing the class.
    """

    def __init__(self, system: FRSystem):
        self.system = system
        self.words: list[Word] = []
        self._by_root: dict[Word, int] = {}
        self._buckets: dict[int, list[int]] = {}

    def __len__(self):
        return len(self.words)

    def _probe(self, root: Word):
        """(key, signature) for a union-find representative word that is
        not a known root: key is that of an interned word equal to it,
        None when there is none, or Exceeded; signature is None when the
        word is too long to probe."""
        sys = self.system
        if len(root) > MAX_WORD_LENGTH:
            return Exceeded("word length", MAX_WORD_LENGTH), None
        sig = sys.signature(root)
        for k in self._buckets.get(sig, ()):
            res = _equal_words(sys, self.words[k], root, EQUALITY_BUDGET)
            if res is True:
                self._by_root[sys.find(root)] = k
                return k, sig
            if isinstance(res, Exceeded):
                return res, sig
        return None, sig

    def key(self, w: Word):
        """Key of the reduced word w, or Exceeded when the word is longer
        than MAX_WORD_LENGTH or an equality run blows the budget."""
        root = self.system.find(w)
        hit = self._by_root.get(root)
        if hit is None:
            hit, sig = self._probe(root)
        if hit is not None:
            return hit
        k = len(self.words)
        self.words.append(root)
        self._buckets.setdefault(sig, []).append(k)
        self._by_root[root] = k
        return k

    def lookup(self, w: Word):
        """Key of the reduced word w if semantically present, None if
        not, or Exceeded as for key; never inserts."""
        root = self.system.find(w)
        hit = self._by_root.get(root)
        return hit if hit is not None else self._probe(root)[0]


# -- finite-state machines ----------------------------------------------------


def _section_graph(interner: Interner, start: Word, cap: int, skip=()):
    """Breadth-first walk over the keys of the sections of the word
    start, itself included, letters ascending, never entering a key of
    skip (so none at all when start's key is in skip).

    Returns (keys, rows) in discovery order, rows[i] holding the indices
    into keys of the sections of keys[i] that are not skipped; or
    Exceeded: the interner's, or ("states", cap) as soon as more than cap
    keys would be held.
    """
    sys = interner.system
    k = interner.key(start)
    if isinstance(k, Exceeded):
        return k
    if k in skip:
        return [], []
    keys = [k]
    index = {k: 0}
    rows: list[list[int]] = []
    for k in keys:
        cur = interner.words[k]
        row = []
        for x in range(sys.degree):
            kk = interner.key(sys.section(cur, x))
            if isinstance(kk, Exceeded):
                return kk
            if kk in skip:
                continue
            if kk not in index:
                if len(keys) >= cap:
                    return Exceeded("states", cap)
                index[kk] = len(keys)
                keys.append(kk)
            row.append(index[kk])
        rows.append(row)
    return keys, rows


@dataclass(frozen=True)
class Machine:
    """Minimal complete automaton of a finite-state automorphism.

    State 0 is the initial state; states appear in breadth-first
    discovery order with letters ascending, so isomorphic machines
    produced by this module compare equal.
    """

    degree: int
    transitions: tuple[tuple[int, ...], ...]
    outputs: tuple[Perm, ...]
    trivial: int | None

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def to_system(self) -> tuple[FRSystem, Element]:
        """Rebuild a system with one symbol per nontrivial state; returns
        the system and the element of the initial state."""
        sys = FRSystem(self.degree)
        names = {}
        for i in range(self.n_states):
            if i != self.trivial:
                names[i] = "s%d" % i
        for i, name in names.items():
            secs = []
            for x in range(self.degree):
                t = self.transitions[i][x]
                secs.append(EMPTY if t == self.trivial else ((names[t], 1),))
            sys.define(name, self.outputs[i], secs)
        if 0 in names:
            return sys, Element.symbol(sys, names[0])
        return sys, Element.trivial(sys)


def minimize(g: Element, budget: int = MINIMIZE_BUDGET):
    """Machine of g, with states folded by semantic equality, or Exceeded.

    Because states are merged by actual equality of automorphisms the
    resulting machine is minimal, and minimizing an element rebuilt from
    it yields an isomorphic machine.
    """
    sys = g.system
    interner = Interner(sys)
    walk = _section_graph(interner, g.word, budget)
    if isinstance(walk, Exceeded):
        return walk
    order, transitions = walk
    words = [interner.words[k] for k in order]
    outputs = tuple(sys.root_perm(w) for w in words)
    trivial = next((i for i, w in enumerate(words) if _equal_words(sys, w, EMPTY, EQUALITY_BUDGET) is True), None)
    return Machine(
        degree=sys.degree,
        transitions=tuple(tuple(r) for r in transitions),
        outputs=outputs,
        trivial=trivial,
    )
