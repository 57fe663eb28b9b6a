"""Conjugacy restricted to finitary and bounded automorphisms.

Everything here runs over configurations: an orbit of the left input on
some level is summarized by its orbit-power pair together with the set
of section pairs that tie the conjugator states along the orbit to the
state at the least vertex.  For bounded inputs the set of reachable
configurations is finite, so the finitary decision is a fixpoint over
it, walked layer by layer only until the queried depth is at most the
number of layers expanded, which makes it exact.  The bounded decision
walks the input pair's configuration first: a finitary depth answers
conjugate, and a closed walk whose root dies in the survival fixpoint
answers not conjugate in Aut, before any conjugator graph is built.
Only the pairs left open build the pruned graph, whose closure cap then
bounds the answer, and run the rule table _RULES, then reduction
sweeps, over one per-query state; tests/test_bounded.py tests each rule
and the sweep alone.

The matrix procedure is the constructive cross-check: per choice of a
conjugating permutation for every configuration, a column-stochastic-
like integer matrix transports pair counts level to level and a 0/1 row
reads off how many conjugator states are active.  A conjugator bounded
along some eventually periodic choice keeps that reading bounded.

Every decider here walks the one ConfigSpace of its system
(ConfigSpace.of), so a query reads the configuration steps that earlier
queries on the same system computed.  What one call walks, its universe,
its FinSat with its caps and its witness symbols, stays with that call.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass

from .classify import polynomial_degree
from .conjugacy import _orbit_sections, _pair_sections, conj_graph
from .elements import EQUALITY_BUDGET, Element, Exceeded, Interner, _equal_words, _same_system
from .graphs import breadth_first, surviving
from .perms import Perm, compose, conjugators, is_identity, inverse as perm_inverse, orbits
from .system import EMPTY, FRSystem, Word, format_word, invert_word, join

log = logging.getLogger("arboreal.bounded")


class NotBounded(ValueError):
    pass


class _CapExceeded(Exception):
    def __init__(self, info):
        self.info = info


class ConfigSpace:
    """Interner-backed store for configurations of one system.

    A configuration is an int handed out by config.  Its value
    configs[c] is the main pair followed by the dependency pairs, sorted
    by key, as one flat tuple of interner keys (ka, kb, kc1, kd1, ...):
    flat, as the cyclic collector untracks tuples of ints one level of
    nesting per collection.  The trivial element is interned first so
    key 0 is always e, which keeps (e,e) in front.  steps keeps per
    (configuration, permutation) only a (letter, size, configuration)
    tuple per orbit; the matrix procedure, the one reader of the
    dependency-pair moves, gets them from moves on demand.

    ConfigSpace.of(system) is the space the deciders share; it lives as
    long as its system and grows with every query on it.  That is sound
    because definitions are append-only and keys are semantic, and an
    entry is written only once computed, so a walk stopped by a cap
    leaves none half written.  Concurrent deciders on one system are
    unsupported, as concurrent define is.  ConfigSpace(system) builds a
    private space.

    Every orbit step is read from tables of pure functions of keys and
    letters.  Write w = word(k), c = word(kc), and let x be a letter whose
    orbit under the root permutation of w has length m, with y = x w^t.
    Then _powers[(k, x)] is [w^t|_x for t = 0..m], _orbit_keys[(k, x)]
    is the key of w^m|_x, and _moves[(k, kc, x, y)] is the key of
    (w^t * c)|_x = w^t|_x * c|_y.  A step of the pair (a, b) under pi
    reads the a side at (ka, kc, x, y) and the b side at
    (kb, kd, pi[x], pi[y]), since x a^t pi = x pi b^t; so one entry
    serves every root conjugator, every configuration and both sides.
    """

    def __init__(self, system: FRSystem):
        self.system = system
        self.interner = Interner(system)
        self.trivial = self.key(EMPTY)
        self.configs: list = []
        self._ids: dict = {}
        self._cpi: dict = {}
        self._succ: dict = {}
        self._orbits: dict = {}
        self._powers: dict = {}
        self._orbit_keys: dict = {}
        self._moves: dict = {}

    @classmethod
    def of(cls, system: FRSystem) -> ConfigSpace:
        """The space stored on system, created on first use."""
        if system._space is None:
            system._space = cls(system)
        return system._space

    def key(self, w: Word) -> int:
        k = self.interner.key(w)
        if isinstance(k, Exceeded):
            raise _CapExceeded(k)
        return k

    def word(self, k: int) -> Word:
        return self.interner.words[k]

    def root_perm(self, k: int) -> Perm:
        return self.system.root_perm(self.interner.words[k])

    def orbits(self, k: int) -> list:
        if k not in self._orbits:
            self._orbits[k] = orbits(self.root_perm(k))
        return self._orbits[k]

    def powers(self, k: int, x: int) -> list:
        """[w^t|_x for t = 0..m], w = word(k)."""
        ps = self._powers.get((k, x))
        if ps is None:
            ps = self._powers[(k, x)] = self.system.power_sections(self.word(k), x)
        return ps

    def orbit_key(self, k: int, x: int) -> int:
        """Key of w^m|_x, w = word(k), m the orbit length of x."""
        ko = self._orbit_keys.get((k, x))
        if ko is None:
            ko = self._orbit_keys[(k, x)] = self.key(self.powers(k, x)[-1])
        return ko

    def _move(self, entry: tuple, t: int) -> int:
        """Key of (w^t * c)|_x for an entry (k, kc, x, y) missing from
        _moves, which steps and moves read inline: w = word(k),
        c = word(kc)."""
        k, kc, x, y = entry
        moved = join(self.powers(k, x)[t], self.system.section(self.word(kc), y))
        km = self._moves[entry] = self.key(moved)
        return km

    def config(self, main, dp) -> int:
        """The id of the configuration with main pair main and the
        dependency pairs dp, given in any order and with repeats."""
        value = (*main, *itertools.chain(*sorted(set(dp))))
        c = self._ids.get(value)
        if c is None:
            c = self._ids[value] = len(self.configs)
            self.configs.append(value)
        return c

    def root_config(self, a: Element, b: Element) -> int:
        return self.pair_config(self.key(a.word), self.key(b.word))

    def pair_config(self, ka: int, kb: int) -> int:
        return self.config((ka, kb), [(self.trivial, self.trivial)])

    def is_trivial(self, c: int) -> bool:
        """Every pair of configuration c equal: the trivial automorphism
        satisfies it."""
        return self.configs[c][0::2] == self.configs[c][1::2]

    def dependency_pairs(self, c: int) -> list:
        return list(zip(self.configs[c][2::2], self.configs[c][3::2]))

    def cpi(self, c: int) -> tuple:
        """The root conjugators of configuration c's main pair."""
        main = self.configs[c][:2]
        out = self._cpi.get(main)
        if out is None:
            out = self._cpi[main] = conjugators(self.root_perm(main[0]), self.root_perm(main[1]))
        return out

    def steps(self, c: int, pi: Perm) -> tuple:
        """Per orbit of the main pair's left root action, a tuple (letter,
        size, configuration): the orbit's least letter, its length and the
        induced configuration one level down, whose dependency pairs are
        the targets of the moves."""
        out = self._succ.get((c, pi))
        if out is not None:
            return out
        ka, kb = self.configs[c][:2]
        dp, table, move = self.dependency_pairs(c), self._moves, self._move
        out = []
        for orb in self.orbits(ka):
            x = orb[0]
            px = pi[x]
            main2 = (self.orbit_key(ka, x), self.orbit_key(kb, px))
            targets = {
                (table[ea] if (ea := (ka, kc, x, y)) in table else move(ea, t),
                 table[eb] if (eb := (kb, kd, px, pi[y])) in table else move(eb, t))
                for kc, kd in dp
                for t, y in enumerate(orb)
            }
            out.append((x, len(orb), self.config(main2, targets)))
        out = self._succ[(c, pi)] = tuple(out)
        return out

    def moves(self, c: int, pi: Perm) -> list:
        """Per orbit step of steps(c, pi), in its order: the multiset of
        dependency-pair moves (source pair, target pair), one per pair
        and power."""
        ka, kb = self.configs[c][:2]
        dp, table, move = self.dependency_pairs(c), self._moves, self._move
        out = []
        for orb in self.orbits(ka):
            x, px = orb[0], pi[orb[0]]
            out.append([
                ((kc, kd), (table[ea] if (ea := (ka, kc, x, y)) in table else move(ea, t),
                            table[eb] if (eb := (kb, kd, px, pi[y])) in table else move(eb, t)))
                for kc, kd in dp
                for t, y in enumerate(orb)
            ])
        return out

    def sections(self, c: int, pi: Perm, fills: list) -> list:
        """_orbit_sections of c's main pair under pi and the fills."""
        ka, kb = self.configs[c][:2]
        return _orbit_sections(self.system, self.word(ka), self.word(kb), pi, fills)

    def describe(self, c: int) -> str:
        pair, *dps = ["(%s, %s)" % (format_word(self.word(kc)), format_word(self.word(kd)))
                      for kc, kd in zip(self.configs[c][0::2], self.configs[c][1::2])]
        return "{%s; DP={%s}}" % (pair, ", ".join(dps))


@dataclass(eq=False)
class ConfigClosure:
    """Closure from the root configuration.

    Configurations are ids of space.  universe maps every configuration
    explored to its branches, one per root conjugator pi, each the tuple
    of orbit steps (letter, size, configuration).  viable is the
    survival fixpoint (graphs.surviving) over the configurations, each
    branch one option of its configuration: a configuration lives iff
    one of its branches induces only live configurations, and a step out
    of the universe never lives.  configs lists the viable
    configurations reachable from the root through surviving branches,
    in breadth-first order.
    """

    space: ConfigSpace
    root: int | None
    configs: list
    universe: dict
    viable: set
    status: str

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def viable_cpi(self, cfg: int) -> tuple:
        out = []
        for pi in self.space.cpi(cfg):
            steps = self.universe.get(cfg, {}).get(pi)
            if steps is not None and all(c in self.viable for _, _, c in steps):
                out.append(pi)
        return tuple(out)


def configurations(a: Element, b: Element, cap: int = 512) -> ConfigClosure:
    _require_bounded(a, b)
    space = ConfigSpace.of(_same_system(a, b))
    # the root is walked whatever the cap
    fin = FinSat(space, max(cap, 1), "config cap %d" % cap)
    try:
        root = space.root_config(a, b)
        breadth_first(root, lambda cfg: [c for steps in fin.expand(cfg).values() for _, _, c in steps])
    except _CapExceeded as exc:
        return ConfigClosure(space, None, [], {}, set(), "exceeded: %s" % (exc.info,))
    return _closure(space, root, fin.univ)


def _closure(space: ConfigSpace, root: int, universe: dict) -> ConfigClosure:
    """The ConfigClosure of a universe closed under successors."""
    # one option per branch; a step out of the universe names the dead last node
    ids = {cfg: n for n, cfg in enumerate(universe)}
    flags = surviving([[[ids.get(c, len(ids)) for _, _, c in steps] for steps in branches.values()]
                       for branches in universe.values()] + [[]])
    viable = {cfg for cfg, live in zip(universe, flags) if True in live}
    configs: list = []
    if root in viable:
        configs = breadth_first(root, lambda cfg: (
            c for steps, f in zip(universe[cfg].values(), flags[ids[cfg]]) if f for _, _, c in steps
        ))
    return ConfigClosure(space, root, configs, universe, viable, "complete")


def _conjugates(sys: FRSystem, h: Word, a: Word, b: Word):
    """Check h^-1 * a * h == b: True / False / Exceeded."""
    return _equal_words(sys, join(join(invert_word(h), a), h), b, EQUALITY_BUDGET)


# -- finitary conjugators --------------------------------------------------------


class FinSat:
    """Least fixpoint of finitary satisfiability over configurations.

    Depth 0 holds when the main pair and every dependency pair are
    semantically equal (the trivial automorphism works); depth k+1 needs
    a permutation whose induced configurations all lie at depth <= k.
    Witnesses are synthesized bottom-up as fresh symbols.

    satisfiable(cfg) walks breadth-first from cfg and after each layer
    runs the fixpoint over univ, the configurations expanded, taking the
    others as unsatisfiable unless trivial.  After L layers a depth d at
    distance r is exact if d <= L - r: its witness tree lies inside.  Only
    exact depths and their _pi are recorded, and the walk stops once cfg's
    depth is at most L; None needs a closed walk, which marks what it left
    without a depth dead.  cap bounds univ, over all walks.
    """

    def __init__(self, space: ConfigSpace, cap: int = 4096, full: str | None = None):
        self.space = space
        self.cap = cap
        self.full = full or "finitary universe cap %d" % cap
        self.univ: dict = {}
        self.depth: dict = {}
        self._pi: dict = {}
        self.dead: set = set()
        self._witness: dict = {}
        self.status = "complete"

    def expand(self, cfg: int) -> dict:
        """The branches {pi: steps} of cfg, stored in univ when first
        computed; _CapExceeded(full) if that passes the cap."""
        branches = self.univ.get(cfg)
        if branches is None:
            if len(self.univ) >= self.cap:
                raise _CapExceeded(self.full)
            branches = self.univ[cfg] = {pi: self.space.steps(cfg, pi) for pi in self.space.cpi(cfg)}
        return branches

    # One walk's fixpoint: the branch steps of cfg, at distance r, waits
    # on one induced configuration without a depth at a time; once all
    # have depths it is ready, valued one more than the largest, and _run
    # gives least values first where r plus value is within the horizon.

    def _watch(self, cfg: int, r: int, steps: tuple):
        depth = self.depth
        wait = next((c for _, _, c in steps if c not in depth), None)
        if wait is None:
            heapq.heappush(self._heap, (1 + max(depth[c] for _, _, c in steps), r, cfg))
        else:
            self._waits.setdefault(wait, []).append((cfg, r, steps))

    def _run(self, horizon: int | None):
        depth, later = self.depth, []
        while self._heap:
            v, r, cfg = entry = heapq.heappop(self._heap)
            if cfg in depth:
                continue
            if horizon is not None and r + v > horizon:
                later.append(entry)
                continue
            depth[cfg] = v
            self._pi[cfg] = next(pi for pi, steps in self.univ[cfg].items()
                                 if all(depth.get(c, v) < v for _, _, c in steps))
            for branch in self._waits.pop(cfg, ()):
                self._watch(*branch)
        self._heap = later  # popped in order, so already a heap

    def satisfiable(self, cfg: int):
        """Depth of cfg, or None: unsatisfiable, or the cap was hit."""
        depth = self.depth
        if cfg in depth or cfg in self.dead or self.status != "complete":
            return depth.get(cfg)
        if self.space.is_trivial(cfg):
            depth[cfg] = 0
        self._waits, self._heap = {}, []
        layer, seen, dead, r = [cfg], {cfg}, self.dead, 0
        try:
            while layer and cfg not in depth:
                nxt = []
                for c in layer:
                    branches = self.expand(c)
                    for s in [t for steps in branches.values() for _, _, t in steps]:
                        if s not in seen and s not in depth and s not in dead:
                            seen.add(s)
                            nxt.append(s)
                            if self.space.is_trivial(s):
                                depth[s] = 0
                    if c not in depth:
                        for steps in branches.values():
                            self._watch(c, r, steps)
                self._run(r + 1 if nxt else None)
                layer, r = nxt, r + 1
        except _CapExceeded as exc:  # cfg is left without a depth
            self.status = "exceeded: %s" % (exc.info,)
        if not layer:  # closed: every configuration seen was expanded
            dead.update(c for c in seen if c not in depth)
        return depth.get(cfg)

    def witness_word(self, cfg: int) -> Word:
        """Word of a finitary automorphism satisfying cfg; requires
        satisfiable(cfg) is not None.

        Symbols are defined in post-order, the induced configurations of
        a configuration's steps in step order before it.  The walk keeps
        an explicit stack: a witness can be deeper than the recursion
        limit."""
        memo, depth = self._witness, self.depth
        if cfg not in memo and self.satisfiable(cfg) is None:
            raise ValueError("configuration is not finitary-satisfiable")
        # a configuration with a permutation in _pi has its steps' depths
        stack = [cfg]
        while stack:
            c = stack[-1]
            if c in memo:
                stack.pop()
                continue
            if depth[c] == 0:
                memo[c] = EMPTY
                continue
            pi = self._pi[c]
            steps = self.univ[c][pi]
            todo = [s for _, _, s in reversed(steps) if s not in memo]
            if todo:
                stack.extend(todo)
                continue
            sys = self.space.system
            [name] = sys.fresh_names(["f"])
            sys.define(name, pi, self.space.sections(c, pi, [(x, memo[s]) for x, _, s in steps]))
            memo[c] = ((name, 1),)
        return memo[cfg]


@dataclass(eq=False)
class FinSatReport:
    closure: ConfigClosure
    sat: list  # (configuration id, depth) over the surviving closure
    root_depth: int | None
    witness: Element | None
    status: str


def finitary_satisfiable(closure: ConfigClosure) -> FinSatReport:
    """Satisfiable subset of a closure, with the depth at which each
    configuration enters the fixpoint and a root witness when the root
    is satisfiable."""
    if not closure.complete:
        return FinSatReport(closure, [], None, None, closure.status)
    fin = FinSat(closure.space)
    fin.univ = closure.universe  # walks read its branches and add none
    sat = [(cfg, d) for cfg in closure.configs if (d := fin.satisfiable(cfg)) is not None]
    root_depth = fin.depth.get(closure.root)
    witness = None
    if root_depth is not None:
        witness = Element(closure.space.system, fin.witness_word(closure.root))
        closure.space.system.validate()
    return FinSatReport(closure, sat, root_depth, witness, fin.status)


@dataclass(eq=False)
class RestrictedDecision:
    tag: str  # "conjugate" | "not_conjugate" | "unknown"
    conjugator: Element | None = None
    cls: str | None = None  # "finitary" | "bounded"
    certificate: str | None = None

    @property
    def conjugate(self) -> bool:
        return self.tag == "conjugate"

    def __str__(self):
        if self.tag == "conjugate":
            return "Conjugate(%s)" % self.cls
        if self.tag == "not_conjugate":
            return "NotConjugate"
        return "Unknown(%s)" % (self.certificate,)


def conjugate_in_pol_minus1(a: Element, b: Element, cap: int = 512) -> RestrictedDecision:
    """Conjugacy by a finitary automorphism: FinSat.satisfiable of the
    root configuration, with a cap of at least one.  An unsatisfiable
    root's closed walk is the closure its certificate counts."""
    _require_bounded(a, b)
    space = ConfigSpace.of(_same_system(a, b))
    fin = FinSat(space, max(cap, 1), "config cap %d" % cap)
    try:
        root = space.root_config(a, b)
    except _CapExceeded as exc:
        return RestrictedDecision("unknown", certificate="exceeded: %s" % (exc.info,))
    depth = fin.satisfiable(root)
    if fin.status != "complete":
        return RestrictedDecision("unknown", certificate=fin.status)
    if depth is None:
        closure = _closure(space, root, fin.univ)
        return RestrictedDecision(
            "not_conjugate",
            certificate="root configuration unsatisfiable; %d of %d surviving configurations admit finitary conjugators"
            % (sum(cfg in fin.depth for cfg in closure.configs), len(closure.configs)),
        )
    h = Element(space.system, fin.witness_word(root))
    space.system.validate()
    if _conjugates(h.system, h.word, a.word, b.word) is not True:
        log.error("finitary witness failed verification for (%s, %s)", a, b)
        return RestrictedDecision("unknown", certificate="witness verification failed")
    return RestrictedDecision(
        "conjugate", h, "finitary", certificate="finitary conjugator of depth %d" % depth
    )


# -- the bounded decision (cyclic structure) -------------------------------------


def _require_bounded(*gs: Element):
    for g in gs:
        cls = polynomial_degree(g)
        if not cls.bounded:
            raise NotBounded("input %s classifies as %s, not bounded" % (g, cls))


class _Pol0:
    """Per-query state of conjugate_in_pol0_cyclic: the pruned Aut graph,
    the FinSat and its space, the closure keys ka and kb, dist (each
    pair's rule entry), fixed, a _fixed_edges memo for the cycle search's
    re-walks, and rows(v), memoised: per orbit of vertex v = (i, j, pi)
    its letter, size, induced configuration and surviving successors,
    from space.steps read only when first asked, in the rules' order."""

    def __init__(self, graph, fin: FinSat):
        self.graph, self.fin, self.space = graph, fin, fin.space
        self.ka = [self.space.key(g.word) for g in graph.os_a.elements]
        self.kb = [self.space.key(g.word) for g in graph.os_b.elements]
        self.dist, self.fixed, self._rows = {}, {}, {}

    def config(self, i: int, j: int) -> int:
        return self.space.pair_config(self.ka[i], self.kb[j])

    def rows(self, v: tuple) -> list:
        out = self._rows.get(v)
        if out is None:
            edges = self.graph.edges[v]
            out = self._rows[v] = [(x, m, c, edges[x]) for x, m, c in self.space.steps(self.config(*v[:2]), v[2])]
        return out


def _seed(st: _Pol0, i: int, j: int) -> dict:
    """The pair's own configuration has a finitary conjugator; the input
    pair's walk ran before the graph was built, so it adds other pairs
    only.  After the seed pass every non-trivial pair configuration has
    cached steps."""
    cfg = st.config(i, j)
    return {(i, j): ("finitary", cfg)} if st.fin.satisfiable(cfg) is not None else {}


def _moving(st: _Pol0, i: int, j: int) -> dict:
    """The conjugator equals its section at a letter u moved by the pair's
    left word c; the state at (u)c^t is then finitary and determines it.
    Candidates come from the closure words; the first exact one is kept."""
    sys, space, fin = st.space.system, st.space, st.fin
    wc, wd = st.graph.os_a.elements[i].word, st.graph.os_b.elements[j].word
    # the a side does not depend on pi
    orbs = [(orb, [sys.power_sections(wc, u) for u in orb]) for orb in space.orbits(st.ka[i]) if len(orb) > 1]
    for pi in st.graph.pair_options(i, j):
        for orb, pc in orbs:
            m = len(orb)
            pd = [sys.power_sections(wd, pi[u]) for u in orb]
            for pos in range(m):
                for t in range(1, m):
                    u = orb[(pos + t) % m]
                    cfg_v = space.pair_config(space.orbit_key(st.ka[i], u), space.orbit_key(st.kb[j], pi[u]))
                    if fin.satisfiable(cfg_v) is None:
                        continue
                    h_word = join(join(pc[pos][t], fin.witness_word(cfg_v)), invert_word(pd[pos][t]))
                    if _conjugates(sys, h_word, wc, wd) is True:
                        return {(i, j): ("moving", h_word)}
    return {}


def _fixed_edges(st: _Pol0, v: tuple) -> list:
    """(x, w) per successor w of v at a fixed letter x whose other orbits are finitary."""
    if v not in st.fixed:
        rows = st.rows(v)
        st.fixed[v] = [(x, w) for x, m, _, succs in rows
                       if m == 1 and all(st.fin.satisfiable(c) is not None for y, _, c, _ in rows if y != x)
                       for w in succs]
    return st.fixed[v]


def _circuit(st: _Pol0, i: int, j: int) -> dict:
    """A conjugator whose circuit address is fixed letterwise: a cycle of
    _fixed_edges back to a vertex of the pair through distinct pairs,
    sound as off-cycle sections of a bounded automaton are finitary, and
    exhaustive up to cycles that revisit a pair.  Depth-first on a stack
    of (letter in, vertex, edge iterator); the first cycle found goes,
    rotated, to each of its pairs not yet distinguished."""
    for start in st.graph.pairs[(i, j)]:
        stack, on_path = [(None, start, iter(_fixed_edges(st, start)))], {start[:2]}
        while stack:
            for x, w in stack[-1][2]:
                if w == start:
                    cycle = [v for _, v, _ in stack]
                    letters = [y for y, _, _ in stack[1:]] + [x]
                    return {v[:2]: ("circuit", cycle[t:] + cycle[:t], letters[t:] + letters[:t])
                            for t, v in enumerate(cycle) if v[:2] not in st.dist}
                if w[:2] not in on_path:
                    on_path.add(w[:2])
                    stack.append((x, w, iter(_fixed_edges(st, w))))
                    break
            else:
                on_path.discard(stack.pop()[1][:2])
    return {}


# rule(st, i, j) returns the dist entries it adds for an undistinguished pair
_RULES = (_seed, _moving, _circuit)


def _sweep(st: _Pol0) -> dict:
    """One Gauss-Seidel sweep of the reduction rule in pair order: each
    undistinguished pair takes its first vertex whose orbit successors
    are all distinguished, also by this sweep.  Returns what it added."""
    added: dict = {}
    for pair, vs in st.graph.pairs.items():
        if pair not in st.dist:
            v = next((v for v in vs if all(succs[0][:2] in st.dist for *_, succs in st.rows(v))), None)
            if v is not None:
                st.dist[pair] = added[pair] = ("reduction", v[2])
    return added


def _synthesize(st: _Pol0) -> Word:
    """The input pair's witness word, post-order on a stack of (pair, fills
    so far): each fill is read once its successor is done, as a later
    circuit renames its pairs, which it names all before defining any."""
    sys, fin, memo = st.space.system, st.fin, {}
    stack = [((0, 0), [])]
    while stack:
        pair, got = stack[-1]
        rule = st.dist[pair]
        if rule[0] == "reduction":
            succ = [(x, succs[0][:2]) for x, _, _, succs in st.rows(pair + (rule[1],))]
            if len(got) < len(succ):
                x, child = succ[len(got)]
                if child in memo:
                    got.append((x, memo[child]))
                else:
                    stack.append((child, []))
                continue
            [name] = sys.fresh_names(["h"])
            sys.define(name, rule[1], _pair_sections(st.graph, pair, rule[1], got))
            memo[pair] = ((name, 1),)
        elif rule[0] == "finitary":
            memo[pair] = fin.witness_word(rule[1])
        elif rule[0] == "moving":
            memo[pair] = rule[1]
        else:
            cycle, letters = rule[1], rule[2]
            names = sys.fresh_names(["h"] * len(cycle))
            for t, v in enumerate(cycle):
                memo[v[:2]] = ((names[t], 1),)
                nxt = ((names[(t + 1) % len(cycle)], 1),)
                fills = [(x, nxt if x == letters[t] else fin.witness_word(c)) for x, _, c, _ in st.rows(v)]
                sys.define(names[t], v[2], _pair_sections(st.graph, v[:2], v[2], fills))
        stack.pop()
    return memo[(0, 0)]


def conjugate_in_pol0_cyclic(a: Element, b: Element, cap: int = 512) -> RestrictedDecision:
    """Conjugacy of bounded automorphisms by a bounded automorphism.

    Pol(-1) lies in Pol(0), which lies in Aut(T), so the input pair's own
    configuration walk comes first, on a FinSat of cap max(4096, 8 cap):
    a finitary depth answers conjugate (rule finitary), and a closed walk
    whose root dies in the survival fixpoint (_closure) answers
    not_conjugate in Aut, as the configurations an Aut conjugator
    satisfies survive.  Only otherwise is the pruned conjugator graph
    conj_graph built, so cap bounds only those answers: a graph whose
    closures exceed it answers unknown, and one that keeps no root vertex
    not_conjugate.  Else a monotone fixpoint over its pairs, in discovery
    order, the input pair first, runs each rule of _RULES (_seed,
    _moving, _circuit) on the same FinSat over every pair in turn, then
    reduction sweeps (_sweep); tests/test_bounded.py calls each of them
    on its own.  The rule set
    follows the structure theory of bounded automata; its completeness
    is not proved here, so every positive answer carries an exactly
    verified conjugator, and negatives report the stable set.
    """
    _require_bounded(a, b)
    fin = FinSat(ConfigSpace.of(_same_system(a, b)), max(4096, cap * 8))
    try:
        root = fin.space.root_config(a, b)
    except _CapExceeded:
        pass  # _Pol0 meets the interner's cap again, past the Aut gate
    else:
        if fin.satisfiable(root) is not None:
            return _verified(a, b, fin.witness_word(root), "finitary")
        if fin.status == "complete" and root not in _closure(fin.space, root, fin.univ).viable:
            return RestrictedDecision("not_conjugate", certificate="not conjugate in Aut: no root branch "
                                      "survives the closed configuration walk (%d walked)" % len(fin.univ))
    graph = conj_graph(a, b, cap)
    if not graph.complete:
        return RestrictedDecision("unknown", certificate="orbit-power closure exceeded cap %d" % cap)
    if not graph.roots:
        return RestrictedDecision("not_conjugate", certificate="not conjugate in Aut: no root vertex "
                                  "survives pruning")
    try:
        st = _Pol0(graph, fin)
    except _CapExceeded as exc:
        return RestrictedDecision("unknown", certificate="interner cap: %s" % (exc.info,))
    # the input pair sits first; once it is distinguished the others are
    # irrelevant, since synthesis only follows rule references downward
    for rule in _RULES:
        for i, j in st.graph.pairs:
            if (0, 0) in st.dist:
                break
            if (i, j) not in st.dist:
                st.dist.update(rule(st, i, j))
        if st.fin.status != "complete":
            return RestrictedDecision("unknown", certificate=st.fin.status)
    while (0, 0) not in st.dist and _sweep(st):
        pass
    if (0, 0) not in st.dist:
        return RestrictedDecision("not_conjugate", certificate="fixpoint distinguished %d of %d orbit-power "
                                  "pairs without reaching the input pair" % (len(st.dist), len(st.graph.pairs)))
    return _verified(a, b, _synthesize(st), st.dist[(0, 0)][0])


def _verified(a: Element, b: Element, word: Word, rule: str) -> RestrictedDecision:
    """The Pol(0) answer for the witness word that rule gave: conjugate
    once the word passes its exact check, with its classification."""
    sys = a.system
    h = Element(sys, word)
    sys.validate()
    check = _conjugates(sys, h.word, a.word, b.word)
    if check is not True:
        log.error("bounded witness failed verification for (%s, %s): %r", a, b, check)
        return RestrictedDecision("unknown", certificate="witness verification failed")
    note = "rule %s" % rule
    wcls = polynomial_degree(h)
    if not wcls.bounded:
        log.warning("bounded witness classified as %s", wcls)
        note += "; witness classification %s" % (wcls,)
    return RestrictedDecision("conjugate", h, "finitary" if rule == "finitary" else "bounded", certificate=note)


def conjugate_in_pol_inf(a: Element, b: Element, cap: int = 512) -> RestrictedDecision:
    """Conjugacy by a polynomial-activity automorphism, decided for
    bounded inputs only: for those it coincides with conjugacy by a
    bounded one, so this is conjugate_in_pol0_cyclic.  Any other input,
    a polynomial one included, raises NotBounded."""
    return conjugate_in_pol0_cyclic(a, b, cap)


# -- the active-state matrix system ----------------------------------------------


@dataclass(eq=False)
class ChoiceSystem:
    """Coordinates are (configuration, dependency pair) in discovery and
    key order.  A choice assigns one surviving permutation to every
    configuration; matrix(choice) transports pair counts one level down
    and theta(choice) flags the coordinates whose conjugator states are
    active at the root of their subtree."""

    closure: ConfigClosure
    coords: list  # (config index, (kc, kd))
    per_config: list  # tuple of permutations per configuration
    u0: tuple
    status: str

    @property
    def space(self) -> ConfigSpace:
        return self.closure.space

    @property
    def configs(self) -> list:
        return self.closure.configs

    @property
    def dim(self) -> int:
        return len(self.coords)

    def choices(self):
        return itertools.product(*self.per_config) if self.per_config else iter(())

    def coord_labels(self) -> list:
        sp = self.space
        return [
            "C%d:(%s, %s)" % (ci + 1, format_word(sp.word(kc)), format_word(sp.word(kd)))
            for ci, (kc, kd) in self.coords
        ]

    def matrix(self, choice) -> tuple:
        if not hasattr(self, "_mat"):
            self._mat = {}
        if choice in self._mat:
            return self._mat[choice]
        index = {coord: r for r, coord in enumerate(self.coords)}
        cfg_index = {cfg: ci for ci, cfg in enumerate(self.configs)}
        n = self.dim
        rows = [[0] * n for _ in range(n)]
        for ci, cfg in enumerate(self.configs):
            pi = choice[ci]
            for (_, _, c), moves in zip(self.space.steps(cfg, pi), self.space.moves(cfg, pi)):
                ci2 = cfg_index[c]
                for src, tgt in moves:
                    rows[index[(ci2, tgt)]][index[(ci, src)]] += 1
        out = tuple(tuple(r) for r in rows)
        self._mat[choice] = out
        return out

    def theta(self, choice) -> tuple:
        sp = self.space
        out = []
        for ci, (kc, kd) in self.coords:
            p = compose(compose(perm_inverse(sp.root_perm(kc)), choice[ci]), sp.root_perm(kd))
            out.append(0 if is_identity(p) else 1)
        return tuple(out)


def choice_system(a: Element, b: Element, cap: int = 512) -> ChoiceSystem:
    closure = configurations(a, b, cap)
    if not closure.complete:
        return ChoiceSystem(closure, [], [], (), closure.status)
    coords = [(ci, pair) for ci, cfg in enumerate(closure.configs)
              for pair in closure.space.dependency_pairs(cfg)]
    per_config = [closure.viable_cpi(cfg) for cfg in closure.configs]
    ke = closure.space.trivial
    u0 = tuple(
        1 if (ci == 0 and pair == (ke, ke)) else 0 for ci, pair in coords
    )
    status = "complete" if closure.configs else "empty"
    return ChoiceSystem(closure, coords, per_config, u0, status)


@dataclass(frozen=True)
class SearchResult:
    tag: str  # "found" | "not_found"
    preperiod: tuple = ()
    cycle: tuple = ()
    reason: str | None = None

    @property
    def found(self) -> bool:
        return self.tag == "found"


def _saturating_step(u, mat, threshold):
    n = len(u)
    out = []
    for r in range(n):
        row = mat[r]
        total = 0
        for c in range(n):
            if row[c]:
                total += row[c] * u[c]
        out.append(total if total < threshold else threshold)
    return tuple(out)


def _primitive(q) -> bool:
    n = len(q)
    for d in range(1, n):
        if n % d == 0 and q == q[:d] * (n // d):
            return False
    return True


_PREPERIOD, _PERIOD, _MAX_PASSES = 4, 6, 256  # bounds of bounded_choice_search


def bounded_choice_search(csys: ChoiceSystem, threshold: int = 2**16,
                          choice_cap: int = 4096, work_cap: int = 1 << 22) -> SearchResult:
    """Eventually periodic choice with bounded activity, within bounds.

    Vector entries saturate at the threshold.  A coordinate below the
    threshold always carries its exact value (any saturated input would
    saturate it too), so once the per-cycle state repeats, the verdict
    reads the attractor: the pattern counts as bounded iff no coordinate
    read by a theta row is saturated anywhere along the repeating loop.
    not_found is inconclusive on its own; the cyclic procedure decides.

    The choice space is exponential in the number of configurations, so
    the enumeration is metered: more than choice_cap surviving choices,
    or more than work_cap scalar operations, ends the search
    inconclusively with the cap named in the reason.
    """
    if csys.status != "complete" or csys.dim == 0:
        return SearchResult("not_found", reason="no usable choice system (%s)" % csys.status)
    choice_list = list(itertools.islice(csys.choices(), choice_cap + 1))
    if not choice_list:
        return SearchResult("not_found", reason="no surviving choices")
    if len(choice_list) > choice_cap:
        return SearchResult("not_found", reason="choice space exceeds %d patterns" % choice_cap)
    thetas = {ch: csys.theta(ch) for ch in choice_list}
    mats = {ch: csys.matrix(ch) for ch in choice_list}
    cost = csys.dim * csys.dim
    spent = itertools.count(cost, cost)  # scalar operations, counted before each step

    def step(u, mat):
        if next(spent) > work_cap:
            raise _CapExceeded(("search work", work_cap))
        return _saturating_step(u, mat, threshold)

    # distinct saturated states reachable within the preperiod bound,
    # thinned to minimal elements: the dynamics is monotone, so a choice
    # bounded from a larger state is bounded from a smaller one as well
    try:
        prefix_of = {csys.u0: ()}
        frontier = [csys.u0]
        for _ in range(_PREPERIOD):
            nxt = []
            for u in frontier:
                for ch in choice_list:
                    v = step(u, mats[ch])
                    if v not in prefix_of:
                        prefix_of[v] = prefix_of[u] + (ch,)
                        nxt.append(v)
            frontier = nxt
        states = list(prefix_of)
        starts = [
            (s, prefix_of[s])
            for s in states
            if not any(t != s and all(tv <= sv for tv, sv in zip(t, s)) for t in states)
        ]

        def bounded_from(state, q) -> bool:
            seen = {state: 0}
            boundary = [state]
            u = state
            for _ in range(_MAX_PASSES):
                for ch in q:
                    u = step(u, mats[ch])
                if u in seen:
                    loop = boundary[seen[u]:]
                    for s in loop:
                        v = s
                        for ch in q:
                            th = thetas[ch]
                            if any(th[k] and v[k] >= threshold for k in range(len(v))):
                                return False
                            v = step(v, mats[ch])
                    return True
                seen[u] = len(boundary)
                boundary.append(u)
            return False

        for length in range(1, _PERIOD + 1):
            for q in itertools.product(choice_list, repeat=length):
                if not _primitive(q):
                    continue
                for state, prefix in starts:
                    if bounded_from(state, q):
                        return SearchResult("found", prefix, q)
    except _CapExceeded:
        return SearchResult(
            "not_found",
            reason="work budget %d exhausted before the bounds were covered" % work_cap,
        )
    return SearchResult(
        "not_found",
        reason="no bounded pattern with preperiod <= %d, period <= %d" % (_PREPERIOD, _PERIOD),
    )
