"""Conjugacy of tree automorphisms.

The decision works on a finite graph: vertices pair up elements of the
two orbit-power closures together with a root conjugator candidate, and
a vertex survives only if every orbit of its first component can be
followed to a surviving vertex.  Conjugators are then read off a
subgraph that keeps one permutation per surviving pair; the recursion
for their sections never needs backtracking because pruning leaves
edges into every surviving successor.

Simultaneous conjugacy of tuples runs the same game with Schreier
generators of the joint stabilizer of each orbit, which is what makes
constraints between different coordinates visible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .classify import OrbitSignalizer, orbit_signalizer
from .elements import Element, Exceeded, Interner, _same_system
from .graphs import breadth_first, surviving
from .oracle import MAX_LEAVES, TruncatedAut, _check_depth
from .perms import Perm, conjugators, inverse as perm_inverse, orbits
from .system import EMPTY, FRSystem, Word, format_system, invert_word, reduce_word

log = logging.getLogger("arboreal.conjugacy")


def _orbit_sections(sys: FRSystem, wc: Word, wd: Word, pi: Perm, fills) -> list:
    """Sections of a conjugator h from c to d with root permutation pi.

    fills holds (x, wit) for one letter x of each orbit of c, with
    h|_x = wit.  The orbit letter x c^t gets
    h|_(x c^t) = (c^t|_x)^-1 * wit * d^t|_(x pi), which is wit at t = 0.
    """
    pc = sys.root_perm(wc)
    sections: list = [EMPTY] * sys.degree
    for x, wit in fills:
        lhs, rhs = sys.power_sections(wc, x), sys.power_sections(wd, pi[x])
        u = x
        for t in range(len(lhs) - 1):
            sections[u] = reduce_word(invert_word(lhs[t]) + wit + rhs[t])
            u = pc[u]
    return sections


# -- the pair graph ------------------------------------------------------------


@dataclass(eq=False)
class ConjGraph:
    """Surviving triples (i, j, pi) over the two orbit-power closures.

    edges[v] maps each orbit representative letter of v's first
    component to the list of surviving successor triples; roots are the
    surviving triples whose pair is the input pair itself.  pairs maps
    each pair (i, j) with a surviving triple to those triples in
    conjugator order, and the edges share these lists.
    """

    os_a: OrbitSignalizer
    os_b: OrbitSignalizer
    vertices: list
    edges: dict
    roots: list
    status: str  # "complete" | "exceeded"
    pairs: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def pair_options(self, i: int, j: int) -> list:
        return [v[2] for v in self.pairs.get((i, j), ())]


def conj_graph(a: Element, b: Element, cap: int = 512) -> ConjGraph:
    """Pruned conjugator graph of (a, b) over the full group.

    The candidates are every triple (i, j, pi) with pi a conjugator of
    the root permutations of the i-th element of a's orbit-power closure
    and the j-th of b's.  A triple survives if at each orbit of its first
    component some triple of the successor pair survives.  So
    graphs.surviving runs over triples and pair nodes: a triple has one
    single-member group per orbit, holding its successor's pair node, and
    a pair node has one group, its triples.  Pair nodes are the 2-tuples
    (i, j), which no triple equals.  Status "exceeded" (and an empty
    graph) when either closure hits the cap.
    """
    _same_system(a, b)
    os_a = orbit_signalizer(a, cap, letters="all")
    os_b = orbit_signalizer(b, cap, letters="all")
    graph = ConjGraph(os_a, os_b, [], {}, [], "complete")
    if not (os_a.complete and os_b.complete):
        graph.status = "exceeded"
        return graph
    # orbit-power successors (index, anchor letter) -> index
    succ_a = {(e[0], e[3]): e[2] for e in os_a.edges}
    succ_b = {(e[0], e[3]): e[2] for e in os_b.edges}
    perm_a = [g.root_perm for g in os_a.elements]
    perm_b = [g.root_perm for g in os_b.elements]
    reps_a = [[orb[0] for orb in orbits(p)] for p in perm_a]
    triples: dict = {}
    groups: dict = {}
    for i, p in enumerate(perm_a):
        for j, q in enumerate(perm_b):
            own = [(i, j, pi) for pi in conjugators(p, q)]
            if not own:
                continue
            triples[(i, j)] = own
            groups[(i, j)] = (own,)
            for v in own:
                pi = v[2]
                groups[v] = [((succ_a[(i, x)], succ_b[(j, pi[x])]),) for x in reps_a[i]]
    alive = surviving(groups)
    for pair, own in triples.items():
        if pair in alive:
            graph.pairs[pair] = [v for v in own if v in alive]
    graph.vertices = [v for live in graph.pairs.values() for v in live]
    graph.edges = {
        v: {x: graph.pairs[group[0]] for x, group in zip(reps_a[v[0]], groups[v])}
        for v in graph.vertices
    }
    graph.roots = list(graph.pairs.get((0, 0), ()))
    if not graph.roots and graph.vertices:
        log.info(
            "pruned graph is nonempty but no root pair survives for (%s, %s)", a, b
        )
    return graph


@dataclass(eq=False)
class ConjDecision:
    tag: str  # "conjugate" | "not_conjugate" | "unknown"
    graph: object = None
    roots: list = None
    reason: str | None = None

    @property
    def conjugate(self) -> bool:
        return self.tag == "conjugate"


def conjugate_in_aut(a: Element, b: Element, cap: int = 512) -> ConjDecision:
    graph = conj_graph(a, b, cap)
    if not graph.complete:
        return ConjDecision("unknown", graph, reason="orbit-power closure exceeded cap %d" % cap)
    if graph.roots:
        return ConjDecision("conjugate", graph, roots=graph.roots)
    return ConjDecision(
        "not_conjugate", graph, roots=[], reason="no root vertex survives pruning"
    )


# -- conjugator synthesis -------------------------------------------------------


@dataclass(eq=False)
class ConjugatorFR:
    """A conjugator presented by wreath recursions appended to the input
    system: one symbol per reachable pair of the chosen subgraph."""

    system: FRSystem
    root: str
    assignments: tuple  # ((i, j, pi, symbol name), ...)

    @property
    def element(self) -> Element:
        return Element.symbol(self.system, self.root)

    def text(self) -> str:
        return format_system(self.system, roots=[self.root])

    def __str__(self):
        return self.root


def _policy_fn(policy):
    if policy == "least":
        return lambda pair, opts: opts[0]
    if policy == "greatest":
        return lambda pair, opts: opts[-1]
    if callable(policy):
        return policy
    raise ValueError("policy must be 'least', 'greatest', or callable")


def _synthesize(graph: ConjGraph, choose) -> ConjugatorFR:
    sys = graph.os_a.interner.system
    assign: dict = {}

    def successors(pair):
        # the permutation of a pair is chosen when the walk reaches it;
        # every successor of one orbit in the pruned edges has one pair
        opts = graph.pair_options(*pair)
        pi = assign[pair] = choose(pair, opts)
        if pi not in opts:
            raise ValueError("policy chose a pruned permutation %r for pair %r" % (pi, pair))
        return [succs[0][:2] for succs in graph.edges[(*pair, pi)].values()]

    order = breadth_first((0, 0), successors)
    names = dict(zip(order, sys.fresh_names(["h" if p == (0, 0) else "g" for p in order])))
    for i, j in order:
        pi = assign[(i, j)]
        fills = [(x, ((names[succs[0][:2]], 1),)) for x, succs in graph.edges[(i, j, pi)].items()]
        sys.define(names[(i, j)], pi, _orbit_sections(
            sys, graph.os_a.elements[i].word, graph.os_b.elements[j].word, pi, fills))
    sys.validate()
    return ConjugatorFR(
        sys,
        names[(0, 0)],
        tuple((i, j, assign[(i, j)], names[(i, j)]) for i, j in order),
    )


def basic_conjugator(graph: ConjGraph, policy="least") -> ConjugatorFR:
    """Conjugator from the subgraph fixing one permutation per pair.

    The default policy takes the least surviving permutation of each
    pair in image-tuple order; 'greatest' takes the last; a callable
    receives (pair, options) and must return one of the options.
    """
    if not graph.roots:
        raise ValueError("graph has no surviving root vertex")
    return _synthesize(graph, _policy_fn(policy))


def all_basic_conjugators(graph: ConjGraph, limit: int = 64) -> list:
    """Every one-permutation-per-pair subgraph choice, in lexicographic
    order of the choices along pair discovery order."""
    if not graph.roots:
        return []
    out: list = []

    def rec(assign):
        if len(out) >= limit:
            return
        def successors(p):
            # an unassigned pair ends the walk there; the first one met
            # is the next to branch on
            if p not in assign:
                return ()
            return [succs[0][:2] for succs in graph.edges[(*p, assign[p])].values()]

        pair = next((p for p in breadth_first((0, 0), successors) if p not in assign), None)
        if pair is None:
            out.append(_synthesize(graph, lambda p, opts: assign[p]))
            return
        for pi in graph.pair_options(*pair):
            rec({**assign, pair: pi})

    rec({})
    return out


def expand_to_finite_state(h, budget: int = 10**5):
    """Minimal machine of a synthesized conjugator, when it is finite
    state within the budget."""
    from .elements import minimize

    elem = getattr(h, "element", h)
    return minimize(elem, budget)


# -- simultaneous conjugacy -----------------------------------------------------


def _joint_orbits(perms: list[Perm], degree: int):
    """Orbits of the group generated by perms, each with a transversal:
    (least letter, ordered orbit, {letter: index word}) where an index
    word is a tuple of (generator position, exponent)."""
    seen = [False] * degree
    out = []
    invs = [perm_inverse(p) for p in perms]
    for start in range(degree):
        if seen[start]:
            continue
        orb = [start]
        seen[start] = True
        words = {start: EMPTY}
        pos = 0
        while pos < len(orb):
            y = orb[pos]
            pos += 1
            for t, p in enumerate(perms):
                for img, exp in ((p[y], 1), (invs[t][y], -1)):
                    if not seen[img]:
                        seen[img] = True
                        words[img] = words[y] + ((t, exp),)
                        orb.append(img)
        out.append((start, orb, words))
    return out


def _eval_index_word(words: list[Word], iw) -> Word:
    out: Word = EMPTY
    for t, exp in iw:
        out = out + (words[t] if exp == 1 else invert_word(words[t]))
    return reduce_word(out)


def _schreier_pairs(sys, a_words, b_words, perms_a, orbit_info, pi):
    """Constraint pairs at the least letter of one joint orbit.

    For every orbit letter y and every generator index t, the Schreier
    word t_y * g_t * t_{(y)g_t}^-1 stabilizes the base letter; its
    evaluations on the two sides, sectioned at the base letter and its
    pi-image, must be conjugate by the section of the conjugator there.
    Tree edges reduce to the empty word and are skipped.
    """
    y0, orb, words = orbit_info
    pairs = []
    seen = set()
    for y in orb:
        for t in range(len(a_words)):
            iw = reduce_word(words[y] + ((t, 1),) + invert_word(words[perms_a[t][y]]))
            if not iw:
                continue
            wa = sys.section(_eval_index_word(a_words, iw), y0)
            wb = sys.section(_eval_index_word(b_words, iw), pi[y0])
            key = (sys.find(wa), sys.find(wb))
            if key not in seen:
                seen.add(key)
                pairs.append((wa, wb))
    return pairs


@dataclass(eq=False)
class SimConjGraph:
    """Reachable tuple vertices for simultaneous conjugacy: a vertex is
    (pair-key tuple, pi) and its edges follow joint orbits."""

    interner: Interner
    vertices: list
    edges: dict
    roots: list
    status: str
    root_tuple: tuple = ()

    @property
    def complete(self) -> bool:
        return self.status == "complete"


def sim_conj_graph(as_: list, bs: list, cap: int = 1024) -> SimConjGraph:
    if len(as_) != len(bs) or not as_:
        raise ValueError("need equally many source and target elements")
    sys = as_[0].system
    for g in list(as_) + list(bs):
        _same_system(as_[0], g)
    intern = Interner(sys)
    graph = SimConjGraph(intern, [], {}, [], "complete")

    def tuple_key(pairs):
        keys = []
        seen = set()
        for wa, wb in pairs:
            ka = intern.key(wa)
            kb = intern.key(wb)
            if isinstance(ka, Exceeded) or isinstance(kb, Exceeded):
                return None
            if (ka, kb) not in seen:
                seen.add((ka, kb))
                keys.append((ka, kb))
        return tuple(keys)

    root_key = tuple_key([(a.word, b.word) for a, b in zip(as_, bs)])
    if root_key is None:
        graph.status = "exceeded"
        return graph
    graph.root_tuple = root_key

    # discovery: a tuple key met for the first time brings all its
    # vertices (tk, tau), tau a common root conjugator of its pairs in
    # conjugator order; the cap bounds them all
    found: list = []
    members: dict = {}

    def meet(tk) -> bool:
        if tk not in members:
            opts = None
            for ka, kb in tk:
                cs = conjugators(sys.root_perm(intern.words[ka]), sys.root_perm(intern.words[kb]))
                opts = list(cs) if opts is None else [p for p in opts if p in cs]
                if not opts:
                    break
            members[tk] = [(tk, tau) for tau in opts]
            found.extend(members[tk])
        return len(found) <= cap

    if not meet(root_key):
        graph.status = "exceeded"
        return graph
    # each vertex's orbit edges: (orbit base letter, successor tuple key)
    succ: dict = {}
    pos = 0
    while pos < len(found):
        v = found[pos]
        pos += 1
        tk, pi = v
        a_words = [intern.words[ka] for ka, _ in tk]
        b_words = [intern.words[kb] for _, kb in tk]
        perms_a = [sys.root_perm(w) for w in a_words]
        out = succ[v] = []
        for orbit_info in _joint_orbits(perms_a, sys.degree):
            pairs = _schreier_pairs(sys, a_words, b_words, perms_a, orbit_info, pi)
            tk2 = tuple_key(pairs)
            if tk2 is None or not meet(tk2):
                graph.status = "exceeded"
                return graph
            out.append((orbit_info[0], tk2))
    # survival over vertices and tuple nodes, as in conj_graph: a vertex
    # needs the tuple node of its successor at each joint orbit, a tuple
    # node one of its vertices.  Tuple nodes are the 1-tuples (tk,),
    # which no vertex equals.
    groups: dict = {v: [((tk2,),) for _, tk2 in out] for v, out in succ.items()}
    groups.update({(tk,): (own,) for tk, own in members.items() if own})
    alive = surviving(groups)
    live = {tk: [v for v in own if v in alive] for tk, own in members.items() if (tk,) in alive}
    graph.vertices = [v for v in found if v in alive]
    graph.edges = {v: {x: live[tk2] for x, tk2 in succ[v]} for v in graph.vertices}
    graph.roots = list(live.get(root_key, ()))
    return graph


def conjugate_in_aut_simultaneous(as_: list, bs: list, cap: int = 1024) -> ConjDecision:
    graph = sim_conj_graph(as_, bs, cap)
    if not graph.complete:
        return ConjDecision("unknown", graph, reason="tuple graph exceeded cap %d" % cap)
    if graph.roots:
        return ConjDecision("conjugate", graph, roots=graph.roots)
    return ConjDecision(
        "not_conjugate", graph, roots=[], reason="no root tuple vertex survives pruning"
    )


def sim_basic_conjugator(graph: SimConjGraph, policy="least") -> ConjugatorFR:
    """Conjugator synthesis over the tuple graph, one permutation per
    reachable tuple."""
    if not graph.roots:
        raise ValueError("graph has no surviving root vertex")
    choose = _policy_fn(policy)
    intern = graph.interner
    sys = intern.system
    alive_pi: dict = {}
    for tk, pi in graph.vertices:
        alive_pi.setdefault(tk, []).append(pi)
    assign: dict = {}
    plans = {}

    def successors(tk):
        pi = assign[tk] = choose(tk, alive_pi[tk])
        if pi not in alive_pi[tk]:
            raise ValueError("policy chose a pruned permutation %r for tuple %r" % (pi, tk))
        a_words = [intern.words[ka] for ka, _ in tk]
        b_words = [intern.words[kb] for _, kb in tk]
        perms_a = [sys.root_perm(w) for w in a_words]
        # a surviving vertex keeps a successor at every orbit
        succ = [(info, graph.edges[(tk, pi)][info[0]][0][0]) for info in _joint_orbits(perms_a, sys.degree)]
        plans[tk] = (a_words, b_words, succ)
        return [tk2 for _, tk2 in succ]

    order = breadth_first(graph.root_tuple, successors)
    names = dict(zip(order, sys.fresh_names(["h" if tk == graph.root_tuple else "g" for tk in order])))
    for tk in order:
        pi = assign[tk]
        sections: list = [EMPTY] * sys.degree
        a_words, b_words, succ_tuples = plans[tk]
        for (y0, orb, words), tk2 in succ_tuples:
            succ = ((names[tk2], 1),)
            sections[y0] = succ
            for y in orb:
                if y == y0:
                    continue
                ua = _eval_index_word(a_words, words[y])
                ub = _eval_index_word(b_words, words[y])
                lhs = invert_word(sys.section(ua, y0))
                rhs = sys.section(ub, pi[y0])
                sections[sys.root_perm(ua)[y0]] = reduce_word(lhs + succ + rhs)
        sys.define(names[tk], pi, sections)
    sys.validate()
    return ConjugatorFR(sys, names[graph.root_tuple], ())


# -- canonical truncated representatives ---------------------------------------


def canonical_representative(a: Element, depth: int, max_leaves: int = MAX_LEAVES) -> TruncatedAut:
    """Truncated action of the canonical conjugacy representative.

    Per orbit of the root action the recursion keeps only the orbit
    length and the representative of the orbit-power section; blocks
    are sorted by (length, representative) and laid out as left-oriented
    cycles carrying their section representative at the last slot, so
    conjugate inputs produce identical truncations.
    """
    sys = a.system
    d = sys.degree
    _check_depth(d, depth, max_leaves)

    def rec(w: Word, n: int):
        if n == 0:
            return ((0,),)
        blocks = []
        for orb in orbits(sys.root_perm(w)):
            sub = rec(sys.power_sections(w, orb[0])[-1], n - 1)
            blocks.append((len(orb), sub))
        blocks.sort()
        maps = [(0,)]
        for k in range(1, n + 1):
            rest = d ** (k - 1)
            m = [0] * (d**k)
            base = 0
            for length, sub in blocks:
                for pz in range(length):
                    y = base + pz
                    img = base + (pz + 1) % length
                    submap = sub[k - 1] if pz == length - 1 else None
                    for r in range(rest):
                        m[y * rest + r] = img * rest + (submap[r] if submap else r)
                base += length
            maps.append(tuple(m))
        return tuple(maps)

    return TruncatedAut(d, depth, rec(a.word, depth))
