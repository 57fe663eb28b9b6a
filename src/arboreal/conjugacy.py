"""Conjugacy of tree automorphisms.

Conjugacy of a pair in Aut(T) is isomorphism of orbit trees:
`conjugate_in_aut` runs colour refinement (graphs.refine) over the two
least-letter orbit-power closures, and on a positive builds a conjugator
graph with one vertex per equal-colour pair, none of which dies, for
`basic_conjugator`.  No root conjugator is enumerated.

The pruned conjugator graphs serve the rest: `conj_graph` for Pol(0),
`all_basic_conjugators` and `graph conj`, and `sim_conj_graph` for
tuples.  A node pairs up a section of the input with one of the
target: a closure pair (i, j) of the two orbit-power closures, or, for
simultaneous conjugacy, a 1-tuple (tk,) of a tuple key, the sorted set
of the non-trivial interned section-word pairs that one section of the
conjugator must conjugate.  A vertex is a node with a root conjugator
candidate pi appended.  One engine, `_prune`, builds every graph: it
numbers the nodes reachable from the input's node as it finds them,
and keeps a vertex, one option of its node, only if every orbit of its
first component can be followed to a surviving vertex; nodes that the
input cannot reach never affect the answer.  One walk, `_synthesize`,
then reads conjugators off a subgraph that keeps one permutation per
surviving node; the recursion for their sections never needs
backtracking because pruning leaves edges into every surviving
successor.

Simultaneous conjugacy of tuples runs the same game with Schreier
generators of the joint stabilizer of each orbit, which is what makes
constraints between different coordinates visible.  Each is sectioned
factor by factor from the sections of the generator words.  A tuple
vertex's successor at a joint orbit depends on its root conjugator
only through the image of the orbit's least letter, so it is built
once per image.  Neither the order of a node's pairs nor the vacuous
pair (e, e) changes what it asks of a conjugator, so a tuple key keeps
neither, and the empty key is the unconstrained node.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .classify import OrbitSignalizer, orbit_signalizer
from .elements import Element, Exceeded, Interner, _same_system, minimize
from .graphs import breadth_first, refine, surviving
from .oracle import TruncatedAut, _check_depth
from .perms import Perm, conjugators, identity, inverse as perm_inverse, orbits
from .system import EMPTY, FRSystem, Word, format_system, invert_word, join

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
            sections[u] = join(join(invert_word(lhs[t]), wit), rhs[t])
            u = pc[u]
    return sections


# -- the conjugator graph ------------------------------------------------------


@dataclass(eq=False)
class ConjGraph:
    """Surviving vertices of a conjugator graph, discovered from root.

    A node is a closure pair (i, j) or a 1-tuple (tk,) of a tuple key,
    the sorted set of its non-trivial pairs of interner keys, and a
    vertex, a node with a root conjugator pi appended, is one option of
    its node: it survives iff all its successor nodes do.  The graph of
    a conjugate_in_aut positive has one vertex per node.
    edges[v] maps each orbit letter of v to the surviving vertices of
    its successor node; roots are the surviving vertices of root.
    pairs maps each node with a surviving vertex, in discovery order,
    to those vertices in conjugator order, and the edges share these
    lists.  os_a and os_b are the two orbit-power closures of a pair
    graph, None in a tuple graph.
    """

    root: tuple
    interner: Interner
    os_a: OrbitSignalizer | None = None
    os_b: OrbitSignalizer | None = None
    vertices: list = field(default_factory=list)
    edges: dict = field(default_factory=dict)
    roots: list = field(default_factory=list)
    status: str = "complete"  # "complete" | "exceeded"
    pairs: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def pair_options(self, *node) -> list:
        return [v[-1] for v in self.pairs.get(node, ())]


def _prune(graph: ConjGraph, expand, cap: int | None = None) -> ConjGraph:
    """Discover the nodes reachable from graph.root and fill in the
    surviving vertices, edges, pairs and roots.

    expand(node) is called once per node, in breadth-first order, and
    returns the node's vertices in conjugator order, its orbit letters
    and, per vertex, its successor node at each letter; or None when a
    word comparison runs out of budget.  Nodes are numbered as they are
    discovered, and each vertex is one option of its node for
    graphs.surviving: the ids of its successor nodes.  Status "exceeded"
    (and an empty graph) when expand gives up or the vertices found,
    roots included, number more than cap.
    """
    ids = {graph.root: 0}
    order = [graph.root]
    found = []  # per node: (vertices, letters, options)
    total = 0
    for node in order:
        out = expand(node)
        total += len(out[0]) if out else 0
        if out is None or (cap is not None and total > cap):
            graph.status = "exceeded"
            return graph
        vertices, letters, rows = out
        for row in rows:
            for s in row:
                if s not in ids:
                    ids[s] = len(order)
                    order.append(s)
        found.append((vertices, letters, [[ids[s] for s in row] for row in rows]))
    flags = surviving([options for _, _, options in found])
    graph.pairs = pairs = {node: [v for v, f in zip(vertices, live) if f]
                           for node, (vertices, _, _), live in zip(order, found, flags) if True in live}
    graph.vertices = [v for live in pairs.values() for v in live]
    graph.edges = {v: {x: pairs[order[n]] for x, n in zip(letters, opt)}
                   for (vertices, letters, options), live in zip(found, flags)
                   for v, opt, f in zip(vertices, options, live) if f}
    graph.roots = list(pairs.get(graph.root, ()))
    return graph


def _closure_graph(a: Element, b: Element, cap: int, letters: str) -> ConjGraph:
    """An empty conjugator graph over the orbit-power closures of a and
    b anchored at letters; status "exceeded" when either hits the cap."""
    _same_system(a, b)
    os_a, os_b = orbit_signalizer(a, cap, letters=letters), orbit_signalizer(b, cap, letters=letters)
    graph = ConjGraph((0, 0), os_a.interner, os_a, os_b)
    if not (os_a.complete and os_b.complete):
        graph.status = "exceeded"
    return graph


def conj_graph(a: Element, b: Element, cap: int = 512) -> ConjGraph:
    """Pruned conjugator graph of (a, b) over the full group.

    Nodes are the pairs (i, j) of indices into a's and b's orbit-power
    closures that are reachable from (0, 0), and the vertices of a node
    are the triples (i, j, pi) with pi a conjugator of the root
    permutations of the two elements.  At the least letter x of each
    orbit of the i-th element, (i, j, pi) leads to the pair of the
    orbit-power sections at x and at x pi.  Status "exceeded" (and an
    empty graph) when either closure hits the cap.
    """
    graph = _closure_graph(a, b, cap, "all")
    if not graph.complete:
        return graph
    os_a, os_b = graph.os_a, graph.os_b
    # orbit-power successors (index, anchor letter) -> index
    succ_a = {(e[0], e[3]): e[2] for e in os_a.edges}
    succ_b = {(e[0], e[3]): e[2] for e in os_b.edges}
    perm_a = [g.root_perm for g in os_a.elements]
    perm_b = [g.root_perm for g in os_b.elements]
    reps_a = [[orb[0] for orb in orbits(p)] for p in perm_a]

    def expand(node):
        i, j = node
        reps = reps_a[i]
        vertices = [(i, j, pi) for pi in conjugators(perm_a[i], perm_b[j])]
        rows = [[(succ_a[(i, x)], succ_b[(j, v[2][x])]) for x in reps] for v in vertices]
        return vertices, reps, rows

    _prune(graph, expand)
    if not graph.roots and graph.vertices:
        log.info("pruned graph is nonempty but no root pair survives for (%s, %s)", a, b)
    return graph


@dataclass(eq=False)
class ConjDecision:
    tag: str  # "conjugate" | "not_conjugate" | "unknown"
    graph: object = None
    reason: str | None = None

    @property
    def conjugate(self) -> bool:
        return self.tag == "conjugate"


def _decide(graph: ConjGraph, unknown: str, negative: str) -> ConjDecision:
    if not graph.complete:
        return ConjDecision("unknown", graph, reason=unknown)
    if graph.roots:
        return ConjDecision("conjugate", graph)
    return ConjDecision("not_conjugate", graph, reason=negative)


def conjugate_in_aut(a: Element, b: Element, cap: int = 512) -> ConjDecision:
    """Conjugacy in Aut(T), as isomorphism of the orbit trees of a and b.

    Two automorphisms are conjugate iff their labelled orbit trees are
    isomorphic (Gawron, Nekrashevych and Sushchansky 2001).  The orbit
    tree of g unfolds its least-letter orbit-power closure, an orbit of
    size m at letter x leading to the orbit tree of g^m|_x, so
    graphs.refine over both closures decides: not conjugate at the
    first depth where the colours of a and b differ, else conjugate.
    The graph of a positive has one vertex (i, j, pi) per equal-colour
    pair reachable from (0, 0): pi matches the orbits of the two root
    permutations by size and colour, least letter to least letter in
    order of least letters, and maps x a^t to y b^t along each matched
    pair of cycles.  Unknown when either closure exceeds cap elements.
    """
    graph = _closure_graph(a, b, cap, "least")
    if not graph.complete:
        return ConjDecision("unknown", graph, reason="orbit-power closure exceeded cap %d" % cap)
    os_a, os_b = graph.os_a, graph.os_b
    na = len(os_a.elements)
    rows: list = [[] for _ in range(na + len(os_b.elements))]  # per node: (letter, size, successor)
    for base, os in ((0, os_a), (na, os_b)):
        for i, m, k, x in os.edges:
            rows[base + i].append((x, m, base + k))
    for depth, (colour, _) in enumerate(refine([[(m, k) for _, m, k in row] for row in rows]), 1):
        if colour[0] != colour[na]:
            return ConjDecision("not_conjugate", graph, reason="orbit trees differ at depth %d" % depth)
    perms = [g.root_perm for g in os_a.elements + os_b.elements]

    def expand(node):
        i, j = node[0], na + node[1]
        targets: dict = {}  # (size, colour) -> b's orbits, greatest letter first
        for y, m, k in reversed(rows[j]):
            targets.setdefault((m, colour[k]), []).append((y, k))
        pi = [0] * len(perms[i])
        letters, row = [], []
        for x, m, k in rows[i]:
            y, kb = targets[(m, colour[k])].pop()
            letters.append(x)
            row.append((k, kb - na))
            for _ in range(m):
                pi[x] = y
                x, y = perms[i][x], perms[j][y]
        return [node + (tuple(pi),)], letters, [row]

    return ConjDecision("conjugate", _prune(graph, expand))


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


def _index_sections(sys: FRSystem, words: list[Word]):
    """section(iw, x): the section at letter x of the index word iw over
    words, joined piecewise from the cached sections and root
    permutations of words by (g*h)|_x = g|_x * h|_(x^g) and
    g^-1|_x = (g|_(x^(g^-1)))^-1: the product word is never formed."""
    perms = [sys.root_perm(w) for w in words]

    def section(iw, x):
        out: Word = EMPTY
        for t, exp in iw:
            if exp == 1:
                out = join(out, sys.section(words[t], x))
                x = perms[t][x]
            else:
                x = perms[t].index(x)
                out = join(out, invert_word(sys.section(words[t], x)))
        return out

    return section


def _schreier_words(a_section, perms_a, orbit_info):
    """The Schreier words of one joint orbit with their a-side sections.

    For every orbit letter y and every generator index t, the Schreier
    word t_y * g_t * t_{(y)g_t}^-1 stabilizes the base letter y0.  Each
    comes as its a-side section at y0 and its index word, which is
    sectioned on the b-side at the base image of a conjugator.  Tree
    edges reduce to the empty word and are skipped.
    """
    y0, orb, words = orbit_info
    out = []
    for y in orb:
        for t in range(len(perms_a)):
            iw = join(join(words[y], ((t, 1),)), invert_word(words[perms_a[t][y]]))
            if iw:
                out.append((a_section(iw, y0), iw))
    return out


def _constraint_pairs(sys, schreier, b_section, z):
    """Distinct constraint pairs of one joint orbit for the conjugators
    that map its base letter to z: the a-side of each Schreier word and
    its b-side section at z, which the section of the conjugator at the
    base letter must conjugate into each other."""
    pairs = []
    seen = set()
    for wa, iw in schreier:
        wb = b_section(iw, z)
        key = (sys.find(wa), sys.find(wb))
        if key not in seen:
            seen.add(key)
            pairs.append((wa, wb))
    return pairs


def _tuple_words(graph: ConjGraph, node):
    """The a-side and b-side words of a tuple node, and the root
    permutations of the a-side."""
    (tk,) = node
    sys, words = graph.interner.system, graph.interner.words
    a_words = [words[ka] for ka, _ in tk]
    return a_words, [words[kb] for _, kb in tk], [sys.root_perm(w) for w in a_words]


def sim_conj_graph(as_: list, bs: list, cap: int = 1024) -> ConjGraph:
    """Pruned conjugator graph of the tuples as_ and bs.

    Nodes are the 1-tuples (tk,) reachable from the input's, tk a tuple
    key: the set, sorted, of the pairs of interner keys of the section
    words that must be conjugate by one section of the conjugator,
    without the pair of two trivial keys.  Tuples that differ only in
    order or in (e, e) ask the same of a conjugator, so they are one
    node.  The vertices of a node are (tk, tau), tau a common root
    conjugator of its pairs, and at the least letter of each joint orbit
    of the a-side a vertex leads to the tuple of its Schreier constraint
    pairs.  That successor depends on tau only through the image of the
    orbit's least letter, so it is built once per image.  The empty key
    constrains nothing: every permutation is a vertex and each letter
    leads back to the node, as at (e, e) in the pair graph.  Status
    "exceeded" (and an empty graph) when a word comparison runs out of
    budget or more than cap vertices are found.
    """
    if len(as_) != len(bs) or not as_:
        raise ValueError("need equally many source and target elements")
    sys = as_[0].system
    for g in list(as_) + list(bs):
        _same_system(as_[0], g)
    intern = Interner(sys)
    trivial = None  # key of the trivial class, once interned

    def tuple_key(pairs):
        nonlocal trivial
        keys = set()
        for wa, wb in pairs:
            ka = intern.key(wa)
            kb = intern.key(wb)
            if isinstance(ka, Exceeded) or isinstance(kb, Exceeded):
                return None
            if trivial is None and ka == kb and intern.lookup(EMPTY) == ka:
                trivial = ka
            if (ka, kb) != (trivial, trivial):
                keys.add((ka, kb))
        return tuple(sorted(keys))

    root_key = tuple_key([(a.word, b.word) for a, b in zip(as_, bs)])
    graph = ConjGraph((root_key,), intern)
    if root_key is None:
        graph.status = "exceeded"
        return graph

    def expand(node):
        if not node[0]:  # unconstrained: every permutation, each letter back here
            opts = conjugators(identity(sys.degree), identity(sys.degree))
            return [node + (pi,) for pi in opts], list(range(sys.degree)), [[node] * sys.degree] * len(opts)
        a_words, b_words, perms_a = _tuple_words(graph, node)
        opts = None
        for p, wb in zip(perms_a, b_words):
            cs = conjugators(p, sys.root_perm(wb))
            opts = cs if opts is None else list(filter(set(cs).__contains__, opts))
            if not opts:
                return [], [], []
        joint = _joint_orbits(perms_a, sys.degree)
        a_section, b_section = _index_sections(sys, a_words), _index_sections(sys, b_words)
        schreier = [_schreier_words(a_section, perms_a, info) for info in joint]
        built: dict = {}  # (orbit index, base image) -> tuple key
        rows = []
        for pi in opts:
            row = []
            for n, (y0, _, _) in enumerate(joint):
                at = (n, pi[y0])
                if at not in built:
                    built[at] = tuple_key(_constraint_pairs(sys, schreier[n], b_section, pi[y0]))
                row.append(built[at])
            if None in row:
                return None
            rows.append([(tk2,) for tk2 in row])
        return [node + (pi,) for pi in opts], [info[0] for info in joint], rows

    return _prune(graph, expand, cap)


def conjugate_in_aut_simultaneous(as_: list, bs: list, cap: int = 1024) -> ConjDecision:
    return _decide(sim_conj_graph(as_, bs, cap), "tuple graph exceeded cap %d" % cap,
                   "no root tuple vertex survives pruning")


# -- conjugator synthesis -------------------------------------------------------


@dataclass(eq=False)
class ConjugatorFR:
    """A conjugator presented by wreath recursions appended to the input
    system: one symbol per reachable node of the chosen subgraph."""

    system: FRSystem
    root: str
    assignments: tuple  # ((*node, pi, symbol name), ...)

    @property
    def element(self) -> Element:
        return Element.symbol(self.system, self.root)

    def text(self) -> str:
        return format_system(self.system, roots=[self.root])

    def __str__(self):
        return self.root


def _policy_fn(policy):
    if policy == "least":
        return lambda node, opts: opts[0]
    if policy == "greatest":
        return lambda node, opts: opts[-1]
    if callable(policy):
        return policy
    raise ValueError("policy must be 'least', 'greatest', or callable")


def _pair_sections(graph: ConjGraph, node, pi: Perm, fills) -> list:
    """_orbit_sections of a pair node (i, j): from the i-th element of
    a's closure to the j-th of b's."""
    a, b = graph.os_a.elements[node[0]], graph.os_b.elements[node[1]]
    return _orbit_sections(graph.interner.system, a.word, b.word, pi, fills)


def _tuple_sections(graph: ConjGraph, node, pi: Perm, fills) -> list:
    """Sections of a conjugator of a tuple node with root permutation pi.

    fills holds (y0, wit) for the least letter y0 of each joint orbit,
    with h|_y0 = wit.  Each other letter y of the orbit, the image of y0
    under the transversal word u of y, gets
    h|_y = (u_a|_y0)^-1 * wit * u_b|_(y0 pi).
    """
    sys = graph.interner.system
    a_words, b_words, perms_a = _tuple_words(graph, node)
    a_section, b_section = _index_sections(sys, a_words), _index_sections(sys, b_words)
    sections: list = [EMPTY] * sys.degree
    for (y0, orb, words), (_, wit) in zip(_joint_orbits(perms_a, sys.degree), fills):
        sections[y0] = wit
        for y in orb[1:]:
            lhs = invert_word(a_section(words[y], y0))
            sections[y] = join(join(lhs, wit), b_section(words[y], pi[y0]))
    return sections


def _synthesize(graph: ConjGraph, policy, sections) -> ConjugatorFR:
    """Define one symbol per node that the chosen permutations reach
    from the root, named h for the root and g for the rest in
    breadth-first order, with sections(graph, node, pi, fills) as its
    sections, and validate the system."""
    if not graph.roots:
        raise ValueError("graph has no surviving root vertex")
    choose = _policy_fn(policy)
    sys = graph.interner.system
    assign: dict = {}

    def successors(node):
        # the permutation of a node is chosen when the walk reaches it;
        # every successor of one orbit in the pruned edges has one node
        opts = graph.pair_options(*node)
        pi = assign[node] = choose(node, opts)
        if pi not in opts:
            raise ValueError("policy chose a pruned permutation %r for node %r" % (pi, node))
        return [succs[0][:-1] for succs in graph.edges[node + (pi,)].values()]

    order = breadth_first(graph.root, successors)
    names = dict(zip(order, sys.fresh_names(["h" if n == graph.root else "g" for n in order])))
    for node in order:
        pi = assign[node]
        fills = [(x, ((names[succs[0][:-1]], 1),)) for x, succs in graph.edges[node + (pi,)].items()]
        sys.define(names[node], pi, sections(graph, node, pi, fills))
    sys.validate()
    return ConjugatorFR(sys, names[graph.root], tuple(n + (assign[n], names[n]) for n in order))


def basic_conjugator(graph: ConjGraph, policy="least") -> ConjugatorFR:
    """Conjugator from the subgraph fixing one permutation per node.

    The default policy takes the least surviving permutation of each
    node in image-tuple order; 'greatest' takes the last; a callable
    receives (node, options) and must return one of the options.
    """
    return _synthesize(graph, policy, _pair_sections)


def sim_basic_conjugator(graph: ConjGraph, policy="least") -> ConjugatorFR:
    """basic_conjugator of a tuple graph, one permutation per reachable
    tuple node."""
    return _synthesize(graph, policy, _tuple_sections)


def all_basic_conjugators(graph: ConjGraph, limit: int = 64) -> list:
    """Every one-permutation-per-node subgraph choice, in lexicographic
    order of the choices along node discovery order, at most limit of
    them; none when the root has no surviving vertex.  Partial choices
    wait on an explicit stack, each node's options pushed in reverse, so
    the depth-first walk takes the least first at any graph depth."""
    out: list = []
    stack: list = [{}]
    while stack and len(out) < limit:
        assign = stack.pop()

        def successors(node):
            # an unassigned node ends the walk there; the first one met
            # is the next to branch on
            if node not in assign:
                return ()
            return [succs[0][:-1] for succs in graph.edges[node + (assign[node],)].values()]

        node = next((n for n in breadth_first(graph.root, successors) if n not in assign), None)
        if node is None:
            out.append(_synthesize(graph, lambda n, opts: assign[n], _pair_sections))
        else:
            stack.extend({**assign, node: pi} for pi in reversed(graph.pair_options(*node)))
    return out


def expand_to_finite_state(h):
    """Minimal machine of a synthesized conjugator, when it is finite
    state within MINIMIZE_BUDGET states."""
    return minimize(getattr(h, "element", h))


# -- canonical truncated representatives ---------------------------------------


def canonical_representative(a: Element, depth: int) -> TruncatedAut:
    """Truncated action of the canonical conjugacy representative.

    Per orbit of the root action the recursion keeps only the orbit
    length and the representative of the orbit-power section; blocks
    are sorted by (length, representative) and laid out as left-oriented
    cycles carrying their section representative at the last slot, so
    conjugate inputs produce identical truncations.
    """
    sys = a.system
    d = sys.degree
    _check_depth(d, depth)

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
