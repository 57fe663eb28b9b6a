"""Activity growth and the cycle-structure classification.

Everything here works on the minimized machine of an element: activity
counts come from a linear recurrence on state multiplicities, the
finitary / polynomial / exponential trichotomy from the strongly
connected components of the machine with its trivial state removed,
and the orbit-signalizer from a breadth-first closure under the
orbit-power-section rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import Element, Exceeded, Interner, _same_system, _section_graph, minimize
from .graphs import breadth_first, strongly_connected_components
from .perms import orbits
from .system import EMPTY, invert_word, join


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


NOT_FINITARY = _Sentinel("NotFinitary")
NOT_CIRCUIT = _Sentinel("NotCircuit")
_NUCLEUS_DEPTH = 12  # nucleus: products must fall into the candidate set by this depth


@dataclass(frozen=True)
class ActivityClass:
    """finitary(depth) / polynomial(degree) / exponential / unknown."""

    kind: str
    value: int | None = None
    witness: str | None = None

    def __str__(self):
        if self.kind == "finitary":
            return "Finitary(%d)" % self.value
        if self.kind == "polynomial":
            return "Polynomial(%d)" % self.value
        return self.kind.capitalize()

    @property
    def bounded(self) -> bool:
        return self.kind == "finitary" or (self.kind == "polynomial" and self.value == 0)


def activity(g: Element, k: int):
    """Counts of nontrivial sections per level, as a list theta_0..theta_k.

    Runs the multiplicity recurrence on the minimized machine instead of
    walking the d^k vertices of level k.
    """
    mach = minimize(g)
    if isinstance(mach, Exceeded):
        return mach
    v = [0] * mach.n_states
    v[0] = 1
    counts = []
    for _ in range(k + 1):
        counts.append(sum(c for i, c in enumerate(v) if i != mach.trivial))
        nxt = [0] * mach.n_states
        for i, c in enumerate(v):
            if c:
                for t in mach.transitions[i]:
                    nxt[t] += c
        v = nxt
    return counts


def _nontrivial_successors(mach):
    def succ(i):
        if i == mach.trivial:
            return ()
        return tuple(t for t in mach.transitions[i] if t != mach.trivial)

    return succ


def finitary_depth(g: Element):
    """Least level below which every section is trivial; NOT_FINITARY when
    the machine has a cycle through a nontrivial state."""
    mach = minimize(g)
    if isinstance(mach, Exceeded):
        return mach
    cls = _activity_class(mach)
    return cls.value if cls.kind == "finitary" else NOT_FINITARY


def polynomial_degree(g: Element) -> ActivityClass:
    """Classification by the cycle structure of the trivial-state-deleted
    machine: exponential when some component branches, otherwise the
    degree is one less than the longest chain of cycles.

    The class is memoised on the system by reduced word; an unknown class
    is not, since the budget that ran out may not run out again."""
    memo = g.system._activity
    cls = memo.get(g.word)
    if cls is None:
        mach = minimize(g)
        if isinstance(mach, Exceeded):
            return ActivityClass("unknown", witness="minimize exceeded %d %s" % (mach.budget, mach.kind))
        cls = memo[g.word] = _activity_class(mach)
    return cls


def _activity_class(mach) -> ActivityClass:
    succ = _nontrivial_successors(mach)
    comps = strongly_connected_components(mach.n_states, succ)
    comp_of = [0] * mach.n_states
    for ci, comp in enumerate(comps):
        for i in comp:
            comp_of[i] = ci
    is_cycle = [False] * len(comps)
    for ci, comp in enumerate(comps):
        members = set(comp)
        if mach.trivial in members:
            continue
        counts = [sum(1 for t in mach.transitions[i] if t in members) for i in comp]
        if any(c >= 2 for c in counts):
            state = comp[counts.index(max(counts))]
            return ActivityClass("exponential", witness="state %d branches inside its component" % state)
        is_cycle[ci] = all(c == 1 for c in counts)
    # components come out successors-first, so one pass computes the
    # longest cycle chain ending at each component, and its height: the
    # longest path of nontrivial states from it, which is the finitary
    # depth of a state when no chain has a cycle
    chain = [0] * len(comps)
    height = [0] * len(comps)
    for ci, comp in enumerate(comps):
        best = tall = 0
        for i in comp:
            if i == mach.trivial:
                continue
            for t in mach.transitions[i]:
                if comp_of[t] != ci:
                    best = max(best, chain[comp_of[t]])
                    tall = max(tall, height[comp_of[t]])
        chain[ci] = best + (1 if is_cycle[ci] else 0)
        height[ci] = 0 if mach.trivial in comp else tall + 1
    top = max(chain)
    if top == 0:
        return ActivityClass("finitary", height[comp_of[0]])
    return ActivityClass("polynomial", top - 1)


def is_bounded(g: Element) -> bool:
    return polynomial_degree(g).bounded


def circuit_word(g: Element):
    """Shortest nonempty letter word v with g|_v = g, lexicographically
    least among the shortest; NOT_CIRCUIT when no section returns.  A
    breadth_first walk of the minimal machine from state 0, letters
    ascending, finds each state first by its least shortest path, so the
    first letter seen leading back to state 0 ends the answer."""
    mach = minimize(g)
    if isinstance(mach, Exceeded):
        return mach
    path = {0: ()}  # per state, the first path found to it
    back = []  # words that lead state 0 back to itself, in the order found

    def successors(i):
        for x, t in enumerate(mach.transitions[i]):
            if t == 0:
                back.append(path[i] + (x,))
            path.setdefault(t, path[i] + (x,))
        return mach.transitions[i]

    breadth_first(0, successors)
    return back[0] if back else NOT_CIRCUIT


# -- orbit-signalizer ---------------------------------------------------------


@dataclass(eq=False)
class OrbitSignalizer:
    """Closure of an element under taking orbit-power sections.

    elements[0] is the input; edges hold (source index, orbit size m,
    target index, anchor letter).  status is "complete" or "exceeded",
    and cap is the element cap the closure ran with.
    """

    elements: list
    edges: list
    status: str
    interner: Interner
    cap: int

    @property
    def complete(self) -> bool:
        return self.status == "complete"


def orbit_signalizer(g: Element, cap: int = 512, letters: str = "least") -> OrbitSignalizer:
    """BFS closure from g under b -> b^m|_x over orbits of the root action.

    letters="least" anchors each orbit at its least letter (enough for
    the order computation and for conjugate_in_aut, whose cap counts
    these elements); letters="all" closes over every anchor,
    which the conjugacy graphs need since their targets sit at images
    of least letters under arbitrary root conjugators.
    """
    if letters not in ("least", "all"):
        raise ValueError("letters must be 'least' or 'all'")
    sys = g.system
    intern = Interner(sys)
    if isinstance(intern.key(g.word), Exceeded):
        return OrbitSignalizer([g], [], "exceeded", intern, cap)
    edges = []

    def closure(status):
        return OrbitSignalizer([Element._of(sys, w) for w in intern.words], edges, status, intern, cap)

    pos = 0
    while pos < len(intern):
        w = intern.words[pos]
        for orb in orbits(sys.root_perm(w)):
            for y in orb if letters == "all" else orb[:1]:
                k = intern.key(sys.power_sections(w, y)[-1])
                if isinstance(k, Exceeded):
                    return closure("exceeded")
                edges.append((pos, len(orb), k, y))
            if len(intern) > cap:
                return closure("exceeded")
        pos += 1
    return closure("complete")


# -- nucleus ------------------------------------------------------------------


@dataclass(eq=False)
class NucleusReport:
    tag: str  # "contracting" | "unknown"
    elements: list | None = None
    reason: str | None = None

    @property
    def contracting(self) -> bool:
        return self.tag == "contracting"


def _section_closure(intern, nset, w, size_cap):
    """Add the semantic state closure of the word w to nset; False on
    cap/budget."""
    sys = intern.system
    k = intern.key(w)
    if isinstance(k, Exceeded):
        return False
    queue = [k]
    while queue:
        k = queue.pop()
        if k in nset:
            continue
        if len(nset) >= size_cap:
            return False
        nset.add(k)
        cur = intern.words[k]
        for x in range(sys.degree):
            kk = intern.key(sys.section(cur, x))
            if isinstance(kk, Exceeded):
                return False
            if kk not in nset:
                queue.append(kk)
    return True


def _explore_product(intern, nset, u, v, node_cap):
    """Section graph of words[u]*words[v], pruned at nset.

    Returns ("ok", depth), ("recurrent", keys) for keys on cycles, or
    ("unknown", reason)."""
    walk = _section_graph(intern, join(intern.words[u], intern.words[v]), node_cap, nset)
    if isinstance(walk, Exceeded):
        if walk.kind == "states":
            return ("unknown", "product exploration exceeded %d states" % node_cap)
        return ("unknown", "equality budget exceeded")
    nodes, succs = walk
    if not nodes:  # the product is in nset
        return ("ok", 0)
    comps = strongly_connected_components(len(nodes), lambda i: succs[i])
    recurrent = []
    for comp in comps:
        if len(comp) > 1 or comp[0] in succs[comp[0]]:
            recurrent.extend(nodes[i] for i in comp)
    if recurrent:
        return ("recurrent", recurrent)
    depth = [0] * len(nodes)
    for comp in comps:  # successors first
        i = comp[0]
        depth[i] = 1 + max((depth[t] for t in succs[i]), default=0)
    return ("ok", depth[0])


def nucleus(g, size_cap: int = 512) -> NucleusReport:
    """Semi-decision for contraction of the group generated by the states
    of g (or of each element of a generator list).

    Grows a candidate set: state closures of the generators and their
    inverses, then, for every pairwise product, whatever states recur
    without falling into the set (with their closures and inverses).
    Contracting is reported only when the set stabilizes and every
    product's section graph dies into the set within _NUCLEUS_DEPTH.  Never
    claims non-contraction.
    """
    gens = [g] if isinstance(g, Element) else list(g)
    if not gens:
        raise ValueError("need at least one generator")
    sys = gens[0].system
    for gen in gens:
        _same_system(gens[0], gen)
    intern = Interner(sys)
    nset: set[int] = set()
    seeds = [EMPTY]
    for gen in gens:
        seeds.append(gen.word)
        seeds.append(invert_word(gen.word))
    for s in seeds:
        if not _section_closure(intern, nset, s, size_cap):
            return NucleusReport("unknown", reason="size cap %d exceeded" % size_cap)
    done: set[tuple[int, int]] = set()
    while True:
        keys = sorted(nset)
        for u, v in ((u, v) for u in keys for v in keys if (u, v) not in done):
            res = _explore_product(intern, nset, u, v, size_cap)
            if res[0] == "unknown":
                return NucleusReport("unknown", reason=res[1])
            if res[0] == "recurrent":
                # the recurrent states never fall into the current set, so
                # they belong to it; restart the pair sweep with them added
                for r in res[1]:
                    rel = intern.words[r]
                    if not _section_closure(intern, nset, rel, size_cap) or not _section_closure(
                        intern, nset, invert_word(rel), size_cap
                    ):
                        return NucleusReport("unknown", reason="size cap %d exceeded" % size_cap)
                break
            if res[1] > _NUCLEUS_DEPTH:
                return NucleusReport(
                    "unknown", reason="products not absorbed within depth %d" % _NUCLEUS_DEPTH
                )
            done.add((u, v))
        else:
            break
    return NucleusReport("contracting", elements=[Element._of(sys, intern.words[k]) for k in sorted(nset)])
