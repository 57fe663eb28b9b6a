"""Graph algorithms shared by the deciders, iterative throughout (deep
graphs, no recursion).

`surviving` is the one survival fixpoint, a worklist linear in its
integer option table: the conjugator graphs, the simultaneous tuple
graphs and the configuration closures all prune by it.  `refine` is
colour refinement, which decides conjugacy in Aut over the two
orbit-power closures.  `breadth_first` walks the configuration
closures, both while they are built and when their survivors are
listed, and the conjugator graphs in synthesis: `basic_conjugator`,
`all_basic_conjugators` and `sim_basic_conjugator`.
`strongly_connected_components` serves the order graphs and the
circuit analysis of classification.
"""

from __future__ import annotations


def surviving(options) -> list:
    """Greatest fixpoint of survival over an option table: a node lives
    iff one of its options names only live nodes.

    options[v] lists the options of node v, each a list of node ids in
    range(len(options)); a node with no option dies.  Returns, per node,
    one flag per option: whether it names only live nodes.  Counting
    propagation: each node keeps its count of live options and the list
    of options that name it, and dies once, when its count reaches 0,
    so the work is linear in the size of the table.
    """
    flags = [[True] * len(opts) for opts in options]
    live = [len(opts) for opts in options]
    users: list = [[] for _ in options]
    for v, opts in enumerate(options):
        for k, opt in enumerate(opts):
            for u in opt:
                users[u].append((v, k))
    dead = [v for v, n in enumerate(live) if not n]
    for u in dead:  # grows while it is walked
        for v, k in users[u]:
            if flags[v][k]:
                flags[v][k] = False
                live[v] -= 1
                if not live[v]:
                    dead.append(v)
    return flags


def refine(succ):
    """Colour refinement of a graph whose edges carry labels.

    succ[v] lists the pairs (label, successor) of node v, successors in
    range(len(succ)).  Every node starts with colour 0, and round r
    colours v by its colour and the sorted multiset of (label, colour of
    successor) at round r - 1, so two nodes share a colour after round r
    iff their unfoldings agree to depth r.  Yields (colour, signed) after
    each round: colour the class ids, one per node and updated in place,
    and signed the number of signatures the round computed.  The rounds
    stop once no node is left to sign, so the last colours are stable.

    Only the predecessors of nodes whose class id changed are signed
    again.  A class that splits keeps its id for the nodes not signed,
    or else for its largest part, so a chain costs O(n) signatures, not
    O(n^2).
    """
    pred: list = [[] for _ in succ]
    for v, row in enumerate(succ):
        for _, s in row:
            pred[s].append(v)
    colour = [0] * len(succ)
    size = [len(succ)]  # nodes per class id
    signed: list = list(range(len(succ)))
    while signed:
        parts: dict = {}  # class id -> {signature: nodes}
        for v in signed:
            sig = tuple(sorted([(m, colour[s]) for m, s in succ[v]]))
            parts.setdefault(colour[v], {}).setdefault(sig, []).append(v)
        changed = []
        for c, by_sig in parts.items():
            groups = list(by_sig.values())
            if sum(map(len, groups)) == size[c]:
                del groups[max(range(len(groups)), key=lambda k: len(groups[k]))]
            for group in groups:
                size[c] -= len(group)
                for v in group:
                    colour[v] = len(size)
                size.append(len(group))
                changed += group
        yield colour, len(signed)
        signed = list(dict.fromkeys(u for v in changed for u in pred[v]))


def breadth_first(root, successors) -> list:
    """Nodes reachable from root, in breadth-first discovery order.

    successors(v) is called once per node, in that order.
    """
    order = [root]
    seen = {root}
    pos = 0
    while pos < len(order):
        for s in successors(order[pos]):
            if s not in seen:
                seen.add(s)
                order.append(s)
        pos += 1
    return order


def strongly_connected_components(n: int, successors) -> list[list[int]]:
    """Tarjan over nodes 0..n-1; successors(i) yields successor nodes.

    Components come out in reverse topological order: every edge leaving
    a component points into a component emitted earlier.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        # frame: (node, iterator over successors)
        work = [(root, iter(successors(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if index[succ] == -1:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if on_stack[succ]:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                components.append(comp)
    return components
