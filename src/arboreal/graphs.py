"""Graph algorithms shared by the deciders, iterative throughout (deep
graphs, no recursion).

`surviving` is the one survival fixpoint: the conjugator graphs, the
simultaneous tuple graphs and the configuration closures all prune by
it.  `breadth_first` walks the configuration closures, both while they
are built and when their survivors are listed, and the pruned graphs
in conjugator synthesis: `basic_conjugator`, `all_basic_conjugators`
and `sim_basic_conjugator`.
`strongly_connected_components` serves the order graphs and the circuit
analysis of classification.
"""

from __future__ import annotations


def surviving(groups) -> set:
    """Greatest fixpoint of survival: a node survives iff every one of
    its groups has a surviving member.

    groups maps each node to a re-iterable collection of groups, each a
    re-iterable collection of nodes.  A node with an empty group dies, a
    node with no groups survives, and a member that is not a key of
    groups never survives.  Sweeps repeat until nothing dies.
    """
    alive = set(groups)
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            for group in groups[v]:
                if alive.isdisjoint(group):
                    alive.discard(v)
                    changed = True
                    break
    return alive


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
