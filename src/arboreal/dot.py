"""DOT rendering for the order and conjugator graphs.

Output is deterministic: nodes appear in discovery order and parallel
edges between the same two nodes are drawn once, with their labels
joined.  That keeps diagrams readable when several orbits of one vertex
lead to the same target.  A conjugator graph draws its surviving
vertices, which all belong to nodes reachable from the input's node;
a pair graph labels them by closure words, a tuple graph by the word
pairs of its tuple key.
"""

from __future__ import annotations

from .classify import OrbitSignalizer
from .conjugacy import ConjGraph
from .perms import format_perm
from .system import format_word


def _quote(s: str) -> str:
    return '"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')


def _render(name: str, nodes, edges, doubled=()) -> str:
    """nodes: list of (id, label); edges: list of (src, tgt, label)."""
    lines = ["digraph %s {" % name, "  rankdir=LR;"]
    doubled = set(doubled)
    for nid, label in nodes:
        extra = ", peripheries=2" if nid in doubled else ""
        lines.append("  %s [label=%s%s];" % (nid, _quote(label), extra))
    joined: dict = {}
    order = []
    for src, tgt, label in edges:
        if (src, tgt) not in joined:
            joined[(src, tgt)] = []
            order.append((src, tgt))
        if label not in joined[(src, tgt)]:
            joined[(src, tgt)].append(label)
    for src, tgt in order:
        lines.append("  %s -> %s [label=%s];" % (src, tgt, _quote(",".join(joined[(src, tgt)]))))
    lines.append("}")
    return "\n".join(lines) + "\n"


def order_graph_dot(graph: OrbitSignalizer) -> str:
    nodes = [("n%d" % i, format_word(g.word)) for i, g in enumerate(graph.elements)]
    edges = [("n%d" % e[0], "n%d" % e[2], str(e[1])) for e in graph.edges]
    return _render("order_graph", nodes, edges)


def _graph_dot(name: str, graph, label) -> str:
    """A conjugator graph: one node per vertex, labelled by label(v),
    one edge per orbit letter and surviving successor, roots doubled."""
    ids = {v: "n%d" % i for i, v in enumerate(graph.vertices)}
    nodes = [(ids[v], label(v)) for v in graph.vertices]
    edges = [
        (ids[v], ids[w], str(letter))
        for v in graph.vertices
        for letter, targets in sorted(graph.edges.get(v, {}).items())
        for w in targets
    ]
    return _render(name, nodes, edges, doubled=[ids[r] for r in graph.roots])


def conj_graph_dot(graph: ConjGraph) -> str:
    a, b = graph.os_a.elements, graph.os_b.elements
    return _graph_dot("conjugator_graph", graph, lambda v: "(%s, %s, %s)" % (
        format_word(a[v[0]].word), format_word(b[v[1]].word), format_perm(v[2])))


def sim_graph_dot(graph: ConjGraph) -> str:
    words = graph.interner.words

    def label(v):
        key, pi = v
        pairs = ", ".join("(%s, %s)" % (format_word(words[ka]), format_word(words[kb])) for ka, kb in key)
        return "[%s] %s" % (pairs, format_perm(pi))

    return _graph_dot("simultaneous_conjugator_graph", graph, label)


def emit_dot(graph) -> str:
    """Dispatch on the graph type."""
    if isinstance(graph, OrbitSignalizer):
        return order_graph_dot(graph)
    if isinstance(graph, ConjGraph):
        return conj_graph_dot(graph) if graph.os_a is not None else sim_graph_dot(graph)
    raise TypeError("no DOT form for %r" % type(graph).__name__)
