"""The order problem, decided on the orbit-power closure of an element.

A cycle through an edge labeled m >= 2 forces infinite order (the orbit
keeps breeding longer orbits); otherwise orders propagate through the
component condensation by least common multiples, with label-1 edges
inside a component contributing nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .classify import OrbitSignalizer, orbit_signalizer
from .elements import Element
from .graphs import breadth_first, strongly_connected_components


@dataclass(frozen=True)
class OrderResult:
    tag: str  # "finite" | "infinite" | "unknown"
    value: int | None = None
    witness: tuple = ()  # for infinite: cycle as (src, m, tgt, letter) edges
    reason: str | None = None

    def __str__(self):
        if self.tag == "finite":
            return str(self.value)
        return self.tag


def order_graph(a: Element, cap: int = 512) -> OrbitSignalizer:
    """Vertices are the orbit-power closure of a, one edge per orbit of
    each vertex's root action, anchored at the least letter."""
    return orbit_signalizer(a, cap, letters="least")


def order(a: Element, cap: int = 512) -> OrderResult:
    graph = order_graph(a, cap)
    return order_from_graph(graph)


def order_from_graph(graph: OrbitSignalizer) -> OrderResult:
    if not graph.complete:
        return OrderResult("unknown", reason="closure exceeded cap of %d elements" % graph.cap)
    n = len(graph.elements)
    out: list[list[tuple]] = [[] for _ in range(n)]
    for e in graph.edges:
        out[e[0]].append(e)
    comps = strongly_connected_components(n, lambda i: [e[2] for e in out[i]])
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    for e in graph.edges:
        if e[1] >= 2 and comp_of[e[0]] == comp_of[e[2]]:
            return OrderResult("infinite", witness=_cycle_through(out, comp_of, e))
    ords = [1] * len(comps)
    for ci, comp in enumerate(comps):  # successors first
        terms = []
        for v in comp:
            for e in out[v]:
                if comp_of[e[2]] != ci:
                    terms.append(e[1] * ords[comp_of[e[2]]])
        ords[ci] = lcm(*terms) if terms else 1
    return OrderResult("finite", value=ords[comp_of[0]])


def _cycle_through(out, comp_of, edge):
    """An explicit cycle containing the given intra-component edge: the
    edge, then the path back from its target to its source along the
    first edge breadth_first meets into each vertex of the component."""
    src, tgt = edge[0], edge[2]
    back = {tgt: None}

    def successors(v):
        inside = [e for e in out[v] if comp_of[e[2]] == comp_of[src]]
        for e in inside:
            back.setdefault(e[2], e)
        return [e[2] for e in inside]

    breadth_first(tgt, successors)
    path = []
    v = src
    while v != tgt:
        path.append(back[v])
        v = back[v][0]
    return (edge,) + tuple(reversed(path))
