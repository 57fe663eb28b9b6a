"""Spans and work counters for the arboreal modules, added from outside.

`instrument` replaces every public function and public method of the
measured modules with a timing wrapper, at every name the function is
bound to (`system.perm_inverse` is the same function as `perms.inverse`,
so both names get the one wrapper).  Nothing under `src/` is edited.

During a traced pass, each wrapped call records its duration, its
self time (duration minus the time covered by wrapped calls made inside
it) and, for a few functions, outcome counts read from its arguments and
return value.  Spans (name, start, end, parent span, query id) are kept
in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
import types

MEASURED = ("system", "perms", "elements", "classify", "order", "graphs",
            "conjugacy", "bounded", "oracle")

# Functions whose call count and self time are reported as per-layer
# metrics.  Every other public function is wrapped too, so that module
# self-time shares do not hand its time to its caller's module.
REPORTED = {
    "system": ("FRSystem.section", "FRSystem.root_perm", "FRSystem.define", "FRSystem.signature"),
    "perms": ("conjugators", "inverse", "orbits"),
    "elements": ("equal", "is_trivial", "Interner.key", "Interner.lookup", "minimize"),
    "classify": ("orbit_signalizer", "polynomial_degree", "nucleus"),
    "order": ("order",),
    "graphs": ("strongly_connected_components",),
    "conjugacy": ("conj_graph", "basic_conjugator", "sim_conj_graph", "sim_basic_conjugator"),
    "bounded": ("configurations", "ConfigSpace.steps", "FinSat.satisfiable", "FinSat.witness_word",
                "conjugate_in_pol_minus1", "conjugate_in_pol0_cyclic"),
    "oracle": ("verify_conjugator", "orbit_tree_code", "truncated_order"),
}

# Outcome counters, in report order; run.per_layer derives the hit ratio
# of Interner.key and the yield of conjugators from them.
OUTCOMES = (
    "elements.equal.true", "elements.equal.false", "elements.equal.exceeded",
    "elements.Interner.key.inserts",
    "perms.conjugators.scanned", "perms.conjugators.found",
    "classify.orbit_signalizer.elements", "classify.orbit_signalizer.exceeded",
    "conjugacy.conj_graph.vertices", "conjugacy.conj_graph.roots",
    "bounded.configurations.universe", "bounded.configurations.viable",
)

# Hot functions keep at most this many stored spans per traced pass;
# every call is still counted and timed.
SPANS_PER_FUNCTION = 2000

QUERY = "query"


def _equal_outcome(count, args, result, before):
    if result is True:
        count("elements.equal.true")
    elif result is False:
        count("elements.equal.false")
    else:
        count("elements.equal.exceeded")


def _key_before(args):
    return len(args[0])


def _key_outcome(count, args, result, before):
    if len(args[0]) > before:
        count("elements.Interner.key.inserts")


def _conjugators_outcome(count, args, result, before):
    count("perms.conjugators.scanned", math.factorial(len(args[0])))
    count("perms.conjugators.found", len(result))


def _signalizer_outcome(count, args, result, before):
    count("classify.orbit_signalizer.elements", len(result.elements))
    if not result.complete:
        count("classify.orbit_signalizer.exceeded")


def _graph_outcome(count, args, result, before):
    count("conjugacy.conj_graph.vertices", len(result.vertices))
    count("conjugacy.conj_graph.roots", len(result.roots))


def _configurations_outcome(count, args, result, before):
    count("bounded.configurations.universe", len(result.universe))
    count("bounded.configurations.viable", len(result.viable))


# name -> (before(args) or None, after(count, args, result, before))
HOOKS = {
    "elements.equal": (None, _equal_outcome),
    "elements.Interner.key": (_key_before, _key_outcome),
    "perms.conjugators": (None, _conjugators_outcome),
    "classify.orbit_signalizer": (None, _signalizer_outcome),
    "conjugacy.conj_graph": (None, _graph_outcome),
    "bounded.configurations": (None, _configurations_outcome),
}


class Tracer:
    """Per-function call counts and self times, outcome counts and spans
    of one traced pass.  Functions are wrapped after the pass has built
    its inputs, so only the queries are traced."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.outcomes: dict[str, int] = {}
        # (function id, start, end, parent span index or -1, query id)
        self.spans: list = []
        self.query = None
        self._kept: list[int] = []
        # one frame per open call: [time covered by its wrapped calls, its span index]
        self._stack: list = [[0.0, -1]]
        self._query = self.wrap(QUERY, lambda fn: fn())

    def count(self, name: str, n: int = 1):
        self.outcomes[name] = self.outcomes.get(name, 0) + n

    def wrap(self, name: str, fn):
        """A stand-in for fn that records each call as a span of `name`."""
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self._kept.append(0)
        before, after = HOOKS.get(name, (None, None))
        tracer, clock, stack, spans = self, self.clock, self._stack, self.spans
        calls, self_s, kept = self.calls, self.self_s, self._kept

        def traced(*args, **kwargs):
            state = before(args) if before else None
            parent = stack[-1]
            keep = kept[fid] < SPANS_PER_FUNCTION
            if keep:
                kept[fid] += 1
                idx = len(spans)
                spans.append(None)
            else:
                idx = parent[1]
            frame = [0.0, idx]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[0] += end - start
                self_s[fid] += end - start - frame[0]
                calls[fid] += 1
                if keep:
                    spans[idx] = (fid, start, end, parent[1], tracer.query)
            if after:
                after(tracer.count, args, result, state)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def run_query(self, qid, fn):
        """Run one benchmark query under a root span named 'query'."""
        self.query = qid
        try:
            return self._query(fn)
        finally:
            self.query = None

    def counts(self) -> dict:
        """Every call count and outcome count, for exact comparison."""
        out = {name: n for name, n in zip(self.names, self.calls) if name != QUERY}
        out.update(self.outcomes)
        return out

    def self_by_name(self) -> dict:
        return dict(zip(self.names, self.self_s))

    def write_spans(self, path):
        """One JSON object per line; times in seconds from the first span."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, (fid, start, end, parent, query) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": self.names[fid], "start": round(start - t0, 9),
                    "end": round(end - t0, 9), "parent": parent, "query": query,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its
    interval covered by its child spans.  `spans` holds
    (name, start, end, parent index or -1) tuples."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def _public_functions(module):
    """(reported name, owning class or None, attribute, function, staticmethod
    flag) for each public function and public method defined in the module."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            yield "%s.%s" % (short, attr), None, attr, obj, False
        elif inspect.isclass(obj):
            for mname, raw in list(vars(obj).items()):
                if mname.startswith("_"):
                    continue
                name = "%s.%s.%s" % (short, attr, mname)
                if isinstance(raw, staticmethod):
                    yield name, obj, mname, raw.__func__, True
                elif isinstance(raw, types.FunctionType):
                    yield name, obj, mname, raw, False


def instrument(package, tracer: Tracer) -> list[str]:
    """Wrap the public functions of the measured submodules of a freshly
    imported package; returns the wrapped names."""
    prefix = package.__name__ + "."
    wrappers: dict[int, object] = {}
    names = []
    for short in MEASURED:
        module = sys.modules[prefix + short]
        for name, cls, attr, fn, static in _public_functions(module):
            w = tracer.wrap(name, fn)
            names.append(name)
            if cls is None:
                wrappers[id(fn)] = w
            else:
                setattr(cls, attr, staticmethod(w) if static else w)
    # a module-level function may be bound under several names in
    # several modules (re-exports, `import ... as ...`): rebind them all
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package.__name__ or modname.startswith(prefix)):
            continue
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
    return names
