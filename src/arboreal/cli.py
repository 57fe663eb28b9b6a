"""Command-line front end.

Exit codes: 0 for affirmative verdicts and successfully computed
values, 1 for negative verdicts, 2 when a cap was hit or the answer is
unknown, 3 for usage and input errors, 4 for an internal error (a bug
in arboreal, reported as "internal error: ...").  With --json a single
report object is printed instead of the human-readable lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys as _sys
import time

from . import __version__
from .bounded import (
    NotBounded,
    conjugate_in_pol0_cyclic,
    conjugate_in_pol_inf,
    conjugate_in_pol_minus1,
)
from .classify import is_bounded, nucleus, orbit_signalizer, polynomial_degree
from .conjugacy import (
    basic_conjugator,
    conj_graph,
    conjugate_in_aut,
    conjugate_in_aut_simultaneous,
    canonical_representative,
    sim_basic_conjugator,
)
from .dot import emit_dot
from .elements import Element, act, equal
from .oracle import DepthTooLarge, orbit_tree_code, truncated_order, verify_conjugator
from .order import order
from .perms import DegreeTooLarge
from .system import DslError, FRSystem, format_system, format_word, parse_system, parse_word


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means inconclusive."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


def _at_least_zero(name: str, invalid: str = "invalid int value: %r"):
    """argparse type of an integer option that must be at least 0; the
    message for a negative value names the option."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(invalid % text) from None
        if n < 0:
            raise argparse.ArgumentTypeError("%s must be at least 0, got %d" % (name, n))
        return n

    return parse


_cap = _at_least_zero("cap")
_depth = _at_least_zero("depth", "invalid depth %r")


def _load(path: str) -> FRSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise _Usage(str(exc)) from None
    return parse_system(text)


def _word(sys: FRSystem, text: str) -> Element:
    w = parse_word(text)
    try:
        return Element(sys, w)
    except ValueError as exc:  # undefined symbol
        raise _Usage(str(exc)) from None


def _vertex(sys: FRSystem, text: str) -> tuple:
    try:
        letters = tuple(int(t) for t in (text.split(",") if "," in text else text.strip()))
    except ValueError as exc:
        raise _Usage(str(exc)) from None
    for x in letters:
        if not 0 <= x < sys.degree:
            raise _Usage("letter %r outside alphabet of degree %d" % (x, sys.degree))
    return letters


def _fmt_vertex(sys: FRSystem, v: tuple) -> str:
    if sys.degree <= 10:
        return "".join(str(x) for x in v)
    return ",".join(str(x) for x in v)


def _conjugator_witness(sys: FRSystem, word, cls=None) -> dict:
    names = sorted({s for s, _ in word})
    out = {
        "word": format_word(word),
        "system": format_system(sys, roots=names) if names else "",
    }
    if cls is not None:
        out["class"] = cls
    return out


def _emit_lines(witness: dict) -> list:
    lines = ["conjugator = %s" % witness["word"]]
    if witness["system"]:
        lines.extend(witness["system"].splitlines())
    return lines


# -- command handlers: each returns (code, verdict, witness, caps, text lines) ----


def _cmd_parse(args):
    sys = _load(args.file)
    text = format_system(sys)
    return 0, "ok", {"system": text}, {}, text.splitlines()


def _cmd_equal(args):
    sys = _load(args.file)
    g, h = _word(sys, args.w1), _word(sys, args.w2)
    res = equal(g, h, args.budget)
    if res is True:
        return 0, "equal", None, {"budget": args.budget}, []
    if res is False:
        return 1, "different", None, {"budget": args.budget}, []
    return 2, "unknown", {"reason": str(res)}, {"budget": args.budget}, []


def _cmd_act(args):
    sys = _load(args.file)
    g = _word(sys, args.word)
    img = act(g, _vertex(sys, args.vertex))
    return 0, _fmt_vertex(sys, img), None, {}, []


def _cmd_order(args):
    sys = _load(args.file)
    g = _word(sys, args.word)
    r = order(g, args.cap)
    caps = {"cap": args.cap}
    if r.tag == "unknown":
        return 2, "unknown", {"reason": r.reason}, caps, []
    if r.tag == "infinite":
        code = 1 if args.assert_finite else 0
        return code, "infinite", {"cycle": list(r.witness)}, caps, []
    return 0, str(r.value), {"order": r.value}, caps, []


def _cmd_classify(args):
    sys = _load(args.file)
    cls = polynomial_degree(_word(sys, args.word))
    witness = {"kind": cls.kind, "value": cls.value, "detail": cls.witness}
    if cls.kind == "unknown":
        return 2, "unknown", witness, {}, []
    return 0, str(cls), witness, {}, []


def _cmd_os(args):
    sys = _load(args.file)
    g = _word(sys, args.word)
    os = orbit_signalizer(g, args.cap, letters=args.letters)
    lines = ["%d: %s" % (i, format_word(h.word)) for i, h in enumerate(os.elements)]
    lines += ["%d -(%d@%d)-> %d" % (e[0], e[1], e[3], e[2]) for e in os.edges]
    witness = {
        "elements": [format_word(h.word) for h in os.elements],
        "edges": [list(e) for e in os.edges],
        "status": os.status,
    }
    code = 0 if os.complete else 2
    return code, os.status, witness, {"cap": args.cap}, lines


def _cmd_nucleus(args):
    sys = _load(args.file)
    r = nucleus(_word(sys, args.word), size_cap=args.cap)
    if not r.contracting:
        return 2, "unknown", {"reason": r.reason}, {"cap": args.cap}, []
    words = [format_word(h.word) for h in r.elements]
    return 0, "contracting (%d elements)" % len(words), {"nucleus": words}, {"cap": args.cap}, words


def _cmd_graph(args):
    sys = _load(args.file)
    a = _word(sys, args.w1)
    if args.kind == "order":
        graph = orbit_signalizer(a, args.cap, letters="least")
        summary = "%d vertices, %d edges, %s" % (len(graph.elements), len(graph.edges), graph.status)
        complete = graph.complete
    else:
        if args.w2 is None:
            raise _Usage("graph conj needs two words")
        b = _word(sys, args.w2)
        graph = conj_graph(a, b, args.cap)
        summary = "%d vertices, %d roots, %s" % (len(graph.vertices), len(graph.roots), graph.status)
        complete = graph.status == "complete"
    text = emit_dot(graph)
    lines = []
    if args.dot == "-":
        lines = text.splitlines()
    elif args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text)
    witness = {"summary": summary, "dot": args.dot}
    return (0 if complete else 2), summary, witness, {"cap": args.cap}, lines


def _cmd_conjugate(args):
    sys = _load(args.file)
    caps = {"cap": args.cap, "verify_depth": args.verify_depth}
    note = None
    # synthesize: the graph synthesis of an Aut verdict, or None when the
    # decision carries its own conjugator
    if args.simultaneous:
        if args.group != "aut":
            raise _Usage("--simultaneous supports only --group aut")
        as_ = [_word(sys, t) for t in args.w1.split(",")]
        bs = [_word(sys, t) for t in args.w2.split(",")]
        if len(as_) != len(bs):
            raise _Usage("need equally many source and target elements")
        pairs = list(zip(as_, bs))
        dec = conjugate_in_aut_simultaneous(as_, bs, args.cap)
        reason, cls, synthesize = dec.reason, None, sim_basic_conjugator
    else:
        a, b = _word(sys, args.w1), _word(sys, args.w2)
        pairs = [(a, b)]
        group = args.group
        if group == "fsg":
            if is_bounded(a) and is_bounded(b):
                group = "aut"
                note = "both inputs bounded; finite-state verdict equals the unrestricted one"
            # the Aut decider answers only when both least-letter
            # orbit-power closures are complete: finite orbit-signalizers
            elif nucleus(a, size_cap=args.cap).contracting and nucleus(b, size_cap=args.cap).contracting:
                group = "aut"
                note = "contraction verified and both orbit-power closures complete"
            else:
                reason = ("finite-state restriction undecided here: inputs are not both bounded "
                          "and contraction or closure completeness could not be verified")
                return 2, "unknown", {"reason": reason}, caps, []
        if group == "aut":
            dec = conjugate_in_aut(a, b, args.cap)
            reason, cls, synthesize = dec.reason, None, basic_conjugator
        else:
            decide = {"pol-1": conjugate_in_pol_minus1, "pol0": conjugate_in_pol0_cyclic,
                      "polinf": conjugate_in_pol_inf}[group]
            dec = decide(a, b, args.cap)
            reason, cls, synthesize = dec.certificate, dec.cls, None
    if dec.tag == "unknown":
        return 2, "unknown", {"reason": reason}, caps, []
    if not dec.conjugate:
        return 1, "not conjugate", {"reason": reason}, caps, []
    h = synthesize(dec.graph).element if synthesize else dec.conjugator
    if not all(verify_conjugator(h, a, b, args.verify_depth) for a, b in pairs):
        return 2, "unknown", {"reason": "verification failed"}, caps, []
    witness = _conjugator_witness(sys, h.word, cls)
    witness["verified_depth"] = args.verify_depth
    if note:
        witness["note"] = note
    return 0, "conjugate", witness, caps, _emit_lines(witness) if args.emit_conjugator else []


def _cmd_representative(args):
    sys = _load(args.file)
    rep = canonical_representative(_word(sys, args.word), args.depth)
    lines = [
        "level %d: %s" % (k, " ".join(str(x) for x in rep.level_maps[k]))
        for k in range(1, len(rep.level_maps))
    ]
    witness = {"depth": rep.depth, "levels": [list(m) for m in rep.level_maps]}
    return 0, "ok", witness, {"depth": args.depth}, lines


def _cmd_oracle(args):
    sys = _load(args.file)
    caps = {"depth": args.depth}
    if args.oracle == "orbit-tree":
        code = orbit_tree_code(_word(sys, args.w1), args.depth)
        return 0, code, {"code": code}, caps, []
    if args.oracle == "trunc-order":
        n = truncated_order(_word(sys, args.w1), args.depth)
        return 0, str(n), {"order": n}, caps, []
    if args.w3 is None:
        raise _Usage("oracle verify needs three words")
    h, a, b = (_word(sys, w) for w in (args.w1, args.w2, args.w3))
    ok = verify_conjugator(h, a, b, args.depth)
    if ok:
        return 0, "verified", None, caps, []
    return 1, "failed", None, caps, []


def _parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    p = _Parser(prog="arboreal", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", parents=[common], help="parse a system and print it back")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_parse)

    sp = sub.add_parser("equal", parents=[common], help="decide equality of two words")
    sp.add_argument("file")
    sp.add_argument("w1")
    sp.add_argument("w2")
    sp.add_argument("--budget", type=_at_least_zero("budget"), default=10**6)
    sp.set_defaults(func=_cmd_equal)

    sp = sub.add_parser("act", parents=[common], help="apply a word to a vertex")
    sp.add_argument("file")
    sp.add_argument("word")
    sp.add_argument("vertex")
    sp.set_defaults(func=_cmd_act)

    sp = sub.add_parser("order", parents=[common], help="order of an element")
    sp.add_argument("file")
    sp.add_argument("word")
    sp.add_argument("--cap", type=_cap, default=512)
    sp.add_argument("--assert-finite", action="store_true",
                    help="treat infinite order as a negative verdict (exit 1)")
    sp.set_defaults(func=_cmd_order)

    sp = sub.add_parser("classify", parents=[common], help="activity class of an element")
    sp.add_argument("file")
    sp.add_argument("word")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("os", parents=[common], help="orbit-power closure of an element")
    sp.add_argument("file")
    sp.add_argument("word")
    sp.add_argument("--cap", type=_cap, default=512)
    sp.add_argument("--letters", choices=["least", "all"], default="least")
    sp.set_defaults(func=_cmd_os)

    sp = sub.add_parser("nucleus", parents=[common], help="nucleus of the generated group")
    sp.add_argument("file")
    sp.add_argument("word")
    sp.add_argument("--cap", type=_cap, default=512)
    sp.set_defaults(func=_cmd_nucleus)

    sp = sub.add_parser("graph", parents=[common], help="emit the order or conjugator graph")
    sp.add_argument("kind", choices=["order", "conj"])
    sp.add_argument("file")
    sp.add_argument("w1")
    sp.add_argument("w2", nargs="?")
    sp.add_argument("--dot", metavar="PATH", help="write DOT here ('-' for stdout)")
    sp.add_argument("--cap", type=_cap, default=512)
    sp.set_defaults(func=_cmd_graph)

    sp = sub.add_parser("conjugate", parents=[common], help="decide conjugacy")
    sp.add_argument("file")
    sp.add_argument("w1")
    sp.add_argument("w2")
    sp.add_argument("--group", choices=["aut", "fsg", "pol-1", "pol0", "polinf"], default="aut",
                    help="conjugator group (default aut); pol-1, pol0 and polinf take bounded "
                         "inputs only and refuse others with exit 3")
    sp.add_argument("--emit-conjugator", action="store_true")
    sp.add_argument("--verify-depth", type=_depth, default=10)
    sp.add_argument("--simultaneous", action="store_true",
                    help="w1 and w2 are comma-separated tuples conjugated entrywise by one element")
    sp.add_argument("--cap", type=_cap, default=512)
    sp.set_defaults(func=_cmd_conjugate)

    sp = sub.add_parser("representative", parents=[common],
                        help="canonical conjugacy representative to a depth")
    sp.add_argument("file")
    sp.add_argument("word")
    sp.add_argument("--depth", type=_depth, required=True)
    sp.set_defaults(func=_cmd_representative)

    sp = sub.add_parser("oracle", parents=[common], help="depth-truncated ground truth")
    sp.add_argument("oracle", choices=["orbit-tree", "trunc-order", "verify"])
    sp.add_argument("file")
    sp.add_argument("w1")
    sp.add_argument("w2", nargs="?")
    sp.add_argument("w3", nargs="?")
    sp.add_argument("--depth", type=_depth, default=8)
    sp.set_defaults(func=_cmd_oracle)

    return p


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        code, verdict, witness, caps, lines = args.func(args)
    except (DepthTooLarge, DegreeTooLarge) as exc:
        print("cap: %s" % exc, file=_sys.stderr)
        return 2
    except (DslError, OSError, _Usage, NotBounded) as exc:
        print("error: %s" % exc, file=_sys.stderr)
        return 3
    except Exception as exc:
        print("internal error: %s" % exc, file=_sys.stderr)
        return 4
    if args.json:
        try:
            with open(args.file, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            digest = None
        words = [getattr(args, k) for k in ("w1", "w2", "w3", "word", "vertex") if getattr(args, k, None)]
        report = {
            "command": args.command,
            "inputs": {"file": args.file, "sha256": digest, "words": words},
            "verdict": verdict,
            "witness": witness,
            "caps": caps,
            "version": __version__,
            "timings": {"seconds": round(time.monotonic() - t0, 6)},
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        if args.command != "parse":
            print(verdict)
        if witness and witness.get("reason"):
            print("reason: %s" % witness["reason"])
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    _sys.exit(main())
