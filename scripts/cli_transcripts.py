#!/usr/bin/env python3
"""CLI transcripts: one line per command-line run, then a digest.

Runs `arboreal.cli.main` in-process over a fixed matrix: every
subcommand, every conjugacy `--group`, the caps 0, 1, 3, 20 and 512,
`--emit-conjugator`, `--simultaneous` and `graph conj --dot -`, on six
small systems (the odometer, its twisted sibling, the carry machines,
one symbol per activity class, the exponential BRANCH system and a
degree-3 rotation system), each run once plain and once with `--json`.

A record holds the arguments, the exit code, stdout and stderr, with
`timings` dropped from a `--json` report.  Each printed line shows the
exit code, the arguments and the first output line; the last line is
the sha256 of all records, so two versions of the library that print
the same digest gave the same CLI output on the whole matrix:

    PYTHONPATH=src python scripts/cli_transcripts.py > new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from itertools import permutations

from arboreal import cli

# file name -> (system text, words, vertex for `act`)
FIXTURES = {
    "odo.fr": ("alphabet 2\na = (e, a) [1 0]\n", ["e", "a", "a^-1", "a*a"], "0110"),
    "twisted.fr": (
        "alphabet 2\na = (e, a) [1 0]\nb = (e, b^-1) [1 0]\n",
        ["a", "b", "a^-1", "b^-1", "a*b"],
        "0110",
    ),
    "carry.fr": (
        "alphabet 2\ns = (e, e) [1 0]\np = (s, p)\nq = (q, s)\n",
        ["s", "p", "q", "p^-1", "p*q"],
        "0110",
    ),
    "zoo.fr": (
        "alphabet 2\ns = (e, e) [1 0]\na = (e, a) [1 0]\nm = (a, m)\nl = (l, l) [1 0]\n",
        ["s", "a", "m", "l", "m*a"],
        "0110",
    ),
    "branch.fr": (
        "alphabet 2\na = (e, a) [1 0]\nb = (a, c) [1 0]\nc = (a, b)\n",
        ["a", "b", "c", "b*c"],
        "0110",
    ),
    "rot3.fr": (
        "alphabet 3\na = (e, a, e) [1 2 0]\nb = (a, e, b) [0 2 1]\n",
        ["a", "b", "a^-1", "a*b"],
        "0212",
    ),
}
CAPS = ("0", "1", "3", "20", "512")
GROUPS = ("aut", "fsg", "pol-1", "pol0", "polinf")
DEPTHS = ("0", "3", "8", "15")


def invert(word: str) -> str:
    if word == "e":
        return "e"
    return "*".join(f[:-3] if f.endswith("^-1") else f + "^-1" for f in reversed(word.split("*")))


def runs(name: str, words: list, vertex: str):
    """The argument lists of one fixture, in a fixed order."""
    pairs = [(w, invert(w)) for w in words] + list(permutations(words[:3], 2))
    yield ["parse", name]
    for w in words:
        yield ["act", name, w, vertex]
        yield ["classify", name, w]
        for v in words:
            yield ["equal", name, w, v]
        for budget in ("1", "3", "20"):
            yield ["equal", name, w, w + "*" + w, "--budget", budget]
        for depth in DEPTHS:
            yield ["oracle", "orbit-tree", name, w, "--depth", depth]
            yield ["oracle", "trunc-order", name, w, "--depth", depth]
            yield ["representative", name, w, "--depth", depth]
        for cap in CAPS:
            yield ["order", name, w, "--cap", cap]
            yield ["os", name, w, "--cap", cap]
            yield ["os", name, w, "--cap", cap, "--letters", "all"]
            yield ["nucleus", name, w, "--cap", cap]
            yield ["graph", "order", name, w, "--cap", cap, "--dot", "-"]
    for a, b in pairs:
        yield ["oracle", "verify", name, "e", a, b, "--depth", "8"]
        for cap in CAPS:
            yield ["graph", "conj", name, a, b, "--cap", cap, "--dot", "-"]
            yield ["conjugate", name, a, b, "--cap", cap, "--simultaneous"]
            for group in GROUPS:
                yield ["conjugate", name, a, b, "--cap", cap, "--group", group]
        for group in GROUPS:
            yield ["conjugate", name, a, b, "--group", group, "--emit-conjugator"]
    tuple_a = ",".join(words[:2])
    for target in (",".join(invert(w) for w in words[:2]), ",".join(reversed(words[:2]))):
        for cap in CAPS:
            yield ["conjugate", name, tuple_a, target, "--cap", cap, "--simultaneous", "--emit-conjugator"]


def run_cli(argv: list) -> tuple:
    """(exit code, stdout, stderr, summary) of one in-process run, with
    `timings` dropped from a --json report; the summary is the first
    output line, or the verdict of a --json report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    stdout, stderr = out.getvalue(), err.getvalue()
    first = (stdout or stderr).split("\n", 1)[0]
    if "--json" in argv and stdout:
        report = json.loads(stdout)
        report.pop("timings", None)
        stdout = json.dumps(report, indent=2, sort_keys=True) + "\n"
        first = str(report["verdict"])
    return code, stdout, stderr, first[:80]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.parse_args(argv)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)  # runs name their input files relative to here
        try:
            for name, (text, words, vertex) in FIXTURES.items():
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(text)
                for args in runs(name, words, vertex):
                    for extra in ([], ["--json"]):
                        code, stdout, stderr, first = run_cli(args + extra)
                        record = json.dumps([args + extra, code, stdout, stderr])
                        digest.update(record.encode() + b"\n")
                        print("%s %s :: %s" % (code, " ".join(args + extra), first))
        finally:
            os.chdir(here)
    print("sha256 %s" % digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
