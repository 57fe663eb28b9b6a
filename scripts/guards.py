#!/usr/bin/env python3
"""Same-output guards: one sha256 line per guard.

Runs the four scripts whose output a change that keeps behaviour must
leave as it is, each in a subprocess on the library of this checkout:

    identity_corpus.py
    worked_examples.py
    survey_random.py --seeds 200 --cross-check   (without its elapsed line)
    cli_transcripts.py

and prints the sha256 of each one's stdout with the guard's name.  Two
checkouts that print the same four lines pass the guards; with --out DIR
the outputs are written there as well, one file per guard.  With
--against DIR each guard's output is compared with DIR/<guard>.txt of an
earlier --out run: under its sha256 line the guard prints how many lines
moved, then the moved lines, "- " before an earlier line and "+ " before
its replacement.  The digest line that closes identity_corpus and
cli_transcripts is not compared.  With --against the exit status is 1
when any guard moved a line and 0 otherwise:

    python scripts/guards.py --out /tmp/guards-old        # on the parent
    python scripts/guards.py --against /tmp/guards-old    # on the change
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> script arguments
GUARDS = {
    "identity_corpus": ["identity_corpus.py"],
    "worked_examples": ["worked_examples.py"],
    "survey_random": ["survey_random.py", "--seeds", "200", "--cross-check"],
    "cli_transcripts": ["cli_transcripts.py"],
}


def run_guard(args: list) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0])] + args[1:],
                          env=env, capture_output=True, text=True, check=True)
    # the elapsed line of survey_random.py is the one line that varies run to run
    return "".join(line for line in done.stdout.splitlines(keepends=True)
                   if not line.startswith("elapsed"))


def moved(old: str, new: str) -> list:
    """The lines of new that differ from old, each "- " an old line or
    "+ " a new one, in output order; digest lines are not compared."""
    def records(text):
        return [line for line in text.splitlines() if not line.startswith("sha256 ")]
    diff = difflib.unified_diff(records(old), records(new), lineterm="", n=0)
    return [line[0] + " " + line[1:] for line in list(diff)[2:] if not line.startswith("@@")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=None, metavar="DIR",
                    help="also write each guard's output to DIR/<guard>.txt")
    ap.add_argument("--against", type=Path, default=None, metavar="DIR",
                    help="print the lines that moved against DIR/<guard>.txt of an earlier --out run")
    ns = ap.parse_args(argv)
    if ns.out:
        ns.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for name, args in GUARDS.items():
        text = run_guard(args)
        if ns.out:
            (ns.out / ("%s.txt" % name)).write_text(text)
        print("sha256 %s  %s" % (hashlib.sha256(text.encode()).hexdigest(), name))
        if ns.against:
            lines = moved((ns.against / ("%s.txt" % name)).read_text(), text)
            print("%d lines moved in %s" % (sum(line[0] == "+" for line in lines), name))
            for line in lines:
                print(line)
            status |= bool(lines)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
