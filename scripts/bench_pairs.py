#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, parent against change.

    python scripts/bench_pairs.py PARENT CHANGE --seeds 401-410 --seconds 38
    python scripts/bench_pairs.py PARENT CHANGE --seeds 401-410 --out pairs.json

Runs `python3 bench/run.py --workload all --seed S --seconds T` from each
checkout directory, one pair per seed: odd seeds run the parent first,
even seeds the change first.  Each run's last line is the JSON summary
of `bench/run.py`.  For every workload and end-to-end metric that
BENCHMARK.json lists, it prints both medians, the relative change, how
many pairs the change won and lost (ties count for neither), the
parent's interquartile range, and whether the change stays within the
metric's bound.  A metric reads as a gain when the change won at least
nine tenths of the pairs and the medians differ, in its favour, by more
than the parent's interquartile range.  Quartiles are
statistics.quantiles(n=4, method='inclusive') over one side's runs.
--out writes the summary and every run's JSON line to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'401-410' or '1,5,9' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_side(checkout: Path, seed: int, seconds: float) -> dict:
    """The JSON summary line of one `bench/run.py --workload all` run."""
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "all", "--seed", str(seed),
                           "--seconds", repr(seconds)], cwd=checkout, stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """One metric over paired runs: parent[k] and change[k] ran on one seed."""
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    rel = (cm - pm) / pm if pm else 0.0
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3, "runs": parent},
        "change": {"median": cm, "q1": c1, "q3": c3, "runs": change},
        "relative_change": rel,
        "within_bound": sign * rel <= bound,
        "change_better_pairs": wins,
        "change_worse_pairs": losses,
        "parent_iqr": p3 - p1,
        "gain": wins * 10 >= 9 * len(parent) and sign * (pm - cm) > p3 - p1,
    }


def summarize(parent_lines: list, change_lines: list, benchmark: dict) -> dict:
    """Per 'workload.metric' of benchmark, the comparison of the paired
    JSON lines; plus each side's failures per run."""
    metrics = {}
    for workload in benchmark["workloads"]:
        for spec in benchmark["end_to_end"]:
            key = "%s.%s" % (workload["name"], spec["name"])
            values = [[line["metrics"][key]["value"] for line in lines] for lines in (parent_lines, change_lines)]
            metrics[key] = dict(compare(*values, spec["better"], spec["bound"]), bound=spec["bound"])
    failed = {side: ["%d of %d" % (line["failed"], line["attempted"]) for line in lines]
              for side, lines in (("parent", parent_lines), ("change", change_lines))}
    return {"metrics": metrics, "failed": failed,
            "all_within_bound": all(m["within_bound"] for m in metrics.values())}


def report(summary: dict) -> list[str]:
    n = len(summary["failed"]["parent"])
    out = []
    for key, m in summary["metrics"].items():
        out.append("%-34s %.4g -> %.4g (%+.1f%%, change better in %d of %d pairs, worse in %d, parent IQR %.2g)"
                   " %s bound %g%s"
                   % (key, m["parent"]["median"], m["change"]["median"], 100 * m["relative_change"],
                      m["change_better_pairs"], n, m["change_worse_pairs"], m["parent_iqr"],
                      "within" if m["within_bound"] else "OUTSIDE", m["bound"], ", gain" if m["gain"] else ""))
    for side, runs in summary["failed"].items():
        out.append("failed %s: %s" % (side, ", ".join(runs)))
    out.append("all within bound: %s" % summary["all_within_bound"])
    return out


def main(argv=None, run=run_side) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 401-410; one pair per seed")
    ap.add_argument("--seconds", type=float, default=38, help="bench/run.py --seconds (default 38)")
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    ap.add_argument("--out", type=Path, default=None, help="write the summary and the runs as JSON")
    ns = ap.parse_args(argv)
    benchmark = json.loads(ns.benchmark.read_text())
    lines: dict = {"parent": [], "change": []}
    for seed in ns.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            lines[side].append(run(getattr(ns, side), seed, ns.seconds))
        print("seed %d done, %s first" % (seed, order[0]), flush=True)
    summary = summarize(lines["parent"], lines["change"], benchmark)
    print("\n".join(report(summary)))
    if ns.out:
        ns.out.write_text(json.dumps(dict(summary, seeds=ns.seeds, seconds=ns.seconds, runs=lines), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
