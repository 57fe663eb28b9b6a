"""Smoke runs of scripts/probe_census.py: one pass each of closure_growth,
aut_degree_sweep and bounded_planted."""

import importlib.util
import re
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "probe_census.py"


def census(capsys, monkeypatch, workload: str) -> dict:
    """The rows that scripts/probe_census.py prints for one pass of
    workload at seed 1, checked for shape."""
    # the script wraps private functions of the library (Interner._probe,
    # _bisimulate, _equal_words, _constraint_pairs) and reads the
    # signature memos, so a rename there shows here; it imports the
    # library afresh, and the suite's own modules come back afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    saved = {n: m for n, m in sys.modules.items() if n == "arboreal" or n.startswith("arboreal.")}
    try:
        spec = importlib.util.spec_from_file_location("probe_census", SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main(["--workload", workload, "--seed", "1"]) == 0
    finally:
        for name in [n for n in sys.modules if n == "arboreal" or n.startswith("arboreal.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(script.ROWS) + 2
    assert lines[0] == "workload %s seed 1" % workload
    counts = {}
    for line in lines[1:-1]:
        name, value = re.fullmatch(r"(\S.*\S) +(\d+)", line).groups()
        counts[name] = int(value)
    assert list(counts) == list(script.ROWS)
    assert re.fullmatch(r"signature depth by degree +(\d+: \d+)(, \d+: \d+)*", lines[-1])
    return counts


def test_probe_census_counts_the_word_problem_calls(capsys, monkeypatch):
    counts = census(capsys, monkeypatch, "closure_growth")
    assert 0 <= counts["probes into an empty bucket"] <= counts["probes"] <= counts["Interner.key"]
    assert counts["Interner.key"] > 0 and counts["_equal_words"] > 0
    outcomes = sum(counts["_bisimulate %s" % r] for r in ("True", "False", "Exceeded"))
    assert outcomes <= counts["_equal_words"]
    # closure_growth builds no tuple graph and runs no Pol(0) query
    assert counts["constraint tuples built"] == counts["tuple vertices kept"] == 0
    assert counts["Pol(0) pair graphs built"] == counts["all-anchor closures built"] == 0


def test_probe_census_counts_the_tuple_graph_work(capsys, monkeypatch):
    counts = census(capsys, monkeypatch, "aut_degree_sweep")
    assert counts["constraint tuples built"] > 0
    assert counts["Schreier words sectioned"] >= counts["constraint tuples built"]
    assert counts["tuple vertices kept"] > 0


def test_probe_census_counts_the_pol0_pair_graphs(capsys, monkeypatch):
    # of the 380 Pol(0) queries of a bounded_planted pass, the 135 planted
    # pairs with a finitary conjugator and the 190 coded negatives answer
    # from their configuration walk; only the other 55 build a pair graph,
    # over two all-anchor closures each
    counts = census(capsys, monkeypatch, "bounded_planted")
    assert counts["Pol(0) pair graphs built"] == 55
    assert counts["all-anchor closures built"] == 110
    assert counts["constraint tuples built"] == 0
