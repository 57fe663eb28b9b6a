"""Smoke runs of scripts/probe_census.py: one pass each of closure_growth,
aut_degree_sweep and bounded_planted."""

import importlib.util
import os
import re
import shutil
import subprocess
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
    assert len(lines) == len(script.ROWS) + 3
    assert lines[0] == "workload %s seed 1" % workload
    assert lines[1] == "library %s" % Path(saved["arboreal"].__file__).parent
    counts = {}
    for line in lines[2:-1]:
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
    # the word-problem work and the tuple graphs of one pass, pinned; the
    # Schreier generators are sectioned from per-orbit transversal
    # sections, not factor by factor
    assert {row: counts[row] for row in [
        "Interner.key", "probes", "probes into an empty bucket", "_equal_words",
        "_bisimulate True", "_bisimulate False", "_bisimulate Exceeded", "words newly signed",
        "constraint tuples built", "Schreier words sectioned", "tuple vertices kept"]} == {
        "Interner.key": 5582, "probes": 1525, "probes into an empty bucket": 1422,
        "_equal_words": 103, "_bisimulate True": 103, "_bisimulate False": 0,
        "_bisimulate Exceeded": 0, "words newly signed": 1032, "constraint tuples built": 539,
        "Schreier words sectioned": 2487, "tuple vertices kept": 1331}
    assert counts["FRSystem.section"] <= 27590


def test_probe_census_measures_the_library_on_pythonpath(tmp_path):
    # a copy of src/ named by PYTHONPATH is the library measured, not
    # the checkout's own
    shutil.copytree(SCRIPT.parents[1] / "src" / "arboreal", tmp_path / "src" / "arboreal")
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
    done = subprocess.run([sys.executable, str(SCRIPT), "--workload", "closure_growth"],
                          env=env, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert lines[:2] == ["workload closure_growth seed 1", "library %s" % (tmp_path / "src" / "arboreal")]


def test_probe_census_counts_the_pol0_pair_graphs(capsys, monkeypatch):
    # of the 380 Pol(0) queries of a bounded_planted pass, the 135 planted
    # pairs with a finitary conjugator and the 190 coded negatives answer
    # from their configuration walk; only the other 55 build a pair graph,
    # over two all-anchor closures each
    counts = census(capsys, monkeypatch, "bounded_planted")
    assert counts["Pol(0) pair graphs built"] == 55
    assert counts["all-anchor closures built"] == 110
    assert counts["constraint tuples built"] == 0
