"""Smoke run of scripts/gc_census.py: one pass of bounded_planted."""

import importlib.util
import re
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "gc_census.py"


def test_gc_census_counts_configurations_and_steps_memo(capsys, monkeypatch):
    # the script puts ./src and ./bench on the path and imports the
    # library afresh for each pass; the suite's own modules come back
    # afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    saved = {n: m for n, m in sys.modules.items() if n == "arboreal" or n.startswith("arboreal.")}
    try:
        spec = importlib.util.spec_from_file_location("gc_census", SCRIPT)
        census = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(census)
        assert census.main(["--passes", "1"]) == 0
    finally:
        for name in [n for n in sys.modules if n == "arboreal" or n.startswith("arboreal.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload bounded_planted seed 1 passes 1"
    assert re.fullmatch(r"pass 1: collections gen0 \d+ gen1 \d+ gen2 \d+, [\d.]+ s in collections, "
                        r"[\d.]+ s in queries", lines[1])
    assert re.fullmatch(r"objects tracked after a full collection \d+", lines[2])
    configs, spaces = map(int, re.fullmatch(r"distinct configurations (\d+) in (\d+) spaces", lines[3]).groups())
    assert configs > spaces > 0
    entries, tracked = map(int, re.fullmatch(r"steps-memo entries (\d+), tracked (\d+)", lines[4]).groups())
    # a steps entry is a tuple of step tuples, which the collector
    # untracks one level per collection, so only the entries written
    # since the last automatic collection may still be tracked
    assert entries > 0 and tracked * 10 <= entries
    assert len(lines) == 5
