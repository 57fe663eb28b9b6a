"""scripts/bench_pairs.py on canned result lines; no benchmark runs."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

BENCHMARK = {
    "workloads": [{"name": "sweep"}, {"name": "growth"}],
    "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "queries_per_s", "better": "higher", "bound": 0.25},
    ],
}
PARENT_WALL = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.02]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(sweep_wall, growth_wall, failed=0):
    metrics = {}
    for name, wall in (("sweep", sweep_wall), ("growth", growth_wall)):
        metrics[name + ".wall_s"] = {"value": wall, "unit": "s"}
        metrics[name + ".queries_per_s"] = {"value": 100 / wall, "unit": "1/s"}
    return {"correct": True, "attempted": 40, "failed": failed, "metrics": metrics}


def canned():
    # the change runs sweep 10% faster in every pair and growth 40% slower;
    # one parent run failed a query
    parent = [line(w, w, failed=int(k == 3)) for k, w in enumerate(PARENT_WALL)]
    change = [line(w * 0.9, w * 1.4) for w in PARENT_WALL]
    return parent, change


def test_summary_of_paired_lines(pairs):
    summary = pairs.summarize(*canned(), BENCHMARK)
    assert list(summary["metrics"]) == ["sweep.wall_s", "sweep.queries_per_s", "growth.wall_s",
                                        "growth.queries_per_s"]
    q1, median, q3 = statistics.quantiles(PARENT_WALL, n=4, method="inclusive")
    sweep = summary["metrics"]["sweep.wall_s"]
    assert sweep["parent"]["median"] == median == 1.0
    assert sweep["change"]["median"] == pytest.approx(0.9)
    assert sweep["parent_iqr"] == pytest.approx(q3 - q1)
    assert sweep["parent"]["runs"] == PARENT_WALL
    assert sweep["relative_change"] == pytest.approx(-0.1)
    assert (sweep["change_better_pairs"], sweep["change_worse_pairs"]) == (10, 0)
    assert sweep["within_bound"] and sweep["gain"]
    # a higher-is-better metric wins when it grows
    rate = summary["metrics"]["sweep.queries_per_s"]
    assert (rate["change_better_pairs"], rate["within_bound"], rate["gain"]) == (10, True, True)
    # 40% slower (29% fewer queries per second) is outside a 25% bound
    for key in ("growth.wall_s", "growth.queries_per_s"):
        m = summary["metrics"][key]
        assert (m["change_better_pairs"], m["change_worse_pairs"]) == (0, 10)
        assert not m["within_bound"] and not m["gain"]
    assert not summary["all_within_bound"]
    assert summary["failed"]["parent"][3] == "1 of 40"
    assert summary["failed"]["change"] == ["0 of 40"] * 10
    text = pairs.report(summary)
    assert text[0] == ("sweep.wall_s                       1 -> 0.9 (-10.0%, change better in 10 of 10 pairs, "
                       "worse in 0, parent IQR 0.025) within bound 0.25, gain")
    assert text[2].startswith("growth.wall_s") and "OUTSIDE bound 0.25" in text[2]
    assert text[-1] == "all within bound: False"


def test_a_small_gain_inside_the_parent_spread_is_no_gain(pairs):
    # the change wins every pair by 0.5%, less than the parent's IQR
    m = pairs.compare(PARENT_WALL, [w * 0.995 for w in PARENT_WALL], "lower", 0.25)
    assert m["change_better_pairs"] == 10 and m["within_bound"] and not m["gain"]
    # ties count for neither side
    m = pairs.compare(PARENT_WALL, PARENT_WALL, "lower", 0.25)
    assert (m["change_better_pairs"], m["change_worse_pairs"], m["relative_change"]) == (0, 0, 0)


def test_pairs_alternate_which_side_runs_first(pairs, tmp_path, capsys):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    parent, change = canned()
    calls = []

    def fake_run(checkout, seed, seconds):
        calls.append((checkout.name, seed, seconds))
        side = parent if checkout.name == "old" else change
        return side[seed - 401]

    out = tmp_path / "pairs.json"
    assert pairs.main([str(tmp_path / "old"), str(tmp_path / "new"), "--seeds", "401-403,404",
                       "--seconds", "2", "--benchmark", str(bench), "--out", str(out)], run=fake_run) == 0
    assert calls == [("old", 401, 2.0), ("new", 401, 2.0), ("new", 402, 2.0), ("old", 402, 2.0),
                     ("old", 403, 2.0), ("new", 403, 2.0), ("new", 404, 2.0), ("old", 404, 2.0)]
    saved = json.loads(out.read_text())
    assert saved["seeds"] == [401, 402, 403, 404]
    assert saved["runs"]["parent"] == parent[:4]
    assert saved["metrics"]["sweep.wall_s"]["change_better_pairs"] == 4
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "seed 401 done, parent first"
    assert printed[1] == "seed 402 done, change first"
    assert printed[-1] == "all within bound: False"
