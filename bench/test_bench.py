"""The benchmark's own tests: tiny runs of every workload, the self-time
arithmetic, the tail percentile choice and the rebinding of wrapped
functions.

    python3 -m pytest -q bench
"""

import itertools
import json

import pytest

import run
import tracing
from workloads import WORKLOADS, AutSweep, BoundedPlanted, ClosureGrowth

TINY = {
    "aut_degree_sweep": AutSweep(systems_per_degree=2, degrees=(3,)),
    "closure_growth": ClosureGrowth(word_length=1, signalizer_cap=20, nucleus_cap=16),
    "bounded_planted": BoundedPlanted(deg2_pairs=2, deg3_pairs=1),
}


@pytest.fixture(autouse=True)
def fresh_library():
    run.fresh_import()


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_untraced_run(name, capsys):
    line = run.run(name, 7, 0, False, TINY[name])
    assert line["correct"] is True
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == set(run.JSON_END_TO_END)
    for key, metric in line["metrics"].items():
        assert metric["value"] > 0, key
    assert "known-answer check" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_repeats_its_counts(name, capsys):
    line = run.run(name, 7, 0, True, TINY[name])
    out = capsys.readouterr().out
    assert "counts identical across traced passes: yes" in out
    assert line["correct"] is True
    metrics = line["metrics"]
    for module, names in tracing.REPORTED.items():
        for fn in names:
            assert "%s.%s.calls" % (module, fn) in metrics
            assert "%s.%s.self_s" % (module, fn) in metrics
    for key in tracing.OUTCOMES:
        assert metrics[key]["unit"] == "count"
    assert sum(metrics[m + ".self_share"]["value"] for m in tracing.MEASURED) <= 1


def test_closure_goldens_hold_on_a_tiny_run():
    workload = TINY["closure_growth"]
    one = run.run_pass(workload, 0)
    kinds = {x.kind for x in one.results}
    assert kinds == {"order", "signalizer", "nucleus"}
    assert not [x for x in one.results if x.problem]
    # exceeded and unknown are known answers, but not decided ones
    assert not any(x.decided for x in one.results if x.kind != "order")


def test_bounded_pass_takes_every_pair_seed_whatever_the_seed():
    A = run.fresh_import()
    w = BoundedPlanted(deg2_pairs=20, deg3_pairs=2)
    labels = {}
    for seed in (3, 4):
        queries = w.build(A, seed)
        labels[seed] = [q.label for q in queries]
        planted = {q.label for q in queries if q.kind == "planted"}
        # the degree-2 crash seed 16 is in the range, so it is in the pass
        assert "deg=2 seed=16 decider=pol0" in planted
        assert len(planted) == 3 * (20 + 2)
        # every pair has a negative: unrelated elements are redrawn
        assert len(queries) == 2 * len(planted)
    assert sorted(labels[3]) == sorted(labels[4]) and labels[3] != labels[4]
    assert [q.label for q in w.build(A, 3)] == labels[3]


def _result(scaled, problem=None):
    return run.Result("k", "q", 2 * scaled, True, problem, problem is not None, scaled)


def test_end_to_end_uses_scaled_times():
    passes = [
        run.Pass(0.5, 12.0, [_result(1.0), _result(2.0), _result(3.0, "raised")]),
        run.Pass(0.7, 10.0, [_result(2.0), _result(1.0), _result(2.0, "raised")]),
        run.Pass(0.6, 14.0, [_result(1.5), _result(1.5), _result(4.0)]),
    ]
    values, p = run.end_to_end(passes, [0.5, 0.7, 0.6, 0.9])
    assert p == 50
    # scaled pass walls 6, 5 and 7
    assert values["wall_s"] == pytest.approx(6.0)
    assert values["queries_per_s"] == pytest.approx(3 / 6.0)
    # per-query medians 1.5, 1.5 and 3.0
    assert values["query_p50_ms"] == pytest.approx(1500.0)
    assert values["query_tail_ms"] == pytest.approx(1500.0)
    assert values["setup_s"] == pytest.approx(0.65)
    # a query that failed in any pass counts once
    assert [(x.problem, n) for x, n in run.failures(passes)] == [("raised", 2)]
    assert values["failed_share"] == pytest.approx(1 / 3)


def test_slowdown_takes_the_reference_samples_near_a_query():
    samples = [(0.0, 0.002), (0.1, 0.002), (0.2, 0.004), (5.0, 0.001), (5.1, 0.001)]
    assert run.slowdown(samples, 0.15, 0.25) == pytest.approx(2 / (1000 * run.REFERENCE_S))
    assert run.slowdown(samples, 5.05, 5.05) == pytest.approx(1 / (1000 * run.REFERENCE_S))
    # no sample near: all of them
    assert run.slowdown(samples, 2.5, 2.5) == pytest.approx(2 / (1000 * run.REFERENCE_S))


def test_self_times_subtract_child_spans():
    spans = [
        ("query", 0.0, 10.0, -1),
        ("a", 1.0, 6.0, 0),
        ("b", 2.0, 3.0, 1),
        ("b", 3.5, 5.0, 1),
        ("c", 7.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])


def test_tracer_self_time_matches_its_spans():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    leaf_w = tracer.wrap("m.leaf", leaf)

    def mid():
        return leaf_w() + leaf_w()

    mid_w = tracer.wrap("m.mid", mid)
    assert tracer.run_query(0, lambda: mid_w() + leaf_w()) == 3
    by_name = tracer.self_by_name()
    spans = [(tracer.names[f], s, e, p) for f, s, e, p, q in tracer.spans]
    per_name = {}
    for (name, *_), t in zip(spans, tracing.self_times(spans)):
        per_name[name] = per_name.get(name, 0.0) + t
    assert per_name == pytest.approx(by_name)
    assert tracer.counts() == {"m.leaf": 3, "m.mid": 1}
    assert all(q == 0 for *_, q in tracer.spans)


@pytest.mark.parametrize("n, p", [(5, 50), (20, 50), (39, 50), (40, 75), (100, 90), (199, 90),
                                  (200, 95), (999, 95), (1000, 99), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p


def test_tail_value_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50


def test_instrument_rebinds_every_name():
    A = run.fresh_import()
    tracer = tracing.Tracer()
    names = tracing.instrument(A, tracer)
    assert "perms.inverse" in names and "system.FRSystem.section" in names
    assert A.system.perm_inverse is A.perms.inverse
    assert A.bounded.perm_inverse is A.perms.inverse
    assert A.conjugate_in_aut is A.conjugacy.conjugate_in_aut
    assert A.bounded.conjugators is A.perms.conjugators
    assert A.perms.inverse.__wrapped__.__module__ == "arboreal.perms"
    sys_ = A.random_bounded(1)
    A.Element.symbol(sys_, sys_.symbols[-1]).section(0)
    counts = tracer.counts()
    assert counts["system.FRSystem.section"] == 1
    assert counts["oracle.random_bounded"] == 1


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.JSON_END_TO_END)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    untraced = run.run_pass(TINY["aut_degree_sweep"], 0)
    passes = [run.run_pass(TINY["aut_degree_sweep"], 0, tracing.Tracer()) for _ in range(2)]
    layer = run.per_layer(passes, [untraced])
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    for m in spec["per_layer"]:
        assert m["unit"] == layer[m["name"]][1]
