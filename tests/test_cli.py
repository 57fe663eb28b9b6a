"""Command-line behavior: verdicts, exit codes, JSON reports, DOT output."""

import json

import pytest

from arboreal import Element, cli, emit_dot, inverse, multiply, sim_conj_graph
from arboreal.oracle import MAX_DEPTH
from arboreal.system import parse_system

from conftest import BRANCH, CARRY, ODOMETER, TWISTED, ZOO, deep_bounded, deep_chains, recursion_headroom


@pytest.fixture
def fr(tmp_path):
    def write(text, name="m.fr"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = cli.main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_round_trips(fr, capsys):
    path = fr(CARRY)
    code, out = run(capsys, "parse", path)
    assert code == 0
    path2 = fr(out, "again.fr")
    code2, out2 = run(capsys, "parse", path2)
    assert code2 == 0 and out2 == out


def test_equal_verdicts(fr, capsys):
    path = fr(ODOMETER)
    assert run(capsys, "equal", path, "a*a^-1", "e")[0] == 0
    code, out = run(capsys, "equal", path, "a", "a^-1")
    assert code == 1 and out.startswith("different")


def test_equal_budget_exhaustion(fr, capsys):
    path = fr(BRANCH + "A = (e, A) [1 0]\nB = (A, C) [1 0]\nC = (A, B)\n")
    code, out = run(capsys, "equal", path, "b*b*b*b", "B*B*B*B", "--budget", "4")
    assert code == 2 and out.startswith("unknown")


def test_act_moves_a_vertex(fr, capsys):
    path = fr(ODOMETER)
    code, out = run(capsys, "act", path, "a", "111")
    assert code == 0
    assert "000" in out


def test_order_verdicts_and_exit_codes(fr, capsys):
    path = fr(CARRY)
    code, out = run(capsys, "order", path, "q")
    assert code == 0 and out.splitlines()[0] == "2"
    odo = fr(ODOMETER, "odo.fr")
    code, out = run(capsys, "order", odo, "a")
    assert code == 0 and out.splitlines()[0] == "infinite"
    assert run(capsys, "order", odo, "a", "--assert-finite")[0] == 1
    assert run(capsys, "order", path, "q", "--assert-finite")[0] == 0


def test_order_unknown_under_a_tiny_cap(fr, capsys):
    path = fr(BRANCH)
    code, out = run(capsys, "order", path, "b", "--cap", "40")
    assert code == 2 and out.startswith("unknown")


def test_classify_names_the_class(fr, capsys):
    path = fr(ZOO)
    for word, label in (("s", "Finitary(1)"), ("a", "Polynomial(0)"),
                        ("m", "Polynomial(1)"), ("l", "Exponential")):
        code, out = run(capsys, "classify", path, word)
        assert code == 0 and out.splitlines()[0] == label


def test_os_lists_the_closure(fr, capsys):
    path = fr(ZOO)
    code, report = run_json(capsys, "os", path, "a")
    assert code == 0
    assert report["verdict"] == "complete"
    assert report["witness"]["elements"] == ["a"]


def test_os_cap_exceeded_is_exit_two(fr, capsys):
    path = fr(BRANCH)
    code, _ = run(capsys, "os", path, "b", "--cap", "100")
    assert code == 2


def test_nucleus_of_the_odometer(fr, capsys):
    path = fr(ODOMETER)
    code, report = run_json(capsys, "nucleus", path, "a")
    assert code == 0
    assert len(report["witness"]["nucleus"]) == 3


def test_graph_order_dot_golden(fr, capsys):
    path = fr(CARRY)
    code, out = run(capsys, "graph", "order", path, "q", "--dot", "-")
    assert code == 0
    body = out[out.index("digraph"):]
    node_lines = [l for l in body.splitlines() if "label=" in l and "->" not in l]
    edge_lines = [l for l in body.splitlines() if "->" in l]
    assert len(node_lines) == 3  # q, its swap, and the identity
    assert len(edge_lines) == 4  # five orbit edges, one pair coalesced


def test_graph_conj_dot_golden(fr, capsys):
    path = fr("alphabet 2\nr = (r, r) [1 0]\n")
    code, out = run(capsys, "graph", "conj", path, "e", "e", "--dot", "-")
    assert code == 0
    body = out[out.index("digraph"):]
    assert body.count("peripheries=2") == 2
    node_lines = [l for l in body.splitlines() if "label=" in l and "->" not in l]
    assert len(node_lines) == 2
    assert "n2" not in body


# CARRY p q: the root pair keeps one of its two triples, so the golden
# pins which vertices and edges pruning removes and their order
CONJ_GRAPH_CARRY_P_Q = (
    '5 vertices, 1 roots, complete\n'
    'digraph conjugator_graph {\n'
    '  rankdir=LR;\n'
    '  n0 [label="(p, q, [1 0])", peripheries=2];\n'
    '  n1 [label="(s, s, [0 1])"];\n'
    '  n2 [label="(s, s, [1 0])"];\n'
    '  n3 [label="(e, e, [0 1])"];\n'
    '  n4 [label="(e, e, [1 0])"];\n'
    '  n0 -> n1 [label="0"];\n'
    '  n0 -> n2 [label="0"];\n'
    '  n0 -> n0 [label="1"];\n'
    '  n1 -> n3 [label="0"];\n'
    '  n1 -> n4 [label="0"];\n'
    '  n2 -> n3 [label="0"];\n'
    '  n2 -> n4 [label="0"];\n'
    '  n3 -> n3 [label="0,1"];\n'
    '  n3 -> n4 [label="0,1"];\n'
    '  n4 -> n3 [label="0,1"];\n'
    '  n4 -> n4 [label="0,1"];\n'
    '}\n'
)


def test_graph_conj_dot_golden_with_pruned_vertices(fr, capsys):
    path = fr(CARRY)
    code, out = run(capsys, "graph", "conj", path, "p", "q", "--dot", "-")
    assert code == 0
    assert out == CONJ_GRAPH_CARRY_P_Q


# TWISTED b b: the graph holds only pairs reachable from the input pair,
# so the unreachable pairs (b, b^-1) and (b^-1, b), whose four vertices
# survive among themselves, are not drawn
CONJ_GRAPH_TWISTED_B_B = (
    '4 vertices, 2 roots, complete\n'
    'digraph conjugator_graph {\n'
    '  rankdir=LR;\n'
    '  n0 [label="(b, b, [0 1])", peripheries=2];\n'
    '  n1 [label="(b, b, [1 0])", peripheries=2];\n'
    '  n2 [label="(b^-1, b^-1, [0 1])"];\n'
    '  n3 [label="(b^-1, b^-1, [1 0])"];\n'
    '  n0 -> n2 [label="0"];\n'
    '  n0 -> n3 [label="0"];\n'
    '  n1 -> n2 [label="0"];\n'
    '  n1 -> n3 [label="0"];\n'
    '  n2 -> n0 [label="0"];\n'
    '  n2 -> n1 [label="0"];\n'
    '  n3 -> n0 [label="0"];\n'
    '  n3 -> n1 [label="0"];\n'
    '}\n'
)


def test_graph_conj_dot_golden_draws_only_reachable_pairs(fr, capsys):
    path = fr(TWISTED)
    code, out = run(capsys, "graph", "conj", path, "b", "b", "--dot", "-")
    assert code == 0
    assert out == CONJ_GRAPH_TWISTED_B_B


# the tuple graph of (p, s) and its conjugate by q in CARRY: one node,
# its own successor once (e, e) is dropped; 2 vertices found, 1 survives
SIM_GRAPH_CARRY_P_S = (
    'digraph simultaneous_conjugator_graph {\n'
    '  rankdir=LR;\n'
    '  n0 [label="[(p, q^-1*p*q), (s, q^-1*s*q)] [0 1]", peripheries=2];\n'
    '  n0 -> n0 [label="0"];\n'
    '}\n'
)


def test_simultaneous_graph_dot_golden():
    sys = parse_system(CARRY)
    gs, h = [Element.parse(sys, "p"), Element.parse(sys, "s")], Element.parse(sys, "q")
    targets = [multiply(multiply(inverse(h), g), h) for g in gs]
    assert emit_dot(sim_conj_graph(gs, targets)) == SIM_GRAPH_CARRY_P_S


def test_graph_dot_writes_files(fr, capsys, tmp_path):
    path = fr(CARRY)
    target = tmp_path / "out.dot"
    code, _ = run(capsys, "graph", "order", path, "p", "--dot", str(target))
    assert code == 0
    assert target.read_text().startswith("digraph")


def test_conjugate_groups_and_exit_codes(fr, capsys):
    path = fr(ODOMETER)
    assert run(capsys, "conjugate", path, "a", "a^-1")[0] == 0
    assert run(capsys, "conjugate", path, "a", "a^-1", "--group", "fsg")[0] == 0
    assert run(capsys, "conjugate", path, "a", "a^-1", "--group", "pol0")[0] == 1
    assert run(capsys, "conjugate", path, "a", "a*a")[0] == 1


def test_negative_and_unknown_verdicts_print_their_reason(fr, capsys):
    odo = fr(ODOMETER, "odo.fr")
    code, out = run(capsys, "conjugate", odo, "a", "a^-1", "--group", "pol0")
    assert code == 1
    verdict, reason = out.splitlines()
    assert verdict == "not conjugate"
    assert reason.startswith("reason: fixpoint distinguished")
    path = fr(BRANCH)
    code, out = run(capsys, "conjugate", path, "a", "b")
    assert code == 2
    assert out.splitlines() == ["unknown", "reason: orbit-power closure exceeded cap 512"]
    # the JSON report keeps the reason in its witness and prints nothing else
    code, report = run_json(capsys, "conjugate", path, "a", "b")
    assert code == 2
    assert report["witness"] == {"reason": "orbit-power closure exceeded cap 512"}
    # affirmative verdicts carry no reason
    assert run(capsys, "conjugate", odo, "a", "a^-1")[1] == "conjugate\n"


def test_aut_decides_at_degree_nine_without_listing_root_conjugators(fr, capsys):
    # the identity root permutation of q and r has 9! conjugators, past
    # CONJUGATOR_CAP; the Aut decider never lists them
    e8 = ", ".join(["e"] * 8)
    path = fr("alphabet 9\nt = (e, %s) [1 0 2 3 4 5 6 7 8]\nq = (t, %s)\nr = (e, t, %s)\n"
              % (e8, e8, ", ".join(["e"] * 7)))
    code, report = run_json(capsys, "conjugate", path, "q", "r")
    assert (code, report["verdict"], report["witness"]["verified_depth"]) == (0, "conjugate", 10)
    assert run(capsys, "conjugate", path, "q", "t") == (1, "not conjugate\nreason: orbit trees differ at depth 1\n")


def test_pol_minus1_answers_within_a_small_cap(fr, capsys):
    # p = p^-1 in the carry machines, so the root configuration has depth
    # 0; the walk stops there, where the whole universe passes cap 1
    path = fr(CARRY, "carry.fr")
    code, out = run(capsys, "conjugate", path, "p", "p^-1", "--cap", "1", "--group", "pol-1")
    assert (code, out) == (0, "conjugate\n")
    code, report = run_json(capsys, "conjugate", path, "p", "p^-1", "--cap", "1", "--group", "pol-1")
    assert code == 0
    assert report["witness"] == {"class": "finitary", "system": "", "verified_depth": 10, "word": "e"}


def test_conjugate_emits_a_loadable_witness(fr, capsys, tmp_path):
    path = fr(CARRY)
    code, out = run(capsys, "conjugate", path, "p", "q", "--group", "pol0",
                    "--emit-conjugator")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "conjugate"
    assert lines[1].startswith("conjugator = ")


def test_conjugate_json_report_shape(fr, capsys):
    path = fr(ODOMETER)
    code, report = run_json(capsys, "conjugate", path, "a", "a^-1")
    assert code == 0
    assert set(report) == {"command", "inputs", "verdict", "witness", "caps",
                           "version", "timings"}
    assert report["command"] == "conjugate"
    assert report["verdict"] == "conjugate"
    assert report["inputs"]["words"] == ["a", "a^-1"]
    assert len(report["inputs"]["sha256"]) == 64
    assert report["witness"]["verified_depth"] == 10
    assert report["timings"]["seconds"] >= 0


def test_conjugate_simultaneous_tuples(fr, capsys):
    path = fr(ODOMETER)
    code, _ = run(capsys, "conjugate", path, "a,a", "a^-1,a", "--simultaneous")
    assert code == 1
    code, _ = run(capsys, "conjugate", path, "a,a", "a,a", "--simultaneous")
    assert code == 0


def test_simultaneous_requires_the_full_group(fr, capsys):
    path = fr(ODOMETER)
    code, _ = run(capsys, "conjugate", path, "a,a", "a,a",
                  "--simultaneous", "--group", "pol0")
    assert code == 3


def test_fsg_gate_delegates_for_bounded_inputs(fr, capsys):
    path = fr(CARRY)
    code, report = run_json(capsys, "conjugate", path, "p", "q", "--group", "fsg")
    assert code == 0 and report["verdict"] == "conjugate"


def test_fsg_gate_gives_up_without_contraction(fr, capsys):
    path = fr(ZOO)
    code, _ = run(capsys, "conjugate", path, "m", "m", "--group", "fsg")
    assert code == 2
    # an involution generates a finite, hence contracting, group
    assert run(capsys, "conjugate", path, "l", "l", "--group", "fsg")[0] == 0


def test_fsg_gate_leaves_closure_completeness_to_the_aut_decider(fr, capsys):
    # BRANCH contracts, so the gate passes it on; the Aut decider then
    # reports its own orbit-power closure cap
    path = fr(BRANCH)
    code, out = run(capsys, "conjugate", path, "a", "b", "--group", "fsg", "--cap", "64")
    assert code == 2
    assert out.splitlines() == ["unknown", "reason: orbit-power closure exceeded cap 64"]


def test_representative_is_stable_across_the_class(fr, capsys):
    path = fr(TWISTED)
    _, rep_a = run(capsys, "representative", path, "a", "--depth", "5")
    _, rep_b = run(capsys, "representative", path, "b", "--depth", "5")
    assert rep_a == rep_b
    _, rep_sq = run(capsys, "representative", path, "a*a", "--depth", "5")
    assert rep_a != rep_sq


def test_oracle_subcommands(fr, capsys):
    path = fr(CARRY)
    assert run(capsys, "oracle", "trunc-order", path, "q")[0] == 0
    assert run(capsys, "oracle", "orbit-tree", path, "p")[0] == 0
    code, _ = run(capsys, "oracle", "verify", path, "e", "p", "q", "--depth", "6")
    assert code == 1


ROT3 = "alphabet 3\na = (e, a, e) [1 2 0]\nb = (a, e, b) [0 2 1]\n"


@pytest.mark.parametrize("extra", [["--group", "aut"], ["--group", "fsg"], ["--simultaneous"]])
def test_degree_three_verdicts_verify_at_the_default_depth(fr, capsys, extra):
    # the level-10 tree has 3^10 vertices, but the pair walk holds few
    path = fr(ROT3)
    code, out = run(capsys, "conjugate", path, "a", "a^-1", *extra)
    assert (code, out) == (0, "conjugate\n")


def test_verification_refuses_words_that_double_at_each_level(fr, capsys):
    # the sections of a below the root are a^(2^k): at level 16 they
    # outgrow the word length cap
    path = fr("alphabet 2\na = (a*a, e)\n")
    assert run(capsys, "oracle", "verify", path, "a", "a", "a", "--depth", "12")[0] == 0
    assert cli.main(["oracle", "verify", path, "a", "a", "a", "--depth", "20"]) == 2
    assert capsys.readouterr().err.startswith("cap: ")


def test_usage_errors_exit_three(fr, capsys):
    path = fr(ODOMETER)
    assert cli.main(["equal", path, "nosuch", "e"]) == 3
    assert cli.main(["parse", str(path) + ".missing"]) == 3
    assert cli.main(["act", path, "a", "012"]) == 3
    capsys.readouterr()


def test_parser_errors_exit_three_and_help_exits_zero(fr, capsys):
    path = fr(ODOMETER)
    for argv, err in [
        (["conjugate", path, "a"], "the following arguments are required: w2"),
        (["order", path, "a", "--cap", "x"], "argument --cap: invalid int value: 'x'"),
    ]:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 3
        assert capsys.readouterr().err.endswith("error: %s\n" % err)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["representative", "a", "--depth", "-1"],
    ["oracle", "orbit-tree", "a", "--depth", "-1"],
    ["oracle", "trunc-order", "a", "--depth", "-1"],
    ["oracle", "verify", "e", "a", "a", "--depth", "-1"],
    ["conjugate", "a", "a^-1", "--verify-depth", "-1"],
])
def test_negative_depths_are_usage_errors(fr, capsys, argv):
    path = fr(ODOMETER)
    at = 2 if argv[0] == "oracle" else 1
    argv = argv[:at] + [path] + argv[at:]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 3
    assert capsys.readouterr().err.endswith("depth must be at least 0, got -1\n")
    # depth 0 is a depth
    assert cli.main([t if t != "-1" else "0" for t in argv]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, at_zero", [
    (["order", "a", "--cap", "-1"], "unknown\nreason: closure exceeded cap of 0 elements\n"),
    (["os", "a", "--cap", "-1"], "exceeded\n0: a\n0 -(2@0)-> 0\n"),
    (["nucleus", "a", "--cap", "-1"], "unknown\nreason: size cap 0 exceeded\n"),
    (["graph", "conj", "a", "a^-1", "--cap", "-1"], "0 vertices, 0 roots, exceeded\n"),
    (["conjugate", "a", "a^-1", "--group", "pol-1", "--cap", "-1"],
     "unknown\nreason: exceeded: config cap 0\n"),
    (["conjugate", "a", "a^-1", "--group", "pol0", "--cap", "-1"],
     "unknown\nreason: orbit-power closure exceeded cap 0\n"),
    (["equal", "a", "a^-1", "--budget", "-1"], "different\n"),
])
def test_negative_caps_and_budgets_are_usage_errors(fr, capsys, argv, at_zero):
    path = fr(ODOMETER)
    at = 2 if argv[0] == "graph" else 1
    argv = argv[:at] + [path] + argv[at:]
    name = argv[-2].lstrip("-")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 3
    assert capsys.readouterr().err.endswith("argument --%s: %s must be at least 0, got -1\n" % (name, name))
    # 0 is accepted and answers as before
    code, out = run(capsys, *argv[:-1], "0")
    assert (code, out) == (1 if argv[0] == "equal" else 2, at_zero)


def test_unbounded_restricted_input_exits_three(fr, capsys):
    # every restricted group takes bounded inputs only: a polynomial or
    # exponential input is refused as an input error, not answered
    path = fr(ZOO)
    for group in ("pol-1", "pol0", "polinf"):
        for word, cls in (("m", "Polynomial(1)"), ("l", "Exponential")):
            assert cli.main(["conjugate", path, word, word + "^-1", "--group", group]) == 3
            assert capsys.readouterr() == ("", "error: input %s classifies as %s, not bounded\n" % (word, cls))


def test_depth_cap_exits_two(fr, capsys):
    # the orbit-power recursions answer at any depth up to MAX_DEPTH and
    # refuse one past it as a cap, never as an internal error
    path = fr(ODOMETER)
    for oracle in ("trunc-order", "orbit-tree"):
        assert cli.main(["oracle", oracle, path, "a", "--depth", str(MAX_DEPTH + 1)]) == 2
        assert capsys.readouterr().err == "cap: depth %d exceeds %d levels\n" % (MAX_DEPTH + 1, MAX_DEPTH)
    assert cli.main(["representative", path, "a", "--depth", "30"]) == 2
    assert capsys.readouterr().err.startswith("cap: degree 2 at depth 30 exceeds")


@pytest.mark.parametrize("depth", [15, 64, MAX_DEPTH])
def test_orbit_oracles_answer_past_the_leaf_cap(fr, capsys, depth):
    path = fr(ODOMETER, "odo.fr")
    code, out = run(capsys, "oracle", "trunc-order", path, "a", "--depth", str(depth))
    assert (code, out) == (0, "%d\n" % 2**depth)
    code, out = run(capsys, "oracle", "orbit-tree", path, "a", "--depth", str(depth))
    assert code == 0 and out.startswith("(1:(2:(4:") and out.count("(") == depth + 1


def test_input_errors_name_the_input(fr, capsys, tmp_path):
    path = fr(ODOMETER)
    cases = [
        (["equal", path, "a*nosuch", "e"], "error: undefined symbol 'nosuch'\n"),
        (["act", path, "a", "0x1"], "error: invalid literal for int() with base 10: 'x'\n"),
        (["act", path, "a", "0,5"], "error: letter 5 outside alphabet of degree 2\n"),
        (["conjugate", path, "a,a", "a", "--simultaneous"],
         "error: need equally many source and target elements\n"),
        (["oracle", "verify", path, "a", "a"], "error: oracle verify needs three words\n"),
    ]
    for argv, err in cases:
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == err
    binary = tmp_path / "bad.fr"
    binary.write_bytes(b"alphabet 2\n\xff\n")
    assert cli.main(["parse", str(binary)]) == 3
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")


def test_internal_errors_exit_four(fr, capsys, monkeypatch):
    path = fr(ODOMETER)

    def broken(a, b, cap):
        raise ValueError("decider bug")

    monkeypatch.setattr(cli, "conjugate_in_aut", broken)
    assert cli.main(["conjugate", path, "a", "a^-1"]) == 4
    assert capsys.readouterr().err == "internal error: decider bug\n"


def test_deep_finitary_witness_is_answered(fr, capsys):
    # a Pol(-1) witness 500 symbols deep, past the recursion limit, answers
    path = fr(deep_chains(500))
    code, out = run(capsys, "conjugate", path, "f1", "k1^-1*f1*k1", "--group", "pol-1", "--cap", "4096")
    assert code == 0 and out.startswith("conjugate")


@pytest.mark.parametrize("chain, ring", [(0, 400), (395, 5)])
def test_deep_bounded_witness_is_answered(fr, capsys, chain, ring):
    # Pol(0) on 400-state inputs answers with 200 frames of headroom
    path = fr(deep_bounded(chain, ring))
    with recursion_headroom(200):
        code, out = run(capsys, "conjugate", path, "a1", "h1^-1*a1*h1", "--group", "pol0")
    assert code == 0 and out.startswith("conjugate")
