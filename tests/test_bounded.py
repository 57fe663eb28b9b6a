"""Restricted conjugacy: configuration closures, finitary satisfiability,
the cyclic decider, and the counting matrix systems."""

import collections
import gc
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from arboreal import (
    NotBounded,
    all_basic_conjugators,
    basic_conjugator,
    bounded_choice_search,
    choice_system,
    configurations,
    conjugate_in_aut,
    conjugate_in_pol0_cyclic,
    conjugate_in_pol_inf,
    conjugate_in_pol_minus1,
    equal,
    finitary_satisfiable,
    inverse,
    minimize,
    multiply,
    orbit_signalizer,
    power,
    random_bounded,
    verify_conjugator,
)
from arboreal import bounded, elements
from arboreal.bounded import ConfigSpace, FinSat, _Pol0, _circuit, _closure, _conjugates, _moving, _seed, _sweep
from arboreal.conjugacy import ConjGraph, conj_graph
from arboreal.elements import Element, Exceeded
from arboreal.perms import orbits
from arboreal.system import format_word, merge_into, parse_system, parse_word, reduce_word

from conftest import CARRY, ODOMETER, TWISTED, ZOO, deep_bounded, deep_chains, one, recursion_headroom, swap_chains
from test_identity_corpus import load as load_corpus

SWAP = (1, 0)
STAY = (0, 1)


@pytest.fixture
def odo_pair(odometer):
    _, a = odometer
    return a, inverse(a)


def test_trivial_pair_closure(zoo):
    e = multiply(one(zoo, "s"), inverse(one(zoo, "s")))
    closure = configurations(e, e)
    assert closure.complete
    assert len(closure.configs) == 1
    rep = finitary_satisfiable(closure)
    assert rep.root_depth == 0
    csys = choice_system(e, e)
    assert csys.dim == 1
    assert csys.matrix((STAY,)) == ((2,),)
    assert csys.theta((STAY,)) == (0,)
    assert csys.theta((SWAP,)) == (1,)
    assert bounded_choice_search(csys).found


def test_odometer_pair_closure(odo_pair):
    a, ai = odo_pair
    closure = configurations(a, ai)
    assert closure.complete
    assert len(closure.configs) == 2
    rep = finitary_satisfiable(closure)
    assert rep.root_depth is None  # no finitary conjugator at the root


def test_odometer_pair_matrices(odo_pair):
    csys = choice_system(*odo_pair)
    assert csys.dim == 3
    golden = {
        (STAY, STAY): ((0, 0, 0), (1, 1, 0), (1, 1, 2)),
        (STAY, SWAP): ((0, 0, 0), (1, 2, 1), (1, 0, 1)),
        (SWAP, STAY): ((2, 0, 0), (0, 1, 0), (0, 1, 2)),
        (SWAP, SWAP): ((2, 0, 0), (0, 2, 1), (0, 0, 1)),
    }
    theta = {
        (STAY, STAY): (0, 0, 1),
        (STAY, SWAP): (0, 1, 0),
        (SWAP, STAY): (1, 0, 1),
        (SWAP, SWAP): (1, 1, 0),
    }
    assert set(csys.choices()) == set(golden)
    for choice, mat in golden.items():
        assert csys.matrix(choice) == mat
        assert csys.theta(choice) == theta[choice]


def test_odometer_pair_has_no_bounded_trajectory(odo_pair):
    result = bounded_choice_search(choice_system(*odo_pair))
    assert not result.found
    assert result.tag == "not_found"
    # the bounds were fully enumerated, not cut short by the work meter
    assert result.reason.startswith("no bounded pattern")


def test_odometer_pair_not_conjugate_in_any_restriction(odo_pair):
    a, ai = odo_pair
    for decide in (conjugate_in_pol_minus1, conjugate_in_pol0_cyclic, conjugate_in_pol_inf):
        assert decide(a, ai).tag == "not_conjugate"


def test_carry_pair_closure_forces_the_swap(carry):
    _, p, q = carry
    closure = configurations(p, q)
    assert len(closure.configs) == 3
    assert closure.viable_cpi(closure.root) == (SWAP,)


def test_a_step_out_of_the_universe_never_survives(carry):
    _, p, q = carry
    closure = configurations(p, q)
    root = closure.root
    cut = {root: closure.universe[root]}
    assert all(any(c != root for _, _, c in steps) for steps in cut[root].values())
    pruned = _closure(closure.space, root, cut)
    assert pruned.viable == set() and pruned.configs == []
    assert _closure(closure.space, root, closure.universe).configs == closure.configs


def test_carry_pair_shares_one_matrix(carry):
    _, p, q = carry
    csys = choice_system(p, q)
    assert csys.dim == 3
    shared = ((1, 0, 0), (1, 0, 0), (0, 2, 2))
    thetas = set()
    for choice in csys.choices():
        assert csys.matrix(choice) == shared
        thetas.add(csys.theta(choice))
    assert thetas == {(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)}


def test_carry_pair_counts_follow_the_doubling_law(carry):
    _, p, q = carry
    csys = choice_system(p, q)
    for choice in csys.choices():
        u = list(csys.u0)
        for n in range(1, 11):
            mat = csys.matrix(choice)
            u = [sum(mat[r][c] * u[c] for c in range(csys.dim)) for r in range(csys.dim)]
            assert tuple(u) == (1, 1, 2 ** n - 2)


def test_carry_pair_search_finds_the_quiet_choice(carry):
    _, p, q = carry
    result = bounded_choice_search(choice_system(p, q))
    assert result.found
    assert result.preperiod == ()
    assert result.cycle == ((SWAP, STAY, STAY),)


def test_search_survives_saturation(carry):
    _, p, q = carry
    result = bounded_choice_search(choice_system(p, q), threshold=8)
    assert result.found  # the read coordinates stay small; growth is elsewhere


def test_search_caps_degrade_gracefully(carry):
    _, p, q = carry
    csys = choice_system(p, q)
    r = bounded_choice_search(csys, work_cap=1)
    assert r.tag == "not_found" and "work budget" in r.reason
    r = bounded_choice_search(csys, choice_cap=1)
    assert r.tag == "not_found" and "choice space" in r.reason


def test_carry_pair_conjugate_by_the_odometer(carry):
    _, p, q = carry
    assert conjugate_in_pol_minus1(p, q).tag == "not_conjugate"
    dec = conjugate_in_pol0_cyclic(p, q)
    assert dec.tag == "conjugate"
    assert dec.cls == "bounded"
    h = dec.conjugator
    assert verify_conjugator(h, p, q, 10)
    assert equal(multiply(multiply(inverse(h), p), h), q) is True
    odometer = one(parse_system(ODOMETER), "a")
    m = minimize(h)
    assert m.n_states == 2
    assert m == minimize(odometer) or m == minimize(inverse(odometer))


def test_finitary_pair_gets_a_finitary_witness():
    sys = parse_system("alphabet 2\ns = (e, e) [1 0]\nx = (s, e)\ny = (e, s)\n")
    x, y = one(sys, "x"), one(sys, "y")
    dec = conjugate_in_pol_minus1(x, y)
    assert dec.tag == "conjugate" and dec.cls == "finitary"
    assert verify_conjugator(dec.conjugator, x, y, 10)
    dec0 = conjugate_in_pol0_cyclic(x, y)
    assert dec0.tag == "conjugate" and dec0.cls == "finitary"


def test_self_conjugacy_through_every_restriction(carry):
    _, p, q = carry
    for g in (p, q, multiply(p, q)):
        for decide in (conjugate_in_pol_minus1, conjugate_in_pol0_cyclic, conjugate_in_pol_inf):
            dec = decide(g, g)
            assert dec.conjugate
            assert verify_conjugator(dec.conjugator, g, g, 10)


def test_unbounded_inputs_are_rejected(zoo):
    m, l = one(zoo, "m"), one(zoo, "l")
    for g in (m, l):
        with pytest.raises(NotBounded):
            conjugate_in_pol0_cyclic(g, g)
        with pytest.raises(NotBounded):
            configurations(g, g)


def test_matrix_columns_sum_to_the_degree(carry, odo_pair):
    _, p, q = carry
    for pair in ((p, q), odo_pair, (p, p)):
        csys = choice_system(*pair)
        for choice in csys.choices():
            mat = csys.matrix(choice)
            for c in range(csys.dim):
                assert sum(mat[r][c] for r in range(csys.dim)) == 2


def test_decider_and_search_tell_one_story(carry, odo_pair):
    _, p, q = carry
    e = multiply(p, inverse(p))
    for pair in ((p, q), odo_pair, (e, e), (p, p)):
        dec = conjugate_in_pol0_cyclic(*pair)
        found = bounded_choice_search(choice_system(*pair)).found
        assert dec.conjugate == found


def test_coordinate_labels_cover_the_closure(carry):
    _, p, q = carry
    csys = choice_system(p, q)
    labels = csys.coord_labels()
    assert len(labels) == csys.dim
    assert len(set(labels)) == csys.dim


def planted_pair(seed, degree, budget_a, budget_h):
    """a, the last symbol of random_bounded(seed), and h^-1*a*h for h
    the last symbol of random_bounded(1000 + seed) merged beside it."""
    sys = random_bounded(seed, budget_a, degree)
    a = one(sys, sys.symbols[-1])
    other = random_bounded(1000 + seed, budget_h, degree)
    h = one(sys, merge_into(sys, other)[other.symbols[-1]])
    return a, multiply(multiply(inverse(h), a), h)


@pytest.mark.parametrize(
    "degree,budget_a,budget_h,seed,depth",
    [(2, 4, 3, s, 10) for s in (16, 96, 145)] + [(3, 6, 4, s, 6) for s in (36, 72, 107)],
)
def test_planted_pairs_synthesize_nested_witnesses(degree, budget_a, budget_h, seed, depth):
    # these witnesses nest reductions and circuits, whose fresh names
    # and half-built definitions once collided during synthesis
    a, b = planted_pair(seed, degree, budget_a, budget_h)
    dec = conjugate_in_pol0_cyclic(a, b)
    assert dec.tag == "conjugate"
    assert verify_conjugator(dec.conjugator, a, b, depth)
    a.system.validate()


@pytest.mark.parametrize("pair,certificate,text", [
    ((0, 2, 4, 3), "rule finitary", "f {f = (e, e) [1 0]}"),
    ((16, 2, 4, 3), "rule reduction",
     "h_3 {c1_2 = (e, c2_2^-1) [1 0]; c2_2 = (c1_2^-1, e); h = (e, c1_2); h_2 = (h, e) [1 0]; h_3 = (h_2, e)}"),
    ((11, 2, 4, 3), "rule moving",
     "f1*f*f1_2*f1^-1*c1_2 {f1 = (e, e) [1 0]; f1_2 = (e, e) [1 0]; c1_2 = (f1_2^-1, c1_2); f = (e, e) [1 0]}"),
    ((72, 3, 6, 4), "rule circuit",
     "h {f1 = (e, e, e) [2 1 0]; f2 = (e, f1, f1^-1*f1^-1) [2 1 0]; f = (e, e, e); h = (h_2, f, f*f1) [2 0 1]; "
     "f_2 = (e, f, e); h_2 = (h, f_2, f_2*f2^-1) [2 0 1]}"),
    ("carry", "rule circuit", "h {h = (e, h) [1 0]}"),
])
def test_pol0_witness_texts_per_rule(pair, certificate, text):
    # one golden witness per rule of the cyclic decider: symbol names,
    # definition order and sections are all part of its output
    if pair == "carry":
        sys = parse_system(CARRY)
        a, b = one(sys, "p"), one(sys, "q")
    else:
        a, b = planted_pair(*pair)
    dec = conjugate_in_pol0_cyclic(a, b)
    assert dec.tag == "conjugate"
    assert dec.certificate == certificate
    assert load_corpus().witness(dec.conjugator) == text


def two_ring_pair(seed, degree):
    """a, the last symbol of random_bounded(seed, 6), and h^-1*a*h for
    h = h1*h2, the last symbols of random_bounded(7000 + seed, 3) and
    random_bounded(9000 + seed, 3) merged beside it."""
    sys = random_bounded(seed, 6, degree)
    a = one(sys, sys.symbols[-1])
    rings = []
    for base in (7000, 9000):
        other = random_bounded(base + seed, 3, degree)
        rings.append(one(sys, merge_into(sys, other)[other.symbols[-1]]))
    h = multiply(*rings)
    return a, multiply(multiply(inverse(h), a), h)


@pytest.mark.parametrize("degree,seed", [(3, 26), (4, 0), (4, 26), (4, 50)])
def test_two_ring_conjugators_decide_at_the_default_caps(degree, seed):
    # over all closure pairs the FinSat universe of these inputs passed
    # its cap (unknown: finitary universe cap 4096); over the surviving
    # pairs of the conjugator graph it stays small
    a, b = two_ring_pair(seed, degree)
    dec = conjugate_in_pol0_cyclic(a, b)
    assert dec.tag == "conjugate"
    assert dec.certificate == "rule reduction"
    assert verify_conjugator(dec.conjugator, a, b, 8)


def decider_records(shared):
    """Pol(-1), Pol(0) and Aut, in that order, on every corpus pair,
    each record a decider's tag, class, certificate and witness text.
    Unless shared, each decider starts from a fresh ConfigSpace."""
    witness = load_corpus().witness
    out = []
    for _, _, _, a, b, _ in load_corpus().pairs(30, 10):
        for decide in (conjugate_in_pol_minus1, conjugate_in_pol0_cyclic):
            if not shared:
                a.system._space = None
            dec = decide(a, b)
            out.append((dec.tag, dec.cls, dec.certificate, witness(dec.conjugator)))
        dec = conjugate_in_aut(a, b)
        h = basic_conjugator(dec.graph).element if dec.conjugate else None
        out.append((dec.tag, None, dec.reason, witness(h)))
    return out


def test_shared_space_gives_the_answers_of_fresh_spaces():
    # the deciders on one system share its ConfigSpace, and the planted
    # and negative pairs of a seed share one system; what each call
    # answers and defines must be what it gives on a space of its own
    shared = decider_records(True)
    assert shared == decider_records(False)
    assert {tag for tag, *_ in shared} == {"conjugate", "not_conjugate"}


def pol0_records(history, kinds=("planted", "negative")):
    """Pol(0) tag, class, certificate and minimized witness on the pairs
    of kinds of the whole identity corpus, each after the deciders of
    history ran on the same pair."""
    out = {}
    for kind, d, s, a, b, _ in load_corpus().pairs(150, 40):
        if kind in kinds:
            for decide in history:
                decide(a, b)
            dec = conjugate_in_pol0_cyclic(a, b)
            out[kind, d, s] = (dec.tag, dec.cls, dec.certificate, dec.conjugator and minimize(dec.conjugator))
    return out


def test_pol0_answers_do_not_depend_on_earlier_queries():
    # a fresh system per pair against systems on which Aut and Pol(-1)
    # ran first, in both orders, and on which the seed's planted pair
    # ran before its negative: the union-find, the equality cache, the
    # signatures, the space and the defined symbols all carry over, and
    # only symbol names may move
    fresh = {**pol0_records((), ("planted",)), **pol0_records((), ("negative",))}
    assert len(fresh) == 380
    assert sum(tag == "conjugate" for tag, *_ in fresh.values()) == 190
    for history in ((conjugate_in_aut, conjugate_in_pol_minus1), (conjugate_in_pol_minus1, conjugate_in_aut)):
        assert pol0_records(history) == fresh


def test_deciders_on_one_system_share_its_space():
    planted, negative = itertools.islice(load_corpus().pairs(1, 0), 2)
    (_, _, _, a, b, _), (kind, _, _, a2, u, _) = planted, negative
    assert kind == "negative" and a2 is a
    assert configurations(a, b).space is configurations(a, u).space is ConfigSpace.of(a.system)


WALK_NEGATIVE = "not conjugate in Aut: no root branch survives the closed configuration walk"


def test_pol0_verdicts_sit_below_the_aut_verdicts():
    # conjugate in Pol(-1) => conjugate in Pol(0) => conjugate in Aut,
    # and an Aut negative is a Pol(0) negative, certified by the pair's
    # closed configuration walk, on the 80 planted and coded-negative
    # corpus pairs
    tags = collections.Counter()
    for _, _, _, a, b, _ in load_corpus().pairs(30, 10):
        aut = conjugate_in_aut(a, b)
        dec = conjugate_in_pol0_cyclic(a, b)
        fin = conjugate_in_pol_minus1(a, b)
        tags[fin.tag, dec.tag, aut.tag] += 1
        if fin.conjugate:
            assert dec.conjugate
        if dec.conjugate:
            assert aut.conjugate
        if aut.tag == "not_conjugate":
            assert dec.tag == "not_conjugate"
            closure = configurations(a, b)
            assert closure.root not in closure.viable
            assert dec.certificate == "%s (%d walked)" % (WALK_NEGATIVE, len(closure.universe))
            assert aut.reason.startswith("orbit trees differ at depth ")
    assert tags == {
        ("conjugate", "conjugate", "conjugate"): 27,
        ("not_conjugate", "conjugate", "conjugate"): 13,
        ("not_conjugate", "not_conjugate", "not_conjugate"): 40,
    }


def test_pol0_answers_from_its_walk_before_any_graph(monkeypatch):
    # the pair's own configuration walk needs no conjugator graph and no
    # closure cap: with conj_graph refused, at cap 0, a finitary planted
    # pair is conjugate by its finitary witness and a coded negative is
    # not conjugate
    def refuse(*args):
        raise AssertionError("conj_graph built")

    monkeypatch.setattr(bounded, "conj_graph", refuse)
    (_, _, _, a, b, depth), (kind, _, _, a2, u, _) = itertools.islice(load_corpus().pairs(1, 0), 2)
    assert kind == "negative" and a2 is a
    dec = conjugate_in_pol0_cyclic(a, b, cap=0)
    assert (dec.tag, dec.cls, dec.certificate) == ("conjugate", "finitary", "rule finitary")
    assert _conjugates(a.system, dec.conjugator.word, a.word, b.word) is True
    assert verify_conjugator(dec.conjugator, a, b, depth)
    dec = conjugate_in_pol0_cyclic(a, u, cap=0)
    assert dec.tag == "not_conjugate" and dec.certificate.startswith(WALK_NEGATIVE)


def test_walk_certified_pol0_negatives_are_aut_negatives():
    # on the whole identity corpus every coded negative, and nothing
    # else, is a walk-certified Pol(0) negative, and Aut agrees on each
    walked = []
    for kind, d, s, a, b, _ in load_corpus().pairs(150, 40):
        dec = conjugate_in_pol0_cyclic(a, b)
        if dec.tag == "not_conjugate" and dec.certificate.startswith(WALK_NEGATIVE):
            walked.append(kind)
            assert conjugate_in_aut(a, b).tag == "not_conjugate", (kind, d, s)
    assert walked == ["negative"] * 190


def cli_fixture_pairs():
    """(system text, w1, w2) of every pair that scripts/cli_transcripts.py
    asks the bounded deciders about, in its order."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "cli_transcripts.py"
    spec = importlib.util.spec_from_file_location("cli_transcripts", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for name, (text, words, vertex) in script.FIXTURES.items():
        for args in script.runs(name, words, vertex):
            # once per pair: its Pol(-1) run at cap 0
            if args[0] == "conjugate" and args[-2:] == ["--group", "pol-1"] and args[5] == "0":
                yield text, args[2], args[3]


def test_pol_minus1_conjugates_are_pol0_conjugates_at_every_cap():
    # each decision on a fresh system, as the CLI makes it; pairs that are
    # not bounded are refused by both deciders
    def fresh(text, *words):
        sys = parse_system(text)
        return [Element(sys, parse_word(w)) for w in words]

    checked = 0
    for text, w1, w2 in cli_fixture_pairs():
        for cap in (0, 1, 3, 20):
            try:
                fin = conjugate_in_pol_minus1(*fresh(text, w1, w2), cap)
            except NotBounded:
                continue
            if fin.conjugate:
                assert conjugate_in_pol0_cyclic(*fresh(text, w1, w2), cap).conjugate, (text, w1, w2, cap)
                checked += 1
    assert checked == 25


def steps_from_definition(space, cfg, pi):
    """Orbit steps of cfg under pi, each (letter, size, configuration
    value), and per step its dependency-pair moves, straight from
    (a^t * c)|_x = a^t|_x * c|_(x a^t) and x a^t pi = x pi b^t, looking
    up keys only."""
    sys, key = space.system, space.interner.lookup
    ka, kb, *flat = space.configs[cfg]
    wa, wb = space.word(ka), space.word(kb)
    steps, moves = [], []
    for orb in orbits(sys.root_perm(wa)):
        x, m = orb[0], len(orb)
        pa, pb = sys.power_sections(wa, x), sys.power_sections(wb, pi[x])
        moves.append([
            ((kc, kd), (key(reduce_word(pa[t] + sys.section(space.word(kc), y))),
                        key(reduce_word(pb[t] + sys.section(space.word(kd), pi[y])))))
            for kc, kd in zip(flat[0::2], flat[1::2])
            for t, y in enumerate(orb)
        ])
        dp = sorted({tgt for _, tgt in moves[-1]})
        steps.append((x, m, (key(pa[m]), key(pb[m]), *itertools.chain(*dp))))
    return steps, moves


def test_orbit_steps_match_their_definition():
    # the space computes each move once and serves it to every root
    # conjugator, to both sides of the pair and to every decider on the
    # system; every step it holds, and the moves it gives for the step,
    # must still be the ones the definition gives, also after a walk
    # that stopped at its cap part way
    several_pi = stopped = 0
    for degree, budget_a, budget_h, seeds in ((2, 4, 3, range(20)), (3, 6, 4, range(10))):
        for seed in seeds:
            a, b = planted_pair(seed, degree, budget_a, budget_h)
            if seed < 3:
                # walks stopped by an interner key that gives up part way
                # through a step, and by the config cap
                interner, calls = ConfigSpace.of(a.system).interner, itertools.count()
                real = interner.key
                interner.key = lambda w: real(w) if next(calls) < 4 else Exceeded("test", 0)
                stopped += configurations(a, b).status == "exceeded: Exceeded(kind='test', budget=0)"
                del interner.key
                stopped += configurations(a, b, cap=2).status == "exceeded: config cap 2"
            conjugate_in_pol0_cyclic(a, b)
            conjugate_in_pol_minus1(a, b)
            closure = configurations(a, b)
            assert closure.complete
            space = closure.space
            assert space is ConfigSpace.of(a.system)
            for cfg, branches in closure.universe.items():
                several_pi += degree == 3 and len(branches) > 1
            for (cfg, pi), steps in space._succ.items():
                want_steps, want_moves = steps_from_definition(space, cfg, pi)
                assert [(x, m, space.configs[c]) for x, m, c in steps] == want_steps
                assert space.moves(cfg, pi) == want_moves
    assert several_pi >= 1
    assert stopped == 12


def test_one_dense_id_per_configuration_value():
    # Pol(-1) and then Pol(0) on one system walk one space, Pol(0) also
    # from configurations Pol(-1) did not reach; the space numbers the
    # configuration values densely, one id each, and hands the same id
    # out again for an equal value in any spelling
    a, b = planted_pair(0, 3, 6, 4)
    assert conjugate_in_pol_minus1(a, b).tag == "not_conjugate"
    space = ConfigSpace.of(a.system)
    walked = len(space._succ)
    assert conjugate_in_pol0_cyclic(a, b).conjugate
    assert len(space._succ) > walked
    assert space._ids == {value: c for c, value in enumerate(space.configs)}
    assert len(space.configs) > 50
    for (cfg, _), steps in space._succ.items():
        for c in [cfg] + [c for _, _, c in steps]:
            main, dp = space.configs[c][:2], space.dependency_pairs(c)
            assert space.configs[c] == (*main, *itertools.chain(*dp)) and dp == sorted(set(dp))
            assert space.config(main, reversed(dp)) == c
    root = space.root_config(a, b)
    main, dp = space.configs[root][:2], space.dependency_pairs(root)
    assert root == space.pair_config(*main) == space.config(list(main), dp * 2)


def test_the_steps_memo_holds_nothing_the_collector_tracks():
    # configurations are ints and each orbit step a tuple of ints, so the
    # steps memo and the configuration values leave the cyclic collector
    # nothing to walk.  A collection untracks one level of nested tuples:
    # a flat configuration value is untracked by one full collection, a
    # steps entry (a tuple of step tuples, keyed by a configuration and a
    # permutation tuple) by two, whenever the query's own collections ran
    a, b = planted_pair(0, 3, 6, 4)
    assert conjugate_in_pol0_cyclic(a, b).conjugate
    space = ConfigSpace.of(a.system)
    assert space._succ and space.configs
    gc.collect()
    assert not any(gc.is_tracked(value) for value in space.configs)
    gc.collect()
    assert not any(gc.is_tracked(k) or gc.is_tracked(v) for k, v in space._succ.items())


def full_closure(space, roots):
    """Every configuration reachable from roots, with its branches
    {pi: steps}, walked to the end."""
    universe, todo = {}, list(roots)
    while todo:
        cfg = todo.pop()
        if cfg not in universe:
            universe[cfg] = {pi: space.steps(cfg, pi) for pi in space.cpi(cfg)}
            todo.extend(c for steps in universe[cfg].values() for _, _, c in steps)
    return universe


def from_scratch_depths(space, universe):
    """The finitary fixpoint swept over a closed universe at once."""
    depth, pis = {}, {}
    for cfg in universe:
        ka, kb, *flat = space.configs[cfg]
        if ka == kb and flat[0::2] == flat[1::2]:
            depth[cfg] = 0
    k, changed = 0, True
    while changed:
        changed = False
        k += 1
        for cfg, branches in universe.items():
            if cfg in depth:
                continue
            for pi in space.cpi(cfg):
                if all(c in depth and depth[c] < k for _, _, c in branches[pi]):
                    depth[cfg], pis[cfg] = k, pi
                    changed = True
                    break
    return depth, pis


def assert_full_sweep(fin, roots, answers):
    """What fin answered for roots and every depth, branch and dead
    configuration it recorded is what the sweep over the full closure of
    roots gives."""
    depth, pis = from_scratch_depths(fin.space, full_closure(fin.space, roots))
    assert answers == [depth.get(root) for root in roots]
    assert fin.depth == {cfg: depth[cfg] for cfg in fin.depth}
    assert fin._pi == {cfg: pis[cfg] for cfg in fin.depth if fin.depth[cfg]}
    assert fin.dead.isdisjoint(depth)


def test_incremental_finitary_fixpoint_matches_a_full_sweep():
    # FinSat walks from a configuration only until its depth is settled,
    # and a later walk reads what earlier ones recorded
    late_deep = stopped_early = 0
    for degree, budget_a, budget_h, seeds in ((2, 4, 3, range(24)), (3, 6, 4, range(2))):
        for seed in seeds:
            a, b = planted_pair(seed, degree, budget_a, budget_h)
            space = ConfigSpace(a.system)
            fin = FinSat(space)
            roots, answers = [], []
            for c in orbit_signalizer(a, 512, letters="all").elements:
                for d in orbit_signalizer(b, 512, letters="all").elements:
                    roots.append(space.pair_config(space.key(c.word), space.key(d.word)))
                    before = set(fin.depth)
                    answers.append(fin.satisfiable(roots[-1]))
                    if before:
                        late_deep += any(v >= 2 for k, v in fin.depth.items() if k not in before)
            assert fin.status == "complete"
            assert_full_sweep(fin, roots, answers)
            stopped_early += len(fin.univ) < len(full_closure(space, roots))
    # later walks reach depths that need rounds past their own changes
    assert late_deep >= 3
    assert stopped_early >= 1


class GraphSpace:
    """A stand-in for ConfigSpace over an explicit graph: configuration
    n has the branches graph[n], each a list of the configurations it
    induces, and its root conjugators are the indices of its branches.
    Its value is (n, n, 0, 0) when trivial and (n, -1, 0, 0) when not."""

    def __init__(self, graph, trivial):
        self.graph = graph
        self.configs = [(n, n if n in trivial else -1, 0, 0) for n in range(len(graph))]

    def is_trivial(self, c):
        return self.configs[c][0] == self.configs[c][1]

    def cpi(self, c):
        return tuple(range(len(self.graph[c])))

    def steps(self, c, pi):
        return tuple((x, 1, n) for x, n in enumerate(self.graph[c][pi]))


def test_finitary_walks_match_a_full_sweep_on_random_graphs():
    # a branch that looks best inside the layers walked so far may lose
    # to one that leads further out, so only depths within the horizon
    # may be recorded; every walk, fresh or reading what earlier walks
    # on the same FinSat recorded, must agree with the full sweep
    rng = random.Random(15)
    for _ in range(300):
        n = rng.randint(3, 14)
        trivial = set(rng.sample(range(n), rng.randint(1, 3)))
        graph = [[[rng.randrange(n) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(0, 3))]
                 for _ in range(n)]
        space = GraphSpace(graph, trivial)
        shared, roots, answers = FinSat(space), [], []
        for v in rng.sample(range(n), n):
            fresh = FinSat(space)
            roots.append(v)
            assert_full_sweep(fresh, roots[-1:], [fresh.satisfiable(roots[-1])])
            answers.append(shared.satisfiable(roots[-1]))
            assert_full_sweep(shared, roots, answers)


def finsat_run(space, roots, cap):
    fin = FinSat(space, cap=cap)
    return fin, [fin.satisfiable(root) for root in roots]


def test_finitary_universe_cap_counts_distinct_configurations():
    # the cap bounds the distinct configurations the walks expand: a cap
    # equal to what a run expands keeps it complete, with the answers of
    # the full sweep, and one less gives up and names the cap; the runs
    # walk from the input pair alone, then from every orbit-power pair
    # as well
    for seed in range(40):
        a, b = planted_pair(seed, 2, 4, 3)
        space = ConfigSpace(a.system)
        pairs = [
            space.pair_config(space.key(c.word), space.key(d.word))
            for c in orbit_signalizer(a, 512, letters="all").elements
            for d in orbit_signalizer(b, 512, letters="all").elements
        ]
        for roots in ([space.root_config(a, b)], [space.root_config(a, b)] + pairs):
            full, answers = finsat_run(space, roots, 4096)
            assert_full_sweep(full, roots, answers)
            size = len(full.univ)
            if not size:  # trivial roots are answered without a walk
                assert answers == [0] * len(roots)
                continue
            exact, exact_answers = finsat_run(space, roots, size)
            assert exact.status == "complete"
            assert (exact.univ, exact.depth, exact_answers) == (full.univ, full.depth, answers)
            short, _ = finsat_run(space, roots, size - 1)
            assert short.status == "exceeded: finitary universe cap %d" % (size - 1)


class Pol0Stub:
    """A stand-in for bounded._Pol0 over hand-built vertices, with no
    FRSystem: rows maps each vertex (i, j, pi) to its rows (letter, orbit
    size, configuration, successor vertices), configs maps each pair to
    its configuration, and configurations are the nodes of a GraphSpace.
    The pairs are listed in the order rows first names them."""

    def __init__(self, space, rows, configs=None):
        pairs = {}
        for v in rows:
            pairs.setdefault(v[:2], []).append(v)
        self.graph = ConjGraph((0, 0), None, pairs=pairs)
        self.fin = FinSat(space)
        self.dist, self.fixed, self._rows, self._configs = {}, {}, rows, configs or {}

    def config(self, i, j):
        return self._configs[(i, j)]

    def rows(self, v):
        return self._rows[v]


# GraphSpace nodes of the stand-ins: T trivial, U unsatisfiable (no
# conjugator), D of finitary depth 1 (one branch, into T)
T, U, D = 0, 1, 2
NODES = GraphSpace([[[]], [], [[T]]], {T})


def test_seed_takes_finitary_pair_configurations():
    st = Pol0Stub(NODES, {}, {(0, 0): T, (1, 1): U, (2, 2): D})
    assert _seed(st, 0, 0) == {(0, 0): ("finitary", T)}
    assert _seed(st, 1, 1) == {}
    assert _seed(st, 2, 2) == {(2, 2): ("finitary", D)}
    assert st.fin.depth == {T: 0, D: 1} and st.dist == {}


def test_circuit_closes_a_cycle_through_fixed_letters():
    # A -> B at letter 0 and back; the letter-1 edges lead off the
    # cycle; every pair on the cycle not yet distinguished gets the
    # cycle rotated to start at it
    A, B, C = (0, 0, "p"), (1, 1, "p"), (2, 2, "p")
    rows = {A: [(0, 1, T, [B]), (1, 1, D, [C])], B: [(0, 1, T, [A]), (1, 1, T, [C])], C: [(0, 1, T, [C])]}
    st = Pol0Stub(NODES, rows)
    assert _circuit(st, 0, 0) == {(0, 0): ("circuit", [A, B], [0, 0]), (1, 1): ("circuit", [B, A], [0, 0])}
    st.dist[(0, 0)] = ("finitary", T)
    assert _circuit(st, 1, 1) == {(1, 1): ("circuit", [B, A], [0, 0])}


def test_circuit_needs_fixed_letters_and_finitary_other_orbits():
    # B's letter-0 edge back to A is dropped because B's other orbit is
    # unsatisfiable, and C's because its letters are swapped (moving)
    A, B, C = (0, 0, "p"), (1, 1, "p"), (2, 2, "p")
    rows = {A: [(0, 1, T, [B]), (1, 1, T, [C])], B: [(0, 1, T, [A]), (1, 1, U, [C])], C: [(0, 2, T, [A])]}
    assert _circuit(Pol0Stub(NODES, rows), 0, 0) == {}
    rows[B] = [(0, 1, T, [A]), (1, 1, D, [C])]
    assert _circuit(Pol0Stub(NODES, rows), 0, 0)[(0, 0)] == ("circuit", [A, B], [0, 0])


def test_circuit_misses_a_cycle_that_revisits_a_pair():
    # the only cycle through A passes pair (0, 0) again as A2, under
    # another permutation; the search walks vertices of distinct pairs
    # only, so it finds none (the gap of ROADMAP item 5)
    A, A2, B = (0, 0, "p"), (0, 0, "q"), (1, 1, "p")
    rows = {A: [(0, 1, T, [B])], A2: [(0, 1, T, [A])], B: [(0, 1, T, [A2])]}
    st = Pol0Stub(NODES, rows)
    assert _circuit(st, 0, 0) == {}
    assert _circuit(st, 1, 1) == {}


def test_sweeps_take_the_first_ready_vertex_gauss_seidel():
    # pair P comes before Q, and Q before W; R is distinguished and Z
    # never is.  The first sweep adds Q and then W, which reads Q; P
    # waits for the second sweep and takes P2, its first ready vertex,
    # as P3 is ready too; the third sweep adds nothing
    P1, P2, P3 = (0, 0, "p1"), (0, 0, "p2"), (0, 0, "p3")
    Q, W, R, Z = (1, 1, "q"), (2, 2, "w"), (3, 3, "r"), (4, 4, "z")
    rows = {
        P1: [(0, 1, T, [Q]), (1, 1, T, [Z])], P2: [(0, 2, U, [Q])], P3: [(0, 1, T, [R]), (1, 1, T, [Q])],
        Q: [(0, 2, U, [R])], W: [(0, 1, U, [Q]), (1, 1, U, [R])], R: [(0, 2, T, [Z])], Z: [(0, 2, T, [Z])],
    }
    st = Pol0Stub(NODES, rows)
    st.dist[(3, 3)] = ("finitary", T)
    assert _sweep(st) == {(1, 1): ("reduction", "q"), (2, 2): ("reduction", "w")}
    assert _sweep(st) == {(0, 0): ("reduction", "p2")}
    assert _sweep(st) == {}
    assert st.dist == {(3, 3): ("finitary", T), (1, 1): ("reduction", "q"), (2, 2): ("reduction", "w"),
                       (0, 0): ("reduction", "p2")}


def pol0_state(a, b):
    """The _Pol0 state of the pair, over its pruned Aut graph and a
    FinSat with the decider's cap at the default closure cap."""
    return _Pol0(conj_graph(a, b), FinSat(ConfigSpace.of(a.system), 4096))


def test_moving_builds_its_candidate_from_the_closure_words():
    # on the golden "rule moving" pair the first exact candidate is the
    # decider's witness word; on planted seed 73 after Pol(-1) the space
    # spells b otherwise than b's closure does, and the candidate keeps
    # the closure's spelling; on the "rule finitary" pair all four
    # candidates fail their exact check and the rule adds nothing
    for seed, text in ((11, "f1*f*f1_2*f1^-1*c1_2"), (73, "f2*f2*f1^-1*f2^-1*f2^-1*f1_2^-1*f1_2^-1*f2*f2")):
        a, b = planted_pair(seed, 2, 4, 3)
        if seed == 73:
            assert conjugate_in_pol_minus1(a, b).conjugate
        st = pol0_state(a, b)
        [(pair, (rule, word))] = _moving(st, 0, 0).items()
        assert (pair, rule, format_word(word)) == ((0, 0), "moving", text)
        assert _conjugates(a.system, word, a.word, b.word) is True
    assert st.space.word(st.kb[0]) != st.graph.os_b.elements[0].word
    a, b = planted_pair(0, 2, 4, 3)
    assert _moving(pol0_state(a, b), 0, 0) == {}


def test_rows_read_the_steps_and_the_surviving_successors():
    # rows(v) joins the space's orbit steps of the pair configuration to
    # the graph's successor vertices at each orbit letter
    a, b = planted_pair(16, 2, 4, 3)
    st = pol0_state(a, b)
    for v in st.graph.vertices:
        rows = st.rows(v)
        assert [(x, m, c) for x, m, c, _ in rows] == list(st.space.steps(st.config(*v[:2]), v[2]))
        assert {x: succs for x, *_, succs in rows} == st.graph.edges[v]
        assert st.rows(v) is rows


def test_pol_minus1_stops_once_the_root_depth_is_settled():
    # degree 3, seed 26 of the planted recipe: the root has finitary
    # depth 1, settled by expanding the root alone, where the whole
    # universe from the root holds 351 configurations
    a, b = planted_pair(26, 3, 6, 4)
    dec = conjugate_in_pol_minus1(a, b, cap=1)
    assert dec.certificate == "finitary conjugator of depth 1"
    assert verify_conjugator(dec.conjugator, a, b, 6)
    closure = configurations(*planted_pair(26, 3, 6, 4))
    assert len(closure.universe) == 351
    witness = load_corpus().witness
    assert witness(dec.conjugator) == witness(finitary_satisfiable(closure).witness)


def test_pol_minus1_answers_as_the_full_sweep():
    # verdict, certificate and witness text of Pol(-1) against the sweep
    # over the whole closure, each on its own copy of the corpus systems
    witness = load_corpus().witness
    corpus = zip(load_corpus().pairs(30, 10), load_corpus().pairs(30, 10))
    for (_, _, _, a, b, _), (_, _, _, a2, b2, _) in corpus:
        dec = conjugate_in_pol_minus1(a, b)
        rep = finitary_satisfiable(configurations(a2, b2))
        assert witness(dec.conjugator) == witness(rep.witness)
        if rep.root_depth is None:
            assert dec.certificate == (
                "root configuration unsatisfiable; %d of %d surviving configurations admit finitary conjugators"
                % (len(rep.sat), len(rep.closure.configs)))
        else:
            assert dec.certificate == "finitary conjugator of depth %d" % rep.root_depth


def test_finitary_witness_deeper_than_the_recursion_limit():
    # the witness of this pair is a chain of 500 fresh symbols, which
    # FinSat.witness_word defines from an explicit stack
    sys = parse_system(deep_chains(500))
    f, k = one(sys, "f1"), one(sys, "k1")
    b = multiply(multiply(inverse(k), f), k)
    dec = conjugate_in_pol_minus1(f, b, cap=4096)
    assert dec.tag == "conjugate" and dec.cls == "finitary"
    assert dec.certificate == "finitary conjugator of depth 499"
    assert verify_conjugator(dec.conjugator, f, b, 6)


def test_failed_walks_refute_their_path_down_swap_chains(monkeypatch):
    # each failed walk records every pair on its path as unequal, so
    # later walks down the chains stop where an earlier one failed:
    # 18,150 and 76,250 walks at 100 and 200 levels without the records
    walks = []

    def counted(*args):
        walks.append(args)
        return bisimulate(*args)

    bisimulate = elements._bisimulate
    monkeypatch.setattr(elements, "_bisimulate", counted)
    counts = []
    for levels in (100, 200):
        walks.clear()
        sys = parse_system(swap_chains(levels))
        f, k = one(sys, "f1"), one(sys, "k1")
        dec = conjugate_in_pol_minus1(multiply(multiply(inverse(k), f), k), f, cap=4096)
        assert dec.tag == "conjugate" and dec.cls == "finitary"
        counts.append(len(walks))
    assert counts == [8837, 37637]


@pytest.mark.parametrize("chain, ring, rule", [(0, 400, "circuit"), (395, 5, "reduction")])
def test_bounded_witness_deeper_than_the_recursion_limit(chain, ring, rule):
    # the Pol(0) cycle search, its synthesis and all_basic_conjugators
    # walk explicit stacks, so 400-state inputs are answered with 200
    # frames of headroom
    sys = parse_system(deep_bounded(chain, ring))
    a, h = one(sys, "a1"), one(sys, "h1")
    b = multiply(multiply(inverse(h), a), h)
    with recursion_headroom(200):
        dec = conjugate_in_pol0_cyclic(a, b)
        assert dec.tag == "conjugate" and dec.certificate == "rule %s" % rule
        assert verify_conjugator(dec.conjugator, a, b, 6)
        assert len(all_basic_conjugators(conj_graph(a, b), limit=2)) == 2


def test_restricted_decisions_print_their_verdict():
    sys = parse_system(TWISTED)
    a, b = one(sys, "a"), one(sys, "b")
    assert str(conjugate_in_pol_minus1(a, a)) == "Conjugate(finitary)"
    assert str(conjugate_in_pol_minus1(a, inverse(a))) == "NotConjugate"
    assert str(conjugate_in_pol0_cyclic(a, b, cap=0)) == "Unknown(orbit-power closure exceeded cap 0)"
