"""Group operations, sections, and machine minimization."""

from itertools import combinations, product

import pytest

from arboreal import (
    Element,
    Exceeded,
    act,
    equal,
    inverse,
    is_trivial,
    minimize,
    multiply,
    orbit,
    orbit_power_section,
    power,
    section,
)
from arboreal import configurations, nucleus, orbit_signalizer, random_bounded
from arboreal import elements
from arboreal.elements import MAX_WORD_LENGTH, Interner, _bisimulate
from arboreal.system import EMPTY, FRSystem, merge_into, parse_system, reduce_word

from conftest import BRANCH, CARRY, ODOMETER, TWISTED, ZOO, one


def test_odometer_adds_one_with_carry(odometer):
    _, a = odometer
    assert act(a, (0,)) == (1,)
    assert act(a, (1, 0)) == (0, 1)
    assert act(a, (1, 1, 1)) == (0, 0, 0)
    assert act(a, (0, 1, 1)) == (1, 1, 1)


def test_action_composes_on_the_right(odometer):
    _, a = odometer
    g = multiply(a, a)
    for v in [(0, 0, 0), (1, 0, 1), (1, 1, 0)]:
        assert act(g, v) == act(a, act(a, v))


def test_inverse_undoes_the_action(carry):
    _, p, q = carry
    for g in (p, q, multiply(p, q)):
        for v in [(0, 1, 0, 1), (1, 1, 1, 1)]:
            assert act(inverse(g), act(g, v)) == v


def test_inverse_and_power_laws(odometer):
    _, a = odometer
    assert is_trivial(multiply(a, inverse(a)))
    assert equal(power(a, 3), multiply(a, multiply(a, a))) is True
    assert equal(power(a, -2), inverse(multiply(a, a))) is True
    assert equal(power(a, 0), multiply(a, inverse(a))) is True


def test_element_operators(twisted):
    # *, ~ and ** are multiply, inverse and power; == and hash compare
    # the system and the word, not the action
    sys, a, b = twisted
    assert a * b == multiply(a, b) and ~a == inverse(a) and a**3 == power(a, 3)
    assert hash(a * b) == hash(multiply(a, b))
    assert {a, one(sys, "a")} == {a}
    assert a != b and a != one(parse_system(TWISTED), "a") and a != "a"
    twin = parse_system("alphabet 2\na = (e, a) [1 0]\nz = (e, z) [1 0]\n")
    assert one(twin, "a") != one(twin, "z") and equal(one(twin, "a"), one(twin, "z")) is True
    assert repr(a * ~b) == "<Element a*b^-1>" and repr(a**3) == "<Element a*a*a>"
    assert a.section(1) == a and a.section(0) == Element.trivial(sys)
    assert b.section(1) == ~b


def test_section_of_a_product(twisted):
    _, a, b = twisted
    g, h = multiply(a, b), multiply(b, inverse(a))
    for x in (0, 1):
        lhs = section(multiply(g, h), (x,))
        rhs = multiply(section(g, (x,)), section(h, act(g, (x,))))
        assert equal(lhs, rhs) is True


def test_deep_sections_compose(odometer):
    _, a = odometer
    g = power(a, 3)
    assert equal(section(g, (1, 1)), section(section(g, (1,)), (1,))) is True


def test_orbit_and_orbit_power_section(odometer):
    sys, a = odometer
    assert orbit(a, 0) == (0, 1)
    m, g = orbit_power_section(a, 0)
    assert m == 2
    assert equal(g, a) is True  # the carry re-enters the machine
    assert orbit(multiply(a, a), 0) == (0,)
    m2, g2 = orbit_power_section(multiply(a, a), 0)
    assert m2 == 1 and equal(g2, a) is True


def test_equality_is_semantic_not_syntactic():
    sys = parse_system("alphabet 2\na = (e, a) [1 0]\nz = (e, z) [1 0]\n")
    assert equal(one(sys, "a"), one(sys, "z")) is True
    assert equal(one(sys, "a"), inverse(one(sys, "z"))) is False


DOUBLED_BRANCH = BRANCH + "A = (e, A) [1 0]\nB = (A, C) [1 0]\nC = (A, B)\n"


def test_budget_exhaustion_is_not_a_verdict():
    sys = parse_system(DOUBLED_BRANCH)
    res = equal(power(one(sys, "b"), 6), power(one(sys, "B"), 6), 4)
    assert isinstance(res, Exceeded)
    assert res is not True and res is not False
    with pytest.raises(Exception):
        bool(res)


def test_minimize_collapses_to_two_states(odometer):
    _, a = odometer
    m = minimize(a)
    assert m.n_states == 2
    assert m.trivial == 1  # the non-initial state is the identity


def test_minimize_stops_at_its_state_budget(odometer):
    _, a = odometer
    assert minimize(a, 1) == Exceeded("states", 1)


def test_minimize_identifies_isomorphic_machines():
    sys = parse_system("alphabet 2\na = (e, a) [1 0]\nz = (e, z) [1 0]\n")
    assert minimize(one(sys, "a")) == minimize(one(sys, "z"))
    other = parse_system(ODOMETER)
    assert minimize(one(sys, "a")) == minimize(one(other, "a"))


def test_minimize_of_a_cancelling_product(carry):
    _, p, q = carry
    m = minimize(multiply(p, inverse(p)))
    assert m.n_states == 1 and m.trivial == 0


def test_machine_round_trips_through_a_system(carry):
    _, p, _ = carry
    m = minimize(p)
    _, root = m.to_system()
    assert minimize(root) == m


def test_cross_system_comparison_after_merge():
    s1 = parse_system(ODOMETER)
    s2 = parse_system(TWISTED)
    ren = merge_into(s1, s2)
    assert equal(one(s1, "a"), one(s1, ren["a"])) is True
    assert equal(one(s1, "a"), one(s1, ren["b"])) is False


def test_interner_keys_words_by_semantic_equality(carry):
    sys, p, q = carry
    s, ss = ((("s", 1),), (("s", 1), ("s", 1)))
    intern = Interner(sys)
    assert [intern.key(w) for w in (EMPTY, p.word, q.word)] == [0, 1, 2]
    assert intern.words == [EMPTY, p.word, q.word]
    # s*s is the identity and p*s*s respells p: no new keys
    assert intern.key(ss) == 0
    assert intern.key(p.word + ss) == 1
    assert len(intern) == 3
    # lookup finds respellings and never inserts
    assert intern.lookup(ss + q.word) == 2
    assert intern.lookup(s) is None
    assert len(intern) == 3
    assert intern.key(s) == 3 and intern.lookup(s) == 3
    long = p.word * (MAX_WORD_LENGTH + 1)
    for res in (intern.key(long), intern.lookup(long)):
        assert isinstance(res, Exceeded) and res.kind == "word length"
    assert len(intern) == 4


def test_over_long_words_are_refused_before_any_signature(monkeypatch, branch):
    # a word past MAX_WORD_LENGTH that the union-find and the cache of
    # decided pairs do not settle answers Exceeded without composing the
    # level permutation of its signature, one table per letter
    sys, b = branch

    def refuse(self, w, n):
        raise AssertionError("signature of an over-long word")

    monkeypatch.setattr(FRSystem, "_level_perm", refuse)
    for n in (MAX_WORD_LENGTH + 1, 4 * MAX_WORD_LENGTH):
        long = power(b, n)
        for res in (is_trivial(long), equal(long, b), equal(b, long)):
            assert isinstance(res, Exceeded) and res.kind == "word length"
    assert equal(long, long) is True


def test_closures_never_recheck_their_own_words(monkeypatch):
    """The closures work on words the system produced; only their
    inputs are checked, when they are built."""

    def inputs():
        sys = parse_system(CARRY)
        p, q = one(sys, "p"), one(sys, "q")
        return p, q, multiply(p, q)

    def run(p, q, pq):
        closure = configurations(p, q)
        os_ = orbit_signalizer(p, letters="all")
        return (
            closure.status, [closure.space.describe(c) for c in closure.configs],
            os_.status, [str(g) for g in os_.elements], os_.edges,
            [str(g) for g in nucleus(p).elements],
            minimize(pq),
        )

    def refuse(self, w):
        raise AssertionError("check_word on an internal word")

    want = run(*inputs())
    args = inputs()
    monkeypatch.setattr(FRSystem, "check_word", refuse)
    assert run(*args) == want


# -- signatures ------------------------------------------------------------


def reference_signature(sys, w, k):
    """The tuple signature the integer classes replaced: the root
    permutation of every section word on levels 0..k-1, level by level,
    vertices in lexicographic order."""
    rows, frontier = [], [w]
    for _ in range(k):
        rows.append(tuple(sys.root_perm(u) for u in frontier))
        frontier = [sys.section(u, x) for u in frontier for x in range(sys.degree)]
    return tuple(rows)


def short_words(sys, n=2):
    """Every reduced word of length at most n over the symbols of sys."""
    factors = [(s, x) for s in sys.symbols for x in (1, -1)]
    words = {EMPTY}
    for length in range(1, n + 1):
        words.update(w for w in map(reduce_word, product(factors, repeat=length)) if len(w) == length)
    return sorted(words)


SIGNATURE_SYSTEMS = {
    "BRANCH": lambda: parse_system(BRANCH),
    "ZOO": lambda: parse_system(ZOO),
    **{
        "random_bounded(%d, 4, %d)" % (seed, degree): lambda seed=seed, degree=degree: random_bounded(seed, 4, degree)
        for degree in (2, 3, 4, 5)
        for seed in (1, 2, 3)
    },
    # level permutations are bytes up to 256 vertices (degree 6 at depth 3,
    # 16 at depth 2) and tuples past that (7 and 8 at depth 3, 17 at depth 2)
    **{
        "random_bounded(1, 4, %d)" % degree: lambda degree=degree: random_bounded(1, 4, degree)
        for degree in (6, 7, 8, 16, 17)
    },
}


@pytest.mark.parametrize("label", SIGNATURE_SYSTEMS)
def test_signature_classes_match_the_tuple_signature(label):
    sys = SIGNATURE_SYSTEMS[label]()
    words = short_words(sys)
    for k in range(1, sys._sig_depth + 1):
        perms = [sys._level_perm(w, sys.degree**k) for w in words]
        tuples = [reference_signature(sys, w, k) for w in words]
        assert all(sorted(p) == list(range(sys.degree**k)) for p in perms)
        for i, j in combinations(range(len(words)), 2):
            assert (perms[i] == perms[j]) == (tuples[i] == tuples[j]), (label, k, words[i], words[j])
    classes = [sys.signature(w) for w in words]
    for i, j in combinations(range(len(words)), 2):
        assert (classes[i] == classes[j]) == (perms[i] == perms[j]), (label, words[i], words[j])


def test_signature_depth_reads_at_most_64_vertices_of_its_lowest_level():
    assert [FRSystem(d)._sig_depth for d in (2, 3, 4, 5, 6, 7, 8)] == [7, 4, 4, 3, 3, 3, 3]


def test_signatures_walk_no_sections(monkeypatch):
    # a signature composes its factors' level tables, built from the
    # definitions: no word is sectioned, however long
    words = [g.word for g in orbit_signalizer(one(parse_system(BRANCH), "b"), 150).elements]
    sys = parse_system(BRANCH)

    def refuse(self, w, letter):
        raise AssertionError("section walked for a signature")

    monkeypatch.setattr(FRSystem, "section", refuse)
    assert max(map(len, words)) > 100
    assert len({sys.signature(w) for w in words}) == len(words)


def test_proven_equal_words_share_a_signature():
    proven = 0
    for label, build in SIGNATURE_SYSTEMS.items():
        sys = build()
        for u, v in combinations(short_words(sys), 2):
            ru, rv = sys.find(u), sys.find(v)
            if ru == rv or _bisimulate(sys, ru, rv, 10**4) is True:
                proven += 1
                assert sys.signature(u) == sys.signature(v), (label, u, v)
    assert proven > 100


def test_deep_signatures_spare_closure_bisimulations(monkeypatch):
    # words of the BRANCH closure mostly differ three to seven levels
    # down; a depth-3 signature left 1,415 bisimulations to this call,
    # a depth-5 one 31, and the depth-7 one of degree 2 leaves none
    calls = []

    def counted(*args):
        calls.append(args)
        return bisimulate(*args)

    bisimulate = elements._bisimulate
    monkeypatch.setattr(elements, "_bisimulate", counted)
    sys = parse_system(BRANCH)
    closure = orbit_signalizer(one(sys, "b"), 150)
    assert len(closure.elements) == 151
    assert len(calls) == 0


def test_minimize_screens_its_trivial_state_test(monkeypatch):
    # each state is compared with e through the signature and the cache
    # of decided pairs, so no state of this 5-state machine is walked
    against_e = []

    def counted(sys, u, v, budget):
        against_e.extend(w for w in (u, v) if w == EMPTY)
        return bisimulate(sys, u, v, budget)

    bisimulate = elements._bisimulate
    monkeypatch.setattr(elements, "_bisimulate", counted)
    sys = random_bounded(5, 4, 4)
    g = one(sys, sys.symbols[0])
    for name in sys.symbols[1:]:
        g = multiply(g, one(sys, name))
    machine = minimize(g)
    assert (machine.n_states, machine.trivial) == (5, 4)
    assert against_e == []


def test_a_failed_walk_refutes_its_path():
    # a and a2 differ only at vertex 00, where c and c2 part: the pairs
    # (a, a2) and (b, b2) above it are recorded unequal as well
    sys = parse_system(
        "alphabet 2\na = (b, e)\nb = (c, e)\nc = (e, e) [1 0]\n"
        "a2 = (b2, e)\nb2 = (c2, e)\nc2 = (e, e)\n"
    )
    a, a2, b, b2 = (((n, 1),) for n in ("a", "a2", "b", "b2"))
    assert _bisimulate(sys, a, a2, 100) is False
    assert sys._eq == {(a, a2): False, (b, b2): False}
    # an equality proven by a walk lands in the union-find only: _eq
    # holds refutations
    c, c3 = ("c", 1), ("c3", 1)
    sys.define("c3", (1, 0), ((), ()))
    assert equal(Element(sys, (c,)), Element(sys, (c3,))) is True
    assert sys.find((c3,)) == sys.find((c,))
    assert sys._eq == {(a, a2): False, (b, b2): False}
