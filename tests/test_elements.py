"""Group operations, sections, and machine minimization."""

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
from arboreal import configurations, nucleus, orbit_signalizer
from arboreal.elements import MAX_WORD_LENGTH, Interner
from arboreal.system import EMPTY, FRSystem, merge_into, parse_system

from conftest import BRANCH, CARRY, ODOMETER, TWISTED, one


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
