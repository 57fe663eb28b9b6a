"""Activity growth, boundedness, orbit-power closures, and the nucleus."""

import pytest

from arboreal import (
    NOT_CIRCUIT,
    NOT_FINITARY,
    activity,
    circuit_word,
    equal,
    finitary_depth,
    inverse,
    is_bounded,
    multiply,
    nucleus,
    orbit_signalizer,
    polynomial_degree,
    power,
    random_bounded,
)
from arboreal import classify
from arboreal.elements import Exceeded, Interner, minimize
from arboreal.system import parse_system

from conftest import BRANCH, ODOMETER, TWISTED, ZOO, one


def _classes(zoo):
    return {name: polynomial_degree(one(zoo, name)) for name in zoo.symbols}


def test_one_symbol_per_class(zoo):
    cls = _classes(zoo)
    assert str(cls["s"]) == "Finitary(1)"
    assert str(cls["a"]) == "Polynomial(0)"
    assert str(cls["m"]) == "Polynomial(1)"
    assert str(cls["l"]) == "Exponential"


def test_bounded_means_degree_at_most_zero(zoo):
    cls = _classes(zoo)
    assert cls["s"].bounded and cls["a"].bounded
    assert not cls["m"].bounded and not cls["l"].bounded
    assert is_bounded(one(zoo, "a")) and not is_bounded(one(zoo, "l"))


def test_activity_class_is_memoised_per_word(zoo, monkeypatch):
    # a second classification of a word reads the system's memo; a class
    # that ran out of budget is not kept, so the next call minimizes again
    calls = []
    exhausted = [False]

    def counted(g, *args):
        calls.append(g.word)
        return Exceeded("states", 1) if exhausted[0] else minimize(g, *args)

    monkeypatch.setattr(classify, "minimize", counted)
    m = one(zoo, "m")
    first = polynomial_degree(m)
    assert str(first) == "Polynomial(1)" and len(calls) == 1
    assert polynomial_degree(one(zoo, "m")) is first
    assert polynomial_degree(inverse(inverse(m))) is first
    assert len(calls) == 1
    a = one(zoo, "a")
    exhausted[0] = True
    cls = polynomial_degree(a)
    assert cls.kind == "unknown" and cls.witness == "minimize exceeded 1 states"
    assert len(calls) == 2
    exhausted[0] = False
    assert str(polynomial_degree(a)) == "Polynomial(0)" and len(calls) == 3
    assert polynomial_degree(a).bounded and len(calls) == 3


def test_activity_counts_grow_linearly(zoo):
    m = one(zoo, "m")
    assert activity(m, 5) == [1, 2, 3, 4, 5, 6]
    a = one(zoo, "a")
    assert activity(a, 5) == [1] * 6


def test_finitary_depth(zoo):
    assert finitary_depth(one(zoo, "s")) == 1
    assert finitary_depth(one(zoo, "a")) == NOT_FINITARY
    assert finitary_depth(multiply(one(zoo, "a"), inverse(one(zoo, "a")))) == 0


def test_finitary_depth_is_the_first_level_without_activity():
    # finitary_depth reads the height pass of the activity class; the
    # multiplicity recurrence of activity counts the nontrivial sections
    seen = deep = 0
    for d in (2, 3, 4):
        for s in range(60):
            sys = random_bounded(s, 6, d)
            for name in list(sys.symbols):
                g = one(sys, name)
                depth, counts = finitary_depth(g), activity(g, 8)
                if depth is NOT_FINITARY:
                    assert 0 not in counts and polynomial_degree(g).kind == "polynomial"
                else:
                    assert counts.index(0) == depth
                    assert str(polynomial_degree(g)) == "Finitary(%d)" % depth
                    deep += depth >= 2
                seen += 1
    assert (seen, deep) == (621, 216)


def test_circuit_addresses(zoo):
    assert circuit_word(one(zoo, "a")) == (1,)
    assert circuit_word(one(zoo, "m")) == (1,)
    assert circuit_word(one(zoo, "s")) == NOT_CIRCUIT


def _os_elements(g, cap=512):
    os = orbit_signalizer(g, cap)
    assert os.complete
    return os.elements


def test_closure_of_the_odometer_is_itself(zoo):
    a = one(zoo, "a")
    elems = _os_elements(a)
    assert len(elems) == 1 and equal(elems[0], a) is True


def test_closure_picks_up_the_feeding_state():
    sys = parse_system("alphabet 2\na = (e, a) [1 0]\nb = (a, b)\n")
    a, b = one(sys, "a"), one(sys, "b")
    elems = _os_elements(b)
    assert len(elems) == 2
    assert any(equal(x, a) is True for x in elems)
    assert any(equal(x, b) is True for x in elems)


def test_closure_of_an_involution_reaches_the_identity():
    sys = parse_system("alphabet 2\nl = (l, l) [1 0]\n")
    l = one(sys, "l")
    elems = _os_elements(l)
    assert len(elems) == 2
    assert any(equal(x, power(l, 2)) is True for x in elems)  # l^2 = e
    assert any(equal(x, l) is True for x in elems)


def test_exponential_closure_exceeds_the_cap(branch):
    _, b = branch
    os = orbit_signalizer(b, 200)
    assert not os.complete
    assert os.status == "exceeded"


def test_closure_edges_name_orbit_sizes(zoo):
    os = orbit_signalizer(one(zoo, "a"))
    (src, m, tgt, letter), = os.edges
    assert (src, m, tgt, letter) == (0, 2, 0, 0)


def test_nucleus_of_the_twisted_generator():
    sys = parse_system("alphabet 2\nb = (b, b^-1*b^-1) [1 0]\n")
    b = one(sys, "b")
    report = nucleus(b)
    assert report.contracting
    assert len(report.elements) == 7
    expected = [power(b, k) for k in (-3, -2, -1, 0, 1, 2, 3)]
    for want in expected:
        assert any(equal(got, want) is True for got in report.elements)


def test_nucleus_of_the_odometer(zoo):
    report = nucleus(one(zoo, "a"))
    assert report.contracting
    assert len(report.elements) == 3  # e, a, a^-1


def test_product_exploration_stops_at_its_state_cap(odometer):
    # a*a has the section a at both letters: two states, past a cap of 1
    sys, a = odometer
    intern = Interner(sys)
    k = intern.key(a.word)
    assert classify._explore_product(intern, set(), k, k, 1) == (
        "unknown", "product exploration exceeded 1 states")


def test_nucleus_refuses_generators_from_two_systems():
    odo, twisted = parse_system(ODOMETER), parse_system(TWISTED)
    # a is defined in both systems, b only in the second
    for name in ("a", "b"):
        with pytest.raises(ValueError, match="different systems"):
            nucleus([one(odo, "a"), one(twisted, name)])
