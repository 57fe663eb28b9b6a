"""Property checks over seeded random bounded machines."""

from hypothesis import given, settings, strategies as st

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
    orbit_tree_code,
    parse_system,
    power,
    random_bounded,
    section,
    truncated_order,
)
from arboreal.perms import inverse as perm_inverse
from arboreal.system import invert_word, merge_into, rename_word

seeds = st.integers(min_value=0, max_value=10 ** 6)
letters = st.integers(min_value=0, max_value=1)
vertices = st.lists(letters, min_size=1, max_size=6).map(tuple)


def elements_of(seed: int):
    sys = random_bounded(seed)
    names = list(sys.symbols)
    g = Element(sys, ((names[-1], 1),))
    h = Element(sys, ((names[0], 1), (names[-1], -1)))
    return sys, g, h


@settings(max_examples=40, deadline=None)
@given(seeds, vertices)
def test_action_is_a_right_action(seed, v):
    _, g, h = elements_of(seed)
    assert act(multiply(g, h), v) == act(h, act(g, v))
    assert act(Element(g.system, ()), v) == v


@settings(max_examples=40, deadline=None)
@given(seeds, vertices)
def test_inverse_reverses_the_action(seed, v):
    _, g, _ = elements_of(seed)
    assert act(inverse(g), act(g, v)) == v


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_products_cancel(seed):
    _, g, h = elements_of(seed)
    assert is_trivial(multiply(g, inverse(g)))
    assert equal(inverse(multiply(g, h)), multiply(inverse(h), inverse(g))) is True
    assert equal(inverse(inverse(g)), g) is True


@settings(max_examples=30, deadline=None)
@given(seeds, letters)
def test_sections_respect_products(seed, x):
    _, g, h = elements_of(seed)
    lhs = section(multiply(g, h), (x,))
    rhs = multiply(section(g, (x,)), section(h, act(g, (x,))))
    assert equal(lhs, rhs) is True


@settings(max_examples=40, deadline=None)
@given(seeds, st.lists(st.tuples(st.integers(min_value=0), st.sampled_from((1, -1))), max_size=6))
def test_inverse_words_evaluate_as_inverses(seed, picks):
    sys = random_bounded(seed, 6, 3)
    names = sys.symbols
    w = sys.check_word(tuple((names[i % len(names)], x) for i, x in picks))
    wi = invert_word(w)
    p = sys.root_perm(w)
    assert sys.root_perm(wi) == perm_inverse(p)
    # w^-1 at y is the inverse of w at the preimage of y
    for y in range(sys.degree):
        assert sys.section(wi, y) == invert_word(sys.section(w, perm_inverse(p)[y]))


@settings(max_examples=30, deadline=None)
@given(seeds, letters)
def test_orbit_power_section_is_a_first_return(seed, x):
    _, g, _ = elements_of(seed)
    m, fr = orbit_power_section(g, x)
    assert m == len(orbit(g, x))
    assert equal(fr, section(power(g, m), (x,))) is True


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=-3, max_value=3))
def test_powers_match_repeated_products(seed, k):
    _, g, _ = elements_of(seed)
    acc = Element(g.system, ())
    step = g if k >= 0 else inverse(g)
    for _ in range(abs(k)):
        acc = multiply(acc, step)
    assert equal(power(g, k), acc) is True


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_minimization_is_idempotent(seed):
    _, g, h = elements_of(seed)
    for x in (g, h):
        m = minimize(x)
        _, root = m.to_system()
        assert minimize(root) == m


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_truncated_orders_divide_upward(seed):
    _, g, _ = elements_of(seed)
    previous = 1
    for n in range(1, 7):
        current = truncated_order(g, n)
        assert current % previous == 0
        previous = current


@settings(max_examples=25, deadline=None)
@given(seeds, seeds)
def test_orbit_codes_survive_conjugation(seed, other):
    sys, g, _ = elements_of(seed)
    ren = merge_into(sys, random_bounded(other))
    u = Element(sys, ((ren[next(iter(ren))], 1),))
    conj = multiply(multiply(inverse(u), g), u)
    assert orbit_tree_code(g, 5) == orbit_tree_code(conj, 5)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=4))
def test_power_sections_are_sections_of_powers(seed, degree, x):
    sys = random_bounded(seed, 4, degree)
    names = sys.symbols
    g = Element(sys, ((names[-1], 1), (names[0], -1), (names[-1], 1)))
    x %= degree
    powers = sys.power_sections(g.word, x)
    assert len(powers) == len(orbit(g, x)) + 1
    for t, w in enumerate(powers):
        assert w == sys.section(power(g, t).word, x)
    m, fr = orbit_power_section(g, x)
    assert (m, fr.word) == (len(powers) - 1, powers[-1])


def _spelled_twice(seed: int, degree: int):
    """random_bounded(seed) merged into a copy of itself: every word over
    the first copy has a second spelling over the renamed one."""
    base = random_bounded(seed, 4, degree)
    sys = random_bounded(seed, 4, degree)
    return sys, base.symbols, merge_into(sys, base)


picks = st.lists(st.tuples(st.integers(min_value=0, max_value=50), st.sampled_from((1, -1))), max_size=5)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=4), picks, picks)
def test_pair_bisimulation_agrees_with_triviality_of_the_quotient(seed, degree, p, q):
    by_pairs, names, ren = _spelled_twice(seed, degree)
    by_quotient, _, _ = _spelled_twice(seed, degree)
    tiny, _, _ = _spelled_twice(seed, degree)
    u = by_pairs.check_word(tuple((names[i % len(names)], x) for i, x in p))
    v = by_pairs.check_word(tuple((names[i % len(names)], x) for i, x in q))
    uv = u + v
    pairs = [
        (u, rename_word(u, ren)),
        (u, v),
        (u, rename_word(v, ren)),
        (invert_word(uv), rename_word(invert_word(v) + invert_word(u), ren)),
        (uv, rename_word(v + u, ren)),
    ]
    for g, h in pairs:
        verdict = equal(Element(by_pairs, g), Element(by_pairs, h))
        assert verdict is is_trivial(Element(by_quotient, g + invert_word(h)))
        # a budget of one pair either decides the same or gives up
        small = equal(Element(tiny, g), Element(tiny, h), 1)
        assert small is verdict or isinstance(small, Exceeded)
    assert equal(Element(by_pairs, u), Element(by_pairs, rename_word(u, ren))) is True


def test_equality_budget_counts_bisimulation_pairs():
    sys = parse_system("alphabet 2\na = (e, a) [1 0]\nb = (e, b) [1 0]\n")
    aa, bb = Element.parse(sys, "a*a"), Element.parse(sys, "b*b")
    # (a*a, b*b) sections to (a, b) at both letters: two pairs in all
    res = equal(aa, bb, 1)
    assert isinstance(res, Exceeded) and res.budget == 1
    assert equal(aa, bb, 2) is True
    # once proven, the pair is joined and no walk is needed
    assert equal(aa, bb, 1) is True


def test_equal_remembers_the_quotients_it_proves_trivial():
    # t is trivial; proving a == b merges the pairs (a, b), (e, t) and
    # (a, a*t), so b is represented by a and each a*b^-1 by e
    sys = parse_system("alphabet 2\na = (e, a) [1 0]\nb = (t, a*t) [1 0]\nt = (e, t)\n")
    assert equal(Element.parse(sys, "a"), Element.parse(sys, "b")) is True
    assert sys.find(Element.parse(sys, "b").word) == Element.parse(sys, "a").word
    for w in ("a*b^-1", "t^-1", "a*t^-1*a^-1"):
        assert sys.find(Element.parse(sys, w).word) == ()
