"""The word-layer kernel against a plain reference.

The reference evaluates sections by concatenating the rows' section
words and then reducing the whole result, folds root permutations with
a tuple generator, and builds the row of s^-1 on first use.  The kernel
must give the same tuples on every word, since union-find tie-breaks,
interner key order and witness names all follow from them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from arboreal import Element, equal, random_bounded
from arboreal.perms import identity, inverse as perm_inverse
from arboreal.system import EMPTY, FRSystem, invert_word, join, parse_system, reduce_word

from conftest import BRANCH, ZOO


class Reference:
    """Section, root permutation and power sections as evaluated before
    the rows: concatenate then reduce, one generator step per image."""

    def __init__(self, sys: FRSystem):
        self.sys = sys
        self.inv: dict = {}

    def row(self, s: str, x: int):
        p, secs = self.sys.definition(s)
        if x == 1:
            return p, secs
        if s not in self.inv:
            ip = perm_inverse(p)
            self.inv[s] = (ip, tuple(invert_word(secs[z]) for z in ip))
        return self.inv[s]

    def root_perm(self, w):
        p = identity(self.sys.degree)
        for s, x in w:
            sp = self.row(s, x)[0]
            p = tuple(sp[y] for y in p)
        return p

    def section(self, w, letter):
        out = []
        y = letter
        for s, x in w:
            p, secs = self.row(s, x)
            out.extend(secs[y])
            y = p[y]
        return reduce_word(out)

    def power_sections(self, w, x):
        p = self.root_perm(w)
        out = [EMPTY]
        y = x
        while True:
            out.append(reduce_word(out[-1] + self.section(w, y)))
            y = p[y]
            if y == x:
                return out


def systems():
    """BRANCH, ZOO, or random_bounded at degree 2..6."""
    fixed = st.sampled_from((BRANCH, ZOO)).map(parse_system)
    drawn = st.builds(
        random_bounded,
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=6),
    )
    return st.one_of(fixed, drawn)


factors = st.lists(st.tuples(st.integers(min_value=0, max_value=50), st.sampled_from((1, -1))), max_size=8)


def word_of(sys, picks):
    names = sys.symbols
    return reduce_word(tuple((names[i % len(names)], x) for i, x in picks))


@st.composite
def system_and_words(draw):
    """A system and reduced words over it, among them conjugates u*v*u^-1
    and near-inverses whose sections cancel heavily where they meet."""
    sys = draw(systems())
    u, v = word_of(sys, draw(factors)), word_of(sys, draw(factors))
    words = [u, v, reduce_word(u + v + invert_word(u)), reduce_word(u + v + invert_word(u + v[:1]))]
    return sys, words


@settings(max_examples=120, deadline=None)
@given(system_and_words())
def test_sections_and_root_permutations_match_the_reference(drawn):
    sys, words = drawn
    ref = Reference(sys)
    for w in words:
        assert sys.root_perm(w) == ref.root_perm(w)
        for x in range(sys.degree):
            expected = ref.section(w, x)
            assert sys.section(w, x) == expected
            assert sys.section(w, x) == expected  # and again from the cache
            assert sys.power_sections(w, x) == ref.power_sections(w, x)


@settings(max_examples=120, deadline=None)
@given(system_and_words())
def test_join_is_the_reduced_product(drawn):
    sys, words = drawn
    words = words + [EMPTY, words[0][:1]]
    for u in words:
        assert join(u, invert_word(u)) == EMPTY
        assert join(invert_word(u), u) == EMPTY
        for v in words:
            assert join(u, v) == reduce_word(u + v)


@settings(max_examples=80, deadline=None)
@given(system_and_words())
def test_a_word_times_its_inverse_sections_to_the_empty_word(drawn):
    sys, words = drawn
    for w in words:
        iw = invert_word(w)
        p = sys.root_perm(w)
        assert sys.root_perm(iw) == perm_inverse(p)
        for x in range(sys.degree):
            assert sys.section(join(w, iw), x) == EMPTY
            # (w * w^-1)|_x = w|_x * w^-1|_(x w), cancelled where they meet
            assert join(sys.section(w, x), sys.section(iw, p[x])) == EMPTY


def _adding_machine():
    return parse_system("alphabet 3\na = (e, e, a) [1 2 0]\n")


def test_define_refuses_exponents_other_than_plus_or_minus_one():
    sys = _adding_machine()
    with pytest.raises(ValueError, match=r"\('a', 2\)"):
        sys.define("b", (0, 1, 2), ((("a", 2),), (), ()))
    assert "b" not in sys.symbols
    sys.define("c", (0, 1, 2), ((("a", -1),), (), ()))
    c = Element(sys, (("c", 1),))
    assert equal(c, Element(sys, ())) is False
    with pytest.raises(ValueError, match="bad exponent"):
        Element(sys, (("a", 2),))


def test_validate_still_reports_undefined_symbols():
    sys = _adding_machine()
    sys.define("b", (0, 1, 2), ((("z", 1),), (), ()))
    with pytest.raises(ValueError, match="undefined symbol 'z'"):
        sys.validate()


@pytest.mark.parametrize("word,message", [
    ((("a", 2), ("a", -2)), "bad exponent 2"),
    ((("a", 1), ("a", 5), ("a", -5)), "bad exponent 5"),
    ((("z", 1), ("z", -1)), "undefined symbol 'z'"),
])
def test_elements_refuse_bad_factors_that_would_cancel(word, message):
    # the factors are checked before the word is reduced, as define does
    sys = _adding_machine()
    with pytest.raises(ValueError, match=message):
        Element(sys, word)
    assert Element(sys, (("a", 1), ("a", -1), ("a", 1))).word == (("a", 1),)
