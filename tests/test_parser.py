"""DSL grammar: round trips, defaults, and rejection of malformed input."""

import pytest

from arboreal import DslError, Element, equal, format_word
from arboreal.system import format_system, merge_into, parse_system, parse_word

from conftest import CARRY, TWISTED, one


def test_round_trip_is_stable():
    sys = parse_system(CARRY)
    text = format_system(sys)
    again = parse_system(text)
    assert format_system(again) == text


def test_round_trip_preserves_semantics():
    sys = parse_system(TWISTED)
    again = parse_system(format_system(sys))
    ren = merge_into(sys, again)
    for name in ("a", "b"):
        assert equal(one(sys, name), one(sys, ren[name])) is True


def test_identity_perm_may_be_omitted():
    sys = parse_system("alphabet 2\nf = (e, e) [1 0]\ng = (f, f)\n")
    perm, _ = sys.definition("g")
    assert perm == (0, 1)


def test_inverse_factors_reduce_at_parse_time():
    sys = parse_system("alphabet 2\na = (e, a) [1 0]\nw = (a*a^-1, a*a)\n")
    _, secs = sys.definition("w")
    assert secs == ((), (("a", 1), ("a", 1)))


def test_degree_three_perm_literal():
    sys = parse_system("alphabet 3\nr = (e, e, r) [1 2 0]\n")
    perm, _ = sys.definition("r")
    assert perm == (1, 2, 0)


@pytest.mark.parametrize(
    "text",
    [
        "a = (e, a) [1 0]\n",                     # missing header
        "alphabet 2\na = (e, a, e) [1 0]\n",      # arity mismatch
        "alphabet 2\na = (e, b) [1 0]\n",         # undefined symbol
        "alphabet 2\na = (e, a^-2) [1 0]\n",      # unsupported exponent
        "alphabet 2\na = (e, a) [2 0]\n",         # image out of range
        "alphabet 2\na = (e, a) [0 0]\n",         # not a bijection
        "alphabet 2\na = (e, a) [1 0]\na = (a, e)\n",  # redefinition
        "alphabet 2\ne = (e, e) [1 0]\n",         # the trivial name is reserved
        "alphabet x\n",                            # degree is not a number
    ],
)
def test_malformed_input_is_rejected(text):
    with pytest.raises(DslError):
        parse_system(text)


def test_errors_carry_positions():
    try:
        parse_system("alphabet 2\na = (e, a^-2) [1 0]\n")
    except DslError as exc:
        assert exc.line == 2
    else:  # pragma: no cover
        pytest.fail("expected a DslError")


def test_parse_word_forms():
    assert parse_word("e") == ()
    assert parse_word("a*b^-1") == (("a", 1), ("b", -1))
    with pytest.raises(DslError):
        parse_word("")
    with pytest.raises(DslError):
        parse_word("a^2")


def test_format_word_round_trip():
    w = (("a", 1), ("b", -1), ("a", 1))
    assert parse_word(format_word(w)) == w
    assert format_word(()) == "e"


def test_fresh_names_do_not_collide():
    sys = parse_system(TWISTED)
    seen = set(sys.symbols)
    for _ in range(5):
        [name] = sys.fresh_names(["a"])
        sys.define(name, (0, 1), [(), ()])
        assert name not in seen
        seen.add(name)
    # one batch: names are distinct from each other as well
    batch = sys.fresh_names(["a", "a", "a_2", "c", "c", "e"])
    assert len(set(batch)) == len(batch)
    assert not seen & set(batch)
    assert batch[3] == "c" and "e" not in batch


def test_fresh_names_reserve_nothing():
    # with no definition in between, a second call hands out the same names
    sys = parse_system(TWISTED)
    first = sys.fresh_names(["a", "h", "h"])
    assert first == ["a_2", "h", "h_2"]
    assert sys.fresh_names(["a", "h", "h"]) == first


def test_merge_renames_past_names_it_hands_out():
    # dst has a; src has a and a_2: a must not be renamed onto src's a_2
    dst = parse_system(TWISTED)
    src = parse_system("alphabet 2\na = (e, a_2) [1 0]\na_2 = (a, e)\n")
    ren = merge_into(dst, src)
    assert ren == {"a": "a_2", "a_2": "a_2_2"}
    assert dst.definition("a_2")[1][1] == (("a_2_2", 1),)
    dst.validate()


def test_merge_translates_sections():
    dst = parse_system(TWISTED)
    src = parse_system(CARRY)
    ren = merge_into(dst, src)
    assert set(ren) == {"s", "p", "q"}
    _, secs = dst.definition(ren["p"])
    assert secs[0] == ((ren["s"], 1),)
    dst.validate()


def test_merge_requires_matching_alphabets():
    with pytest.raises(ValueError):
        merge_into(parse_system(TWISTED), parse_system("alphabet 3\nr = (e, e, r) [1 2 0]\n"))
