"""Order decisions and their consistency with leaf-level truncations."""

from arboreal import (
    equal,
    inverse,
    is_trivial,
    multiply,
    order,
    order_from_graph,
    order_graph,
    power,
    truncated_order,
)
from arboreal.system import parse_system

from conftest import BRANCH, CARRY, ODOMETER, one


def test_odometer_has_infinite_order(odometer):
    _, a = odometer
    res = order(a)
    assert res.tag == "infinite"
    assert res.value is None


def test_feeding_chain_has_infinite_order():
    sys = parse_system("alphabet 2\na = (e, a) [1 0]\nb = (a, b)\n")
    assert order(one(sys, "b")).tag == "infinite"


def test_self_feeding_swap_has_order_two(carry):
    # the square threads the swap into itself and cancels everywhere
    _, p, q = carry
    for g in (p, q):
        res = order(g)
        assert res.tag == "finite" and res.value == 2
        assert is_trivial(power(g, 2))
        assert not is_trivial(g)


def test_involution_orders():
    sys = parse_system("alphabet 2\nl = (l, l) [1 0]\ns = (e, e) [1 0]\n")
    assert order(one(sys, "l")).value == 2
    assert order(one(sys, "s")).value == 2
    assert order(multiply(one(sys, "l"), one(sys, "l"))).value == 1


def test_infinite_witness_is_a_power_cycle(odometer):
    _, a = odometer
    res = order(a)
    assert res.witness  # a circuit in the order graph certifies divergence


def test_order_from_a_prebuilt_graph(carry):
    _, p, q = carry
    for g in (p, q, multiply(p, inverse(q))):
        direct = order(g)
        via = order_from_graph(order_graph(g))
        assert (direct.tag, direct.value) == (via.tag, via.value)


def test_small_cap_reports_unknown(branch, carry):
    # the reason names the cap the closure ran with; at cap 0 it once
    # counted the elements found less one, which read 1 where the first
    # orbit-power section was new
    _, b = branch
    _, p, _ = carry
    for g, cap in ((b, 50), (b, 0), (p, 0)):
        res = order(g, cap)
        assert res.tag == "unknown"
        assert res.reason == "closure exceeded cap of %d elements" % cap
        assert order_graph(g, cap).cap == cap


def test_finite_orders_match_truncations(carry):
    _, p, q = carry
    for g in (q, multiply(p, inverse(p))):
        res = order(g)
        assert res.tag == "finite"
        assert truncated_order(g, 8) == res.value
        assert truncated_order(g, 9) == res.value


def test_truncated_orders_divide_upward(odometer):
    _, a = odometer
    values = [truncated_order(a, n) for n in range(1, 9)]
    assert values == [2 ** n for n in range(1, 9)]
    for lo, hi in zip(values, values[1:]):
        assert hi % lo == 0
