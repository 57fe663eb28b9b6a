"""Permutations of {0, ..., d-1} stored as image tuples.

All group actions in this package are right actions, so permutations
compose left to right: x^(p*q) = (x^p)^q.
"""

from __future__ import annotations

import functools
import math

Perm = tuple[int, ...]

# largest centralizer order |C(p)| whose conjugators are enumerated:
# 8!, so every permutation of degree at most 8 is accepted
CONJUGATOR_CAP = math.factorial(8)


class DegreeTooLarge(ValueError):
    pass


def identity(d: int) -> Perm:
    return tuple(range(d))


def is_identity(p: Perm) -> bool:
    return all(p[x] == x for x in range(len(p)))


def compose(p: Perm, q: Perm) -> Perm:
    """Right-action product: first apply p, then q."""
    return tuple(q[p[x]] for x in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def check_perm(images, d: int) -> Perm:
    p = tuple(images)
    if len(p) != d or sorted(p) != list(range(d)):
        raise ValueError("not a permutation of 0..%d: %r" % (d - 1, images))
    return p


def orbits(p: Perm) -> list[tuple[int, ...]]:
    """Orbits of <p> on letters, each starting at its least element,
    listed in order of their least elements."""
    seen = [False] * len(p)
    out = []
    for x in range(len(p)):
        if seen[x]:
            continue
        orb = [x]
        seen[x] = True
        y = p[x]
        while y != x:
            seen[y] = True
            orb.append(y)
            y = p[y]
        out.append(tuple(orb))
    return out


def conjugators(p: Perm, q: Perm) -> tuple[Perm, ...]:
    """All r with r^-1 * p * r == q, in lexicographic image order.

    Such an r maps each cycle (x, xp, xp^2, ...) of p onto a cycle
    (y, yq, yq^2, ...) of q of the same length, y the image of x.  The
    cycles of p are matched in order of least letter, each to an unused
    cycle of q, trying y in increasing order; so each conjugator comes
    out once, already in lexicographic order, at a cost of about
    |C(p)| * d instead of d!.  |C(p)| = prod k^m_k * m_k! is the order
    of the centralizer of p, m_k its number of k-cycles.  Raises
    DegreeTooLarge when q has the cycle type of p and |C(p)| exceeds
    CONJUGATOR_CAP; other cycle types give ().

    A plain function around a memo on (p, q), so that call-counting
    wrappers such as the bench tracer see every call.
    """
    return _conjugators(p, q)


@functools.lru_cache(maxsize=4096)
def _conjugators(p: Perm, q: Perm) -> tuple[Perm, ...]:
    d = len(p)
    if d != len(q):
        raise ValueError("degree mismatch")
    cycles, targets = orbits(p), orbits(q)
    lengths = sorted(map(len, cycles))
    if lengths != sorted(map(len, targets)):
        return ()
    size = 1
    for k in set(lengths):
        m = lengths.count(k)
        size *= k**m * math.factorial(m)
    if size > CONJUGATOR_CAP:
        raise DegreeTooLarge(
            "%d conjugators at degree %d exceed enumeration cap %d" % (size, d, CONJUGATOR_CAP))
    # per cycle length: each letter y on a cycle of q of that length, with
    # the index of its cycle and the cycle read from y, by increasing y
    starts: dict = {}
    for n, c in enumerate(targets):
        for s in range(len(c)):
            starts.setdefault(len(c), []).append((c[s], n, c[s:] + c[:s]))
    for row in starts.values():
        row.sort()
    r = [0] * d
    used = [False] * len(targets)
    found = []

    def match(k):
        if k == len(cycles):
            found.append(tuple(r))
            return
        cyc = cycles[k]
        for _, n, image in starts[len(cyc)]:
            if not used[n]:
                used[n] = True
                for x, z in zip(cyc, image):
                    r[x] = z
                match(k + 1)
                used[n] = False

    match(0)
    return tuple(found)


def format_perm(p: Perm) -> str:
    return "[" + " ".join(str(x) for x in p) + "]"
