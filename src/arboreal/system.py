"""Functionally recursive systems over a finite alphabet.

A system is a set of named symbols.  Each symbol has a root permutation
and one section word per letter; section words may reference any symbol
of the system, including the symbol itself and symbols defined later in
the file.  Group elements are words over the symbols (see elements.py).

Text format, one definition per line:

    alphabet 2
    a = (e, a) [1 0]        # adding machine
    b = (a, b)              # permutation omitted: identity

Words are `e` or `*`-joined factors `sym` / `sym^-1`.  The name `e` is
reserved for the trivial element.
"""

from __future__ import annotations

import re
from functools import cache
from operator import itemgetter

from .perms import Perm, check_perm, format_perm, identity, inverse as perm_inverse, is_identity

# a word is a tuple of (symbol, exponent) with exponent +1 or -1
Word = tuple[tuple[str, int], ...]

EMPTY: Word = ()
TRIVIAL_NAME = "e"

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# vertices of the lowest level a signature reads: its depth is the
# deepest k with degree**(k - 1) <= SIGNATURE_LEAVES
SIGNATURE_LEAVES = 64
# the bytes.translate table that adds an offset (below 256) modulo 256
_shift = cache(lambda offset: bytes(range(offset, 256)) + bytes(range(offset)))


class DslError(ValueError):
    """Parse or validation failure, with 1-based line/column position."""

    def __init__(self, msg: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, msg))
        self.line = line
        self.col = col


def reduce_word(w) -> Word:
    """Free reduction: cancel adjacent sym * sym^-1 pairs."""
    out: list[tuple[str, int]] = []
    for f in w:
        if out and out[-1][0] == f[0] and out[-1][1] == -f[1]:
            out.pop()
        else:
            out.append(f)
    return tuple(out)


def join(u: Word, v: Word) -> Word:
    """Reduced u*v for reduced words u and v: letters cancel only where
    the two words meet."""
    if u and v and u[-1][0] == v[0][0] and u[-1][1] == -v[0][1]:
        i, n = 1, min(len(u), len(v))
        while i < n and u[-1 - i][0] == v[i][0] and u[-1 - i][1] == -v[i][1]:
            i += 1
        return u[: len(u) - i] + v[i:]
    return u + v


def invert_word(w: Word) -> Word:
    return tuple((s, -x) for s, x in reversed(w))


def format_word(w: Word) -> str:
    if not w:
        return TRIVIAL_NAME
    return "*".join(s if x == 1 else s + "^-1" for s, x in w)


class FRSystem:
    """Registry of symbol definitions plus evaluation caches.

    Append-only: new symbols may be defined at any time but existing
    definitions never change, so cached sections, root permutations and
    resolved equalities stay valid.  The same holds for the rows, one
    per signed factor, s and s^-1 alike, filled on the factor's first
    evaluation (many symbols are evaluated with one sign only, or not
    at all).  A row holds, per letter y, the factor's section at y, the
    inverse of that section's first factor and the image of y; the row
    of s^-1 inverts the sections of s indexed by preimage letter.  The
    itemgetter of the factor's root permutation is kept beside the row,
    one object per distinct permutation, so that rows hold nothing the
    cyclic garbage collector has to keep traversing.  So do the
    signature tables, one per signed factor and level, built from the
    definitions when a signature first needs them.  Reads are safe from
    multiple threads under the GIL; concurrent definition is not
    supported.

    _activity (classify.polynomial_degree) and _space, the deciders'
    bounded.ConfigSpace, are other modules' caches.  The space lives as
    long as the system and grows with every query on it, which is sound
    because definitions are append-only and its keys are semantic.
    Concurrent deciders on one system are unsupported, as concurrent
    definition is.

    fresh_names is the one name allocator: merges and every conjugator
    synthesis take the names of the symbols they define from it.
    """

    def __init__(self, degree: int):
        if degree < 2:
            raise ValueError("alphabet degree must be at least 2")
        self.degree = degree
        self._sig_depth = 1
        while degree**self._sig_depth <= SIGNATURE_LEAVES:
            self._sig_depth += 1
        self._defs: dict[str, tuple[Perm, tuple[Word, ...]]] = {}
        self._order: list[str] = []
        # caches, keyed by reduced words
        self._root: dict[Word, Perm] = {}
        self._sect: dict[tuple[Word, int], Word] = {}
        self._sig: dict[Word, int] = {}
        self._classes: dict[bytes | tuple, int] = {}
        self._parent: dict[Word, Word] = {}
        self._eq: dict[tuple[Word, Word], bool] = {}
        self._activity: dict[Word, object] = {}
        self._space = None
        # per signed factor: per letter (section, inverse of its first
        # factor or None, image), and the itemgetter of its permutation
        self._rows: dict[tuple[str, int], tuple] = {}
        self._takes: dict[tuple[str, int], itemgetter] = {}
        self._getters: dict[Perm, itemgetter] = {}
        # per level size, per signed factor: its table on that level
        self._tables: dict[int, dict[tuple[str, int], bytes | tuple]] = {}

    # -- definitions ---------------------------------------------------

    def define(self, name: str, perm, sections) -> None:
        if name == TRIVIAL_NAME:
            raise ValueError("'%s' is reserved for the trivial element" % TRIVIAL_NAME)
        if not _NAME_RE.fullmatch(name):
            raise ValueError("invalid symbol name %r" % name)
        if name in self._defs:
            raise ValueError("symbol %r already defined" % name)
        p = check_perm(perm, self.degree)
        sections = tuple(sections)
        for w in sections:
            for f in w:
                if f[1] not in (1, -1):
                    raise ValueError("factor %r in a section of %r: exponent must be 1 or -1" % (f, name))
        secs = tuple(reduce_word(s) for s in sections)
        if len(secs) != self.degree:
            raise ValueError("expected %d sections for %r, got %d" % (self.degree, name, len(secs)))
        self._defs[name] = (p, secs)
        self._order.append(name)

    def validate(self) -> None:
        """Check every referenced symbol is defined."""
        for name in self._order:
            _, secs = self._defs[name]
            for w in secs:
                for s, _ in w:
                    if s not in self._defs:
                        raise ValueError("section of %r uses undefined symbol %r" % (name, s))

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self._order)

    def definition(self, name: str) -> tuple[Perm, tuple[Word, ...]]:
        return self._defs[name]

    def fresh_names(self, bases) -> list[str]:
        """One name per base, used by no defined symbol and by no other
        name of the list: the base itself when that is free and valid,
        else the first free base_2, base_3, ...  Nothing is reserved: a
        later call may hand out a name again until it is defined."""
        defs, handed, out = self._defs, set(), []
        for base in bases:
            name = base
            if name in defs or name in handed or name == TRIVIAL_NAME or not _NAME_RE.fullmatch(name):
                i = 2
                while (name := "%s_%d" % (base, i)) in defs or name in handed:
                    i += 1
            handed.add(name)
            out.append(name)
        return out

    # -- word-level evaluation ------------------------------------------

    def check_word(self, w) -> Word:
        # the raw factors, so that bad ones which would cancel are refused
        w = tuple(w)
        for s, x in w:
            if s not in self._defs:
                raise ValueError("undefined symbol %r" % s)
            if x not in (1, -1):
                raise ValueError("bad exponent %r" % x)
        return reduce_word(w)

    def root_perm(self, w: Word) -> Perm:
        cached = self._root.get(w)
        if cached is not None:
            return cached
        takes = self._takes
        p = identity(self.degree)
        # a factor's getter maps q to q o perm (degree >= 2, so a tuple);
        # folding from the right gives y -> y^w
        for f in reversed(w):
            p = (takes.get(f) or self._fill_row(f)[0])(p)
        self._root[w] = p
        return p

    def section(self, w: Word, letter: int) -> Word:
        """Section of the word at a first-level letter.

        Uses (g*h)|_x = g|_x * h|_(x^g) and g^-1|_x = (g|_(x^(g^-1)))^-1.
        """
        key = (w, letter)
        cached = self._sect.get(key)
        if cached is not None:
            return cached
        rows = self._rows
        out: list[tuple[str, int]] = []
        y = letter
        for f in w:
            sec, head, y = (rows.get(f) or self._fill_row(f)[1])[y]
            if not sec:
                continue
            if out and out[-1] == head:
                # out and sec are reduced: they cancel only where they meet
                out.pop()
                i, n = 1, len(sec)
                while i < n and out and out[-1][0] == sec[i][0] and out[-1][1] == -sec[i][1]:
                    out.pop()
                    i += 1
                out.extend(sec[i:])
            else:
                out.extend(sec)
        res = tuple(out)
        self._sect[key] = res
        return res

    def _fill_row(self, f: tuple[str, int]) -> tuple:
        """(getter, row) of the signed factor f, built on its first
        evaluation."""
        s, x = f
        p, secs = self._defs[s]
        if x == -1:
            p = perm_inverse(p)
            secs = tuple(invert_word(secs[z]) for z in p)
        heads = [(w[0][0], -w[0][1]) if w else None for w in secs]
        take = self._takes[f] = self._getters.setdefault(p, itemgetter(*p))
        row = self._rows[f] = tuple(zip(secs, heads, p))
        return take, row

    def power_sections(self, w: Word, x: int) -> list[Word]:
        """[w^t|_x for t = 0..m], m the length of the orbit of x under
        the root permutation of w, in one walk of that orbit:
        w^(t+1)|_x = w^t|_x * w|_(x w^t)."""
        p = self.root_perm(w)
        out = [EMPTY]
        y = x
        while True:
            out.append(join(out[-1], self.section(w, y)))
            y = p[y]
            if y == x:
                return out

    def signature(self, w: Word) -> int:
        """Class of the permutation w induces on level _sig_depth: equal
        exactly when the root permutations agree at every vertex above
        it, a cheap invariant that spares bisimulations."""
        cls = self._sig.get(w)
        if cls is None:
            perm = self._level_perm(w, self.degree**self._sig_depth)
            cls = self._sig[w] = self._classes.setdefault(perm, len(self._classes))
        return cls

    def _level_perm(self, w: Word, n: int):
        """The permutation w induces on the n vertices of a level, in
        lexicographic order: the product of its factors' tables, composed
        by bytes.translate up to 256 vertices, else as tuples."""
        tables = self._tables.get(n) or self._tables.setdefault(n, {})
        if n <= 256:
            p = _shift(0)[:n]
            for f in w:
                p = p.translate(tables.get(f) or self._table(f, n))
        else:
            p = tuple(range(n))
            for f in w:
                p = tuple(map((tables.get(f) or self._table(f, n)).__getitem__, p))
        return p

    def _table(self, f: tuple[str, int], n: int):
        """Table of the signed factor f on the level of n vertices: for a
        symbol s, vertex x*u goes to (x^s)*(u^(s|_x)), the block of x^s
        shifted by the permutation of the section one level up (at most
        SIGNATURE_LEAVES vertices, so bytes); s^-1 inverts the table of s.
        Bytes tables are padded to the 256 entries translate reads."""
        s, x = f
        tables, ident = self._tables[n], _shift(0)
        if x == -1:
            pos = tables.get((s, 1)) or self._table((s, 1), n)
            t = bytes.maketrans(pos[:n], ident[:n]) if n <= 256 else tuple(sorted(range(n), key=pos.__getitem__))
        else:
            m = n // self.degree
            lower = self._tables.get(m) or self._tables.setdefault(m, {})
            perm, secs = self._defs[s]
            t = []
            for sec, y in zip(secs, perm):
                q = ident[:m]
                if m > 1:
                    for g in sec:
                        q = q.translate(lower.get(g) or self._table(g, m))
                t.append(q.translate(_shift(y * m)) if n <= 256 else tuple(v + y * m for v in q))
            t = b"".join(t) + ident[n:] if n <= 256 else tuple(v for block in t for v in block)
        tables[f] = t
        return t

    # -- union-find over words proven equal ------------------------------

    def find(self, w: Word) -> Word:
        parent = self._parent
        root = parent.get(w)
        if root is None:  # most words are their own representative
            return w
        while root in parent:
            root = parent[root]
        while w != root:
            parent[w], w = root, parent[w]
        return root

    def union(self, u: Word, v: Word) -> None:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return
        # keep the shorter word as representative; ties break lexically
        if (len(rv), rv) < (len(ru), ru):
            ru, rv = rv, ru
        self._parent[rv] = ru


def merge_into(dst: FRSystem, src: FRSystem) -> dict[str, str]:
    """Copy the definitions of src into dst under fresh names.

    Returns the renaming map.  Words of src are translated with
    rename_word.  The two systems must share the alphabet degree.
    """
    if dst.degree != src.degree:
        raise ValueError("cannot merge systems with different alphabets")
    ren = dict(zip(src.symbols, dst.fresh_names(src.symbols)))
    for name in src.symbols:
        perm, secs = src.definition(name)
        dst.define(ren[name], perm, tuple(rename_word(w, ren) for w in secs))
    return ren


def rename_word(w: Word, ren: dict[str, str]) -> Word:
    return tuple((ren.get(s, s), x) for s, x in w)


# -- parsing ------------------------------------------------------------


def parse_word(text: str, line: int = 1, col: int = 1) -> Word:
    """Parse a section word: `e` or `*`-joined `sym` / `sym^-1` factors."""
    out: list[tuple[str, int]] = []
    pos = 0
    text = text.strip()
    if not text:
        raise DslError("empty word", line, col)
    for part in text.split("*"):
        p = part.strip()
        here = col + pos
        pos += len(part) + 1
        if not p:
            raise DslError("empty factor", line, here)
        exp = 1
        if p.endswith("^-1"):
            exp = -1
            p = p[:-3].strip()
        elif "^" in p:
            raise DslError("only the exponent ^-1 is supported", line, here)
        if p == TRIVIAL_NAME:
            if exp == -1:
                raise DslError("'e' takes no exponent", line, here)
            continue
        if not _NAME_RE.fullmatch(p):
            raise DslError("invalid symbol name %r" % p, line, here)
        out.append((p, exp))
    return reduce_word(tuple(out))


def _split_sections(body: str, line: int, col: int) -> list[tuple[str, int]]:
    """Split the inside of (...) on top-level commas, keeping column offsets."""
    parts = []
    start = 0
    for i, ch in enumerate(body):
        if ch == ",":
            parts.append((body[start:i], col + start))
            start = i + 1
    parts.append((body[start:], col + start))
    return parts


def parse_system(text: str) -> FRSystem:
    sys: FRSystem | None = None
    pending: list[tuple[str, str, Perm | None, list[Word], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if sys is None:
            m = re.fullmatch(r"\s*alphabet\s+(\d+)\s*", line)
            if not m:
                raise DslError("expected 'alphabet <degree>' on the first line", lineno, 1)
            degree = int(m.group(1))
            if degree < 2:
                raise DslError("alphabet degree must be at least 2", lineno, line.find(m.group(1)) + 1)
            sys = FRSystem(degree)
            continue
        m = re.match(r"\s*([A-Za-z][A-Za-z0-9_]*)\s*=\s*\(", line)
        if not m:
            raise DslError("expected '<name> = (w_0, ..., w_%d) [perm]'" % (sys.degree - 1), lineno, 1)
        name = m.group(1)
        if name == TRIVIAL_NAME:
            raise DslError("'e' is reserved and cannot be defined", lineno, line.find(name) + 1)
        open_at = m.end() - 1
        close_at = line.find(")", open_at)
        if close_at < 0:
            raise DslError("unclosed section list", lineno, open_at + 1)
        sections = []
        for part, pcol in _split_sections(line[open_at + 1 : close_at], lineno, open_at + 2):
            sections.append(parse_word(part, lineno, pcol))
        if len(sections) != sys.degree:
            raise DslError(
                "expected %d sections, got %d" % (sys.degree, len(sections)), lineno, open_at + 1
            )
        rest = line[close_at + 1 :].strip()
        if rest:
            pm = re.fullmatch(r"\[\s*((?:\d+\s*)+)\]", rest)
            if not pm:
                raise DslError("bad permutation literal %r" % rest, lineno, close_at + 2)
            images = [int(t) for t in pm.group(1).split()]
            if sorted(images) != list(range(sys.degree)):
                raise DslError("not a permutation of 0..%d: %r" % (sys.degree - 1, images), lineno, close_at + 2)
            perm = tuple(images)
        else:
            perm = identity(sys.degree)
        try:
            sys.define(name, perm, sections)
        except ValueError as exc:
            raise DslError(str(exc), lineno, 1) from None
    if sys is None:
        raise DslError("empty input", 1, 1)
    try:
        sys.validate()
    except ValueError as exc:
        raise DslError(str(exc), 1, 1) from None
    return sys


def format_system(sys: FRSystem, roots: list[str] | None = None) -> str:
    """Render definitions back to the text format.

    With roots given, only symbols reachable from them are printed, in
    definition order; this keeps output stable when a system has been
    extended by later constructions.
    """
    if roots is None:
        names = list(sys.symbols)
    else:
        keep = set()
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n in keep:
                continue
            keep.add(n)
            for w in sys.definition(n)[1]:
                stack.extend(s for s, _ in w)
        names = [n for n in sys.symbols if n in keep]
    lines = ["alphabet %d" % sys.degree]
    for n in names:
        perm, secs = sys.definition(n)
        body = ", ".join(format_word(w) for w in secs)
        if is_identity(perm):
            lines.append("%s = (%s)" % (n, body))
        else:
            lines.append("%s = (%s) %s" % (n, body, format_perm(perm)))
    return "\n".join(lines) + "\n"
