"""Exact relations between powers of a fixed finite carrier ({1..4} or {0,1}).

Everything here is a pure value: spaces, tuples and relations are immutable
and hashable, and every operation returns a fresh value.  Set semantics
throughout; there are no tolerances anywhere.
"""

from __future__ import annotations

import itertools
import os
from collections import namedtuple
from typing import Iterator, Tuple

Digits = Tuple[int, ...]


class CapacityError(Exception):
    """An intermediate object would exceed the configured arity ceiling."""


class CompositionError(TypeError):
    """Codomain/domain mismatch in a sequential composite."""


def max_arity() -> int:
    """Largest allowed arity for any intermediate object.

    SPEK_MAX_CELLS gives the ceiling as a cell count: the largest arity
    with 4**arity cells at most, for every theory, HalfSpek's base-2
    carrier included.  Unset, the ceiling is arity 10 per side.
    """
    text = os.environ.get("SPEK_MAX_CELLS")
    if text is None:
        return 10
    try:
        cells = int(text)
    except ValueError:
        raise ValueError("SPEK_MAX_CELLS must be an integer, got %r"
                         % text) from None
    arity = 0
    while 4 ** (arity + 1) <= cells:
        arity += 1
    return arity


class Space(namedtuple("Space", "base arity")):
    """A power of a fixed base set: base 4 ({1,2,3,4}), base 2 ({0,1}) or the unit.

    The unit object is canonically (base=1, arity=0); any arity-0 space is
    normalised to it on construction.
    """

    __slots__ = ()

    def __new__(cls, base=1, arity=0):
        if base not in (1, 2, 4):
            raise ValueError("base must be 1, 2 or 4, got %r" % (base,))
        if arity < 0:
            raise ValueError("arity must be non-negative")
        if arity == 0 or base == 1:
            base, arity = 1, 0
        return super().__new__(cls, base, arity)

    def digits(self) -> range:
        # 1-based digits for the 4-element carrier, 0-based for the 2-element one
        if self.base == 4:
            return range(1, 5)
        if self.base == 2:
            return range(0, 2)
        return range(0)

    def tuples(self) -> Iterator[Digits]:
        """All elements in canonical (lexicographic) order."""
        return itertools.product(self.digits(), repeat=self.arity)

    def __mul__(self, other: "Space") -> "Space":
        if self.arity == 0:
            return other
        if other.arity == 0:
            return self
        if self.base != other.base:
            raise CompositionError(
                "cannot combine base-%d and base-%d spaces" % (self.base, other.base))
        return Space(self.base, self.arity + other.arity)

    def __str__(self):
        return "%d^%d" % (self.base if self.arity else 1, self.arity)


I = Space()
IV = Space(4, 1)
II = Space(2, 1)


def _fmt(t: Digits) -> str:
    return "".join(str(d) for d in t) if t else "*"


class Relation(namedtuple("Relation", "dom cod pairs")):
    """A relation dom -> cod as a frozen set of (dom tuple, cod tuple) pairs."""

    __slots__ = ()

    @property
    def is_state(self) -> bool:
        return self.dom.arity == 0

    def then(self, other: "Relation") -> "Relation":
        if self.cod != other.dom:
            raise CompositionError("cannot compose %s -> %s with %s -> %s"
                                   % (self.dom, self.cod, other.dom, other.cod))
        by_mid = {}
        for b, c in other.pairs:
            by_mid.setdefault(b, []).append(c)
        out = set()
        for a, b in self.pairs:
            for c in by_mid.get(b, ()):
                out.add((a, c))
        return Relation(self.dom, other.cod, frozenset(out))

    def tensor(self, other: "Relation") -> "Relation":
        dom = self.dom * other.dom
        cod = self.cod * other.cod
        if max(dom.arity, cod.arity) > max_arity():
            raise CapacityError("tensor result exceeds arity ceiling")
        out = frozenset((a1 + a2, b1 + b2)
                        for a1, b1 in self.pairs for a2, b2 in other.pairs)
        return Relation(dom, cod, out)

    def converse(self) -> "Relation":
        return Relation(self.cod, self.dom,
                        frozenset((b, a) for a, b in self.pairs))

    def marginal(self, keep) -> "Relation":
        """Restriction of a state to the given (1-based) legs, by digit deletion."""
        if not self.is_state:
            raise ValueError("marginal is only defined for states")
        keep = sorted(set(keep))
        for k in keep:
            if not 1 <= k <= self.cod.arity:
                raise IndexError("leg %d out of range for %s" % (k, self.cod))
        idx = [k - 1 for k in keep]
        return Relation(I, Space(self.cod.base, len(idx)),
                        frozenset(((), tuple(b[i] for i in idx))
                                  for _, b in self.pairs))

    def to_text(self) -> str:
        lines = ["REL %s -> %s" % (self.dom, self.cod)]
        if not self.pairs:
            lines.append("∅")
            return "\n".join(lines) + "\n"
        for a, b in sorted(self.pairs):
            if self.is_state:
                lines.append(_fmt(b))
            else:
                lines.append("%s ~ %s" % (_fmt(a), _fmt(b)))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Relation":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        header = lines[0] if lines else ""
        head = header.split()
        bad = ValueError("bad relation header: %r" % header)
        if len(head) != 4 or head[0] != "REL" or head[2] != "->":
            raise bad

        def space(tok):
            # only the forms str(Space) writes: 1^0, and 2^k or 4^k, k >= 1
            base, _, arity = tok.partition("^")
            if base not in ("1", "2", "4") or not arity.isdecimal() \
                    or str(Space(int(base), int(arity))) != tok:
                raise bad
            return Space(int(base), int(arity))

        dom, cod = space(head[1]), space(head[3])

        def tuple_of(tok, sp, ln):
            tok = tok.strip()
            if tok == "*" and not sp.arity:
                return ()
            if len(tok) != sp.arity \
                    or not set(tok) <= {str(d) for d in sp.digits()}:
                raise ValueError("relation line %r does not fit %s -> %s"
                                 % (ln, dom, cod))
            return tuple(int(c) for c in tok)

        pairs = set()
        for ln in lines[1:]:
            if ln == "∅":
                continue
            left, sep, right = ln.partition("~")
            if not sep:
                left, right = "*", ln
            pairs.add((tuple_of(left, dom, ln), tuple_of(right, cod, ln)))
        return Relation(dom, cod, frozenset(pairs))

    def __str__(self):
        return self.to_text()


def identity(space: Space) -> Relation:
    return Relation(space, space, frozenset((t, t) for t in space.tuples()))


def swap(a: Space, b: Space) -> Relation:
    dom = a * b
    return Relation(dom, b * a,
                    frozenset((x + y, y + x)
                              for x in a.tuples() for y in b.tuples()))


def empty(dom: Space, cod: Space) -> Relation:
    return Relation(dom, cod, frozenset())


def scalar(present: bool = True) -> Relation:
    return Relation(I, I, frozenset([((), ())]) if present else frozenset())
