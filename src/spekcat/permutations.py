"""Permutations of the 4- and 2-element carriers, and the Sigma factorisation."""

from __future__ import annotations

import heapq
import itertools
from collections import namedtuple
from functools import cached_property, lru_cache
from typing import Tuple

from .relations import II, IV, Relation


class Permutation(namedtuple("Permutation", "base images")):
    """A bijection on {1..4} (base 4) or {0,1} (base 2), stored by images."""

    def __new__(cls, base, images):
        self = super().__new__(cls, base, images)
        elems = self.elements()
        if sorted(images) != list(elems):
            raise ValueError("images %r are not a bijection on %r"
                             % (images, elems))
        return self

    def elements(self):
        return (1, 2, 3, 4) if self.base == 4 else (0, 1)

    def __call__(self, x: int) -> int:
        return self.images[x - 1 if self.base == 4 else x]

    def then(self, other: "Permutation") -> "Permutation":
        """self applied first, then other."""
        return Permutation(self.base, tuple(other(self(x)) for x in self.elements()))

    def inverse(self) -> "Permutation":
        inv = {self(x): x for x in self.elements()}
        return Permutation(self.base, tuple(inv[x] for x in self.elements()))

    @cached_property
    def is_phased(self) -> bool:
        """True iff the permutation preserves {1,2} and {3,4} setwise.

        Kept on the instance once computed (not a field: equality and hash
        stay those of the images).
        """
        if self.base != 4:
            raise ValueError("phased/unphased applies to the 4-element "
                             "carrier")
        return {self(1), self(2)} == {1, 2}

    def cycles(self):
        seen, out = set(), []
        for x in self.elements():
            if x in seen:
                continue
            cyc, y = [], x
            while y not in seen:
                seen.add(y)
                cyc.append(y)
                y = self(y)
            out.append(tuple(cyc))
        return out

    @property
    def name(self) -> str:
        # canonical cycle notation, fixed points always written
        return "".join("(%s)" % "".join(str(d) for d in cyc)
                       for cyc in self.cycles())

    def relation(self) -> Relation:
        space = IV if self.base == 4 else II
        return Relation(space, space,
                        frozenset(((x,), (self(x),)) for x in self.elements()))

    def half_restriction(self, side: str) -> "Permutation":
        """The {1,2}- or {3,4}-component of a phased permutation, as a base-2 perm.

        Relabelling: side "12" reads 1->0, 2->1; side "34" reads 3->0, 4->1.
        """
        return self._halves[side]

    @cached_property
    def _halves(self):
        """Both components of ``half_restriction``, kept once computed."""
        if not self.is_phased:
            raise ValueError("%s is not phased" % self.name)
        return {s: Permutation(2, (self(lo) - lo, self(lo + 1) - lo))
                for s, lo in (("12", 1), ("34", 3))}

    def __str__(self):
        return self.name


def perm_from_cycles(text: str, base: int = 4) -> Permutation:
    """Parse cycle notation; omitted fixed points are allowed ("(12)" == "(12)(3)(4)")."""
    symbols = "1234" if base == 4 else "01"
    elems = tuple(map(int, symbols))
    mapping = {}
    body = text.strip()
    if body in ("", "()"):
        return Permutation(base, elems)
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError("bad cycle notation: %r" % text)
    for cyc in body[1:-1].split(")("):
        for c in cyc:
            if c not in symbols:
                raise ValueError("bad element %r in %r" % (c, text))
        digits = [int(c) for c in cyc]
        if not digits:
            raise ValueError("empty cycle in %r" % text)
        for d in digits:
            if d in mapping or digits.count(d) > 1:
                raise ValueError("element %d repeated in %r" % (d, text))
        for a, b in zip(digits, digits[1:] + digits[:1]):
            mapping[a] = b
    images = tuple(mapping.get(x, x) for x in elems)
    return Permutation(base, images)


IDENTITY_4 = perm_from_cycles("()", 4)
IDENTITY_2 = perm_from_cycles("()", 2)
SIGMA = perm_from_cycles("(24)")          # the distinguished unphased permutation
Z2_SWAP = perm_from_cycles("(01)", 2)


def s4():
    """The 24 permutations of {1..4}, sorted by image tuple."""
    return [Permutation(4, images)
            for images in sorted(itertools.permutations((1, 2, 3, 4)))]


def z2():
    return [IDENTITY_2, Z2_SWAP]


def phased_permutations():
    return [p for p in s4() if p.is_phased]


@lru_cache(maxsize=1)
def _sigma_table():
    """Minimal factorisations of every S4 element into phased perms and Sigma.

    Ranking: fewest Sigma factors, then shortest word, then lexicographic on
    the factor names.  Appending a letter keeps two words' order, so minimal
    words have minimal prefixes, and a best-first search over the
    24-element Cayley graph finds them.
    """
    alphabet = [(f, f.name, f == SIGMA) for f in
                sorted(phased_permutations(), key=lambda p: p.name) + [SIGMA]]
    best = {}
    frontier = [((0, 0, ()), IDENTITY_4, ())]
    while frontier:
        (sigmas, length, names), p, word = heapq.heappop(frontier)
        if p not in best:
            best[p] = word
            for f, name, sigma in alphabet:
                heapq.heappush(frontier, ((sigmas + sigma, length + 1,
                                           names + (name,)),
                                          p.then(f), word + (f,)))
    return best


def sigma_decompose(p: Permutation) -> Tuple[Permutation, ...]:
    """A word in phased permutations and Sigma whose left-to-right composite is p."""
    return tuple(_sigma_table()[p])
