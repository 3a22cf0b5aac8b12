"""Permutations of the 4- and 2-element carriers, and the Sigma factorisation."""

from __future__ import annotations

import heapq
import itertools
from collections import namedtuple
from functools import cached_property, lru_cache


class Permutation(namedtuple("Permutation", "base images")):
    """A bijection on {1..4} (base 4) or {0,1} (base 2), stored by images."""

    # namedtuple's _make, and _replace through it, would skip __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

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
    """The four permutations that keep {1,2} and {3,4} setwise, sorted by
    image tuple."""
    return [Permutation(4, low + high)
            for low in ((1, 2), (2, 1)) for high in ((3, 4), (4, 3))]


@lru_cache(maxsize=1)
def _sigma_table():
    """Minimal factorisations of every S4 element into phased perms and Sigma.

    Ranking: fewest Sigma factors, then shortest word, then lexicographic on
    the factor names.  Appending a letter keeps two words' order, so minimal
    words have minimal prefixes, and a best-first search over the
    24-element Cayley graph finds them.  The search composes image tuples
    (p then f is x -> f(p(x))); the 24 ``Permutation`` keys are built once,
    at the end.
    """
    alphabet = [(f, f.images, f.name, f == SIGMA) for f in
                sorted(phased_permutations(), key=lambda p: p.name) + [SIGMA]]
    best = {}
    frontier = [((0, 0, ()), IDENTITY_4.images, ())]
    while frontier:
        (sigmas, length, names), p, word = heapq.heappop(frontier)
        if p not in best:
            best[p] = word
            for f, images, name, sigma in alphabet:
                heapq.heappush(frontier, ((sigmas + sigma, length + 1,
                                           names + (name,)),
                                          tuple(images[x - 1] for x in p),
                                          word + (f,)))
    return {Permutation(4, p): word for p, word in best.items()}


def sigma_decompose(p: Permutation) -> tuple[Permutation, ...]:
    """A word in phased permutations and Sigma whose left-to-right composite is p."""
    return tuple(_sigma_table()[p])
