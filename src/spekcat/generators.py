"""The generating morphisms of the Spek, MSpek and HalfSpek theories."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Tuple

from . import relations as rel
from .permutations import perm_from_cycles
from .relations import I, Relation, Space

SPEK = "spek"
MSPEK = "mspek"
HALFSPEK = "halfspek"
# the size of a leg's carrier, the base of its Space, by theory
BASE = {SPEK: 4, MSPEK: 4, HALFSPEK: 2}
THEORIES = tuple(BASE)


class TheoryError(ValueError):
    """An unknown theory, or a generator requested under a theory that does
    not contain it."""


def check_theory(theory):
    """Raise TheoryError unless ``theory`` is one of THEORIES."""
    if theory not in THEORIES:
        raise TheoryError("unknown theory %r" % theory)


class GeneratorId(namedtuple("GeneratorId", "tag theory perm")):
    """A named generator: tag, theory, and the permutation payload for perm tags."""

    __slots__ = ()

    # namedtuple's _make, and _replace through it, would skip __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, tag, theory=SPEK, perm=None):
        check_theory(theory)
        if tag in ("bottom", "bottom_dagger") and theory != MSPEK:
            raise TheoryError("%s is only a generator of MSpek" % tag)
        if tag == "perm":
            if perm is None:
                raise ValueError("perm generator needs a permutation")
            if perm.base != BASE[theory]:
                raise TheoryError("permutation base %d does not fit theory %s"
                                  % (perm.base, theory))
        elif perm is not None:
            raise ValueError("only perm generators carry a permutation")
        return super().__new__(cls, tag, theory, perm)

    @property
    def base_space(self):
        return Space(BASE[self.theory], 1)

    @property
    def name(self) -> str:
        if self.tag == "perm":
            return "perm(%s)" % self.perm.name
        return _NAMES[self.tag]

    def dagger(self) -> "GeneratorId":
        flips = {"delta": "delta_dagger", "delta_dagger": "delta",
                 "epsilon": "epsilon_dagger", "epsilon_dagger": "epsilon",
                 "bottom": "bottom_dagger", "bottom_dagger": "bottom"}
        if self.tag == "perm":
            return GeneratorId("perm", self.theory, self.perm.inverse())
        if self.tag in ("identity", "swap"):
            return self
        return GeneratorId(flips[self.tag], self.theory)


_DELTA_4 = {1: [(1, 1), (2, 2)], 2: [(1, 2), (2, 1)],
            3: [(3, 3), (4, 4)], 4: [(3, 4), (4, 3)]}
_DELTA_2 = {0: [(0, 0), (1, 1)], 1: [(0, 1), (1, 0)]}


# DSL name by generator tag, and back; perm names carry their cycles
_NAMES = {"delta": "delta", "delta_dagger": "delta+",
          "epsilon": "eps", "epsilon_dagger": "eps+",
          "bottom": "bot", "bottom_dagger": "bot+",
          "identity": "id", "swap": "swap"}
_TAGS = {name: tag for tag, name in _NAMES.items()}

# (number of input legs, number of output legs) by generator tag
ARITIES = {"perm": (1, 1), "identity": (1, 1), "swap": (2, 2),
           "delta": (1, 2), "delta_dagger": (2, 1),
           "epsilon": (1, 0), "epsilon_dagger": (0, 1),
           "bottom": (0, 1), "bottom_dagger": (1, 0)}


def arity(gen: GeneratorId) -> Tuple[int, int]:
    """(number of input legs, number of output legs)."""
    return ARITIES[gen.tag]


def resolve(gen: GeneratorId) -> Relation:
    """The relation a generator denotes."""
    space = gen.base_space
    table = _DELTA_2 if gen.theory == HALFSPEK else _DELTA_4
    eps_kept = (0,) if gen.theory == HALFSPEK else (1, 3)
    if gen.tag == "perm":
        return gen.perm.relation()
    if gen.tag == "identity":
        return rel.identity(space)
    if gen.tag == "swap":
        return rel.swap(space, space)
    if gen.tag == "delta":
        return Relation(space, space * space,
                        frozenset(((x,), pair)
                                  for x, pairs in table.items() for pair in pairs))
    if gen.tag == "epsilon":
        return Relation(space, I, frozenset(((x,), ()) for x in eps_kept))
    if gen.tag == "bottom":
        return Relation(I, space, frozenset(((), (x,)) for x in space.digits()))
    return resolve(gen.dagger()).converse()


def generator_set(theory: str):
    """The generating morphisms of a theory, in deterministic order."""
    from .permutations import s4, z2
    perms = z2() if theory == HALFSPEK else s4()
    gens = [GeneratorId("perm", theory, p) for p in perms]
    gens += [GeneratorId(t, theory) for t in ("delta", "epsilon")]
    if theory == MSPEK:
        gens.append(GeneratorId("bottom", theory))
    return gens


@lru_cache(maxsize=1024)
def parse_generator_name(text: str, theory: str = SPEK) -> GeneratorId:
    """Parse a DSL generator name: delta, delta+, eps, eps+, bot, bot+, id, swap, perm(...).

    Results are kept in a bounded cache: diagrams use few distinct names.
    """
    check_theory(theory)
    text = text.strip()
    if text.startswith("perm(") and text.endswith(")"):
        return GeneratorId("perm", theory,
                           perm_from_cycles(text[5:-1], BASE[theory]))
    if text not in _TAGS:
        raise ValueError("unknown generator name %r" % text)
    return GeneratorId(_TAGS[text], theory)
