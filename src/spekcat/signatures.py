"""Closed-form block descriptions of the states Spek diagrams denote.

Every Spek state is a disjoint union of blocks.  On each wire a block is one
of four 2-element sets, labelled by a parity bit and a type bit:

    parity: Odd = 0, Even = 1
    type:   12 = 0 (values in {1,2}),  34 = 1 (values in {3,4})

Type-12 parity counts occurrences of the value 2, type-34 parity counts
occurrences of 4 (odd count = Odd).  The block calculus computes the full
list of per-zone (parity, type) signatures of a diagram's state without
evaluating the diagram, from the parity maps of its zone decomposition.

Each zone's parity is an affine GF(2) function of the type bits, the map
``ZoneDecomposition.parity`` holds for it.  The signatures are the image,
under the external zones' (parity, type) map, of the type assignments that
make every internal zone Even: 2^r signatures (r the map's rank on the
kernel), each of multiplicity 2^(dim kernel - r).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cached_property
from operator import methodcaller, xor
from typing import Tuple

from . import gf2
from . import relations as rel
from .diagrams import Diagram, ZoneDecomposition, as_state, zone_decompose
from .relations import CapacityError, Relation, Space, max_arity

PARITY_NAMES = {0: "Odd", 1: "Even"}
TYPE_NAMES = {0: "12", 1: "34"}
TYPE_VALUES = {0: (1, 2), 1: (3, 4)}
PARITY_VALUE = {0: 2, 1: 4}      # the counted value per type
_BITS = bytes.maketrans(b"01", b"\x00\x01")


class ConstraintSystem(namedtuple("ConstraintSystem", "n_vars rows rhs")):
    """Linear conditions over the zone type bits T1, ..., Tm (1-based):
    ``rows`` holds coefficient bitmasks, bit i = T_{i+1}."""

    __slots__ = ()

    @property
    def rank(self):
        return len(gf2.rref(self.rows))

    def to_text(self) -> str:
        lines = []
        for row, b in zip(self.rows, self.rhs):
            terms = ["T%d" % (i + 1) for i in range(self.n_vars)
                     if row & (1 << i)]
            lhs = " + ".join(terms) if terms else "0"
            lines.append("%s = %d" % (lhs, b))
        return "\n".join(lines)


class StateForm(namedtuple("StateForm", "zone_legs leg_order system shift "
                                        "basis multiplicity")):
    """The block signatures of a Spek state, an affine space over GF(2).

    A signature, one (parity, type) pair per external zone, packs into 2e
    bits, the types above the parities, the first zone highest in each.
    The signatures are ``shift`` plus each sum of ``basis`` words, rows in
    reduced row echelon form, all of multiplicity ``multiplicity``;
    ``shift`` is None (``multiplicity`` 0) when ``system``, the equations
    they solve, has no solution.
    ``zone_legs`` gives each external zone's leg count (at least 1) and
    ``leg_order`` maps canonical leg positions to source leg indices.
    """

    @property
    def n_legs(self):
        return sum(self.zone_legs)

    @cached_property
    def signatures(self):
        """Every signature ``walk`` yields, in its order."""
        return tuple(self.walk())

    def walk(self):
        """Each signature as per-zone (parity, type) pairs, with its
        multiplicity, in packed order (by types, then parities), one at a
        time.  With ``shift`` cleared at each pivot of the reduced
        ``basis``, a signature's pivot bits say which rows it adds, so
        counting over the rows, the highest pivot most significant, walks
        the signatures in sorted order; each step adds the rows whose
        count bits flip.  A rank above twice ``max_arity()``, expand's leg
        ceiling, raises ``CapacityError`` before the first signature."""
        ceiling = 2 * max_arity()
        if len(self.basis) > ceiling:
            raise CapacityError("a form of 2^%d signatures exceeds the "
                                "ceiling of 2^%d" % (len(self.basis), ceiling))
        if self.shift is None:
            return
        w = self.shift
        for row in self.basis:
            if w >> (row.bit_length() - 1) & 1:
                w ^= row
        flips = list(itertools.accumulate(reversed(self.basis), xor))
        e = len(self.zone_legs)
        fmt = "0%db" % (2 * e)
        for c in range(1 << len(flips)):
            if c:
                w ^= flips[(c & -c).bit_length() - 1]
            bits = format(w, fmt).encode().translate(_BITS)
            yield tuple(zip(bits[e:], bits[:e])), self.multiplicity

    def lines(self):
        """The lines of ``to_text``, one signature at a time."""
        if self.shift is None:
            yield "EMPTY"
        for sig, count in self.walk():
            cells = ["%s,%s" % (PARITY_NAMES[p], TYPE_NAMES[t])
                     for p, t in sig]
            yield "(%s) x%d" % ("; ".join(cells), count)

    def to_text(self) -> str:
        return "".join(line + "\n" for line in self.lines())

    def expand(self) -> Relation:
        """The exact state (as a relation from the unit) the form describes.

        Legs come out in the source diagram's order.  A value byte is
        1 + 2t + b (t the type bit, b = 1 for the counted value), so a row
        is a 1 per leg's byte plus a word y with t and b in bits s + 1 and
        s of the byte.  The ys are one affine space: the signatures lifted
        (a zone's type to each leg's t, its parity to its first leg's b),
        plus per further leg a flip of its b and the first leg's.  A form
        with more legs than ``evaluate``'s joins may hold, twice
        ``max_arity()``, raises ``CapacityError``.
        """
        n = self.n_legs
        ceiling = 2 * max_arity()
        if n > ceiling:
            raise CapacityError("expanding %d legs exceeds the ceiling of %d"
                                % (n, ceiling))
        rows = []
        if self.shift is not None:
            types, parities, flips = [], [], []
            legs = iter([1 << 8 * (n - 1 - orig) for orig in self.leg_order])
            for k in self.zone_legs:
                bits = list(itertools.islice(legs, k))
                types.append(2 * sum(bits))
                parities.append(bits[0])
                flips += [bits[0] | b for b in bits[1:]]
            lift = (types + parities)[::-1]      # packed bit i -> y
            ones = sum(types) >> 1               # a 1 in each leg's byte

            def lifted(w):
                y = 0
                for v in lift:
                    if w & 1:
                        y ^= v
                    w >>= 1
                return y
            # parity 0, Odd, is an odd count of b: each first b flips
            y0 = lifted(self.shift ^ (1 << len(parities)) - 1)
            rows = [ones + (y0 ^ y) for y in
                    gf2.span([lifted(w) for w in self.basis] + flips)]
        rows = map(tuple, map(methodcaller("to_bytes", n, "big"), rows))
        return Relation(rel.I, Space(4, n),
                        frozenset(zip(itertools.repeat(()), rows)))


def _zone_block(sig, n_legs):
    """All value tuples on a zone's legs matching one (parity, type) pair:
    the definition of the blocks ``StateForm.expand`` spans in bit space.
    """
    parity, typ = sig
    return [combo for combo in itertools.product(TYPE_VALUES[typ],
                                                 repeat=n_legs)
            if (combo.count(PARITY_VALUE[typ]) + 1) % 2 == parity]


def state_form(d: Diagram) -> Tuple[StateForm, ZoneDecomposition]:
    """Closed-form block description of the state a Spek diagram denotes.

    Input legs are first bent to outputs, so the form always describes the
    diagram's state under map-state duality.  Its system has one equation
    per internal zone: a leg-free zone survives contraction against the
    Even selection of the counit, so its parity map is pinned to 1.  The
    form holds its 2^rank signatures as an affine space and lists none, so
    its cost is polynomial at any rank; ``StateForm.walk`` refuses to list
    more than 2^(2 ``max_arity()``).
    """
    zd = zone_decompose(as_state(d))
    maps, internal, external = zd.parity, zd.internal_zones, zd.external_zones
    system = ConstraintSystem(len(zd.zones),
                              tuple(maps[i][0] for i in internal),
                              tuple(1 ^ maps[i][1] for i in internal))
    shift, basis, multiplicity = None, (), 0
    solved = gf2.solve(system.rows, system.rhs, system.n_vars)
    if solved is not None:
        particular, kernel = solved
        # a signature packed into 2e bits, the types above the parities, so
        # that packed values sort as the signatures do, by (types, parities)
        outputs = [(1 << i, 0) for i in external] + [maps[i] for i in external]

        def pack(x):
            out = 0
            for mask, offset in outputs:
                out = (out << 1) | (((mask & x).bit_count() + offset) & 1)
            return out

        # the image is pack(particular) plus the span of the kernel's images
        # under the map's linear part
        basis = tuple(gf2.rref([pack(k) ^ pack(0) for k in kernel]))
        shift = pack(particular)
        multiplicity = 1 << (len(kernel) - len(basis))
    return StateForm(tuple(len(zd.zones[i].legs) for i in external),
                     zd.leg_reorder, system, shift, basis, multiplicity), zd


class DuplicationReport(namedtuple(
        "DuplicationReport", "n_zones internal_zones system "
                             "duplication_factor distinct_signatures acs")):
    """How many type assignments give each distinct block.

    Every signature has the same multiplicity, ``duplication_factor``,
    checked to be 2 to the number of linearly dependent internal-zone
    constraints.  The witness sets are the inclusion-minimal nonempty sets
    of internal zones whose external neighbourhoods cancel pairwise (each
    externally linked zone being covered an even number of times).
    """

    __slots__ = ()


MAX_ACS_ZONES = 16              # the witness search tries every subset


def duplication_analysis(d: Diagram) -> DuplicationReport:
    form, zd = state_form(d)
    system = form.system
    internal = zd.internal_zones
    external = sum(1 << i for i in zd.external_zones)
    if len(internal) > MAX_ACS_ZONES:
        raise CapacityError("cancelling-set search over %d internal zones "
                            "(limit %d)" % (len(internal), MAX_ACS_ZONES))

    factor = form.multiplicity
    dependent = len(system.rows) - system.rank
    if form.shift is not None and factor != 1 << dependent:
        raise RuntimeError("multiplicity %d is not 2^%d, from the %d dependent "
                           "constraints" % (factor, dependent, dependent))

    acs = []
    for size in range(1, len(internal) + 1):
        for combo in itertools.combinations(internal, size):
            cover = 0
            for i in combo:
                cover ^= zd.parity[i][0] & external
            if cover == 0 and not any(set(a) <= set(combo) for a in acs):
                acs.append(combo)
    return DuplicationReport(
        n_zones=len(zd.zones),
        internal_zones=internal,
        system=system,
        duplication_factor=factor,
        distinct_signatures=(0 if form.shift is None
                             else 1 << len(form.basis)),
        acs=tuple(acs),
    )
