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
from dataclasses import dataclass
from operator import getitem, methodcaller
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


@dataclass(frozen=True)
class ConstraintSystem:
    """Linear conditions over the zone type bits T1, ..., Tm (1-based)."""
    n_vars: int
    rows: Tuple[int, ...]        # coefficient bitmasks, bit i = T_{i+1}
    rhs: Tuple[int, ...]

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


@dataclass(frozen=True)
class StateForm:
    """Block signature list of a Spek state, one entry per external zone.

    ``signatures`` pairs each distinct per-zone (parity, type) tuple with its
    multiplicity.  ``zone_legs`` gives the leg count of each external zone and
    ``leg_order`` maps canonical leg positions back to the source diagram's
    leg indices.  ``system`` holds the equations the signatures solve; when
    they have no solution the form lists no signature.
    """
    zone_legs: Tuple[int, ...]
    signatures: Tuple[Tuple[Tuple[Tuple[int, int], ...], int], ...]
    leg_order: Tuple[int, ...]
    system: ConstraintSystem

    @property
    def n_legs(self):
        return sum(self.zone_legs)

    def to_text(self) -> str:
        if not self.signatures:
            return "EMPTY\n"
        lines = []
        for sig, count in self.signatures:
            cells = ["%s,%s" % (PARITY_NAMES[p], TYPE_NAMES[t])
                     for p, t in sig]
            lines.append("(%s) x%d" % ("; ".join(cells), count))
        return "\n".join(lines) + "\n"

    def expand(self) -> Relation:
        """The exact state (as a relation from the unit) the form describes.

        Legs come out in the source diagram's order: each row is one sum of
        ``_zone_table`` entries, one per zone, turned into bytes.  A form
        with more legs than ``evaluate``'s joins may hold, twice
        ``max_arity()``, raises ``CapacityError``.
        """
        n = self.n_legs
        ceiling = 2 * max_arity()
        if n > ceiling:
            raise CapacityError("expanding %d legs exceeds the ceiling of %d"
                                % (n, ceiling))
        tables = []
        start = 0
        for k in self.zone_legs:
            tables.append(_zone_table([8 * (n - 1 - orig) for orig
                                       in self.leg_order[start:start + k]]))
            start += k
        combos = itertools.chain.from_iterable(
            itertools.product(*map(getitem, tables, sig))
            for sig, _ in self.signatures)
        rows = map(tuple, map(methodcaller("to_bytes", n, "big"),
                              map(sum, combos)))
        return Relation(rel.I, Space(4, n),
                        frozenset(zip(itertools.repeat(()), rows)))


def _zone_table(shifts):
    """(parity, type) -> a zone's block rows, each an int holding the value
    on the zone's i-th leg in the byte at bit offset ``shifts[i]``.

    The rows are grown one leg at a time, kept apart by whether the counted
    value has so far appeared an even or an odd number of times; the result
    holds the rows of ``_zone_block``, packed.
    """
    table = {}
    for typ, (plain, counted) in TYPE_VALUES.items():  # PARITY_VALUE second
        even, odd = [0], []
        for s in shifts:
            lo, hi = plain << s, counted << s
            even, odd = ([r + lo for r in even] + [r + hi for r in odd],
                         [r + hi for r in even] + [r + lo for r in odd])
        table[1, typ] = even
        table[0, typ] = odd
    return table


def _zone_block(sig, n_legs):
    """All value tuples on a zone's legs matching one (parity, type) pair.

    The unpacked definition of a ``_zone_table`` entry.
    """
    parity, typ = sig
    values = TYPE_VALUES[typ]
    counted = PARITY_VALUE[typ]
    out = []
    for combo in itertools.product(values, repeat=n_legs):
        if (combo.count(counted) + 1) % 2 == parity:
            out.append(combo)
    return out


def state_form(d: Diagram) -> Tuple[StateForm, ZoneDecomposition]:
    """Closed-form block description of the state a Spek diagram denotes.

    Input legs are first bent to outputs, so the form always describes the
    diagram's state under map-state duality.  Its system has one equation
    per internal zone: a leg-free zone survives contraction against the
    Even selection of the counit, so its parity map is pinned to 1.  Of the
    form's 2^rank signatures none is listed when the rank exceeds twice
    ``max_arity()`` (``CapacityError``).
    """
    zd = zone_decompose(as_state(d))
    maps, internal, external = zd.parity, zd.internal_zones, zd.external_zones
    system = ConstraintSystem(len(zd.zones),
                              tuple(maps[i][0] for i in internal),
                              tuple(1 ^ maps[i][1] for i in internal))
    e = len(external)
    signatures = []
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
        basis = gf2.rref([pack(k) ^ pack(0) for k in kernel])
        ceiling = 2 * max_arity()
        if len(basis) > ceiling:
            raise CapacityError("a form of 2^%d signatures exceeds the "
                                "ceiling of 2^%d" % (len(basis), ceiling))
        shift = pack(particular)
        image = [shift ^ w for w in gf2.span(basis)]
        count = 1 << (len(kernel) - len(basis))
        fmt = "0%db" % (2 * e)
        for w in sorted(image):
            bits = format(w, fmt).encode().translate(_BITS)
            signatures.append((tuple(zip(bits[e:], bits[:e])), count))
    return StateForm(
        zone_legs=tuple(len(zd.zones[i].legs) for i in external),
        signatures=tuple(signatures),
        leg_order=zd.leg_reorder,
        system=system,
    ), zd


@dataclass(frozen=True)
class DuplicationReport:
    """How many type assignments give each distinct block.

    Every signature has the same multiplicity, ``duplication_factor``,
    checked to be 2 to the number of linearly dependent internal-zone
    constraints.  The witness sets are the inclusion-minimal nonempty sets
    of internal zones whose external neighbourhoods cancel pairwise (each
    externally linked zone being covered an even number of times).
    """
    n_zones: int
    internal_zones: Tuple[int, ...]
    system: ConstraintSystem
    duplication_factor: int
    distinct_signatures: int
    acs: Tuple[Tuple[int, ...], ...]


MAX_ACS_ZONES = 16              # the witness search tries every subset


def duplication_analysis(d: Diagram) -> DuplicationReport:
    form, zd = state_form(d)
    system = form.system
    internal = zd.internal_zones
    external = sum(1 << i for i in zd.external_zones)
    if len(internal) > MAX_ACS_ZONES:
        raise CapacityError("cancelling-set search over %d internal zones "
                            "(limit %d)" % (len(internal), MAX_ACS_ZONES))

    counts = {count for _, count in form.signatures}
    if len(counts) > 1:
        raise RuntimeError("signature multiplicities are not uniform: %s"
                           % sorted(counts))
    factor = counts.pop() if counts else 0
    dependent = len(system.rows) - system.rank
    if form.signatures and factor != 1 << dependent:
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
        distinct_signatures=len(form.signatures),
        acs=tuple(acs),
    )
