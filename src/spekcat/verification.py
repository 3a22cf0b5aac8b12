"""State enumeration and consistency checks for the toy theories.

One enumerator, ``enumerate_states``, lists the states of the phase-space
model (Pusey, arXiv:1103.5037), the explicit description of the states the
generators build.  A state is the set of its ``((), row)`` pairs, the set
``Relation.pairs`` holds.  ``enumerate_closure`` reads the relations with
at most one leg on each side off the states with at most two legs, by
map-state duality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from . import gf2
from . import relations as rel
from .diagrams import Diagram, bend_leg, evaluate, parse, slots
from .generators import (BASE, HALFSPEK, MSPEK, SPEK, GeneratorId,
                         arity, generator_set, resolve)
from .permutations import Z2_SWAP
from .relations import CapacityError, Relation, Space, max_arity


@dataclass
class ClosureReport:
    theory: str
    hom: Dict[Tuple[int, int], List[Relation]]

    def relations(self, m, n):
        return self.hom.get((m, n), [])

    def states(self, n):
        return [r for r in self.relations(0, n) if r.pairs]


# ---------------------------------------------------------------------------
# State enumeration in the phase-space model, and the one-leg hom sets read
# off its states.


def _isotropic(n, dims):
    """Each isotropic subspace of Z2^(2n) with a dimension in ``dims``, once,
    as reduced rows: per set of pivot columns, depth first, a row is its
    pivot plus any lower bits that are no pivot, orthogonal to the rows
    before it.  Bits 2i+1 and 2i are the p and q of leg n-1-i, and
    omega(u, v) is the parity of v & u with each leg's p and q swapped."""
    qs = int("01" * n, 2)

    def grow(candidates, rows, flips):
        if len(rows) == len(candidates):
            yield rows
            return
        for row in candidates[len(rows)]:
            if not any((row & f).bit_count() & 1 for f in flips):
                yield from grow(candidates, rows + [row],
                                flips + [(row >> 1) & qs | (row & qs) << 1])

    for k in dims:
        for pivots in itertools.combinations(range(2 * n), k):
            yield from grow(
                [[(1 << p) | s for s in
                  gf2.span([1 << c for c in range(p) if c not in pivots])]
                 for p in pivots], [], [])


def _partitions(n):
    """Each partition of n legs into blocks, as the blocks' bitmasks."""
    if not n:
        yield []
        return
    leg = 1 << (n - 1)
    for blocks in _partitions(n - 1):
        for i, block in enumerate(blocks):
            yield blocks[:i] + [block | leg] + blocks[i + 1:]
        yield blocks + [leg]


MAX_STATES = 10 ** 8   # the most states the row spaces may stand for


def _row_spaces(theory, max_legs):
    """(n, the reduced rows A) for each space {x : Ax = c} of n-leg states:
    an isotropic subspace, Lagrangian for Spek, or for HalfSpek the blocks
    of a partition of the legs.  Refuses up front more legs than
    ``max_arity()`` or more than MAX_STATES states by the closed form."""
    if max_legs < 1:
        raise ValueError("max_legs must be at least 1")
    if max_legs > max_arity():
        raise CapacityError("%d legs exceed the arity ceiling" % max_legs)
    total = sum(closed_form_counts(theory, max_legs).values())
    if total > MAX_STATES:
        raise CapacityError("%d %s states on up to %d legs exceed %d" % (
            total, theory, max_legs, MAX_STATES))
    for n in range(1, max_legs + 1):
        for rows in (_partitions(n) if theory == HALFSPEK else _isotropic(
                n, (n,) if theory == SPEK else range(n + 1))):
            yield n, rows


def count_states(theory=SPEK, max_legs=3):
    """The number of states on each of 1..max_legs legs, without building
    them: the rows of ``enumerate_states``, 2^k states on k rows."""
    counts = dict.fromkeys(range(1, max_legs + 1), 0)
    for n, rows in _row_spaces(theory, max_legs):
        counts[n] += 1 << len(rows)
    return counts


def enumerate_states(theory=SPEK, max_legs=3):
    """All states of the theory with 1..max_legs legs, as tuple sets.

    A state is the solution set {x : Ax = c} of one row space A and one
    value vector c.  Value v of Spek and MSpek is the bits (p, q) =
    divmod(v - 1, 2), a HalfSpek value one bit; with leg 0 most significant
    a solution x is the index of its row in ``Space.tuples()`` order.  The
    rows are reduced, so the particular solutions are the sums of their
    pivots.  Returns a dict mapping the leg count to the list of states,
    sorted by text.
    """
    base = BASE[theory]
    indices = {}
    for n, rows in _row_spaces(theory, max_legs):
        _, kernel = gf2.solve(rows, [0] * len(rows), n * base // 2)
        span = gf2.span(kernel)
        indices.setdefault(n, []).extend(
            sorted(p ^ s for s in span)
            for p in gf2.span([1 << (r.bit_length() - 1) for r in rows]))
    found = {}
    for n, states in indices.items():
        # every row has n digits, so sorted index lists sort as the texts
        space = Space(base, n)
        entries = [((), row) for row in space.tuples()]
        found[n] = [Relation(rel.I, space, frozenset(map(entries.__getitem__,
                                                         idx)))
                    for idx in sorted(states)]
    return found


def enumerate_closure(theory=SPEK) -> ClosureReport:
    """The relations with at most one input and one output leg.

    By map-state duality hom(m, n) is the states on m + n legs bent, each
    row split after its first m entries, plus the empty relation; the true
    scalar is the one state on no legs.  Each is in text order as built:
    the states come sorted by text, a bent state lists the same rows in
    the same order, and "*" and every digit sort before the "∅" of the
    empty relation.
    """
    states = {0: [rel.scalar(True)], **enumerate_states(theory, 2)}
    hom = {}
    for m, n in itertools.product((0, 1), repeat=2):
        dom, cod = Space(BASE[theory], m), Space(BASE[theory], n)
        hom[m, n] = [Relation(dom, cod, frozenset((row[:m], row[m:])
                                                  for _, row in s.pairs))
                     for s in states[m + n]] + [rel.empty(dom, cod)]
    return ClosureReport(theory, hom)


# ---------------------------------------------------------------------------
# Knowledge balance and algebraic law checks.


@dataclass(frozen=True)
class KbpVerdict:
    state: Relation
    global_ok: bool
    subsystem_ok: Tuple[Tuple[Tuple[int, ...], bool], ...]
    maximal_knowledge: bool

    @property
    def ok(self):
        return self.global_ok and all(ok for _, ok in self.subsystem_ok)


def _balanced(count, n):
    return count in {1 << k for k in range(n, 2 * n + 1)}


def check_kbp(state: Relation) -> KbpVerdict:
    """Cardinality balance of a state and of every proper marginal.

    A marginal's size is the number of distinct projections of the rows
    onto its legs, counted without building the marginal.
    """
    if state.dom != rel.I:
        raise ValueError("expected a state (domain the unit)")
    n = state.cod.arity
    count = len(state.pairs)
    rows = [row for _, row in state.pairs]
    verdicts = []
    for size in range(1, n):
        for idx in itertools.combinations(range(n), size):
            seen = len(set(map(itemgetter(*idx), rows)))
            verdicts.append((tuple(i + 1 for i in idx),
                             _balanced(seen, size)))
    return KbpVerdict(state, _balanced(count, n), tuple(verdicts),
                      count == 1 << n)


def check_basis_structure(delta: Relation, eps: Relation) -> Dict[str, bool]:
    """Exact comonoid, isometry, Frobenius and snake checks for (delta, eps)."""
    a = delta.dom
    ident = rel.identity(a)
    if delta.cod != a * a or eps.cod != rel.I or eps.dom != a:
        raise ValueError("expected delta: A -> A*A and eps: A -> I")
    d, e = delta, eps
    swap2 = rel.swap(a, a)
    eta = e.converse().then(d)
    epsc = d.converse()
    laws = {
        "coassociativity":
            d.then(d.tensor(ident)) == d.then(ident.tensor(d)),
        "cocommutativity": d.then(swap2) == d,
        "counit-left": d.then(e.tensor(ident)) == ident,
        "counit-right": d.then(ident.tensor(e)) == ident,
        "isometry": d.then(d.converse()) == ident,
        "frobenius":
            d.converse().then(d)
            == d.tensor(ident).then(ident.tensor(d.converse())),
        "snake-left":
            eta.tensor(ident).then(ident.tensor(epsc.then(e))) == ident,
        "snake-right":
            ident.tensor(eta).then(epsc.then(e).tensor(ident)) == ident,
    }
    return laws


@dataclass(frozen=True)
class DualityReport:
    n_states: int
    n_maps: int
    bijective: bool
    identity_matches_diagonal: bool


def check_map_state_duality(theory=SPEK) -> DualityReport:
    """The one-system maps, the two-leg states bent, as a dagger hom set.

    Reads the maps off ``enumerate_closure(theory).relations(1, 1)``: the
    empty map and one bent map per two-leg state.  ``bijective`` holds when
    no two of them are the same map, and the maps hold the identity and
    every one-system generator and are closed under composition and
    converse, as the hom set of a category with a dagger must be.  The
    identity must occur once: the diagonal is the one state bent to it.  A
    map is held as the bitmask of each input's images.
    """
    hom = enumerate_closure(theory).relations(1, 1)
    one = hom[0].dom
    base = one.base
    index = {d: i for i, d in enumerate(one.digits())}

    def images(r):
        out = [0] * base
        for (x,), (y,) in r.pairs:
            out[index[x]] |= 1 << index[y]
        return tuple(out)

    def unions(g):
        """The union of g's images of each input set, by bitmask."""
        table = [0]
        for img in g:
            table += [t | img for t in table]
        return table

    def converse(f):
        return tuple(sum(1 << x for x, img in enumerate(f) if img >> y & 1)
                     for y in range(base))

    maps = [images(r) for r in hom]
    homset = set(maps)
    ident = images(rel.identity(one))
    needed = {ident} | {images(resolve(g)) for g in generator_set(theory)
                        if arity(g) == (1, 1)}
    gets = [unions(g).__getitem__ for g in homset]
    closed = all(converse(f) in homset for f in homset) and all(
        tuple(map(get, f)) in homset for get in gets for f in homset)
    return DualityReport(
        n_states=len(hom) - 1,
        n_maps=len(homset) - 1,
        bijective=len(homset) == len(maps) and needed <= homset and closed,
        identity_matches_diagonal=maps.count(ident) == 1,
    )


@dataclass(frozen=True)
class CardinalityVerdict:
    theory: str
    ok: bool
    counts: Dict[int, List[int]]
    spek_exact: Optional[bool]


def check_mspek_cardinalities(states_by_legs, theory=MSPEK):
    """Power-of-two cardinality bounds on every enumerated state."""
    counts = {n: sorted({len(s.pairs) for s in states})
              for n, states in states_by_legs.items()}
    ok = all(_balanced(c, n) for n, cs in counts.items() for c in cs)
    exact = all(c == 1 << n for n, cs in counts.items() for c in cs)
    return CardinalityVerdict(theory, ok, counts,
                              exact if theory == SPEK else None)


def closed_form_counts(theory=SPEK, max_legs=3):
    """The number of states on each of 1..max_legs legs, by formula: 2^k
    states on each k-dimensional isotropic subspace of Z2^(2n) (k = n for
    Spek), of which there are prod_{i<k} (4^(n-i) - 1) / (2^(i+1) - 1), or
    for HalfSpek on each of the S(n, k) partitions of the legs into k
    blocks (S(n, k) the Stirling numbers of the second kind)."""
    counts, stirling = {}, [1]          # S(n, k) for k = 0..n, from n = 0
    for n in range(1, max_legs + 1):
        stirling = [k * a + b for k, (a, b) in
                    enumerate(zip(stirling + [0], [0] + stirling))]
        counts[n], subspaces = 0, 1
        for k in range(n + 1):
            if theory == HALFSPEK:
                counts[n] += stirling[k] << k
            elif theory == MSPEK or k == n:
                counts[n] += subspaces << k
            subspaces = subspaces * (4 ** (n - k) - 1) // (2 ** (k + 1) - 1)
    return counts


def _attach(d, legs, gen):
    """d with a new box of ``gen``: its input slots take the legs at the
    positions ``legs``, and its output slots are appended as new legs."""
    name = "b%d" % len(d.boxes)
    ports = [(name, s) for s in slots(gen)]
    return Diagram(
        d.theory, d.boxes + ((name, gen),),
        d.wires + tuple((d.legs[k][0], p) for k, p in zip(legs, ports)),
        tuple(lg for k, lg in enumerate(d.legs) if k not in legs)
        + tuple((p, "out") for p in ports[len(legs):]))


def halfspek_parity_sweep(max_boxes=5):
    """Exhaustively check the two-level parity law on connected diagrams.

    Builds every connected HalfSpek state diagram with up to ``max_boxes``
    boxes by growing from the unit state, one move at a time: copying,
    capping or inserting the swap permutation on one leg, or fusing two
    legs.  Checks that the evaluated state is the full parity class fixed
    by the number of swap boxes; closed diagrams must evaluate to the
    scalar matching that parity.  Returns (diagrams checked, list of
    failures).
    """
    moves = [GeneratorId("delta", HALFSPEK), GeneratorId("epsilon", HALFSPEK),
             GeneratorId("perm", HALFSPEK, Z2_SWAP),
             GeneratorId("delta_dagger", HALFSPEK)]
    seed = parse("theory halfspek\nbox r: eps+\nout r.1\n")
    queue, checked, failures = [(seed, 0)], 0, []
    while queue:
        d, swaps = queue.pop()
        n = len(d.legs)
        checked += 1
        # with no legs, the one empty row: the full scalar iff swaps is even
        if evaluate(d).pairs != frozenset(((), row)
                                          for row in Space(2, n).tuples()
                                          if sum(row) % 2 == swaps % 2):
            failures.append(d.to_source())
        if len(d.boxes) >= max_boxes:
            continue
        queue += [(_attach(d, legs, gen), swaps + (gen.tag == "perm"))
                  for k in (1, 2)
                  for legs in itertools.combinations(range(n), k)
                  for gen in moves if arity(gen)[0] == k]
    return checked, failures


def ghz_delta_identity() -> bool:
    """Bending one leg of the tripartite state reproduces the copy map."""
    ghz = parse("box u: eps+\n"
                "box d1: delta\n"
                "box d2: delta\n"
                "wire u.1 d1.in\n"
                "wire d1.1 d2.in\n"
                "out d2.1 d2.2 d1.2\n")
    bent = evaluate(bend_leg(ghz, 2))
    return (bent == resolve(GeneratorId("delta", SPEK))
            and bent.converse() == resolve(GeneratorId("delta_dagger", SPEK)))
