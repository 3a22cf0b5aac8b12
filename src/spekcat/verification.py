"""State enumeration and consistency checks for the toy theories.

One engine, ``enumerate_states``, closes the generating states under
moves built from the generators.  A state is the set of its ``((), row)``
pairs, the set ``Relation.pairs`` holds.  A move rewrites the first legs of
every row through a table of a generator's pairs, and swaps of adjacent
legs bring any legs to the front.  ``enumerate_closure`` reads the
relations with at most one leg on each side off its states with at most
two legs, by map-state duality.  The engine is not yet complete for MSpek
at three legs: it finds 2413 of the 2467 states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import relations as rel
from .diagrams import bend_leg, evaluate, parse
from .generators import (HALFSPEK, MSPEK, SPEK, GeneratorId, arity,
                         generator_set, resolve)
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
# State enumeration, and the one-leg hom sets read off its states.


def _generating_maps(perms):
    """Some of the permutation generators whose composites give all of
    them; as moves they reach the same states.  The identity, which moves
    nothing, counts as reached from the start."""
    kept, reached = [], set()
    for g in perms:
        if g.perm.is_identity or g.perm in reached:
            continue
        kept.append(g)
        reached, work = {f.perm for f in kept}, [f.perm for f in kept]
        while work:
            p = work.pop()
            for f in kept:
                q = p.then(f.perm)
                if q not in reached:
                    reached.add(q)
                    work.append(q)
    return kept


def enumerate_states(theory=SPEK, max_legs=3):
    """All states of the theory with 1..max_legs legs, as tuple sets.

    Closes the generating states (the generators and their daggers with no
    input leg) under moves and under tensoring.  A move applies one of the
    other generators or their daggers (a permutation, copying, fusing,
    capping or discarding) to the first legs of every row, or swaps two
    adjacent legs; the swaps bring any legs to the front, so moves on the
    first legs reach every state that moves on any legs reach.  Each state
    leaves the worklist once and is tensored, on the left, with every state
    found so far; swaps give the other order.  Returns a dict mapping the
    leg count to the sorted list of nonempty states.
    """
    if max_legs < 1:
        raise ValueError("max_legs must be at least 1")
    if max_legs > max_arity():
        raise CapacityError("%d legs exceed the arity ceiling" % max_legs)
    perms, others = [], []
    for g in generator_set(theory):
        (perms if g.tag == "perm" else others).append(g)
    others += [g.dagger() for g in others]
    boxes = []                          # (inputs k, outputs j, k -> j table)
    for g in _generating_maps(perms) + others:
        k, j = arity(g)
        table = {}
        for a, b in resolve(g).pairs:
            table.setdefault(a, []).append(b)
        boxes.append((k, j, table))

    found = {n: [] for n in range(1, max_legs + 1)}
    seen, work = set(), []

    def add(s, n):
        if s and s not in seen:
            seen.add(s)
            found[n].append(s)
            work.append((s, n))

    for k, j, table in boxes:
        if not k:
            add(frozenset(((), b) for b in table[()]), j)
    while work:
        s, n = work.pop()
        for k, j, table in boxes:
            if 0 < k <= n and 0 < n - k + j <= max_legs:
                add(frozenset(((), o + r[k:]) for _, r in s
                              for o in table.get(r[:k], ())), n - k + j)
        for i in range(n - 1):
            add(frozenset(((), r[:i] + (r[i + 1], r[i]) + r[i + 2:])
                          for _, r in s), n)
        for m in range(1, max_legs - n + 1):
            for t in found[m]:
                add(frozenset(((), a + b) for _, a in s for _, b in t),
                    n + m)
    base = 2 if theory == HALFSPEK else 4
    return {n: sorted((Relation(rel.I, Space(base, n), s) for s in states),
                      key=lambda r: r.to_text())
            for n, states in found.items()}


def enumerate_closure(theory=SPEK) -> ClosureReport:
    """The relations with at most one input and one output leg.

    By map-state duality these are the two scalars, the states on one leg
    and their converses as effects, and the states on two legs bent into
    one-system maps; each hom set also holds its empty relation and is
    sorted by text.
    """
    states = enumerate_states(theory, 2)
    one = Space(2 if theory == HALFSPEK else 4, 1)
    hom = {(0, 0): [rel.scalar(False), rel.scalar(True)],
           (0, 1): [rel.empty(rel.I, one)] + states[1],
           (1, 0): [rel.empty(one, rel.I)] + [s.converse() for s in states[1]],
           (1, 1): [rel.empty(one, one)] + [bend_state_to_map(s, 1)
                                            for s in states[2]]}
    return ClosureReport(theory, {k: sorted(rs, key=lambda r: r.to_text())
                                  for k, rs in hom.items()})


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
    """Cardinality balance of a state and of every proper marginal."""
    if state.dom != rel.I:
        raise ValueError("expected a state (domain the unit)")
    n = state.cod.arity
    count = len(state.pairs)
    verdicts = []
    legs = list(range(1, n + 1))
    for size in range(1, n):
        for keep in itertools.combinations(legs, size):
            sub = state.marginal(keep)
            verdicts.append((keep, _balanced(len(sub.pairs), size)))
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


def bend_state_to_map(state: Relation, split: int) -> Relation:
    """Curry a state on m+n legs into a map with m inputs, via the cups."""
    m = state.cod.arity - split
    base = state.cod.base
    pairs = frozenset((row[:m], row[m:]) for _, row in state.pairs)
    return Relation(Space(base, m), Space(base, split), pairs)


@dataclass(frozen=True)
class DualityReport:
    n_states: int
    n_maps: int
    bijective: bool
    identity_matches_diagonal: bool


def check_map_state_duality(theory=SPEK) -> DualityReport:
    """Bending two-leg states into one-system maps.

    ``bijective`` holds when no two states bend to the same map and the
    maps, with the empty one, hold the identity and every one-system
    generator and are closed under composition and converse, as the hom
    set of a category with a dagger must be.  A map is held as the bitmask
    of each input's images.
    """
    states = enumerate_states(theory, 2)[2]
    one = Space(2 if theory == HALFSPEK else 4, 1)
    base = one.base
    index = {d: i for i, d in enumerate(one.digits())}
    ident = rel.identity(one)

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

    maps = {images(bend_state_to_map(s, 1)) for s in states}
    homset = maps | {(0,) * base}
    needed = {images(ident)} | {images(resolve(g))
                                for g in generator_set(theory)
                                if arity(g) == (1, 1)}
    tables = [unions(g) for g in homset]
    closed = all(converse(f) in homset for f in homset) and all(
        tuple(table[img] for img in f) in homset
        for f in homset for table in tables)
    diagonal = Relation(rel.I, Space(base, 2),
                        frozenset(((), (t, t)) for (t,) in one.tuples()))
    bent_to_ident = [s for s in states if bend_state_to_map(s, 1) == ident]
    return DualityReport(
        n_states=len(states),
        n_maps=len(maps),
        bijective=len(maps) == len(states) and needed <= homset and closed,
        identity_matches_diagonal=bent_to_ident == [diagonal],
    )


@dataclass(frozen=True)
class CardinalityVerdict:
    theory: str
    ok: bool
    counts: Dict[int, List[int]]
    spek_exact: Optional[bool]


def check_mspek_cardinalities(states_by_legs, theory=MSPEK):
    """Power-of-two cardinality bounds on every enumerated state."""
    ok = True
    exact = True
    counts = {}
    for n, states in states_by_legs.items():
        counts[n] = sorted({len(s.pairs) for s in states})
        for s in states:
            if not _balanced(len(s.pairs), n):
                ok = False
            if len(s.pairs) != 1 << n:
                exact = False
    return CardinalityVerdict(theory, ok, counts,
                              exact if theory == SPEK else None)


def halfspek_parity_sweep(max_boxes=5):
    """Exhaustively check the two-level parity law on connected diagrams.

    Builds every connected HalfSpek state diagram with up to ``max_boxes``
    boxes by growing from the unit state (copying a leg, fusing two legs,
    capping a leg, inserting the swap permutation on a leg) and checks that
    the evaluated state is the full parity class fixed by the number of
    swap boxes.  Closed diagrams must evaluate to the scalar matching that
    parity.  Returns (diagrams checked, list of failures).
    """
    from .diagrams import Diagram
    from .permutations import Z2_SWAP

    seed = parse("theory halfspek\nbox r: eps+\nout r.1\n")
    queue = [(seed, 0)]
    checked = 0
    failures = []
    while queue:
        d, swaps = queue.pop()
        n = len(d.legs)
        r = evaluate(d)
        checked += 1
        if n == 0:
            expect_full = swaps % 2 == 0
            if bool(r.pairs) != expect_full:
                failures.append(d.to_source())
        else:
            want = frozenset(((), row)
                             for row in Space(2, n).tuples()
                             if sum(row) % 2 == swaps % 2)
            if r.pairs != want:
                failures.append(d.to_source())
        if len(d.boxes) >= max_boxes:
            continue
        for i in range(n):
            port, _ = d.legs[i]
            rest = [lg for k, lg in enumerate(d.legs) if k != i]
            name = "b%d" % len(d.boxes)
            for gen, ports, new_out in (
                    (GeneratorId("delta", HALFSPEK), ("in",), ("1", "2")),
                    (GeneratorId("epsilon", HALFSPEK), ("in",), ()),
                    (GeneratorId("perm", HALFSPEK, Z2_SWAP), ("in",), ("1",))):
                nd = Diagram(
                    HALFSPEK,
                    d.boxes + ((name, gen),),
                    d.wires + ((port, (name, "in")),),
                    tuple(rest) + tuple(((name, s), "out") for s in new_out))
                queue.append((nd, swaps + (gen.tag == "perm")))
        for i in range(n):
            for j in range(i + 1, n):
                name = "b%d" % len(d.boxes)
                rest = [lg for k, lg in enumerate(d.legs) if k not in (i, j)]
                nd = Diagram(
                    HALFSPEK,
                    d.boxes + ((name, GeneratorId("delta_dagger", HALFSPEK)),),
                    d.wires + ((d.legs[i][0], (name, "in")),
                               (d.legs[j][0], (name, "in2"))),
                    tuple(rest) + (((name, "1"), "out"),))
                queue.append((nd, swaps))
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
