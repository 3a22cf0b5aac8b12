"""Closure enumeration and consistency checks for the toy theories.

Both enumerations run semi-naively, forming new results only from what
the previous step added, on one small kernel for relations packed as
integers (one bit per pair of tuples; exact compose, tensor and converse).
``enumerate_closure`` is the breadth-first closure of the generators
under the three operations, keeping the results with at most one leg on
each side and run until a round adds nothing, with a witness word for
every relation.  ``enumerate_states`` closes the generating states under
leg-level moves built from the generators with a worklist; it gives the
full state sets at small arity, where the raw closure would be
intractable.  Neither engine calls the other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import relations as rel
from .diagrams import bend_leg, evaluate, parse
from .generators import (HALFSPEK, MSPEK, SPEK, GeneratorId, generator_set,
                         parse_generator_name, resolve)
from .relations import CapacityError, Relation, Space, max_arity
from .worked import ghz_diagram


def _word_text(word) -> str:
    if isinstance(word, str):
        return word
    op = word[0]
    if op == "conv":
        return "conv(%s)" % _word_text(word[1])
    sep = " ; " if op == "compose" else " x "
    return "(%s%s%s)" % (_word_text(word[1]), sep, _word_text(word[2]))


def eval_word(word, theory) -> Relation:
    """Re-evaluate a closure witness word to the relation it denotes."""
    if isinstance(word, str):
        return resolve(parse_generator_name(word, theory))
    op = word[0]
    if op == "conv":
        return eval_word(word[1], theory).converse()
    a = eval_word(word[1], theory)
    b = eval_word(word[2], theory)
    return a.then(b) if op == "compose" else a.tensor(b)


@dataclass
class ClosureReport:
    theory: str
    hom: Dict[Tuple[int, int], Dict[Relation, object]]

    def relations(self, m, n):
        return sorted(self.hom.get((m, n), {}),
                      key=lambda r: r.to_text())

    def states(self, n):
        return [r for r in self.relations(0, n) if r.pairs]

    def witness(self, r: Relation):
        return self.hom[(r.dom.arity, r.cod.arity)][r]


# ---------------------------------------------------------------------------
# Packed relations.  Over a fixed base b, a relation m -> n is the triple
# (m, n, bits), with bit x * b**n + y set when the pair (x, y) is in the
# relation; x and y index tuples in Space.tuples() order.


def _ones(bits):
    """Positions of the set bits, lowest first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _pack(r: Relation):
    xs, ys = ({t: i for i, t in enumerate(s.tuples())} for s in (r.dom, r.cod))
    bits = 0
    for a, b in r.pairs:
        bits |= 1 << xs[a] * len(ys) + ys[b]
    return (r.dom.arity, r.cod.arity, bits)


def _unpack(base, p) -> Relation:
    dom, cod = Space(base, p[0]), Space(base, p[1])
    xs, ys = list(dom.tuples()), list(cod.tuples())
    return Relation(dom, cod, frozenset(
        (xs[i // len(ys)], ys[i % len(ys)]) for i in _ones(p[2])))


def _compose(base, r, s):
    """r ; s for r: m -> k and s: k -> n."""
    (m, k, a), (_, n, b) = r, s
    inner, width = base ** k, base ** n
    mask = (1 << width) - 1
    out = 0
    while a:
        low = a & -a
        x, y = divmod(low.bit_length() - 1, inner)
        out |= (b >> y * width & mask) << x * width
        a ^= low
    return (m, n, out)


def _tensor(base, r, s):
    (m1, n1, a), (m2, n2, b) = r, s
    if max(m1 + m2, n1 + n2) > max_arity():
        raise CapacityError("tensor result exceeds arity ceiling")
    w1, w2, rows2 = base ** n1, base ** n2, base ** m2
    out = 0
    for i in _ones(a):
        x1, y1 = divmod(i, w1)
        for x2 in range(rows2):
            row = b >> x2 * w2 & (1 << w2) - 1
            out |= row << ((x1 * rows2 + x2) * w1 + y1) * w2
    return (m1 + m2, n1 + n2, out)


def _converse(base, r):
    m, n, a = r
    out = 0
    for i in _ones(a):
        x, y = divmod(i, base ** n)
        out |= 1 << y * base ** m + x
    return (n, m, out)


def enumerate_closure(theory=SPEK) -> ClosureReport:
    """Breadth-first closure of the generators under the three operations,
    keeping the results with at most one input and one output leg.

    Deterministic: each round scans the pool in canonical (arity, text)
    order.  Semi-naive: a round forms only the converses of, and the pairs
    involving, relations that the previous round added, since every other
    product was formed in an earlier round.  It stops after the first round
    that adds nothing, which comes because there are finitely many relations
    with at most one leg on each side.
    """
    base = 2 if theory == HALFSPEK else 4
    pool: Dict[tuple, object] = {}    # packed relation -> witness word
    found = {}                        # packed relation -> (scan key, relation)

    def enter(words):
        for p, word in words.items():
            r = _unpack(base, p)
            pool[p], found[p] = word, ((p[:2], r.to_text()), r)

    new = {}
    for g in generator_set(theory):
        new.setdefault(_pack(resolve(g)), g.name)
    new.setdefault(_pack(rel.identity(Space(base, 1))), "id")
    enter(new)
    while new:
        ordered = sorted(pool, key=lambda p: found[p][0])
        recent = [p for p in ordered if p in new]
        fresh = {}

        def add(p, word):
            if p[0] <= 1 and p[1] <= 1 and p not in pool and p not in fresh:
                fresh[p] = word

        for p in recent:
            add(_converse(base, p), ("conv", pool[p]))
        for a in ordered:
            for b in ordered if a in new else recent:
                if a[1] == b[0]:
                    add(_compose(base, a, b), ("compose", pool[a], pool[b]))
                if a[0] + b[0] <= 1 and a[1] + b[1] <= 1:
                    add(_tensor(base, a, b), ("tensor", pool[a], pool[b]))
        enter(fresh)
        new = fresh

    hom: Dict[Tuple[int, int], Dict[Relation, object]] = {}
    for p, word in pool.items():
        hom.setdefault(p[:2], {})[found[p][1]] = word
    return ClosureReport(theory, hom)


# ---------------------------------------------------------------------------
# Complete state enumeration at small arity.


def _generating_maps(base, perms):
    """Some of the permutations whose composites give all of them; as moves
    they reach the same states.  The identity, which moves nothing, counts
    as reached from the start."""
    ident = _pack(rel.identity(Space(base, 1)))
    kept, reached = [], {ident}
    for f in perms:
        if f in reached:
            continue
        kept.append(f)
        reached, work = {ident, *kept}, list(kept)
        while work:
            p = work.pop()
            for g in kept:
                q = _compose(base, p, g)
                if q not in reached:
                    reached.add(q)
                    work.append(q)
    return kept


def enumerate_states(theory=SPEK, max_legs=3):
    """All states of the theory with 1..max_legs legs, as tuple sets.

    Closes the generating states (the generators and their converses with
    no input leg) under leg-level moves and under tensoring.  A move is one
    of the other generators or their converses on adjacent legs (a
    permutation, copying, fusing, capping or discarding), or the swap of two
    adjacent legs, packed as an n -> m relation and applied by composition.
    Each state leaves the worklist once and is tensored, both ways round,
    with every state found so far.  Returns a dict mapping the leg count to
    the sorted list of nonempty states.
    """
    if max_legs < 1:
        raise ValueError("max_legs must be at least 1")
    base = 2 if theory == HALFSPEK else 4
    perms, others = [], []
    for g in generator_set(theory):
        (perms if g.tag == "perm" else others).append(_pack(resolve(g)))
    others += [_converse(base, g) for g in others]
    swap = rel.swap(Space(base, 1), Space(base, 1))
    boxes = _generating_maps(base, perms) + [_pack(swap)] + [
        g for g in others if g[0]]
    ids = [_pack(rel.identity(Space(base, k))) for k in range(max_legs + 1)]
    moves = {n: [] for n in range(1, max_legs + 1)}
    for n, box, i in itertools.product(moves, boxes, range(max_legs)):
        k, j = box[:2]                  # box: k -> j on legs i+1..i+k of n
        if i + k <= n and 0 < n - k + j <= max_legs:
            moves[n].append(_tensor(base, _tensor(base, ids[i], box),
                                    ids[n - i - k]))

    found = {n: [] for n in range(1, max_legs + 1)}
    seen, work = set(), []

    def add(s):
        if s[2] and s not in seen:
            seen.add(s)
            found[s[1]].append(s)
            work.append(s)

    for g in others:
        if not g[0]:
            add(g)
    while work:
        s = work.pop()
        for move in moves[s[1]]:
            add(_compose(base, s, move))
        for k in range(1, max_legs - s[1] + 1):
            for t in found[k]:
                add(_tensor(base, s, t))
                add(_tensor(base, t, s))
    return {n: sorted((_unpack(base, s) for s in states),
                      key=lambda r: r.to_text())
            for n, states in found.items()}


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
    """Bending as a bijection between two-leg states and one-system maps."""
    states = enumerate_states(theory, 2)[2]
    maps = [r for r in enumerate_closure(theory).relations(1, 1) if r.pairs]
    bent = {bend_state_to_map(s, 1) for s in states}
    base = 2 if theory == HALFSPEK else 4
    ident = rel.identity(Space(base, 1))
    diagonal = Relation(rel.I, Space(base, 2),
                        frozenset(((), (t[0], t[0]))
                                  for t in Space(base, 1).tuples()))
    ident_state = next(s for s in states if bend_state_to_map(s, 1) == ident)
    return DualityReport(
        n_states=len(states),
        n_maps=len(maps),
        bijective=(bent == set(maps) and len(bent) == len(states)),
        identity_matches_diagonal=(ident_state == diagonal),
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
    d = ghz_diagram()
    bent = bend_leg(d, 2)
    target = resolve(GeneratorId("delta", SPEK))
    got = evaluate(bent)
    dagger_ok = (evaluate(bent).converse()
                 == resolve(GeneratorId("delta_dagger", SPEK)))
    return got == target and dagger_ok
