"""Closure enumeration and consistency checks for the toy theories.

Two enumeration engines live here.  ``enumerate_closure`` is a word-level
breadth-first closure of the generators under composition, tensor and
converse, bounded by arity and round count; it is exact at arity 1.
``enumerate_states`` is a fixpoint engine over states only, which applies
single-leg and two-leg moves until no new state appears; it enumerates the
full state sets at small arity where the raw closure would be intractable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import relations as rel
from .diagrams import bend_leg, evaluate, parse
from .generators import (HALFSPEK, MSPEK, SPEK, GeneratorId, generator_set,
                         resolve)
from .relations import Relation, Space
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
        from .generators import parse_generator_name
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
    arity_bound: int
    hom: Dict[Tuple[int, int], Dict[Relation, object]]
    complete: bool
    rounds: int

    def relations(self, m, n):
        return sorted(self.hom.get((m, n), {}),
                      key=lambda r: r.to_text())

    def states(self, n, include_empty=False):
        out = [r for r in self.relations(0, n) if r.pairs or include_empty]
        return out

    def witness(self, r: Relation):
        return self.hom[(r.dom.arity, r.cod.arity)][r]


def _hom_key(r: Relation):
    return (r.dom.arity, r.cod.arity)


def enumerate_closure(theory=SPEK, arity_bound=1, step_bound=6) -> ClosureReport:
    """Breadth-first closure of the generators under the three operations.

    Deterministic: each round scans the pool in canonical (arity, text)
    order.  The report is marked complete when a round adds nothing new.
    """
    if arity_bound < 1:
        raise ValueError("arity_bound must be at least 1")
    pool: Dict[Relation, object] = {}
    seeds = list(generator_set(theory))
    base = 2 if theory == HALFSPEK else 4
    seeds_named = [(g.name, resolve(g)) for g in seeds]
    seeds_named.append(("id", rel.identity(Space(base, 1))))
    for name, r in seeds_named:
        pool.setdefault(r, name)

    def within(r):
        return r.dom.arity <= arity_bound and r.cod.arity <= arity_bound

    complete = False
    rounds = 0
    for rounds in range(1, step_bound + 1):
        ordered = sorted(pool, key=lambda r: (_hom_key(r), r.to_text()))
        fresh = {}

        def add(r, word):
            if within(r) and r not in pool and r not in fresh:
                fresh[r] = word

        for r in ordered:
            add(r.converse(), ("conv", pool[r]))
        for a, b in itertools.product(ordered, repeat=2):
            if a.cod == b.dom:
                add(a.then(b), ("compose", pool[a], pool[b]))
            if (a.dom.arity + b.dom.arity <= arity_bound
                    and a.cod.arity + b.cod.arity <= arity_bound):
                add(a.tensor(b), ("tensor", pool[a], pool[b]))
        if not fresh:
            complete = True
            break
        pool.update(fresh)

    hom: Dict[Tuple[int, int], Dict[Relation, object]] = {}
    for r, word in pool.items():
        hom.setdefault(_hom_key(r), {})[r] = word
    return ClosureReport(theory, arity_bound, hom, complete, rounds)


# ---------------------------------------------------------------------------
# Complete state enumeration at small arity.


def _apply_map(state, leg, mapping):
    """Post-compose a one-system map (as a dict value -> set) onto one leg."""
    out = set()
    for row in state:
        for y in mapping.get(row[leg], ()):
            out.add(row[:leg] + (y,) + row[leg + 1:])
    return frozenset(out)


def _map_dict(r: Relation):
    d = {}
    for (x,), (y,) in r.pairs:
        d.setdefault(x, set()).add(y)
    return d


def enumerate_states(theory=SPEK, max_legs=3):
    """All states of the theory with 1..max_legs legs, as tuple sets.

    Runs leg-level moves (one-system maps, copying a leg, fusing or capping
    legs, tensoring, reordering) to a fixpoint.  Returns a dict mapping the
    leg count to the sorted list of nonempty states.
    """
    base_theory = SPEK if theory == MSPEK else theory
    maps1 = [_map_dict(r) for r in
             enumerate_closure(theory, 1, 8).relations(1, 1) if r.pairs]
    delta = resolve(GeneratorId("delta", base_theory))
    eps_keep = {x for (x,), _ in
                resolve(GeneratorId("epsilon", base_theory)).pairs}
    if theory == HALFSPEK:
        seed_rows = [frozenset({(0,)})]
    else:
        seed_rows = [frozenset({(1,), (3,)})]
        if theory == MSPEK:
            seed_rows.append(frozenset({(1,), (2,), (3,), (4,)}))
    copy = {}
    for (x,), ab in delta.pairs:
        copy.setdefault(x, set()).add(ab)
    fuse = {}
    for (a, b), (y,) in delta.converse().pairs:
        fuse.setdefault((a, b), set()).add(y)

    states = {n: set() for n in range(1, max_legs + 1)}
    for s in seed_rows:
        states[1].add(s)

    changed = True
    while changed:
        changed = False

        def add(n, s):
            nonlocal changed
            if s and s not in states[n]:
                states[n].add(s)
                changed = True

        for n in range(1, max_legs + 1):
            for s in list(states[n]):
                for leg in range(n):
                    for mp in maps1:
                        add(n, _apply_map(s, leg, mp))
                    if n < max_legs:     # copy one leg into two
                        out = set()
                        for row in s:
                            for (a, b) in copy[row[leg]]:
                                out.add(row[:leg] + (a, b) + row[leg + 1:])
                        add(n + 1, frozenset(out))
                    if n > 1:            # cap one leg with the counit
                        out = {row[:leg] + row[leg + 1:]
                               for row in s if row[leg] in eps_keep}
                        add(n - 1, frozenset(out))
                if n > 1:                # fuse two adjacent legs
                    for leg in range(n - 1):
                        out = set()
                        for row in s:
                            for y in fuse.get((row[leg], row[leg + 1]), ()):
                                out.add(row[:leg] + (y,) + row[leg + 2:])
                        add(n - 1, frozenset(out))
                for perm in itertools.permutations(range(n)):
                    add(n, frozenset(tuple(row[i] for i in perm)
                                     for row in s))
            for a in range(1, max_legs):
                for b in range(1, max_legs - a + 1):
                    for s in list(states[a]):
                        for t in list(states[b]):
                            add(a + b, frozenset(x + y for x in s for y in t))

    base = 2 if theory == HALFSPEK else 4
    out = {}
    for n in range(1, max_legs + 1):
        cod = Space(base, n)
        out[n] = sorted(
            (Relation(rel.I, cod, frozenset(((), row) for row in s))
             for s in states[n]),
            key=lambda r: r.to_text())
    return out


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
    dom = Space(base, m) if m else rel.I
    cod = Space(base, split) if split else rel.I
    pairs = frozenset((row[:m], row[m:]) for _, row in state.pairs)
    return Relation(dom, cod, pairs)


@dataclass(frozen=True)
class DualityReport:
    n_states: int
    n_maps: int
    bijective: bool
    identity_matches_diagonal: bool


def check_map_state_duality(theory=SPEK) -> DualityReport:
    """Bending as a bijection between two-leg states and one-system maps."""
    states = enumerate_states(theory, 2)[2]
    maps = [r for r in enumerate_closure(theory, 1, 8).relations(1, 1)
            if r.pairs]
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
