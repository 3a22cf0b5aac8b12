"""State enumeration and consistency checks for the toy theories.

One walk, ``row_spaces``, lists the row spaces A of the phase-space model
(Pusey, arXiv:1103.5037); each coset {x : Ax = c} is a state the
generators build.  ``verify`` makes the checks of the ``SUITES`` the
command line runs, reading balance and sizes off A alone
(``space_balanced``).  ``_solutions`` lists the states as the indices of
their rows, which ``_split`` cuts into relations m -> n by map-state
duality: ``enumerate_states`` at m = 0, ``enumerate_closure`` at
m, n <= 1.  Duality reads its maps off the index lists.  States are
counted by formula (``closed_form_counts``), whose ``_space_counts``
refuses a bad theory or leg count for every reader.
"""

from __future__ import annotations

import itertools
import sys
from collections import namedtuple
from operator import itemgetter

from . import gf2
from . import relations as rel
from .diagrams import Diagram, bend_leg, evaluate, parse, slots
from .generators import (BASE, HALFSPEK, MSPEK, SPEK, GeneratorId,
                         arity, check_theory, resolve)
from .permutations import Z2_SWAP
from .relations import CapacityError, Relation, Space, max_arity


class ClosureReport(namedtuple("ClosureReport", "theory hom")):
    """``hom`` maps (m, n) to the relations with m input and n output legs."""

    __slots__ = ()


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


MAX_ROWS = 10 ** 7     # the most rows the model's states may hold


def row_spaces(theory, max_legs):
    """Each row space A of the theory's states on 1..max_legs legs, as
    (n, its reduced rows), by leg count: an isotropic subspace, Lagrangian
    for Spek, or for HalfSpek the blocks of a partition of the legs.  Its
    2^k cosets {x : Ax = c} on k rows are states.  First ``_space_counts``
    refuses the theory or leg count, then MAX_ROWS the model's rows, each
    space on n legs holding base^n over its states."""
    counts = _space_counts(theory, max_legs)
    total = sum(sum(ks) * BASE[theory] ** n for n, ks in counts.items())
    if total > MAX_ROWS:
        raise CapacityError("%s states on up to %d legs hold %d rows, more "
                            "than %d" % (theory, max_legs, total, MAX_ROWS))
    for n in counts:
        for rows in (_partitions(n) if theory == HALFSPEK else _isotropic(
                n, (n,) if theory == SPEK else range(n + 1))):
            yield n, rows


def space_balanced(n, rows):
    """Whether the 2^k states {x : Ax = c} of k reduced rows A on n legs,
    two bits each, are balanced, by ranks alone: a state has 2^(2n-k)
    rows, so k <= n, and its marginal on a proper leg set S 2^(2|S|-j),
    j = k - rank(A with S's bits cleared), so j <= |S|.  A leg set s, as
    a bitmask, spreads to S's bits read in base 4, times 3."""
    k = len(rows)
    return k <= n and all(
        k - gf2.rank([r & cleared for r in rows]) <= s.bit_count()
        for s in range(1, (1 << n) - 1)
        for cleared in [~(int(format(s, "b"), 4) * 3)])


def _solutions(theory, max_legs):
    """All states of the theory with 1..max_legs legs, each as the sorted
    indices of its rows, by leg count and in the order of their texts.

    Value v of Spek and MSpek is the bits (p, q) = divmod(v - 1, 2), a
    HalfSpek value one bit; with leg 0 most significant a solution x of
    Ax = c is the index of its row in ``Space.tuples()`` order.  The rows
    of ``row_spaces`` come reduced: the kernel of A is read off them
    (``gf2.kernel``), and the particular solutions are their pivots' sums.
    """
    indices = {}
    for n, rows in row_spaces(theory, max_legs):
        span = gf2.span(gf2.kernel(rows, n * BASE[theory] // 2))
        indices.setdefault(n, []).extend(
            sorted(p ^ s for s in span)
            for p in gf2.span([1 << (r.bit_length() - 1) for r in rows]))
    for states in indices.values():
        states.sort()   # every row has n digits: this is text order
    return indices


def _split(theory, m, n, solutions):
    """The relations m -> n whose rows, split after their first m digits,
    are the (m+n)-leg index lists ``solutions``: map-state duality."""
    dom, cod = Space(BASE[theory], m), Space(BASE[theory], n)
    entries = [(a, b) for a in dom.tuples() for b in cod.tuples()]
    return [Relation(dom, cod, frozenset(map(entries.__getitem__, idx)))
            for idx in solutions]


def enumerate_states(theory=SPEK, max_legs=3):
    """All states of the theory with 1..max_legs legs, by leg count and
    sorted by text, as the sets of their ``((), row)`` pairs."""
    return {n: _split(theory, 0, n, states)
            for n, states in _solutions(theory, max_legs).items()}


def enumerate_closure(theory=SPEK) -> ClosureReport:
    """The relations with at most one input and one output leg.

    By map-state duality hom(m, n) is the states on m + n legs bent, each
    row split after its first m entries, plus the empty relation; the true
    scalar is the one state on no legs.  Each is in text order as built:
    the states come sorted by text, a bent state lists the same rows in
    the same order, and "*" and every digit sort before the "∅" of the
    empty relation.
    """
    solutions = {0: [[0]], **_solutions(theory, 2)}
    return ClosureReport(theory, {
        (m, n): _split(theory, m, n, solutions[m + n] + [[]])
        for m, n in itertools.product((0, 1), repeat=2)})


# ---------------------------------------------------------------------------
# Knowledge balance and algebraic law checks.


class KbpVerdict(namedtuple("KbpVerdict", "state global_ok subsystem_ok "
                                          "maximal_knowledge")):
    """``subsystem_ok`` holds ``(legs, balanced)`` per proper marginal."""

    __slots__ = ()

    @property
    def ok(self):
        return self.global_ok and all(ok for _, ok in self.subsystem_ok)


def _balanced(count, n):
    """Whether count is 2^k for some n <= k <= 2n: a power of two whose bit
    length is n + 1 to 2n + 1."""
    return not count & count - 1 and n < count.bit_length() <= 2 * n + 1


def check_kbp(state: Relation) -> KbpVerdict:
    """Cardinality balance of a state and of every proper marginal.

    A marginal's size is the number of distinct projections of the rows
    onto its legs, counted without building the marginal.
    """
    if state.dom != rel.I:
        raise ValueError("expected a state (domain the unit)")
    n = state.cod.arity
    count = len(state.pairs)
    rows = [row for _, row in state.pairs] if n > 1 else ()
    verdicts = []
    for size in range(1, n):
        for idx, legs in zip(itertools.combinations(range(n), size),
                             itertools.combinations(range(1, n + 1), size)):
            seen = len(set(map(itemgetter(*idx), rows)))
            verdicts.append((legs, _balanced(seen, size)))
    return KbpVerdict(state, _balanced(count, n), tuple(verdicts),
                      count == 1 << n)


def check_basis_structure(delta: Relation, eps: Relation) -> dict[str, bool]:
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


class DualityReport(namedtuple("DualityReport", "n_states n_maps bijective "
                                                "identity_matches_diagonal")):
    __slots__ = ()


def _bent_maps(theory):
    """Each two-leg state bent, in state order, then the empty map, 0: the
    one-system hom set by map-state duality.  A map is a base x base
    boolean matrix in one int, bit base*x + y set when the x-th value
    relates to the y-th (from 0), which is the index of the row (x, y)."""
    maps = [sum(1 << i for i in idx) for idx in _solutions(theory, 2)[2]]
    return maps + [0]


def _generator_matrices(theory):
    """The matrices the one-system hom set must hold: the identity's, then
    each one-system generator's.  Those generators are the permutations,
    in the order of ``generator_set`` (by image tuple), and a
    permutation's matrix is its graph."""
    digits = Space(BASE[theory], 1).digits()     # the identity's images
    graphs = [digits] + sorted(itertools.permutations(digits))
    return [sum(1 << len(digits) * x + y - digits.start
                for x, y in enumerate(images)) for images in graphs]


def _closed(maps, base):
    """(composition, converse): whether the set ``maps`` of ``_bent_maps``
    ints holds every composite f;g and every converse of its members.

    The sorted maps are packed into one word, one field of 8 (HalfSpek)
    or 16 bits per map.  Column y of every f at once, each entry moved to
    the first bit of its row and times row y of g, is the part of every
    f;g that passes through y, so base steps compose g after all maps.
    base^2 shift, AND and OR steps transpose every field at once.
    """
    size = (base * base + 7) // 8           # bytes per field
    fields = range(0, 8 * size * len(maps), 8 * size)
    packed = sum(m << s for m, s in zip(sorted(maps), fields))
    field_starts = sum(1 << s for s in fields)
    row_starts = sum(field_starts << base * x for x in range(base))
    cols = [packed >> y & row_starts for y in range(base)]
    mask = (1 << base) - 1

    def composites(g):
        word = 0
        for y, col in enumerate(cols):
            word |= col * (g >> base * y & mask)
        return word

    def fields_of(words):
        data = b"".join(w.to_bytes(size * len(maps), sys.byteorder)
                        for w in words)
        return memoryview(data).cast("BH"[size - 1])

    converse = 0
    for x, y in itertools.product(range(base), repeat=2):
        converse |= (packed >> base * x + y & field_starts) << base * y + x
    return (maps.issuperset(fields_of(map(composites, maps))),
            maps.issuperset(fields_of([converse])))


def check_map_state_duality(theory=SPEK) -> DualityReport:
    """The one-system maps, the two-leg states bent, as a dagger hom set.

    A map is held as its boolean matrix in one int, read straight off the
    index list of a two-leg state from ``_solutions``: the maps are one
    per two-leg state and the empty map (``_bent_maps``).
    ``bijective`` holds when no two of them are the same map, and the maps
    hold the identity and every one-system generator
    (``_generator_matrices``) and are closed under composition and
    converse, as the hom set of a category with a dagger must be;
    ``_closed`` checks every composite and converse on the maps packed
    into one word.  The identity must occur once: the diagonal is the one
    state bent to it.
    """
    maps = _bent_maps(theory)
    homset = set(maps)
    needed = _generator_matrices(theory)
    return DualityReport(
        n_states=len(maps) - 1,
        n_maps=len(homset) - 1,
        bijective=(len(homset) == len(maps) and homset.issuperset(needed)
                   and all(_closed(homset, BASE[theory]))),
        identity_matches_diagonal=maps.count(needed[0]) == 1,
    )


class CardinalityVerdict(namedtuple("CardinalityVerdict",
                                    "theory ok counts spek_exact")):
    """``counts`` maps each leg count to its sorted state cardinalities."""

    __slots__ = ()


def check_mspek_cardinalities(states_by_legs, theory=MSPEK):
    """Power-of-two cardinality bounds on every enumerated state."""
    counts = {n: sorted({len(s.pairs) for s in states})
              for n, states in states_by_legs.items()}
    ok = all(_balanced(c, n) for n, cs in counts.items() for c in cs)
    exact = all(c == 1 << n for n, cs in counts.items() for c in cs)
    return CardinalityVerdict(theory, ok, counts,
                              exact if theory == SPEK else None)


def _space_counts(theory, max_legs):
    """For each n in 1..max_legs, the number of row spaces on n legs with
    k rows, for k = 0..n, by formula: the k-dimensional isotropic
    subspaces of Z2^(2n) (k = n only for Spek), of which there are
    prod_{i<k} (4^(n-i) - 1) / (2^(i+1) - 1), or for HalfSpek the S(n, k)
    partitions of the legs into k blocks (S(n, k) the Stirling numbers of
    the second kind).  Refuses first an unknown theory, fewer than one leg
    (``ValueError``) and more legs than ``max_arity()`` (``CapacityError``),
    since every count and walk of states reads these."""
    check_theory(theory)
    if max_legs < 1:
        raise ValueError("max_legs must be at least 1")
    if max_legs > max_arity():
        raise CapacityError("%d legs exceed the arity ceiling" % max_legs)
    counts, stirling = {}, [1]          # S(n, k) for k = 0..n, from n = 0
    for n in range(1, max_legs + 1):
        stirling = [k * a + b for k, (a, b) in
                    enumerate(zip(stirling + [0], [0] + stirling))]
        counts[n], subspaces = [], 1
        for k in range(n + 1):
            counts[n].append(stirling[k] if theory == HALFSPEK else
                             subspaces if theory == MSPEK or k == n else 0)
            subspaces = subspaces * (4 ** (n - k) - 1) // (2 ** (k + 1) - 1)
    return counts


def closed_form_counts(theory=SPEK, max_legs=3):
    """The number of states on each of 1..max_legs legs, by formula: 2^k
    states on each row space of k rows (``_space_counts``, which refuses
    what it cannot count)."""
    return {n: sum(c << k for k, c in enumerate(ks))
            for n, ks in _space_counts(theory, max_legs).items()}


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


SUITES = ("kbp", "laws", "duality", "cardinality")


def verify(suites, arity):
    """The checks of the named ``SUITES`` on up to ``arity`` legs, all made
    before any is returned, as (status, name, detail) lines, status PASS
    or FAIL.  kbp and cardinality read one ``row_spaces`` walk per theory:
    a space of k rows on n legs holds 2^k states of 2^(2n-k) rows each."""
    lines = []

    def check(name, ok, detail=""):
        lines.append(("PASS" if ok else "FAIL", name, detail))

    if "laws" in suites:
        for theory in (SPEK, HALFSPEK):
            d = resolve(GeneratorId("delta", theory))
            e = resolve(GeneratorId("epsilon", theory))
            for law, ok in check_basis_structure(d, e).items():
                check("laws.%s.%s" % (theory, law), ok)
        bad = check_basis_structure(
            resolve(GeneratorId("delta", SPEK)),
            resolve(GeneratorId("bottom_dagger", MSPEK)))
        check("laws.bottom-not-counit", not bad["counit-left"])
        check("laws.ghz-delta", ghz_delta_identity())
    walked = {}     # theory -> its states, balanced states and sizes by n
    for theory in (SPEK, MSPEK, HALFSPEK):
        if "cardinality" in suites or ("kbp" in suites and theory != HALFSPEK):
            states, balanced, sizes = walked[theory] = {}, {}, {}
            for n, rows in row_spaces(theory, arity):
                k = len(rows)      # 2^k states, one per coset
                states[n] = states.get(n, 0) + (1 << k)
                if theory != HALFSPEK:
                    sizes.setdefault(n, set()).add(1 << 2 * n - k)
                    if "kbp" in suites and space_balanced(n, rows):
                        balanced[n] = balanced.get(n, 0) + (1 << k)
    if "kbp" in suites:
        for theory in (SPEK, MSPEK):
            total, ok = (sum(walked[theory][i].values()) for i in (0, 1))
            check("kbp.%s" % theory, ok == total,
                  "%d/%d states balanced" % (ok, total))
    if "cardinality" in suites:
        cs, cm = ({n: sorted(v) for n, v in walked[theory][2].items()}
                  for theory in (SPEK, MSPEK))
        check("cardinality.spek-exact",
              all(c == 1 << n for n, v in cs.items() for c in v), str(cs))
        check("cardinality.mspek-range",
              all(_balanced(c, n) for n, v in cm.items() for c in v),
              str(cm))
        for theory in (SPEK, MSPEK, HALFSPEK):
            got = walked[theory][0]
            want = closed_form_counts(theory, arity)
            check("cardinality.%s-count" % theory, got == want,
                  str(got) if got == want
                  else "%s, closed form %s" % (got, want))
    if "duality" in suites:
        for theory in (SPEK, MSPEK, HALFSPEK):
            rep = check_map_state_duality(theory)
            check("duality.%s.bijective" % theory, rep.bijective,
                  "%d states, %d maps" % (rep.n_states, rep.n_maps))
            check("duality.%s.identity-diagonal" % theory,
                  rep.identity_matches_diagonal)
    return lines
