import functools
import hashlib
import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from nets import golden_diagram
from spekcat import diagrams as dg
from spekcat import gf2
from spekcat import relations as rel
from spekcat import verification as vf
from spekcat.generate import random_diagram
from spekcat.generators import (BASE, THEORIES, GeneratorId, TheoryError,
                                arity, generator_set, resolve)
from spekcat.permutations import s4
from spekcat.relations import I, CapacityError, Relation, Space, max_arity


def as_state(rows, n):
    return Relation(I, Space(4, n), frozenset(((), r) for r in rows))


def test_spek_single_system_states(spek_closure_1):
    states = spek_closure_1.hom[(0, 1)]
    got = sorted(sorted(t[0] for _, t in s.pairs) for s in states if s.pairs)
    assert got == [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]


def test_mspek_single_system_states():
    rep = vf.enumerate_closure("mspek")
    sizes = sorted(len(s.pairs) for s in rep.hom[(0, 1)] if s.pairs)
    assert sizes == [2, 2, 2, 2, 2, 2, 4]


def test_single_system_maps():
    # 60 and 91 are the phase-space counts of two-leg states
    for theory, count in (("spek", 60), ("mspek", 91), ("halfspek", 6)):
        maps = [r for r in vf.enumerate_closure(theory).hom[(1, 1)]
                if r.pairs]
        assert len(maps) == len(set(maps)) == count, theory


def test_closure_is_complete_and_sound():
    def small(m, n):
        return m <= 1 and n <= 1

    for theory in THEORIES:
        rep = vf.enumerate_closure(theory)
        pool = {r for hom in rep.hom.values() for r in hom}
        for r in pool:
            if small(r.cod.arity, r.dom.arity):
                assert r.converse() in pool
            for s in pool:
                if r.cod == s.dom and small(r.dom.arity, s.cod.arity):
                    assert r.then(s) in pool
                if small(r.dom.arity + s.dom.arity,
                         r.cod.arity + s.cod.arity):
                    assert r.tensor(s) in pool
        for g in generator_set(theory):
            r = resolve(g)
            if small(r.dom.arity, r.cod.arity):
                assert r in pool, g.name


def test_closure_contains_empty_scalar(spek_closure_1):
    scalars = spek_closure_1.hom[(0, 0)]
    assert rel.scalar(True) in scalars
    assert rel.scalar(False) in scalars


def test_state_counts(spek_states_3):
    assert {n: len(v) for n, v in spek_states_3.items()} == \
        {1: 6, 2: 60, 3: 1080}


def test_states_n2_are_products_or_correlations(spek_states_3):
    got = {frozenset(r for _, r in s.pairs) for s in spek_states_3[2]}
    singles = [frozenset({1, 2}), frozenset({3, 4}), frozenset({1, 3}),
               frozenset({2, 4}), frozenset({1, 4}), frozenset({2, 3})]
    products = {frozenset(itertools.product(s1, s2))
                for s1 in singles for s2 in singles}
    graphs = {frozenset(zip((1, 2, 3, 4), p.images)) for p in s4()}
    assert len(products) == 36 and len(graphs) == 24
    assert not products & graphs
    assert got == products | graphs
    assert len(got) == 60


def test_kbp_diagonal_state():
    psi = as_state({(x, x) for x in (1, 2, 3, 4)}, 2)
    v = vf.check_kbp(psi)
    assert v.ok and v.maximal_knowledge
    assert all(ok for _, ok in v.subsystem_ok)


def test_kbp_fails_on_forced_marginal():
    s = as_state({(1, k) for k in (1, 2, 3, 4)}, 2)
    v = vf.check_kbp(s)
    assert v.global_ok
    assert not v.ok
    assert dict(v.subsystem_ok)[(1,)] is False


def test_kbp_rejects_maps():
    with pytest.raises(ValueError):
        vf.check_kbp(resolve(GeneratorId("epsilon", "spek")))


def test_kbp_universality(spek_states_3, mspek_states_3):
    for states in (spek_states_3, mspek_states_3):
        for n in states:
            for s in states[n]:
                assert vf.check_kbp(s).ok


def balanced(count, n):
    """Knowledge balance by its definition: count is 2^k, n <= k <= 2n."""
    return count in {2 ** k for k in range(n, 2 * n + 1)}


def test_balance_bit_test_matches_the_definition():
    for n in range(7):
        for count in range(2 ** (2 * n + 1) + 2):
            assert vf._balanced(count, n) is balanced(count, n), (count, n)


def kbp_reference(state):
    """``check_kbp`` by its definition: build each proper marginal with
    ``Relation.marginal`` and read its size."""
    n = state.cod.arity
    count = len(state.pairs)
    verdicts = tuple((keep, balanced(len(state.marginal(keep).pairs), size))
                     for size in range(1, n)
                     for keep in itertools.combinations(range(1, n + 1),
                                                        size))
    return vf.KbpVerdict(state, balanced(count, n), verdicts,
                         count == 1 << n)


def test_kbp_counts_as_the_marginals_do():
    states = [dg.evaluate(golden_diagram("ghz"))]
    for theory in THEORIES:
        for group in vf.enumerate_states(theory, 3).values():
            states += group
    rng = random.Random(14)
    for n in range(4):
        rows = list(Space(4, n).tuples())
        states.append(as_state((), n))
        states += [as_state(rng.sample(rows, rng.randint(0, len(rows))), n)
                   for _ in range(500)]
    verdicts = [vf.check_kbp(s) for s in states]
    assert verdicts == [kbp_reference(s) for s in states]
    assert any(v.ok for v in verdicts) and not all(v.ok for v in verdicts)


def cosets(n, rows):
    """The states {x : Ax = c} of the rows A on n legs, one per value c of
    Ax, built row by row: x is the index of a row in ``Space.tuples()``
    order, bits 2i+1 and 2i the p and q of leg n-1-i."""
    groups = {}
    for x, row in enumerate(Space(4, n).tuples()):
        c = tuple((r & x).bit_count() & 1 for r in rows)
        groups.setdefault(c, []).append(row)
    return [as_state(group, n) for group in groups.values()]


@pytest.mark.parametrize("theory, count", [("spek", 1146), ("mspek", 2565)])
def test_space_verdict_matches_kbp_on_every_coset(theory, count):
    states = 0
    for n, rows in vf.row_spaces(theory, 3):
        verdict = vf.space_balanced(n, rows)
        for state in cosets(n, rows):
            assert vf.check_kbp(state).ok == verdict, (n, rows)
            states += 1
    assert states == count


def test_space_verdict_matches_kbp_on_random_subspaces():
    # any subspace of up to 4 legs, isotropic or not, as reduced rows
    rng = random.Random(31)
    verdicts = []
    for _ in range(1000):
        n = rng.randint(1, 4)
        rows = gf2.rref(rng.getrandbits(2 * n)
                        for _ in range(rng.randint(0, 2 * n)))
        verdicts.append(vf.space_balanced(n, rows))
        for state in cosets(n, rows):
            assert vf.check_kbp(state).ok == verdicts[-1], (n, rows)
    assert 250 < verdicts.count(False) < 750


def test_spek_cardinalities_exact(spek_states_3):
    verdict = vf.check_mspek_cardinalities(spek_states_3, "spek")
    assert verdict.ok and verdict.spek_exact
    assert verdict.counts == {1: [2], 2: [4], 3: [8]}


def test_mspek_cardinalities_in_range(mspek_states_3):
    verdict = vf.check_mspek_cardinalities(mspek_states_3, "mspek")
    assert verdict.ok
    assert verdict.counts[1] == [2, 4]


def test_cardinality_catches_bad_state():
    bad = {1: [as_state({(1,), (2,), (3,)}, 1)]}
    assert not vf.check_mspek_cardinalities(bad, "mspek").ok


def test_bottom_cap_halves_or_preserves(spek_states_3):
    bot_effect = {1, 2, 3, 4}
    for s in spek_states_3[2]:
        kept = {r for _, r in s.pairs if r[1] in bot_effect}
        assert len(kept) in (len(s.pairs), len(s.pairs) // 2)


def test_map_state_duality():
    for theory, count in (("spek", 60), ("mspek", 91), ("halfspek", 6)):
        rep = vf.check_map_state_duality(theory)
        assert rep.bijective, theory
        assert rep.n_states == rep.n_maps == count
        assert rep.identity_matches_diagonal


def test_map_state_duality_catches_a_missing_state(monkeypatch):
    real = vf._solutions

    def drop_one(theory, max_legs):
        states = real(theory, max_legs)
        states[2] = states[2][1:]
        return states

    monkeypatch.setattr(vf, "_solutions", drop_one)
    for theory in THEORIES:
        assert not vf.check_map_state_duality(theory).bijective, theory


def test_map_state_duality_catches_an_extra_state(monkeypatch):
    real = vf._solutions

    def add_constant(theory, max_legs):
        # the two-leg state {(x, lo)}, which bends to a constant map
        states = real(theory, max_legs)
        base = BASE[theory]
        states[2] = states[2] + [[base * x for x in range(base)]]
        return states

    monkeypatch.setattr(vf, "_solutions", add_constant)
    for theory in THEORIES:
        rep = vf.check_map_state_duality(theory)
        assert rep.n_maps == rep.n_states, theory
        assert not rep.bijective, theory


@pytest.mark.parametrize("theory", THEORIES)
def test_map_state_duality_catches_any_missing_state(theory, monkeypatch):
    full = vf._solutions(theory, 2)
    for k in range(len(full[2])):
        states = {**full, 2: full[2][:k] + full[2][k + 1:]}
        monkeypatch.setattr(vf, "_solutions", lambda t, n: states)
        assert not vf.check_map_state_duality(theory).bijective, k


def _matrix(r):
    """A one-system map as a base x base boolean matrix in one int: bit
    base*x + y is set when the x-th value relates to the y-th, values
    counted from 0 in digit order.  A two-leg state is read as the map it
    bends to: its row (x, y) is the pair x ~ y."""
    base = r.cod.base
    offset = (base + 1) * r.cod.digits().start
    return sum(1 << base * x + y - offset for x, y in itertools.starmap(
        operator.add, r.pairs))


@pytest.mark.parametrize("theory", THEORIES)
def test_duality_reads_the_closure_maps_off_the_states(theory):
    # the two-leg states bent by _matrix are the closure's (1, 1) hom set
    hom = vf.enumerate_closure(theory).hom[(1, 1)]
    assert vf._bent_maps(theory) == [_matrix(r) for r in hom]
    assert vf._bent_maps(theory)[:-1] == [
        _matrix(s) for s in vf.enumerate_states(theory, 2)[2]]


@pytest.mark.parametrize("theory", THEORIES)
def test_duality_needs_the_identity_and_the_one_system_generators(theory):
    one = Space(BASE[theory], 1)
    want = [_matrix(rel.identity(one))] + [
        _matrix(resolve(g)) for g in generator_set(theory)
        if arity(g) == (1, 1)]
    assert vf._generator_matrices(theory) == want
    assert len(want) == {"spek": 25, "mspek": 25, "halfspek": 3}[theory]


@pytest.mark.parametrize("theory", THEORIES)
def test_duality_and_closure_build_no_state_relations(theory, monkeypatch):
    # both read the model's index lists, not the states as relations
    want = four_case_closure(theory)
    count = {"spek": 60, "mspek": 91, "halfspek": 6}[theory]

    def refuse(*args):
        raise AssertionError("a state was built as a relation")

    monkeypatch.setattr(vf, "enumerate_states", refuse)
    assert vf.check_map_state_duality(theory) == \
        vf.DualityReport(count, count, True, True)
    assert vf.enumerate_closure(theory).hom == want


@pytest.mark.parametrize("name", ["Spek", "spekk", "", "MSPEK"])
def test_unknown_theories_are_refused(name, monkeypatch):
    def walk(*args):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(vf, "_isotropic", walk)
    monkeypatch.setattr(vf, "_partitions", walk)
    for call in (lambda: vf.closed_form_counts(name, 2),
                 lambda: vf.enumerate_states(name, 2),
                 lambda: vf.enumerate_closure(name),
                 lambda: vf.check_map_state_duality(name)):
        with pytest.raises(TheoryError, match="unknown theory"):
            call()


def closure(maps, compose, converse, limit=40):
    """``maps`` closed under composition and/or converse, or as far as it
    got once it holds more than ``limit`` maps."""
    maps = set(maps)
    while len(maps) <= limit:
        more = set()
        if compose:
            more |= {f.then(g) for f in maps for g in maps}
        if converse:
            more |= {f.converse() for f in maps}
        if more <= maps:
            break
        maps |= more
    return maps


@st.composite
def one_system_maps(draw):
    """A base and a set of relations on one system of that base, closed
    under composition, converse, both or neither."""
    base = draw(st.sampled_from([4, 2]))
    one = Space(base, 1)
    pairs = [((x,), (y,)) for x in one.digits() for y in one.digits()]
    relation = st.frozensets(st.sampled_from(pairs)).map(
        lambda ps: Relation(one, one, ps))
    maps = draw(st.sets(relation, max_size=4))
    return base, closure(maps, draw(st.booleans()), draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(one_system_maps())
def test_packed_closure_matches_composing_each_pair(drawn):
    base, maps = drawn
    want = (all(f.then(g) in maps for f in maps for g in maps),
            all(f.converse() in maps for f in maps))
    assert vf._closed({_matrix(r) for r in maps}, base) == want


def test_basis_structure_failure_case():
    d = resolve(GeneratorId("delta", "spek"))
    bad = resolve(GeneratorId("bottom_dagger", "mspek"))
    laws = vf.check_basis_structure(d, bad)
    assert not laws["counit-left"]


def test_ghz_delta_identity():
    assert vf.ghz_delta_identity()


def test_ghz_state_is_balanced():
    r = dg.evaluate(golden_diagram("ghz"))
    assert len(r.pairs) == 8
    assert vf.check_kbp(r).ok


def test_halfspek_parity_sweep():
    assert vf.halfspek_parity_sweep(5) == (516, [])


def test_halfspek_states():
    states = vf.enumerate_states("halfspek", 2)
    got1 = {frozenset(r for _, r in s.pairs) for s in states[1]}
    assert got1 == {frozenset({(0,)}), frozenset({(1,)})}
    got2 = {frozenset(r for _, r in s.pairs) for s in states[2]}
    singletons = {frozenset({(a, b)}) for a in (0, 1) for b in (0, 1)}
    classes = {frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (1, 0)})}
    assert got2 == singletons | classes


def mspek_witness():
    """An MSpek GHZ state whose three legs are each wired into a second GHZ
    state, whose legs pass through perm((23)); of those, one is discarded
    by bot+, one takes the wire and one is an output (24 boxes)."""
    lines = ["theory mspek", "box u: eps+", "box d1: delta", "box d2: delta",
             "wire u.1 d1.in", "wire d1.1 d2.in"]
    outs = []
    for i, leg in enumerate(("d2.1", "d2.2", "d1.2")):
        u, a, b, c, p, q, r = ("%s%d" % (x, i) for x in "uabcpqr")
        lines += ["box %s: eps+" % u, "box %s: delta" % a,
                  "box %s: delta" % b, "box %s: bot+" % c]
        lines += ["box %s: perm((23))" % x for x in (p, q, r)]
        lines += ["wire %s.1 %s.in" % (u, a), "wire %s.1 %s.in" % (a, b),
                  "wire %s.1 %s.in" % (b, p), "wire %s.2 %s.in" % (b, q),
                  "wire %s.2 %s.in" % (a, r), "wire %s.1 %s.in" % (p, c),
                  "wire %s.1 %s" % (q, leg)]
        outs.append("%s.1" % r)
    return dg.parse("\n".join(lines + ["out " + " ".join(outs)]) + "\n")


@functools.cache
def witness_orbit():
    """The witness's state under every triple of local permutations."""
    rows = [b for _, b in dg.evaluate(mspek_witness()).pairs]
    return {as_state({tuple(p(v) for p, v in zip(ps, row)) for row in rows},
                     3)
            for ps in itertools.product(s4(), repeat=3)}


def test_model_has_the_states_of_a_deep_witness():
    # its state has a known variable on all three systems; purifying it
    # takes more than three legs, so no fixpoint bounded by the three legs
    # reaches it (the generator-based enumeration missed these 54)
    d = mspek_witness()
    assert len(d.boxes) == 24
    rows = {b for _, b in dg.evaluate(d).pairs}
    assert rows == {row for row in Space(4, 3).tuples()
                    if sum(v in (2, 4) for v in row) % 2 == 0}
    orbit = witness_orbit()
    assert len(orbit) == 54
    assert orbit <= set(vf.enumerate_states("mspek", 3)[3])


def test_random_diagrams_evaluate_to_model_states():
    for theory in THEORIES:
        model = {n: set(states)
                 for n, states in vf.enumerate_states(theory, 3).items()}
        checked = 0
        for seed in range(1000):
            r = dg.evaluate(dg.as_state(random_diagram(seed, theory)))
            n = r.cod.arity
            if 1 <= n <= 3 and r.pairs:     # the empty relation is no state
                assert r in model[n], (theory, seed)
                checked += 1
        assert checked > 400, theory


def walked_counts(theory, legs):
    """The states on each of 1..legs legs, summed as 2^k over a walk of
    the row spaces themselves, k being a space's number of rows."""
    return {n: sum(1 << len(rows) for rows in (
                vf._partitions(n) if theory == "halfspek" else
                vf._isotropic(n, (n,) if theory == "spek" else range(n + 1))))
            for n in range(1, legs + 1)}


def test_counts_match_the_closed_forms():
    assert vf.closed_form_counts("spek", 4) == {1: 6, 2: 60, 3: 1080,
                                                4: 36720}
    assert vf.closed_form_counts("mspek", 4) == {1: 7, 2: 91, 3: 2467,
                                                 4: 150451}
    assert vf.closed_form_counts("halfspek", 6) == {1: 2, 2: 6, 3: 22, 4: 94,
                                                    5: 454, 6: 2430}
    for theory in THEORIES:
        want = vf.closed_form_counts(theory, 4)
        assert walked_counts(theory, 4) == want, theory
        got = vf.enumerate_states(theory, 3)
        assert {n: len(v) for n, v in got.items()} == \
            {n: want[n] for n in (1, 2, 3)}, theory


def test_spek_counts_are_the_stabilizer_state_counts(monkeypatch):
    # 2^n prod_{k=1..n} (2^k + 1), the n-qubit stabilizer states
    # (Aaronson-Gottesman, quant-ph/0406196), by formula alone
    def walk(*args):
        raise AssertionError("a walk started")

    monkeypatch.setattr(vf, "_isotropic", walk)
    counts = vf.closed_form_counts("spek", max_arity())
    assert list(counts) == list(range(1, max_arity() + 1))
    for n, count in counts.items():
        assert count == 2 ** n * math.prod(2 ** k + 1
                                           for k in range(1, n + 1)), n


def enumeration_records():
    for theory in THEORIES:
        if theory != "mspek":
            rep = vf.enumerate_closure(theory)
            yield "closure %s" % theory
            for key in ((0, 0), (0, 1), (1, 0), (1, 1)):
                for r in rep.hom[key]:
                    yield r.to_text()
        for legs in (1, 2, 3):
            yield "states %s %d" % (theory, legs)
            states = vf.enumerate_states(theory, legs)
            for n in sorted(states):
                for s in states[n]:
                    if theory != "mspek" or s not in witness_orbit():
                        yield s.to_text()


# sha256 of enumeration_records, recorded from the word closure of the
# generators with at most one leg on each side: the hom sets read off the
# states must give the same relations for Spek and HalfSpek, and the state
# enumeration the same states in the same order.  MSpek's closure is left
# out: the word closure missed 18 of its 91 one-system maps
# (test_single_system_maps).  So are the 54 three-leg MSpek states of the
# witness orbit, which the generator-based enumeration missed.
ENUMERATION_DIGEST = "a4057a85b846ba9805f3319ac074d1f81dee1620b332af7c7f73fec920e8948c"


@pytest.mark.parametrize("theory", THEORIES)
def test_closure_hom_sets_are_sorted_by_text(theory):
    rep = vf.enumerate_closure(theory)
    assert sorted(rep.hom) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for key, hom in rep.hom.items():
        assert hom == sorted(hom, key=Relation.to_text), key


def four_case_closure(theory):
    """The one-leg hom sets written out case by case: the two scalars, the
    one-leg states and their converses, the two-leg states bent."""
    states = vf.enumerate_states(theory, 2)
    one = Space(BASE[theory], 1)
    return {
        (0, 0): [rel.scalar(True), rel.scalar(False)],
        (0, 1): states[1] + [Relation(I, one, frozenset())],
        (1, 0): [s.converse() for s in states[1]]
        + [Relation(one, I, frozenset())],
        (1, 1): [Relation(one, one, frozenset(((x,), (y,)) for _, (x, y)
                                              in s.pairs))
                 for s in states[2]] + [Relation(one, one, frozenset())]}


@pytest.mark.parametrize("theory", THEORIES)
def test_closure_matches_the_four_case_reference(theory):
    hom = vf.enumerate_closure(theory).hom
    want = four_case_closure(theory)
    assert list(hom) == list(want)
    for key in want:
        assert hom[key] == want[key], key


def test_state_enumeration_does_not_use_the_closure(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_states called enumerate_closure")

    monkeypatch.setattr(vf, "enumerate_closure", refuse)
    for theory, counts in (("spek", {1: 6, 2: 60}), ("mspek", {1: 7, 2: 91}),
                           ("halfspek", {1: 2, 2: 6})):
        states = vf.enumerate_states(theory, 2)
        assert {n: len(v) for n, v in states.items()} == counts


def test_state_enumeration_needs_a_leg():
    for max_legs in (0, -1):
        with pytest.raises(ValueError):
            vf.enumerate_states("spek", max_legs)
        for theory in THEORIES:
            with pytest.raises(ValueError, match="at least 1"):
                vf.closed_form_counts(theory, max_legs)


def test_counting_refuses_above_the_arity_ceiling(monkeypatch):
    def total(theory, legs):
        return sum(vf.closed_form_counts(theory, legs).values())

    def walk(*args):
        raise AssertionError("a walk started")

    monkeypatch.setattr(vf, "_isotropic", walk)     # counting walks nothing
    monkeypatch.setattr(vf, "_partitions", walk)
    assert [total("mspek", 5), total("spek", 5), total("halfspek", 10)] == \
        [21708683, 2461386, 5130120]
    assert [total("spek", 6), total("mspek", 6)] == [317518986, 7475789214]
    for theory, counts in (("spek", [2423520, 315057600]),
                           ("mspek", [21555667, 7454080531])):
        assert [vf.closed_form_counts(theory, 6)[n] for n in (5, 6)] == \
            counts
        with pytest.raises(CapacityError, match="rows, more than"):
            vf.enumerate_states(theory, 6)
    # at a million legs the formula would not finish: the ceiling comes first
    for theory, legs in itertools.product(THEORIES, (11, 10 ** 6)):
        for call in (vf.closed_form_counts, vf.enumerate_states):
            with pytest.raises(CapacityError,
                               match="%d legs exceed the arity" % legs):
                call(theory, legs)


def model_rows(theory, legs):
    """The rows the states on 1..legs legs hold, by the space counts:
    base^n over the 2^k states of each row space on n legs."""
    return sum(sum(ks) * BASE[theory] ** n
               for n, ks in vf._space_counts(theory, legs).items())


def test_row_count_matches_the_states():
    for theory in THEORIES:
        states = vf.enumerate_states(theory, 3)
        assert model_rows(theory, 3) == sum(
            len(s.pairs) for group in states.values() for s in group)
    assert [model_rows("spek", 4), model_rows("mspek", 4),
            model_rows("spek", 5), model_rows("mspek", 5)] == \
        [596412, 4994944, 78149052, 1775392640]


def test_enumeration_refuses_above_the_row_budget(monkeypatch):
    def walk(*args):
        raise AssertionError("a walk started before the refusal")

    assert model_rows("mspek", 4) <= vf.MAX_ROWS < model_rows("spek", 5)
    with monkeypatch.context() as mp:
        mp.setattr(vf, "_isotropic", walk)
        for theory in ("spek", "mspek"):
            message = "hold %d rows" % model_rows(theory, 5)
            with pytest.raises(CapacityError, match=message):
                vf.enumerate_states(theory, 5)
            with pytest.raises(CapacityError, match=message):
                vf._solutions(theory, 5)
        # inside the budget the walk starts
        with pytest.raises(AssertionError, match="a walk started"):
            vf._solutions("mspek", 4)
    # the row budget bounds the tuple sets only, not the counts
    monkeypatch.setattr(vf, "MAX_ROWS", model_rows("spek", 2) - 1)
    assert vf.closed_form_counts("spek", 2) == {1: 6, 2: 60}
    with pytest.raises(CapacityError, match="hold 252 rows"):
        vf.enumerate_closure("spek")
    monkeypatch.setattr(vf, "MAX_ROWS", model_rows("spek", 2))
    assert len(vf.enumerate_closure("spek").hom[(1, 1)]) == 61


def test_enumerations_match_pinned_digest():
    h = hashlib.sha256()
    for line in enumeration_records():
        h.update(line.encode() + b"\0")
    assert h.hexdigest() == ENUMERATION_DIGEST


def test_enumeration_refuses_above_the_ceiling(monkeypatch):
    monkeypatch.setenv("SPEK_MAX_CELLS", "16")      # arity ceiling 2
    for theory, counts in (("spek", {1: 6, 2: 60}), ("mspek", {1: 7, 2: 91}),
                           ("halfspek", {1: 2, 2: 6})):
        states = vf.enumerate_states(theory, 2)
        assert {n: len(v) for n, v in states.items()} == counts, theory
        with pytest.raises(CapacityError):
            vf.enumerate_states(theory, 3)


def test_enumerations_respect_the_arity_ceiling(monkeypatch):
    monkeypatch.setenv("SPEK_MAX_CELLS", "3")
    with pytest.raises(CapacityError):
        vf.enumerate_closure("spek")
    with pytest.raises(CapacityError):
        vf.enumerate_states("spek", 1)
