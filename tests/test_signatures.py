import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from nets import (EMPTY_SCALAR, chain, fan, golden_diagram, odd_adjacency,
                  zone_profile)
from spekcat import diagrams as dg
from spekcat import gf2
from spekcat import signatures as sg
from spekcat.generate import random_diagram
from spekcat import relations as rel
from spekcat.relations import CapacityError, Relation, Space

TRIANGLE_SIGNATURES = [
    (((0, 0), (0, 0), (1, 0)), 1),
    (((1, 0), (1, 0), (0, 1)), 1),
    (((1, 0), (1, 1), (0, 0)), 1),
    (((0, 0), (0, 1), (1, 1)), 1),
    (((0, 1), (1, 0), (0, 0)), 1),
    (((1, 1), (0, 0), (1, 1)), 1),
    (((1, 1), (0, 1), (1, 0)), 1),
    (((0, 1), (1, 1), (0, 1)), 1),
]

INTERNALIZED_SIGNATURES = [
    (((0, 0), (1, 0)), 1),
    (((0, 0), (1, 1)), 1),
    (((1, 1), (1, 0)), 1),
    (((1, 1), (1, 1)), 1),
]


def test_triangle_profiles_and_blocks():
    form, zd = sg.state_form(golden_diagram("triangle"))
    profiles = [zone_profile(zd.diagram, z.boxes) for z in zd.zones]
    assert profiles == [(0, 0), (0, 1), (1, 0)]
    assert sorted(form.signatures) == sorted(TRIANGLE_SIGNATURES)
    assert form.zone_legs == (2, 1, 2)


def test_triangle_expansion_block_combinatorics():
    form, _ = sg.state_form(golden_diagram("triangle"))
    r = form.expand()
    assert len(r.pairs) == 32
    assert len(form.signatures) == 8
    for sig, count in form.signatures:
        block = [per for per in
                 itertools.product(*(sg._zone_block(pt, k)
                                     for pt, k in zip(sig, form.zone_legs)))]
        assert len(block) == 4


def test_internalized_signatures_and_constraint():
    form, _ = sg.state_form(golden_diagram("triangle_internalized"))
    assert sorted(form.signatures) == sorted(INTERNALIZED_SIGNATURES)
    assert len(form.expand().pairs) == 16
    assert form.system.to_text() == "T1 + T2 + T3 = 0"


def test_triangle_form_text_layout():
    form, _ = sg.state_form(golden_diagram("triangle_internalized"))
    assert form.to_text().splitlines() == [
        "(Odd,12; Even,12) x1",
        "(Odd,12; Even,34) x1",
        "(Even,34; Even,12) x1",
        "(Even,34; Even,34) x1",
    ]


def test_forms_match_brute_force_on_worked_examples():
    for name in ("triangle", "triangle_internalized", "chain", "ghz",
                 "eta", "bent"):
        d = golden_diagram(name)
        form, _ = sg.state_form(d)
        assert form.expand() == dg.evaluate(dg.as_state(d))


def test_inconsistent_constraints_give_empty():
    d = dg.parse(EMPTY_SCALAR)
    form, _ = sg.state_form(d)
    assert form.system.rows and form.signatures == ()
    assert form.to_text() == "EMPTY\n"
    assert not form.expand().pairs
    assert not dg.evaluate(d).pairs

    d2 = golden_diagram("empty_state")
    form2, _ = sg.state_form(d2)
    assert form2.signatures == () and not dg.evaluate(d2).pairs


def test_phased_form_of_diagonal():
    eta = golden_diagram("eta")
    form, zd = sg.state_form(eta)
    assert len(zd.zones) == 1 and not zd.links
    assert form.signatures == ((((1, 0),), 1), (((1, 1),), 1))
    assert form.expand() == dg.evaluate(eta)


def test_phased_form_of_unit_state():
    form, _ = sg.state_form(dg.parse("box e: eps+\nout e.1\n"))
    assert form.expand().pairs == frozenset({((), (1,)), ((), (3,))})


def test_external_form_type_signatures_exhaustive():
    # no internal zones: every type assignment appears, once
    form, zd = sg.state_form(golden_diagram("triangle"))
    assert not zd.internal_zones
    types = sorted(tuple(t for _, t in sig) for sig, _ in form.signatures)
    assert types == sorted(itertools.product((0, 1), repeat=3))
    assert {count for _, count in form.signatures} == {1}


def test_parity_flip_when_linking_mixed_types():
    # tensor two unit states, then the same pair joined by a Sigma link:
    # blocks where the types differ flip parity, equal types do not
    free_src = "box a: eps+\nbox b: eps+\nout a.1 b.1\n"
    linked_src = ("box a: eps+\nbox d1: delta\nbox s: perm((24))\n"
                  "box b: eps+\nbox d2: delta\n"
                  "wire a.1 d1.in\nwire b.1 d2.in\n"
                  "wire d1.2 s.in\nwire s.1 d2.1\n"
                  "out d1.1 d2.2\n")
    free, _ = sg.state_form(dg.parse(free_src))
    linked, _ = sg.state_form(dg.parse(linked_src))
    free_by_type = {tuple(t for _, t in sig): tuple(p for p, _ in sig)
                    for sig, _ in free.signatures}
    for sig, _ in linked.signatures:
        types = tuple(t for _, t in sig)
        parities = tuple(p for p, _ in sig)
        base = free_by_type[types]
        flip = types[0] ^ types[1]
        assert parities == tuple(p ^ flip for p in base)


def test_chain_duplication_and_acs():
    rep = sg.duplication_analysis(golden_diagram("chain"))
    assert rep.n_zones == 7
    assert rep.internal_zones == (3, 4, 5, 6)
    assert rep.system.rank == 3 and len(rep.system.rows) == 4
    assert rep.duplication_factor == 2
    assert rep.distinct_signatures == 8
    assert rep.acs == ((4, 5, 6),)
    assert all(3 not in witness for witness in rep.acs)


def test_duplication_trivial_when_constraints_independent():
    rep = sg.duplication_analysis(golden_diagram("triangle_internalized"))
    assert rep.duplication_factor == 1
    assert rep.distinct_signatures == 4


def test_duplication_refuses_many_internal_zones():
    with pytest.raises(CapacityError):
        sg.duplication_analysis(dg.parse(fan(sg.MAX_ACS_ZONES + 1)))


def test_duplication_invariants_raise(monkeypatch):
    d = golden_diagram("chain")
    form, zd = sg.state_form(d)
    doubled = form._replace(multiplicity=2 * form.multiplicity)
    monkeypatch.setattr(sg, "state_form", lambda _: (doubled, zd))
    with pytest.raises(RuntimeError):
        sg.duplication_analysis(d)


def copy_tree(n):
    """One zone: the unit state copied out to n legs by n - 1 deltas."""
    lines = ["box e: eps+", "wire e.1 d1.in"]
    for i in range(1, n):
        lines.append("box d%d: delta" % i)
        if i > 1:
            lines.append("wire d%d.2 d%d.in" % (i - 1, i))
    outs = ["d%d.1" % i for i in range(1, n)] + ["d%d.2" % (n - 1)]
    return dg.parse("\n".join(lines + ["out " + " ".join(outs)]) + "\n")


def test_expand_refuses_exponential_output(monkeypatch):
    # the ceiling is evaluate's, twice max_arity() legs; chain(21) has the
    # same leg count, but its form alone lists 2^21 signatures
    monkeypatch.delenv("SPEK_MAX_CELLS", raising=False)
    form, _ = sg.state_form(copy_tree(21))
    assert form.n_legs == 21 and len(form.signatures) == 2
    with pytest.raises(CapacityError):
        form.expand()
    assert len(sg.state_form(dg.parse(chain(11)))[0].expand().pairs) == 2048
    monkeypatch.setenv("SPEK_MAX_CELLS", "16")
    assert len(sg.state_form(dg.parse(chain(4)))[0].expand().pairs) == 16
    with pytest.raises(CapacityError):
        sg.state_form(dg.parse(chain(5)))[0].expand()


def test_state_form_refuses_exponential_output(monkeypatch):
    # 2^rank signatures, refused above twice max_arity(), expand's leg
    # ceiling: chain(n) has rank n
    monkeypatch.setenv("SPEK_MAX_CELLS", "16")          # arity ceiling 2
    assert len(sg.state_form(dg.parse(chain(4)))[0].signatures) == 16
    with pytest.raises(CapacityError):
        sg.state_form(dg.parse(chain(5)))
    with pytest.raises(CapacityError):
        sg.duplication_analysis(dg.parse(chain(5)))


def test_state_form_refuses_chain_21_quickly(monkeypatch):
    monkeypatch.delenv("SPEK_MAX_CELLS", raising=False)
    d = dg.parse(chain(21))
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        sg.state_form(d)
    assert time.perf_counter() - start < 1.0


def test_state_form_of_chain_20_lists_nothing(monkeypatch):
    # 2^20 signatures, within the ceiling: the form holds them as a basis
    monkeypatch.delenv("SPEK_MAX_CELLS", raising=False)
    d = dg.parse(chain(20))
    start = time.perf_counter()
    form, _ = sg.state_form(d)
    assert time.perf_counter() - start < 1.0
    assert len(form.basis) == 20


def test_signatures_are_the_affine_space():
    for seed in range(200):
        form, _ = sg.state_form(random_diagram(seed))
        size = 0 if form.shift is None else 2 ** len(form.basis)
        assert len(form.signatures) == size
        assert all(n == form.multiplicity for _, n in form.signatures)


def reference_expand(form):
    """The row-by-row expansion the bit-space span replaces: each block
    row is flattened zone by zone, then permuted into source leg order."""
    n = form.n_legs
    inverse = [0] * n
    for pos, orig in enumerate(form.leg_order):
        inverse[orig] = pos
    pairs = set()
    for sig, _ in form.signatures:
        per_zone = [sg._zone_block(pt, k)
                    for pt, k in zip(sig, form.zone_legs)]
        for combo in itertools.product(*per_zone):
            flat = tuple(itertools.chain.from_iterable(combo))
            pairs.add(((), tuple(flat[i] for i in inverse)))
    return Relation(rel.I, Space(4, n) if n else rel.I, frozenset(pairs))


NO_EQUATIONS = sg.ConstraintSystem(0, (), ())


@st.composite
def state_forms(draw):
    """Any form: 0-4 zones of 1-3 legs, any leg order, and either no
    signature or the affine space of a shift in 2e bits and an rref'd
    basis of up to 2e random words."""
    zone_legs = tuple(draw(st.lists(st.integers(1, 3), max_size=4)))
    leg_order = tuple(draw(st.permutations(range(sum(zone_legs)))))
    words = st.integers(0, (1 << 2 * len(zone_legs)) - 1)
    shift = draw(st.none() | words)
    if shift is None:
        return sg.StateForm(zone_legs, leg_order, NO_EQUATIONS, None, (), 0)
    basis = gf2.rref(draw(st.lists(words, max_size=2 * len(zone_legs))))
    return sg.StateForm(zone_legs, leg_order, NO_EQUATIONS, shift,
                        tuple(basis), draw(st.sampled_from((1, 2, 4))))


@settings(max_examples=400, deadline=None)
@given(state_forms())
def test_expand_matches_reference_expansion(form):
    assert form.expand() == reference_expand(form)


@settings(max_examples=400, deadline=None)
@given(state_forms())
def test_walk_lists_the_affine_space_in_sorted_order(form):
    e = len(form.zone_legs)
    words = ([] if form.shift is None
             else sorted(form.shift ^ s for s in gf2.span(form.basis)))
    assert list(form.walk()) == [
        (tuple((w >> (e - 1 - i) & 1, w >> (2 * e - 1 - i) & 1)
               for i in range(e)), form.multiplicity) for w in words]


def test_expand_of_zero_leg_forms():
    unit = sg.StateForm((), (), NO_EQUATIONS, 0, (), 1)
    assert unit.signatures == (((), 1),)
    assert unit.expand() == reference_expand(unit)
    assert unit.expand().pairs == frozenset({((), ())})
    assert not sg.StateForm((), (), NO_EQUATIONS, None, (), 0).expand().pairs


def tally_per_solution(d):
    """Reference closed form: walk every type assignment, keep those that
    make each internal zone's parity Even, and tally the external zones'
    (parity, type) pairs."""
    zd = dg.zone_decompose(dg.as_state(d))
    profiles = [zone_profile(zd.diagram, z.boxes) for z in zd.zones]
    adjacency = odd_adjacency(zd)

    def zone_bits(i, assignment):
        a, a1 = profiles[i]
        t = (assignment >> i) & 1
        p = a ^ ((a ^ a1) & t)
        for j in adjacency[i]:
            p ^= t ^ ((assignment >> j) & 1)
        return p, t

    tally = {}
    for assignment in range(1 << len(zd.zones)):
        if all(zone_bits(i, assignment)[0] == 1 for i in zd.internal_zones):
            sig = tuple(zone_bits(i, assignment) for i in zd.external_zones)
            tally[sig] = tally.get(sig, 0) + 1
    return tuple(sorted(tally.items(),
                        key=lambda kv: (tuple(t for _, t in kv[0]),
                                        tuple(p for p, _ in kv[0]))))


def test_closed_form_matches_tally_on_fans():
    for m in range(1, 9):
        form, _ = sg.state_form(dg.parse(fan(m)))
        assert form.signatures == tally_per_solution(dg.parse(fan(m)))
        assert {n for _, n in form.signatures} == {1 << (m - 1)}


def test_closed_form_matches_tally_on_random_diagrams():
    repeated = 0
    for seed in range(200):
        d = random_diagram(seed)
        form, _ = sg.state_form(d)
        assert form.signatures == tally_per_solution(d)
        repeated += any(n > 1 for _, n in form.signatures)
    assert repeated


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100000))
def test_oracle_equivalence_random(seed):
    d = random_diagram(seed)
    form, _ = sg.state_form(d)
    assert form.expand() == dg.evaluate(dg.as_state(d))


def test_oracle_equivalence_exhaustive_small():
    # every wiring of up to three boxes over a representative alphabet
    alphabet = ["delta", "eps+", "perm((24))", "perm((12))"]
    checked = 0
    for size in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(alphabet, size):
            boxes = ["box b%d: %s" % (k, g) for k, g in enumerate(combo)]
            ports = []
            for k, g in enumerate(combo):
                if g != "eps+":
                    ports.append("b%d.in" % k)
                ports.append("b%d.1" % k)
                if g == "delta":
                    ports.append("b%d.2" % k)
            for wires in _matchings(ports):
                open_ports = [p for p in ports
                              if not any(p in w for w in wires)]
                lines = list(boxes)
                lines += ["wire %s %s" % w for w in wires]
                ins = [p for p in open_ports if p.endswith(".in")]
                outs = [p for p in open_ports if not p.endswith(".in")]
                if ins:
                    lines.append("in " + " ".join(ins))
                if outs:
                    lines.append("out " + " ".join(outs))
                d = dg.parse("\n".join(lines) + "\n")
                form, _ = sg.state_form(d)
                assert form.expand() == dg.evaluate(dg.as_state(d))
                checked += 1
    assert checked > 1000


def _matchings(ports):
    if not ports:
        yield ()
        return
    first, rest = ports[0], ports[1:]
    # leave first open
    for m in _matchings(rest):
        yield m
    # or wire it to any later port
    for i, other in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for m in _matchings(remaining):
            yield ((first, other),) + m
