import hashlib
import os
import random
import time

import pytest
from hypothesis import given, strategies as st

from nets import (GOLDEN, chain, chain_int, fan, golden_diagram, grid,
                  odd_adjacency, reference_parity)
from spekcat import diagrams as dg
from spekcat import relations as rel
from spekcat import signatures as sg
from spekcat.generate import random_diagram
from spekcat.generators import BASE, MSPEK, GeneratorId, resolve
from spekcat.permutations import s4
from spekcat.relations import IV, CapacityError, Relation, Space

ETA_SRC = "box e: eps+\nbox d: delta\nwire e.1 d.in\nout d.1 d.2\n"


def test_parse_smallest_diagram():
    d = dg.parse("box e: eps+\nout e.1\n")
    assert len(d.boxes) == 1 and d.legs == ((("e", "1"), "out"),)


def test_parse_eta():
    d = dg.parse(ETA_SRC)
    assert [dr for _, dr in d.legs] == ["out", "out"]


# (source, the exact message): every message of parse, with its line
# number, and of Diagram.ports, which checks the whole diagram and has none
PARSE_ERRORS = (
    ("theory qubit\n", "line 1: unknown theory 'qubit'"),
    ("box e: eps+\ntheory mspek\nout e.1\n",
     "line 2: theory must precede box declarations"),
    ("box e eps+\nout e.1\n", "line 1: expected 'box <id>: <generator>'"),
    ("box e:  \nout e.1\n", "line 1: expected 'box <id>: <generator>'"),
    ("box e: nonsense\nout e.1\n", "line 1: unknown generator name 'nonsense'"),
    ("box e: eps+\nwire e.1\n", "line 2: wire needs exactly two ports, got 'e.1'"),
    ("box e: eps+\nwire e.1  f.in g.in\n",
     "line 2: wire needs exactly two ports, got 'e.1  f.in g.in'"),
    ("box e: eps+\nbox f: eps\nwire e.1 fin\n",
     "line 3: bad port 'fin' (expected <box>.<slot>)"),
    ("box e: eps+\nout e.1 e1\n", "line 2: bad port 'e1' (expected <box>.<slot>)"),
    ("box e: eps+\nouts e.1\n", "line 2: unknown directive 'outs'"),
    ("box : eps+\nout .1\n", "box id '' is empty or contains '.'"),
    ("box a.b: eps+\nout a.b.1\n", "box id 'a.b' is empty or contains '.'"),
    ("box e: eps+\nout f.1\n", "unknown box 'f' in leg"),
    ("box e: eps+\nbox f: eps\nwire e.1 g.in\n", "unknown box 'g' in wire"),
    ("box e: eps+\nout e.2\n", "box 'e' has no slot '2'"),
    ("box e: eps+\nout e.1 e.1\n", "port e.1 used more than once"),
    ("box e: eps+\nbox f: eps\nwire e.1 f.in\nout e.1\n",
     "port e.1 used more than once"),
    ("box d: delta\nwire d.1 d.1\nout d.in d.2\n",
     "wire from port d.1 to itself"),
    ("box e: eps+\n", "dangling port e.1"),
    ("box d: delta\nout d.in d.2\n", "dangling port d.1"),
    ("box e: eps+\nbox e: eps+\nout e.1\n", "duplicate box id 'e'"),
    # two faults: the first the checks meet is the one raised
    ("box e: eps+\nouts e.1\nwire e.1\n", "line 2: unknown directive 'outs'"),
    ("box e: nonsense\ntheory qubit\n", "line 1: unknown generator name 'nonsense'"),
    ("box e: eps+\nout e.1 e1 f\n", "line 2: bad port 'e1' (expected <box>.<slot>)"),
    ("box e: eps+\nbox e: eps\nbox : eps\n", "duplicate box id 'e'"),
    ("box : eps+\nbox e: eps\nbox e: eps\n", "duplicate box id 'e'"),
    ("box : eps+\nbox e: eps\nout f.1\n", "box id '' is empty or contains '.'"),
    ("box e: eps+\nout f.1\nwire e.1 g.in\n", "unknown box 'g' in wire"),
    ("box e: eps+\nbox d: delta\nwire d.1 d.1\nwire e.2 d.in\n",
     "wire from port d.1 to itself"),
    ("box e: eps+\nbox d: delta\nwire e.1 d.2\nwire e.1 d.in\n",
     "port e.1 used more than once"),
    ("box e: eps+\nbox f: eps\nout e.3 f.in\n", "box 'e' has no slot '3'"),
    ("box d: delta\nbox e: eps+\n", "dangling port d.in"),
)


def test_parse_errors_carry_line_numbers():
    for source, message in PARSE_ERRORS:
        with pytest.raises(dg.DiagramError) as exc:
            dg.parse(source)
        assert str(exc.value) == message, source
    # parse gives every box the declared theory, so only a diagram built
    # directly can mix theories
    d = dg.Diagram(dg.SPEK, (("e", GeneratorId("epsilon_dagger", MSPEK)),),
                   (), ((("e", "1"), "out"),))
    with pytest.raises(dg.DiagramError) as exc:
        d.validate()
    assert str(exc.value) == "box e uses theory mspek in a spek diagram"
    for source in ("box\te: eps+\nout\te.1\n", "box  e: eps+ # c\n \tout e.1\n",
                   "box e: eps+\nbox d: eps\nwire\te.1\td.in\t# c\n"):
        assert dg.parse(source).legs == dg.parse(
            source.replace("\t", " ")).legs


def test_evaluate_eta_is_diagonal():
    r = dg.evaluate(dg.parse(ETA_SRC))
    assert r.pairs == frozenset(((), (x, x)) for x in (1, 2, 3, 4))


def test_evaluate_unit_state():
    r = dg.evaluate(dg.parse("theory halfspek\nbox e: eps+\nout e.1\n"))
    assert r.pairs == frozenset({((), (0,))})


def test_evaluate_empty_diagram_is_scalar():
    assert dg.evaluate(dg.parse("")) == rel.scalar(True)


def test_evaluate_sigma_loop_matches_hand_contraction():
    # close both legs of the diagonal through (1)(3)(24): only 1 and 3 survive
    src = ("box e: eps+\nbox d: delta\nbox s: perm((24))\n"
           "wire e.1 d.in\nwire d.1 s.in\nwire s.1 d.2\n")
    r = dg.evaluate(dg.parse(src))
    assert r == rel.scalar(True)


def shuffled(d, k):
    """``d`` with its boxes, its wires and each wire's two ends in an order
    drawn by ``random.Random(k)``; the legs, and so the relation, keep
    theirs."""
    r = random.Random(k)
    boxes = r.sample(d.boxes, len(d.boxes))
    wires = [tuple(r.sample(w, 2)) for w in r.sample(d.wires, len(d.wires))]
    return dg.Diagram(d.theory, tuple(boxes), tuple(wires), d.legs).validate()


def test_contraction_order_independent(monkeypatch):
    # the schedule breaks ties by box order, so a shuffle can change the
    # joins it makes; every order must give the same relation
    joins, ports = [], {}

    def recording_join(f1, f2, join=dg._join):
        # a join as its two factors' variables, each named by its ports
        joins.append({frozenset(ports[v] for v in f.vars) for f in (f1, f2)})
        return join(f1, f2)

    def run(d):
        ports.clear()
        for port, v in d.ports.items():
            ports[v] = ports.get(v, frozenset()) | {port}
        joins.clear()
        return dg.evaluate(d), list(joins)

    monkeypatch.setattr(dg, "_join", recording_join)
    cases = [random_diagram(seed) for seed in range(50)]
    cases += [golden_diagram(name[:-len(".spekd")])
              for name in sorted(os.listdir(GOLDEN))
              if name.endswith(".spekd")]
    changed = 0
    for d in cases:
        base, base_joins = run(d)
        for k in range(10):
            r, k_joins = run(shuffled(d, k))
            assert r == base
            changed += k_joins != base_joins
    assert changed > 0, "no shuffle changed the schedule"


def cup_bend(d, *ks):
    """Reference: open legs ``ks`` turned around in turn, each through the
    unit (delta after eps+) or counit (delta+ into eps) of the compact
    structure, the new leg appended to the leg list.  Bending was done so
    before it moved the leg instead."""
    names = {name for name, _ in d.boxes}
    suffix = {}
    boxes, wires, legs = list(d.boxes), list(d.wires), list(d.legs)

    def box(stem, tag):
        k = suffix.get(stem, 0)
        while "%s%d" % (stem, k) in names:
            k += 1
        suffix[stem] = k + 1
        name = "%s%d" % (stem, k)
        names.add(name)
        boxes.append((name, GeneratorId(tag, d.theory)))
        return name

    for k in ks:
        port, direction = legs[k]
        legs[k] = None
        if direction == "in":
            u = box("_cup", "epsilon_dagger")
            v = box("_cupd", "delta")
            wires += [((u, "1"), (v, "in")), ((v, "1"), port)]
            legs.append(((v, "2"), "out"))
        else:
            w = box("_capd", "delta_dagger")
            e = box("_cap", "epsilon")
            wires += [(port, (w, "in")), ((w, "1"), (e, "in"))]
            legs.append(((w, "in2"), "in"))
    return dg.Diagram(d.theory, tuple(boxes), tuple(wires),
                      tuple(lg for lg in legs if lg is not None)).validate()


def cup_state(d):
    """Reference for as_state: every input leg bent by ``cup_bend``."""
    return cup_bend(d, *[k for k, (_, dr) in enumerate(d.legs) if dr == "in"])


@pytest.mark.parametrize("theory", ["spek", "mspek", "halfspek"])
def test_bending_gives_the_cup_relations(theory):
    # relabelling a leg denotes what bending it through a cup or cap did,
    # for every leg of 1000 random diagrams (bot and bot+ among MSpek's)
    for seed in range(1000):
        d = random_diagram(seed, theory)
        state = dg.as_state(d)
        assert dg.evaluate(state) == dg.evaluate(cup_state(d))
        for k in range(len(d.legs)):
            assert (dg.evaluate(dg.bend_leg(d, k))
                    == dg.evaluate(cup_bend(d, k)))
        if theory == "spek":
            form, _ = sg.state_form(d)
            cup_form, _ = sg.state_form(cup_state(d))
            assert form == cup_form


def test_handed_over_index_matches_rebuild():
    for d in rewrite_inputs():
        built = [dg.bend_leg(d, k) for k in range(len(d.legs))]
        built += [dg.as_state(d), dg.sigma_normalize(d),
                  dg.zone_decompose(d).diagram]
        for nd in built:
            fresh = dg.Diagram(nd.theory, nd.boxes, nd.wires, nd.legs)
            assert nd.ports == fresh.ports
        # bending only relabels: the bent diagram shares the index, whose
        # entries are the evaluator's variables, ("w", i) or ("l", port)
        for k in range(len(d.legs)):
            assert dg.bend_leg(d, k).ports is d.ports
        assert dg.as_state(d).ports is d.ports
        legs = {port for port, _ in d.legs}
        for port, entry in d.ports.items():
            assert (entry == ("l", port) if port in legs else
                    entry[0] == "w" and port in d.wires[entry[1]])


def test_normal_forms_build_no_port_index():
    # the normal form is built once per closed form and read only by its
    # wire scan: an index on it would be built, or checked, for nothing
    for d in rewrite_inputs():
        assert "ports" not in dg.sigma_normalize(d).__dict__
        assert "ports" not in dg.zone_decompose(d).diagram.__dict__


def test_bend_identity_gives_diagonal_state():
    d = dg.parse("box i: id\nin i.in\nout i.1\n")
    st = dg.as_state(d)
    r = dg.evaluate(st)
    assert r.pairs == frozenset(((), (x, x)) for x in (1, 2, 3, 4))


def test_bend_twice_round_trips():
    d = dg.parse("box d: delta\nin d.in\nout d.1 d.2\n")
    once = dg.bend_leg(d, 0)
    twice = dg.bend_leg(once, len(once.legs) - 1)
    assert dg.evaluate(twice) == dg.evaluate(d)


def test_bend_epsilon_gives_unit_state():
    d = dg.parse("box e: eps\nin e.in\n")
    st = dg.as_state(d)
    r = dg.evaluate(st)
    assert r.pairs == frozenset({((), (1,)), ((), (3,))})


def test_as_state_is_kept_on_the_diagram():
    d = dg.parse("box d: delta\nin d.in\nout d.1 d.2\n")
    h = hash(d)
    state = dg.as_state(d)
    assert dg.as_state(d) is state
    assert [dr for _, dr in state.legs] == ["out"] * 3
    assert d == dg.parse(d.to_source()) and hash(d) == h
    closed = dg.parse(ETA_SRC)
    assert dg.as_state(closed) is closed


def test_zone_counts_for_worked_examples():
    zd = dg.zone_decompose(golden_diagram("triangle"))
    assert len(zd.zones) == 3
    assert zd.external_zones == (0, 1, 2) and not zd.internal_zones
    assert sum(len(z.legs) for z in zd.zones) == 5
    assert len(zd.links) == 3

    zd2 = dg.zone_decompose(golden_diagram("triangle_internalized"))
    assert len(zd2.zones) == 3
    assert len(zd2.external_zones) == 2 and len(zd2.internal_zones) == 1
    assert sum(len(z.legs) for z in zd2.zones) == 4


def test_purely_phased_diagram_is_one_zone():
    zd = dg.zone_decompose(dg.parse(ETA_SRC))
    assert len(zd.zones) == 1 and not zd.links


def test_zones_refuse_a_sigma_end_without_a_phased_box(monkeypatch):
    # unpadded, two Sigma boxes may meet
    monkeypatch.setattr(dg, "sigma_normalize", lambda d: d)
    d = dg.parse("box e: eps+\nbox s: perm((24))\nbox t: perm((24))\n"
                 "box f: eps\nwire e.1 s.in\nwire s.1 t.in\nwire t.1 f.in\n")
    with pytest.raises(RuntimeError, match="Sigma box s "):
        dg.zone_decompose(d)


@pytest.mark.parametrize("src", [
    "box e: eps+\nbox u: perm((13))\nbox g: eps\nwire e.1 u.in\nwire u.1 g.in\n",
    "box e: eps+\nbox f: eps+\nbox u: swap\nbox g: eps\n"
    "wire e.1 u.in\nwire f.1 u.in2\nwire u.1 g.in\nout u.2\n"])
def test_zones_refuse_an_unphased_box_left_by_normalisation(src, monkeypatch):
    # unnormalised, an unphased permutation or a swap box stays a box
    monkeypatch.setattr(dg, "sigma_normalize", lambda d: d)
    with pytest.raises(RuntimeError,
                       match=r"^Sigma normalisation left unphased box u$"):
        dg.zone_decompose(dg.parse(src))


def test_sigma_normalize_splits_unphased_perms():
    d = dg.parse("box e: eps+\nbox p: perm((1234))\n"
                 "wire e.1 p.in\nout p.1\n")
    nd = dg.sigma_normalize(d)
    for _, gen in nd.boxes:
        assert gen.tag != "perm" or gen.perm.is_phased \
            or gen.perm.name == "(1)(24)(3)"
    assert dg.evaluate(nd) == dg.evaluate(d)


def test_swap_boxes_dissolved():
    d = dg.parse("box a: eps+\nbox b: eps+\nbox s: swap\n"
                 "wire a.1 s.in\nwire b.1 s.in2\nout s.1 s.2\n")
    nd = dg.sigma_normalize(d)
    assert all(gen.tag != "swap" for _, gen in nd.boxes)
    assert dg.evaluate(nd) == dg.evaluate(d)


def test_box_wired_to_itself_once():
    # delta+ with its inputs joined: (1,1) and (2,2) give 1, (3,3) and
    # (4,4) give 3
    d = dg.parse("box m: delta+\nwire m.in m.in2\nout m.1\n")
    assert dg.evaluate(d) == Relation(rel.I, IV, frozenset({((), (1,)),
                                                           ((), (3,))}))


def test_box_wired_to_itself_twice():
    # a closed swap: in = 1 and in2 = 2 hold exactly where both inputs are
    # equal, which some row does, so the scalar is true
    d = dg.parse("box s: swap\nwire s.in s.1\nwire s.in2 s.2\n")
    assert dg.evaluate(d) == rel.scalar(True)


def test_capacity_ceiling(monkeypatch):
    monkeypatch.setenv("SPEK_MAX_CELLS", "2")
    lines = ["box u%d: eps+" % k for k in range(6)]
    lines.append("out " + " ".join("u%d.1" % k for k in range(6)))
    with pytest.raises(CapacityError):
        dg.evaluate(dg.parse("\n".join(lines) + "\n"))


def test_max_cells_is_read_on_every_evaluate(monkeypatch):
    d = dg.parse(ETA_SRC)          # one join over three distinct variables
    monkeypatch.setenv("SPEK_MAX_CELLS", "16")
    assert dg.evaluate(d).cod.arity == 2
    monkeypatch.setenv("SPEK_MAX_CELLS", "4")
    with pytest.raises(CapacityError):
        dg.evaluate(d)


# Seeds in range(300) whose random_diagram state raises CapacityError at
# SPEK_MAX_CELLS=16 (intermediates wider than 4 variables) under the greedy
# schedule.  Recorded from the scheduler that rescanned every factor at each
# step; the incremental one must choose the same pairs.
CAPACITY_SEEDS = (
    9, 25, 33, 39, 41, 47, 50, 64, 72, 75, 78, 81, 83, 85, 92, 99, 100, 102,
    103, 111, 116, 117, 125, 129, 134, 136, 146, 148, 155, 163, 170, 177,
    179, 188, 208, 211, 221, 226, 229, 233, 234, 235, 239, 251, 256, 258,
    262, 263, 277, 279, 285, 292, 299)


def test_capacity_errors_follow_the_schedule(monkeypatch):
    monkeypatch.setenv("SPEK_MAX_CELLS", "16")
    raised = []
    for seed in range(300):
        d = cup_state(random_diagram(seed))
        try:
            dg.evaluate(d)
        except CapacityError:
            raised.append(seed)
    assert tuple(raised) == CAPACITY_SEEDS


def box_factors(d):
    """Reference: each box's factor, its variables named as in
    ``Diagram.ports`` and its rows from ``resolve``, a wire from the box to
    itself kept where its two ends agree and summed out; and the legs'
    variables."""
    port_var = {}
    for w, (a, b) in enumerate(d.wires):
        port_var[a] = port_var[b] = ("w", w)
    for port, _ in d.legs:
        port_var[port] = ("l", port)
    factors = []
    for name, gen in d.boxes:
        vars = [port_var[(name, s)] for s in dg.slots(gen)]
        rows = {a + b for a, b in resolve(gen).pairs}
        for v in set(vars):
            if vars.count(v) == 2:
                i = vars.index(v)
                j = vars.index(v, i + 1)
                rows = {tuple(x for k, x in enumerate(r) if k not in (i, j))
                        for r in rows if r[i] == r[j]}
                vars = [u for u in vars if u != v]
        factors.append(dg._Factor(vars, rows))
    return factors, {("l", port) for port, _ in d.legs}


def absorbed(d, factors, protected):
    """Reference for evaluate's first pass, on variable lists: in box
    order, a one-variable factor, or a perm or id box, with a wire to
    another factor is applied to it and leaves the list.  A one-variable
    factor takes its variable away; a bijection renames it to its own other
    variable, and takes both away when that one is on the same factor."""
    live = dict(enumerate(f.vars for f in factors))
    for i, (_, gen) in enumerate(d.boxes):
        f = live.get(i)
        if f is None or not (len(f) == 1 or len(f) == 2 and gen.tag in (
                "perm", "identity")):
            continue
        wired = [v for v in f if v not in protected]
        if not wired:
            continue
        v = wired[0]
        j, = [k for k, g in live.items() if k != i and v in g]
        rest = [u for u in f if u != v]
        if rest and rest[0] not in live[j]:
            live[j] = [rest[0] if u == v else u for u in live[j]]
        else:
            live[j] = [u for u in live[j] if u not in f]
        del live[i]
    return [dg._Factor(vars, None) for vars in live.values()]


def rescanning_contract(factors, protected, join):
    """Reference: the greedy schedule, recounting every variable for every
    candidate pair at each step; ``join`` makes each join.  The last
    factor, or None when there is none."""
    while len(factors) > 1:
        holders = {}
        for k, f in enumerate(factors):
            for v in f.vars:
                holders.setdefault(v, []).append(k)

        def eliminable(fa, fb):
            return {v for v in fa.vars if v in fb.vars
                    and len(holders[v]) == 2 and v not in protected}

        candidates = [
            (len(set(factors[i].vars) | set(factors[j].vars))
             - len(eliminable(factors[i], factors[j])), i, j)
            for i, j in {tuple(ks) for ks in holders.values()
                         if len(ks) == 2}]
        if not candidates:          # disconnected: tensor in factor order
            merged = factors[0]
            for f in factors[1:]:
                merged = join(merged, f)
            return merged
        _, i, j = min(candidates)
        merged = join(factors[i], factors[j])
        factors = [f for k, f in enumerate(factors) if k not in (i, j)]
        factors.append(merged)
    return factors[0] if factors else None


def rescanning_schedule(d):
    """Reference: the joins the greedy scheduler makes after the absorption
    pass, as pairs of factor variable lists."""
    factors, protected = box_factors(d)
    joins = []

    def join(f1, f2):
        joins.append((f1.vars, f2.vars))
        # the two share only wires, which die in their join
        return dg._Factor([v for v in f1.vars if v not in f2.vars]
                          + [v for v in f2.vars if v not in f1.vars], None)

    rescanning_contract(absorbed(d, factors, protected), protected, join)
    return joins


def reference_evaluate(d):
    """Reference for evaluate: every box's factor, no absorption, joined
    by ``join_then_drop`` in the rescanning schedule."""
    factors, protected = box_factors(d)
    final = rescanning_contract(
        factors, protected, lambda f1, f2: dg._Factor(*join_then_drop(f1, f2)))
    if final is None:
        return rel.scalar(True)
    pos = {v: k for k, v in enumerate(final.vars)}
    ins = [pos["l", p] for p, dr in d.legs if dr == "in"]
    outs = [pos["l", p] for p, dr in d.legs if dr == "out"]
    base = BASE[d.theory]
    return Relation(Space(base, len(ins)), Space(base, len(outs)),
                    frozenset((tuple(r[k] for k in ins),
                               tuple(r[k] for k in outs))
                              for r in final.rows))


def test_schedule_matches_rescanning_reference(monkeypatch):
    joins = []
    join = dg._join

    def recording_join(f1, f2):
        joins.append((list(f1.vars), list(f2.vars)))
        return join(f1, f2)

    monkeypatch.setattr(dg, "_join", recording_join)
    # random diagrams, and the benchmark's diagram families: fan has
    # cycles, so joined factors come to share several wires
    cases = [cup_state(random_diagram(seed, max_boxes=12))
             for seed in range(200)]
    cases += [dg.parse(build(n)) for build, ns in (
        (chain_int, (16, 20, 24, 28)), (fan, (10, 11, 12)),
        (chain, (9, 10, 11))) for n in ns]
    for d in cases:
        joins.clear()
        dg.evaluate(d)
        assert joins == rescanning_schedule(d)


# Hand-made diagrams for the absorption pass: each names the case it covers.
ABSORPTION_CASES = {
    "perm with both ends on one box":
        "box d: delta\nbox p: perm((12))\nwire d.1 p.in\nwire p.1 d.2\n"
        "in d.in\n",
    "perm with both ends legs": "box p: perm((12)(34))\nin p.in\nout p.1\n",
    "perm on a self-loop":
        "box p: perm((24))\nbox e: eps+\nwire p.in p.1\nout e.1\n",
    "perm then perm then delta":
        "box p: perm((12))\nbox q: perm((134))\nbox d: delta\n"
        "wire p.1 q.in\nwire q.1 d.in\nin p.in\nout d.1 d.2\n",
    "delta then perm then perm":
        "box d: delta\nbox p: perm((23))\nbox q: perm((1234))\n"
        "wire d.2 p.in\nwire p.1 q.in\nin d.in\nout d.1 q.1\n",
    "perm between two copies":
        "box d: delta\nbox p: perm((24))\nbox m: delta+\nwire d.1 m.in\n"
        "wire d.2 p.in\nwire p.1 m.in2\nin d.in\nout m.1\n",
    "closed eps+ into eps": "box a: eps+\nbox b: eps\nwire a.1 b.in\n",
    "eps+ through a perm into eps":
        "box a: eps+\nbox p: perm((12))\nbox b: eps\nwire a.1 p.in\n"
        "wire p.1 b.in\n",
    "eps+ through a perm into eps, empty":
        "box a: eps+\nbox p: perm((12)(34))\nbox b: eps\nwire a.1 p.in\n"
        "wire p.1 b.in\n",
    "id": "box i: id\nbox d: delta\nwire i.1 d.in\nin i.in\nout d.1 d.2\n",
    "MSpek bot and bot+":
        "theory mspek\nbox b: bot\nbox d: delta\nbox c: bot+\n"
        "wire b.1 d.in\nwire d.1 c.in\nout d.2\n",
    "HalfSpek Z2 swap":
        "theory halfspek\nbox e: eps+\nbox p: perm((01))\nbox d: delta\n"
        "wire e.1 p.in\nwire p.1 d.in\nout d.1 d.2\n",
}


@pytest.mark.parametrize("name", sorted(ABSORPTION_CASES))
def test_absorption_edge_cases_match_the_reference(name):
    d = dg.parse(ABSORPTION_CASES[name])
    gens = {gen for _, gen in d.boxes}
    before = {gen: set(dg._box_rows(gen)) for gen in gens}
    assert dg.evaluate(d) == reference_evaluate(d)
    assert dg.evaluate(dg.as_state(d)) == reference_evaluate(dg.as_state(d))
    assert {gen: set(dg._box_rows(gen)) for gen in gens} == before


def test_absorption_edge_cases_by_hand():
    def ev(name):
        return dg.evaluate(dg.parse(ABSORPTION_CASES[name]))

    # copy's outputs related by (12): (1, 2) and (2, 1) are copies of 2,
    # (3, 3) and (4, 4) copies of 3
    assert ev("perm with both ends on one box") == Relation(
        IV, rel.I, frozenset({((2,), ()), ((3,), ())}))
    assert ev("closed eps+ into eps") == rel.scalar(True)
    assert ev("eps+ through a perm into eps") == rel.scalar(True)
    assert ev("eps+ through a perm into eps, empty") == rel.scalar(False)
    assert ev("perm on a self-loop").cod.arity == 1


@pytest.mark.parametrize("theory", ["spek", "mspek", "halfspek"])
def test_evaluate_matches_the_reference_without_absorption(theory):
    for seed in range(1000):
        d = random_diagram(seed, theory, max_boxes=12)
        assert dg.evaluate(d) == reference_evaluate(d)


def test_evaluate_matches_the_reference_on_goldens_and_families():
    cases = [golden_diagram(name[:-len(".spekd")])
             for name in sorted(os.listdir(GOLDEN)) if name.endswith(".spekd")]
    cases += [dg.parse(build(n)) for build, ns in (
        (chain, (1, 5, 9)), (fan, (1, 4, 8)), (chain_int, (1, 8, 28)),
        (grid, (1, 2, 4, 8))) for n in ns]
    for d in cases:
        assert dg.evaluate(d) == reference_evaluate(d)


def test_evaluate_reaches_grid_11():
    # the pass leaves the greedy schedule copies only: grid(11), refused
    # when every perm and eps+ was a factor of its own, gives its 2 rows
    d = dg.parse(grid(11))
    form, _ = sg.state_form(d)
    r = dg.evaluate(d)
    assert r == form.expand()
    assert len(r.pairs) == 2


def join_then_drop(f1, f2):
    """Reference: the full join of two factors on their shared variables,
    then a pass that sums the shared variables out."""
    shared = [v for v in f1.vars if v in f2.vars]
    i1 = [f1.vars.index(v) for v in shared]
    i2 = [f2.vars.index(v) for v in shared]
    rest2 = [i for i, v in enumerate(f2.vars) if v not in shared]
    index = {}
    for r in f2.rows:
        index.setdefault(tuple(r[i] for i in i2), []).append(
            tuple(r[i] for i in rest2))
    rows = {r + tail for r in f1.rows
            for tail in index.get(tuple(r[i] for i in i1), ())}
    joined = f1.vars + [f2.vars[i] for i in rest2]
    keep = [i for i, v in enumerate(joined) if v not in shared]
    return ([joined[i] for i in keep],
            {tuple(r[i] for i in keep) for r in rows})


@st.composite
def factor_pairs(draw):
    """Two factors over base 2 or 4 that share none, some or all of their
    variables, each in its own random order."""
    digit = st.sampled_from((0, 1) if draw(st.sampled_from((2, 4))) == 2
                            else (1, 2, 3, 4))
    kind = draw(st.sampled_from(("none", "some", "all")))
    n_shared = 0 if kind == "none" else draw(st.integers(1, 3))
    n1, n2 = ((0, 0) if kind == "all" else
              (draw(st.integers(0, 2)),
               draw(st.integers(1 if kind == "some" else 0, 2))))
    shared = [("w", k) for k in range(n_shared)]
    factors = []
    for own in ([("l", k) for k in range(n1)],
                [("l", n1 + k) for k in range(n2)]):
        vars = draw(st.permutations(shared + own))
        rows = draw(st.sets(st.tuples(*[digit] * len(vars)), max_size=12))
        factors.append(dg._Factor(list(vars), rows))
    return factors


@given(factor_pairs())
def test_fused_join_matches_join_then_drop(pair):
    f1, f2 = pair
    out = dg._join(f1, f2)
    assert (out.vars, out.rows) == join_then_drop(f1, f2)


def diagram_text(nd):
    return nd.to_source() + repr(nd.legs)


def run_passes(passes):
    """Each pass's output, or the exception it raised by type and message."""
    out = []
    for run in passes:
        try:
            out.append(run())
        except Exception as exc:
            out.append("%s: %s" % (type(exc).__name__, exc))
    return out


def bend_record(d):
    """bend_leg at every open leg, then as_state, each output as text."""
    passes = [lambda k=k: diagram_text(dg.bend_leg(d, k))
              for k in range(len(d.legs))]
    return run_passes(passes + [lambda: diagram_text(dg.as_state(d))])


def normal_record(d):
    """sigma_normalize and zone_decompose applied to d, each output as
    text."""
    def zones(zd):
        adjacency = [sorted(adj) for adj in odd_adjacency(zd)]
        return repr((diagram_text(zd.diagram), zd.zones, zd.links,
                     zd.leg_reorder, adjacency))

    return run_passes([lambda: diagram_text(dg.sigma_normalize(d)),
                       lambda: zones(dg.zone_decompose(d))])


def random_wiring(seed):
    """A random Spek diagram over every generator tag, swap and id included,
    with its legs in random order."""
    rng = random.Random(seed)
    tags = ("delta", "delta_dagger", "epsilon", "epsilon_dagger", "perm",
            "swap", "identity")
    perms = sorted(s4(), key=lambda p: p.name)
    boxes = []
    for k in range(rng.randint(1, 10)):
        tag = rng.choice(tags)
        perm = rng.choice(perms) if tag == "perm" else None
        boxes.append(("b%d" % k, GeneratorId(tag, "spek", perm)))
    ports = [(name, s) for name, gen in boxes for s in dg.slots(gen)]
    rng.shuffle(ports)
    n_legs = min(rng.randint(0, 5), len(ports))
    if (len(ports) - n_legs) % 2:
        n_legs += 1 if n_legs < len(ports) else -1
    rest = ports[n_legs:]
    return dg.Diagram("spek", tuple(boxes),
                      tuple(zip(rest[::2], rest[1::2])),
                      tuple((p, "in" if p[1].startswith("in") else "out")
                            for p in ports[:n_legs])).validate()


def rewrite_inputs():
    for seed in range(500):
        yield random_diagram(seed)
        yield random_diagram(seed, max_boxes=12)
        yield random_wiring(seed)
    golden = os.path.join(os.path.dirname(__file__), "..", "golden")
    for name in sorted(os.listdir(golden)):
        if name.endswith(".spekd"):
            with open(os.path.join(golden, name)) as fh:
                yield dg.parse(fh.read())
    for n in range(1, 41):
        yield dg.parse(chain_int(n))
    for m in range(1, 13):
        yield dg.parse(fan(m))
    for n in range(1, 16):
        yield dg.parse(chain(n))


def rewrite_digest(record):
    h = hashlib.sha256()
    for d in rewrite_inputs():
        for line in record(d):
            h.update(line.encode() + b"\0")
    return h.hexdigest()


# sha256 of normal_record over rewrite_inputs: sigma_normalize and
# zone_decompose must give the same diagrams, box names and orders, wire
# orientations, leg orders, zones and links.  Recorded from the passes as
# they were before the decomposition computed its parity maps, when the odd
# adjacency read off the links equalled the decomposition's own on every
# input.
NORMAL_DIGEST = "c3c7e942c49ea55154609fa460c72a5b3adde96d7efd173a38c9652004f00c94"

# sha256 of bend_record over rewrite_inputs, recorded when bending became a
# relabelling of the leg list; test_bending_gives_the_cup_relations vouches
# for its relations.
BEND_DIGEST = "26b2d14d4db8bca862fd8957f08c890a37d6465d1f874e1803fd59a341f98030"


def test_rewrites_match_pinned_digest():
    assert rewrite_digest(normal_record) == NORMAL_DIGEST
    assert rewrite_digest(bend_record) == BEND_DIGEST


def test_parity_maps_match_the_profile_reference():
    for d in rewrite_inputs():
        zd = dg.zone_decompose(d)
        assert zd.parity == reference_parity(zd)


def test_evaluate_long_chain_matches_closed_form():
    d = dg.parse(chain_int(60))
    form, _ = sg.state_form(d)
    assert dg.evaluate(d) == form.expand()


def test_evaluate_scales_near_linearly_on_long_chains():
    # the scheduler pops pairs from a heap: chain-int(2560) takes about 3.5
    # to 4.5 times as long as chain-int(640); a min over every pair took 15
    def best_of_3(n):
        d = dg.parse(chain_int(n))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            dg.evaluate(d)
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_of_3(2560) / best_of_3(640) <= 8


def test_evaluate_raises_when_internal_vars_remain(monkeypatch):
    # copy then its dagger on two wires: neither box is absorbed, so the
    # heap makes the one join, on both wires; a join that keeps its shared
    # variables leaves them in the final factor
    def keeping_join(f1, f2):
        shared = [v for v in f1.vars if v in f2.vars]
        rows = {r1 + r2 for r1 in f1.rows for r2 in f2.rows
                if all(r1[f1.vars.index(v)] == r2[f2.vars.index(v)]
                       for v in shared)}
        return dg._Factor(f1.vars + f2.vars, rows)

    d = dg.parse("box d: delta\nbox m: delta+\nwire d.1 m.in\n"
                 "wire d.2 m.in2\nin d.in\nout m.1\n")
    assert dg.evaluate(d).cod.arity == 1
    monkeypatch.setattr(dg, "_join", keeping_join)
    with pytest.raises(RuntimeError):
        dg.evaluate(d)


def test_source_round_trip():
    for seed in range(10):
        d = random_diagram(seed)
        d2 = dg.parse(d.to_source())
        assert dg.evaluate(d2) == dg.evaluate(d)


def test_deterministic_serialization():
    d = dg.parse(ETA_SRC)
    assert dg.evaluate(d).to_text() == dg.evaluate(d).to_text()
