import hashlib
import itertools
import os
import random

import pytest
from hypothesis import given, strategies as st

from nets import EMPTY_SCALAR, chain, chain_int, fan, golden_diagram
from spekcat import diagrams as dg
from spekcat import relations as rel
from spekcat import signatures as sg
from spekcat.generate import random_diagram
from spekcat.generators import GeneratorId, resolve
from spekcat.permutations import s4
from spekcat.relations import IV, CapacityError, Relation, Space

ETA_SRC = "box e: eps+\nbox d: delta\nwire e.1 d.in\nout d.1 d.2\n"


def test_parse_smallest_diagram():
    d = dg.parse("box e: eps+\nout e.1\n")
    assert len(d.boxes) == 1 and d.legs == ((("e", "1"), "out"),)


def test_parse_eta():
    d = dg.parse(ETA_SRC)
    assert d.n_inputs() == 0 and d.n_outputs() == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(dg.DiagramError) as exc:
        dg.parse("box e: eps+\nwire e.1\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(dg.DiagramError):
        dg.parse("box e: nonsense\nout e.1\n")
    with pytest.raises(dg.DiagramError):
        dg.parse("box e: eps+\n")          # dangling port
    with pytest.raises(dg.DiagramError):
        dg.parse("box e: eps+\nout e.1 e.1\n")


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


def test_contraction_order_independent():
    for seed in (0, 1, 2):
        d = random_diagram(seed)
        base = dg.evaluate(d)
        for sched in range(3):
            assert dg.evaluate(d, random.Random(sched)) == base


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
    assert state.n_inputs() == 0 and state.n_outputs() == 3
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


def test_internalize_normal_form_preserves_value():
    for d in (golden_diagram("triangle_internalized"),
              dg.parse(EMPTY_SCALAR)):
        nf = dg.internalize_normal_form(d)
        assert dg.evaluate(nf) == dg.evaluate(d)


def test_internalize_no_internal_zones_is_stable():
    d = golden_diagram("triangle")
    assert dg.evaluate(dg.internalize_normal_form(d)) == dg.evaluate(d)


def test_delta_self_loop_normal_form():
    src = ("box d: delta\nbox u: eps+\nwire u.1 d.in\nwire d.1 d.2\n")
    d = dg.parse(src)
    assert dg.evaluate(dg.internalize_normal_form(d)) == dg.evaluate(d)


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
# SPEK_MAX_CELLS=16 (intermediates wider than 4 variables), under the
# default schedule and under rng=random.Random(seed).  Recorded from the
# scheduler that rescanned every factor at each step; the incremental one
# must choose the same pairs.
CAPACITY_SEEDS = (
    9, 25, 33, 39, 41, 47, 50, 64, 72, 75, 78, 81, 83, 85, 92, 99, 100, 102,
    103, 111, 116, 117, 125, 129, 134, 136, 146, 148, 155, 163, 170, 177,
    179, 188, 208, 211, 221, 226, 229, 233, 234, 235, 239, 251, 256, 258,
    262, 263, 277, 279, 285, 292, 299)
CAPACITY_SEEDS_RNG = (
    9, 11, 24, 25, 27, 28, 33, 36, 39, 40, 41, 42, 44, 47, 50, 51, 59, 64,
    72, 74, 75, 77, 78, 81, 82, 83, 84, 85, 88, 90, 92, 93, 99, 100, 102,
    103, 106, 109, 111, 112, 114, 115, 116, 117, 119, 120, 125, 129, 134,
    136, 140, 146, 148, 150, 152, 154, 155, 156, 157, 162, 163, 170, 171,
    172, 173, 177, 179, 182, 188, 189, 191, 193, 202, 205, 207, 208, 210,
    211, 217, 221, 225, 226, 227, 228, 229, 233, 234, 235, 237, 238, 239,
    244, 247, 248, 251, 253, 256, 258, 262, 263, 264, 268, 270, 277, 279,
    285, 291, 292, 297, 299)


def test_capacity_errors_follow_the_schedule(monkeypatch):
    monkeypatch.setenv("SPEK_MAX_CELLS", "16")
    for schedule, pinned in ((lambda seed: None, CAPACITY_SEEDS),
                             (random.Random, CAPACITY_SEEDS_RNG)):
        raised = []
        for seed in range(300):
            d = dg.as_state(random_diagram(seed))
            try:
                dg.evaluate(d, rng=schedule(seed))
            except CapacityError:
                raised.append(seed)
        assert tuple(raised) == pinned


def rescanning_schedule(d, rng=None):
    """Reference: the joins the greedy scheduler makes, as pairs of factor
    variable lists, recounting every variable for every candidate pair."""
    port_var = {}
    for w, (a, b) in enumerate(d.wires):
        port_var[a] = port_var[b] = ("w", w)
    for k, (port, _) in enumerate(d.legs):
        port_var[port] = ("l", k)
    protected = {("l", k) for k in range(len(d.legs))}
    factors = [list(dict.fromkeys(port_var[(name, s)] for s in dg.slots(gen)))
               for name, gen in d.boxes]

    def count(v):
        return sum(v in f for f in factors)

    def eliminable(fa, fb):
        return {v for v in fa if v in fb and count(v) == 2
                and v not in protected}

    factors = [[v for v in f if count(v) > 1 or v in protected]
               for f in factors]
    joins = []
    while len(factors) > 1:
        candidates = [
            (len(set(factors[i]) | set(factors[j]))
             - len(eliminable(factors[i], factors[j])), i, j)
            for i, j in itertools.combinations(range(len(factors)), 2)
            if set(factors[i]) & set(factors[j])]
        if not candidates:          # disconnected: tensor in factor order
            merged = factors[0]
            for f in factors[1:]:
                joins.append((merged, f))
                merged = merged + f
            break
        _, i, j = (min(candidates) if rng is None
                   else rng.choice(sorted(candidates)))
        fi, fj = factors[i], factors[j]
        joins.append((fi, fj))
        gone = eliminable(fi, fj)
        merged = [v for v in fi + [v for v in fj if v not in fi]
                  if v not in gone]
        factors = [f for k, f in enumerate(factors) if k not in (i, j)]
        factors.append(merged)
    return joins


def test_schedule_matches_rescanning_reference(monkeypatch):
    joins = []
    join = dg._join

    def recording_join(f1, f2):
        joins.append((list(f1.vars), list(f2.vars)))
        return join(f1, f2)

    monkeypatch.setattr(dg, "_join", recording_join)
    for seed in range(200):
        d = dg.as_state(random_diagram(seed, max_boxes=12))
        for schedule in (lambda: None, lambda: random.Random(seed)):
            joins.clear()
            dg.evaluate(d, rng=schedule())
            assert joins == rescanning_schedule(d, rng=schedule())


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


def rewrite_record(d):
    """Every rewriting pass applied to d, as text: a pass's output diagram
    by its source and leg tuple, an exception by its type and message."""
    def text(nd):
        return nd.to_source() + repr(nd.legs)

    def zones(zd):
        adjacency = [sorted(zd.adjacency(i)) for i in range(len(zd.zones))]
        return repr((text(zd.diagram), zd.zones, zd.links, zd.leg_reorder,
                     adjacency))

    passes = [lambda k=k: text(dg.bend_leg(d, k)) for k in range(len(d.legs))]
    passes += [lambda: text(dg.as_state(d)),
               lambda: text(dg.sigma_normalize(d)),
               lambda: zones(dg.zone_decompose(d)),
               lambda: text(dg.internalize_normal_form(d))]
    out = []
    for run in passes:
        try:
            out.append(run())
        except Exception as exc:
            out.append("%s: %s" % (type(exc).__name__, exc))
    return out


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


def rewrite_digest():
    h = hashlib.sha256()
    for d in rewrite_inputs():
        for line in rewrite_record(d):
            h.update(line.encode() + b"\0")
    return h.hexdigest()


# sha256 of rewrite_record over rewrite_inputs, recorded from the rewriting
# passes that located ports by scanning every wire and leg: bend_leg,
# as_state, sigma_normalize, zone_decompose and internalize_normal_form
# must give the same diagrams, box names and orders, wire orientations,
# leg orders, zones and links.
REWRITE_DIGEST = "1e72760b8776f0dea5748a78df110edcec19af6f97c0c26d1f3eb11f2027e453"


def test_rewrites_match_pinned_digest():
    assert rewrite_digest() == REWRITE_DIGEST


def test_evaluate_long_chain_matches_closed_form():
    d = dg.parse(chain_int(60))
    form, _ = sg.state_form(d)
    assert dg.evaluate(d) == form.expand()


def test_evaluate_raises_when_internal_vars_remain(monkeypatch):
    # the one join of ETA_SRC is on the wire e.1-d.in; a join that keeps
    # its shared variables leaves that wire in the final factor
    def keeping_join(f1, f2):
        shared = [v for v in f1.vars if v in f2.vars]
        rows = {r1 + r2 for r1 in f1.rows for r2 in f2.rows
                if all(r1[f1.vars.index(v)] == r2[f2.vars.index(v)]
                       for v in shared)}
        return dg._Factor(f1.vars + f2.vars, rows)

    d = dg.parse(ETA_SRC)
    assert dg.evaluate(d).cod.arity == 2
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
