"""String diagrams over the theory generators: DSL, evaluation, bending, zones.

A diagram is a set of generator boxes, wires between box ports, and an
ordered list of open legs.  Ports are written ``<box>.<slot>`` where input
slots are named ``in``, ``in2``, ... and output slots ``1``, ``2``, ...
Wires are direction-free: the induced compact structure of the theories is
the plain diagonal, so a wire means equality of its two port values, and
bending a leg only moves it between the inputs and the outputs.  The port
index is the cached property ``Diagram.ports``: it maps each port to the
evaluator's variable there, ``("w", i)`` for wire i or ``("l", port)`` for
an open leg, so it depends on neither the legs' order nor their direction.
It is built, and the diagram checked, on first access; bending shares it
unchanged.  Sigma normalisation looks ports up in its input's index and
builds none for its output; zone decomposition reads each Sigma box's ends
off its scan of the wires.  Evaluation reads its variables off the index,
and reduces a wire from a box to itself when it builds that box's factor.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from functools import cache, cached_property
from itertools import count
from operator import itemgetter
from typing import Dict, Tuple

from . import relations as rel
from .generators import (ARITIES, BASE, GeneratorId, HALFSPEK, MSPEK, SPEK,
                         parse_generator_name, resolve)
from .permutations import SIGMA, Z2_SWAP, sigma_decompose
from .relations import CapacityError, Relation, Space, max_arity

Port = Tuple[str, str]


class DiagramError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


def _slot_names(n_in, n_out):
    ins = ("in",) + tuple("in%d" % k for k in range(2, n_in + 1))
    return ins[:n_in] + tuple(str(k) for k in range(1, n_out + 1))


_SLOTS = {tag: _slot_names(*io) for tag, io in ARITIES.items()}


def slots(gen: GeneratorId) -> Tuple[str, ...]:
    return _SLOTS[gen.tag]


class Diagram(namedtuple("Diagram", "theory boxes wires legs",
                         defaults=(SPEK, (), (), ()))):
    """Boxes ``(id, GeneratorId)``, wires ``(Port, Port)`` and the open
    legs ``(Port, "in"|"out")``, in order."""

    @cached_property
    def ports(self) -> Dict[Port, tuple]:
        """The port index: each port's variable in ``evaluate``, ``("w", i)``
        for wire i or ``("l", port)`` for an open leg (shared: do not
        modify).  Built, and the diagram checked, on first access; a bent
        diagram shares it."""
        index = {}
        box_map = dict(self.boxes)
        if len(box_map) != len(self.boxes):
            raise DiagramError("duplicate box id")
        for name, gen in self.boxes:
            if not name or "." in name:
                raise DiagramError("box id %r is empty or contains '.'" % name)
            if gen.theory != self.theory:
                raise DiagramError("box %s uses theory %s in a %s diagram"
                                   % (name, gen.theory, self.theory))

        def touch(port, where, entry):
            box, slot = port
            if box not in box_map:
                raise DiagramError("unknown box %r in %s" % (box, where))
            if slot not in slots(box_map[box]):
                raise DiagramError("box %r has no slot %r" % (box, slot))
            if port in index:
                raise DiagramError("port %s.%s used more than once" % port)
            index[port] = entry

        for i, (a, b) in enumerate(self.wires):
            if a == b:
                raise DiagramError("wire from port %s.%s to itself" % a)
            touch(a, "wire", ("w", i))
            touch(b, "wire", ("w", i))
        for port, _ in self.legs:
            touch(port, "leg", ("l", port))
        for name, gen in self.boxes:
            for slot in slots(gen):
                if (name, slot) not in index:
                    raise DiagramError("dangling port %s.%s" % (name, slot))
        return index

    @cached_property
    def state(self) -> "Diagram":
        """This diagram with every input leg bent (``as_state``)."""
        ins = [k for k, (_, dr) in enumerate(self.legs) if dr == "in"]
        return _bend(self, ins) if ins else self

    def validate(self):
        """Check the diagram (by building its port index) and return it."""
        self.ports
        return self

    def to_source(self) -> str:
        lines = []
        if self.theory != SPEK:
            lines.append("theory %s" % self.theory)
        for name, gen in self.boxes:
            lines.append("box %s: %s" % (name, gen.name))
        for (ab, asl), (bb, bsl) in self.wires:
            lines.append("wire %s.%s %s.%s" % (ab, asl, bb, bsl))
        ins = ["%s.%s" % p for p, d in self.legs if d == "in"]
        outs = ["%s.%s" % p for p, d in self.legs if d == "out"]
        if ins:
            lines.append("in " + " ".join(ins))
        if outs:
            lines.append("out " + " ".join(outs))
        return "\n".join(lines) + "\n"


def _parse_port(tok, lineno) -> Port:
    if "." not in tok:
        raise DiagramError("bad port %r (expected <box>.<slot>)" % tok, lineno)
    box, slot = tok.split(".", 1)
    return (box, slot)


def parse(source: str) -> Diagram:
    """Parse DSL text into a validated diagram."""
    theory = SPEK
    boxes, wires, legs = [], [], []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, tail = line.partition(" ")
        tail = tail.strip()
        if head == "theory":
            if tail not in (SPEK, MSPEK, HALFSPEK):
                raise DiagramError("unknown theory %r" % tail, lineno)
            if boxes:
                raise DiagramError("theory must precede box declarations", lineno)
            theory = tail
        elif head == "box":
            name, sep, genname = tail.partition(":")
            if not sep or not genname.strip():
                raise DiagramError("expected 'box <id>: <generator>'", lineno)
            try:
                gen = parse_generator_name(genname.strip(), theory)
            except ValueError as exc:
                raise DiagramError(str(exc), lineno)
            boxes.append((name.strip(), gen))
        elif head == "wire":
            toks = tail.split()
            if len(toks) != 2:
                raise DiagramError("wire needs exactly two ports, got %r" % tail,
                                   lineno)
            wires.append((_parse_port(toks[0], lineno),
                          _parse_port(toks[1], lineno)))
        elif head in ("in", "out"):
            for tok in tail.split():
                legs.append((_parse_port(tok, lineno), head))
        else:
            raise DiagramError("unknown directive %r" % head, lineno)
    return Diagram(theory, tuple(boxes), tuple(wires), tuple(legs)).validate()


# ---------------------------------------------------------------------------
# Evaluation: exact tensor-network contraction with a greedy schedule.


class _Factor:
    __slots__ = ("vars", "rows")

    def __init__(self, vars, rows):
        self.vars = vars
        self.rows = rows


def _projection(idx):
    """A function from a row to the tuple of its entries at ``idx``."""
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        i, = idx
        return lambda r: (r[i],)
    return lambda r: ()


@cache
def _box_rows(gen: GeneratorId) -> frozenset:
    """A box's rows: each pair of its relation as one tuple, inputs first."""
    return frozenset(a + b for a, b in resolve(gen).pairs)


def _join(f1: _Factor, f2: _Factor) -> _Factor:
    """The join of two factors with their shared variables summed out.

    A variable is held by at most two factors, so a variable the two share
    dies with their join.  The result holds f1's remaining variables, then
    f2's, each in their order.
    """
    pos2 = {v: j for j, v in enumerate(f2.vars)}
    keep1, key1, key2 = [], [], []
    for i, v in enumerate(f1.vars):
        j = pos2.pop(v, None)
        if j is None:
            keep1.append(i)
        else:
            key1.append(i)
            key2.append(j)
    vars = [f1.vars[i] for i in keep1] + list(pos2)
    if not key1:                       # nothing shared: a tensor product
        return _Factor(vars, {r1 + r2 for r1 in f1.rows for r2 in f2.rows})
    head, tail = _projection(keep1), _projection(list(pos2.values()))
    get1, get2 = itemgetter(*key1), itemgetter(*key2)
    index = {}
    for r in f2.rows:
        index.setdefault(get2(r), []).append(tail(r))
    rows = set()
    for r in f1.rows:
        tails = index.get(get1(r))
        if tails:
            h = head(r)
            rows.update([h + t for t in tails])
    return _Factor(vars, rows)


def evaluate(d: Diagram) -> Relation:
    """The relation a diagram denotes; independent of contraction order.

    One greedy schedule on the multigraph of boxes and wires: of the
    factor pairs linked by a wire, join the one with the narrowest result,
    ties to the earliest pair in factor order.  A join contracts the pair
    into one node, whose wire counts are the sums of theirs.  A join whose
    operands hold more than twice ``max_arity()`` distinct variables
    raises ``CapacityError``; the ceiling is read once per call.
    """
    ceiling = 2 * max_arity()
    ports = d.ports                     # port -> its variable
    protected = {("l", port) for port, _ in d.legs}

    # factors by id; ids grow, so id order is the factor order
    factors = {}
    for name, gen in d.boxes:
        vars = [ports[name, s] for s in slots(gen)]
        rows = _box_rows(gen)
        if len(set(vars)) < len(vars):
            # wires from the box to itself: keep the rows that agree at both
            # ends of each, then sum them out, since no other factor holds them
            loops = [(vars.index(v), i) for i, v in enumerate(vars)
                     if vars.index(v) < i]
            keep = [i for i, v in enumerate(vars) if vars.count(v) == 1]
            project = _projection(keep)
            rows = {project(r) for r in rows
                    if all(r[i] == r[j] for i, j in loops)}
            vars = [vars[i] for i in keep]
        factors[len(factors)] = _Factor(vars, rows)
    if not factors:
        return rel.scalar(True)
    ids = count(len(factors))

    def join(f1, f2, shared):
        if len(f1.vars) + len(f2.vars) - shared > ceiling:
            raise CapacityError("contraction intermediate exceeds arity "
                                "ceiling")
        return _join(f1, f2)

    # A variable is a wire (two ports) or a leg (one port): at most two
    # factors hold it, and one two factors share dies with their join.  So
    # a pair's join is as wide as its two factors less twice its wire count.
    box_id = {name: i for i, (name, _) in enumerate(d.boxes)}
    links = {i: {} for i in factors}     # i -> {j: wires between i and j}
    for (a, _), (b, _) in d.wires:
        i, j = box_id[a], box_id[b]
        if i != j:               # self-wires are reduced in their factor
            links[i][j] = links[j][i] = links[i].get(j, 0) + 1

    # (width of the join, i, j), i < j, for factors linked by a wire.  A
    # join's node is new and a factor changes only by being joined, so an
    # entry is current while both its factors are: skip the others.
    heap = sorted((len(factors[i].vars) + len(factors[j].vars) - 2 * n, i, j)
                  for i, row in links.items() for j, n in row.items() if i < j)

    while heap:
        _, i, j = heapq.heappop(heap)
        if i not in factors or j not in factors:
            continue
        f = join(factors.pop(i), factors.pop(j), links[i][j])
        new = next(ids)
        factors[new] = f
        merged = links[new] = {}
        for old in (i, j):
            for m, n in links.pop(old).items():
                del links[m][old]
                if m != j:
                    merged[m] = merged.get(m, 0) + n
        for m, n in merged.items():
            links[m][new] = n
            heapq.heappush(heap, (len(factors[m].vars) + len(f.vars) - 2 * n,
                                  m, new))
    final, *rest = factors.values()
    for f in rest:               # disconnected remainder: tensor it together
        final = join(final, f, 0)
    if set(final.vars) != protected:
        raise RuntimeError("internal variables were not eliminated: %s"
                           % sorted(set(final.vars) - protected))
    pos = {v: i for i, v in enumerate(final.vars)}
    in_pos = [pos["l", p] for p, dr in d.legs if dr == "in"]
    out_pos = [pos["l", p] for p, dr in d.legs if dr == "out"]
    base = BASE[d.theory]
    dom, cod = Space(base, len(in_pos)), Space(base, len(out_pos))
    ins, outs = _projection(in_pos), _projection(out_pos)
    return Relation(dom, cod, frozenset((ins(r), outs(r))
                                        for r in final.rows))


# ---------------------------------------------------------------------------
# Rewriting: leg bending (map-state duality) and Sigma normalisation.


def _is_sigma(gen: GeneratorId) -> bool:
    return gen.tag == "perm" and gen.perm == SIGMA


def _is_phased_box(gen: GeneratorId) -> bool:
    if gen.tag == "perm":
        return gen.perm.is_phased
    return gen.tag in ("delta", "delta_dagger", "epsilon", "epsilon_dagger",
                       "identity")


def _bend(d: Diagram, bent) -> Diagram:
    """``d`` with the open legs ``bent`` turned around and moved, in that
    order, to the end of the leg list; each keeps its port, so the bent
    diagram shares ``d``'s port index."""
    turn = {"in": "out", "out": "in"}
    legs = tuple([lg for k, lg in enumerate(d.legs) if k not in bent]
                 + [(d.legs[k][0], turn[d.legs[k][1]]) for k in bent])
    nd = Diagram(d.theory, d.boxes, d.wires, legs)
    nd.__dict__["ports"] = d.ports
    return nd


def bend_leg(d: Diagram, leg_index: int) -> Diagram:
    """Turn open leg ``leg_index`` (0-based) from input to output or back.

    The cup and cap of the induced compact structure are the plain diagonal,
    so bending only relabels: the leg keeps its port, changes direction and
    moves to the end of the leg list.  Boxes and wires are unchanged.
    """
    if not 0 <= leg_index < len(d.legs):
        raise DiagramError("no open leg %d" % leg_index)
    return _bend(d, [leg_index])


def as_state(d: Diagram) -> Diagram:
    """Bend every input leg so the diagram denotes a state.

    The result is the cached property ``Diagram.state``, kept on ``d`` as
    the port index is, so a later call bends nothing.
    """
    return d.state


def sigma_normalize(d: Diagram) -> Diagram:
    """Rewrite so every box is phased or the single unphased permutation Sigma.

    Swap boxes are dissolved into crossing wires, unphased permutations are
    factored through Sigma, and identity spacers are inserted so each Sigma
    box touches phased boxes on both sides.
    """
    index = d.validate().ports
    if d.theory != SPEK:
        raise DiagramError("zone decomposition applies to Spek diagrams only")
    boxes, wires, legs = dict(d.boxes), list(d.wires), list(d.legs)
    leg_at = {port: k for k, (port, _) in enumerate(d.legs)}
    held = {}           # port made or moved here -> its index entry
    names, free = set(boxes), {}     # removed names are not reused

    def add_box(stem, gen):
        """Add a box named ``<stem><k>`` with the lowest unused k."""
        k = free.get(stem, 0)
        while "%s%d" % (stem, k) in names:
            k += 1
        free[stem] = k + 1
        new = "%s%d" % (stem, k)
        names.add(new)
        boxes[new] = gen
        return new

    def add_wire(a, b):
        held[a] = held[b] = ("w", len(wires))
        wires.append((a, b))

    def holder(port):
        """The index entry at ``port``, and for a wire its other end."""
        entry = held.get(port) or index[port]
        if entry[0] == "l":
            return entry, None
        a, b = wires[entry[1]]
        return entry, b if a == port else a

    def reattach(port, new_port):
        """Move whatever was attached at ``port`` onto ``new_port``."""
        entry, other = holder(port)
        held[new_port] = entry
        if other is None:
            k = leg_at[entry[1]]
            legs[k] = (new_port, legs[k][1])
        else:
            wires[entry[1]] = (other, new_port)

    # dissolve swap boxes into crossing connections
    for name, gen in d.boxes:
        if gen.tag != "swap":
            continue
        del boxes[name]
        for src, dst in (("in", "2"), ("in2", "1")):
            spacer = add_box("_x", GeneratorId("identity", SPEK))
            reattach((name, src), (spacer, "in"))
            reattach((name, dst), (spacer, "1"))

    # factor unphased permutations through Sigma
    for name, gen in d.boxes:
        if gen.tag != "perm" or gen.perm.is_phased:
            continue
        del boxes[name]
        factors = sigma_decompose(gen.perm)
        chain = [add_box("_s" if f == SIGMA else "_p",
                         GeneratorId("perm", SPEK, f)) for f in factors]
        reattach((name, "in"), (chain[0], "in"))
        reattach((name, "1"), (chain[-1], "1"))
        for left, right in zip(chain, chain[1:]):
            add_wire((left, "1"), (right, "in"))

    # pad Sigma boxes so both neighbours are phased
    for name, gen in list(boxes.items()):
        if not _is_sigma(gen):
            continue
        for slot in ("in", "1"):
            other = holder((name, slot))[1]
            if other is None or _is_sigma(boxes[other[0]]):
                spacer = add_box("_i", GeneratorId("identity", SPEK))
                reattach((name, slot), (spacer, "in"))
                add_wire((spacer, "1"), (name, slot))
    return Diagram(d.theory, tuple(boxes.items()), tuple(wires), tuple(legs))


class Zone(namedtuple("Zone", "boxes legs")):
    """Box ids, and 0-based open-leg indices in leg order."""

    __slots__ = ()

    @property
    def is_internal(self):
        return not self.legs


class ZoneDecomposition(namedtuple(
        "ZoneDecomposition", "diagram zones links leg_reorder parity")):
    """A Spek diagram split into phased zones linked by Sigma boxes.

    ``diagram`` is the Sigma-normalised diagram; ``links`` holds one
    ``(zone, zone)`` entry per Sigma box, and ``leg_reorder`` the original
    leg indices in canonical order.

    ``parity`` holds one ``(mask, offset)`` per zone: with T the zones'
    type bits, bit i for zone i, zone i's block parity is ``offset`` plus
    the set bits of ``mask & T``, mod 2.  Restricted to the {1,2} plane
    (type 0) or the {3,4} plane (type 1), a phased permutation is the
    identity or the two-level swap; with f12 and f34 the parities of the
    zone's swaps on each plane, the zone alone has parity
    (1 + f12) + (f12 + f34) T_i, and each zone j linked to it an odd number
    of times adds T_i + T_j.
    """

    __slots__ = ()

    @property
    def external_zones(self):
        return tuple(i for i, z in enumerate(self.zones) if not z.is_internal)

    @property
    def internal_zones(self):
        return tuple(i for i, z in enumerate(self.zones) if z.is_internal)

def _swap_bits(gen: GeneratorId) -> int:
    """Bit 0 (1): the box restricts to the swap on the {1,2} ({3,4}) plane."""
    if gen.tag != "perm":
        return 0
    return ((gen.perm.half_restriction("12") == Z2_SWAP)
            | (gen.perm.half_restriction("34") == Z2_SWAP) << 1)


def zone_decompose(d: Diagram) -> ZoneDecomposition:
    """Split a Spek diagram into maximal phased zones linked by Sigma."""
    nd = sigma_normalize(d)
    box_map = dict(nd.boxes)
    phased = [name for name, gen in nd.boxes if not _is_sigma(gen)]
    for name in phased:
        if not _is_phased_box(box_map[name]):
            raise RuntimeError("Sigma normalisation left unphased box %s"
                               % name)

    parent = {name: name for name in phased}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    sigma_ends = {}                # Sigma port -> the phased box it meets
    for a, b in nd.wires:
        if a[0] in parent and b[0] in parent:
            parent[find(a[0])] = find(b[0])
        elif a[0] in parent:
            sigma_ends[b] = a[0]
        elif b[0] in parent:
            sigma_ends[a] = b[0]

    # zones in the order they are met: external ones by their first leg,
    # then internal ones by their first box; boxes and legs in their order
    comp_of = {name: find(name) for name in phased}
    zone_boxes, zone_legs, swaps = {}, {}, {}
    for name in phased:
        root = comp_of[name]
        zone_boxes.setdefault(root, []).append(name)
        swaps[root] = swaps.get(root, 0) ^ _swap_bits(box_map[name])
    for k, (port, _) in enumerate(nd.legs):
        zone_legs.setdefault(comp_of[port[0]], []).append(k)
    ordering = list(dict.fromkeys([*zone_legs, *zone_boxes]))
    zone_index = {r: i for i, r in enumerate(ordering)}

    links = []
    odd = [0] * len(ordering)      # zone -> the zones linked to it oddly often
    for name, gen in nd.boxes:
        if not _is_sigma(gen):
            continue
        ends = [sigma_ends.get((name, slot)) for slot in ("in", "1")]
        if None in ends:
            raise RuntimeError("Sigma box %s does not end in phased boxes"
                               % name)
        a, b = sorted(zone_index[comp_of[end]] for end in ends)
        links.append((a, b))
        if a != b:
            odd[a] ^= 1 << b
            odd[b] ^= 1 << a

    parity = []
    for i, r in enumerate(ordering):
        f12, f34 = swaps[r] & 1, swaps[r] >> 1
        slope = (f12 ^ f34 ^ odd[i].bit_count()) & 1
        parity.append((odd[i] | slope << i, 1 ^ f12))
    zones = tuple(Zone(tuple(zone_boxes[r]), tuple(zone_legs.get(r, ())))
                  for r in ordering)
    reorder = tuple(k for z in zones for k in z.legs)
    return ZoneDecomposition(nd, zones, tuple(links), reorder, tuple(parity))

