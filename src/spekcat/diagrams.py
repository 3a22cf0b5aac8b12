"""String diagrams over the theory generators: DSL, evaluation, bending, zones.

A diagram is a set of generator boxes, wires between box ports, and an
ordered list of open legs.  Ports are written ``<box>.<slot>`` where input
slots are named ``in``, ``in2``, ... and output slots ``1``, ``2``, ...
A statement of the text splits at whitespace, its directive at the first
run of it.
Wires are direction-free: the induced compact structure of the theories is
the plain diagonal, so a wire means equality of its two port values, and
bending a leg only moves it between the inputs and the outputs.  The port
index is the cached property ``Diagram.ports``: it maps each port to the
evaluator's variable there, ``("w", i)`` for wire i or ``("l", port)`` for
an open leg, so it depends on neither the legs' order nor their direction.
It is built, and the diagram checked, on first access; bending shares it
unchanged.  Sigma normalisation looks ports up in its input's index and
builds none for its output; zone decomposition classes each box of the
normal form in one scan and reads each Sigma box's ends off its scan of
the wires.  Evaluation reads its variables off the index, and reduces a
wire from a box to itself when it builds that box's factor.  It then
applies each one-variable factor and each bijection to the factor its wire
reaches, so the schedule joins what is left, mostly copies and their
daggers; the schedule keeps one row of wire counts per factor, and a join
merges the second factor's row into the first's.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from functools import cache, cached_property
from itertools import count
from operator import itemgetter
from typing import Dict, Tuple

from . import relations as rel
from .generators import (ARITIES, BASE, SPEK, THEORIES, GeneratorId,
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
        diagram shares it.  A box's ports are all attached when the index
        holds as many entries as the boxes have slots."""
        theory, boxes = self.theory, self.boxes
        box_slots = {name: _SLOTS[gen.tag] for name, gen in boxes}
        if len(box_slots) != len(boxes):
            seen = set()
            for name, _ in boxes:
                if name in seen:
                    raise DiagramError("duplicate box id %r" % name)
                seen.add(name)
        total = 0
        for name, gen in boxes:
            if not name or "." in name:
                raise DiagramError("box id %r is empty or contains '.'" % name)
            if gen.theory != theory:
                raise DiagramError("box %s uses theory %s in a %s diagram"
                                   % (name, gen.theory, theory))
            total += len(box_slots[name])

        index = {}
        for i, wire in enumerate(self.wires):
            a, b = wire
            if a == b:
                raise DiagramError("wire from port %s.%s to itself" % a)
            entry = ("w", i)
            for port in wire:
                names = box_slots.get(port[0])
                if names is None or port[1] not in names or port in index:
                    raise _port_error(port, "wire", box_slots)
                index[port] = entry
        for port, _ in self.legs:
            names = box_slots.get(port[0])
            if names is None or port[1] not in names or port in index:
                raise _port_error(port, "leg", box_slots)
            index[port] = ("l", port)
        if len(index) != total:
            for name, names in box_slots.items():
                for slot in names:
                    if (name, slot) not in index:
                        raise DiagramError("dangling port %s.%s"
                                           % (name, slot))
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


def _port_error(port, where, box_slots):
    """The error for a port ``Diagram.ports`` cannot enter."""
    box, slot = port
    if box not in box_slots:
        return DiagramError("unknown box %r in %s" % (box, where))
    if slot not in box_slots[box]:
        return DiagramError("box %r has no slot %r" % (box, slot))
    return DiagramError("port %s.%s used more than once" % port)


def _bad_port(tok, lineno):
    return DiagramError("bad port %r (expected <box>.<slot>)" % tok, lineno)


def parse(source: str) -> Diagram:
    """Parse DSL text into a validated diagram.

    ``#`` starts a comment.  A statement's directive ends at its first run
    of whitespace, and ports are separated by whitespace.
    """
    theory = SPEK
    boxes, wires, legs = [], [], []
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        toks = line.split()
        if not toks:
            continue
        head = toks[0]
        if head == "wire":
            if len(toks) != 3:
                raise DiagramError("wire needs exactly two ports, got %r"
                                   % line.strip()[4:].lstrip(), lineno)
            a, b = toks[1], toks[2]
            abox, dot, aslot = a.partition(".")
            if not dot:
                raise _bad_port(a, lineno)
            bbox, dot, bslot = b.partition(".")
            if not dot:
                raise _bad_port(b, lineno)
            wires.append(((abox, aslot), (bbox, bslot)))
        elif head == "box":
            name, sep, genname = line.strip()[3:].partition(":")
            genname = genname.strip()
            if not sep or not genname:
                raise DiagramError("expected 'box <id>: <generator>'", lineno)
            try:
                gen = parse_generator_name(genname, theory)
            except ValueError as exc:
                raise DiagramError(str(exc), lineno)
            boxes.append((name.strip(), gen))
        elif head == "in" or head == "out":
            for tok in toks[1:]:
                box, dot, slot = tok.partition(".")
                if not dot:
                    raise _bad_port(tok, lineno)
                legs.append(((box, slot), head))
        elif head == "theory":
            tail = line.strip()[6:].lstrip()
            if tail not in THEORIES:
                raise DiagramError("unknown theory %r" % tail, lineno)
            if boxes:
                raise DiagramError("theory must precede box declarations", lineno)
            theory = tail
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
        return itemgetter(slice(i, i + 1))
    return itemgetter(slice(0))


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
    pos2 = dict(zip(f2.vars, range(len(f2.vars))))
    vars, keep1, key1, key2 = [], [], [], []
    for i, v in enumerate(f1.vars):
        j = pos2.pop(v, None)
        if j is None:
            keep1.append(i)
            vars.append(v)
        else:
            key1.append(i)
            key2.append(j)
    vars += pos2
    if not key1:                       # nothing shared: a tensor product
        return _Factor(vars, {r1 + r2 for r1 in f1.rows for r2 in f2.rows})
    head, tail = _projection(keep1), _projection(list(pos2.values()))
    get1, get2 = itemgetter(*key1), itemgetter(*key2)
    index = {}
    for r in f2.rows:
        k = get2(r)
        if k in index:
            index[k].append(tail(r))
        else:
            index[k] = [tail(r)]
    rows = set()
    for r in f1.rows:
        tails = index.get(get1(r))
        if tails:
            h = head(r)
            for t in tails:
                rows.add(h + t)
    return _Factor(vars, rows)


def evaluate(d: Diagram) -> Relation:
    """The relation a diagram denotes; independent of contraction order.

    Only copy and its dagger correlate wires.  So before any join, one pass
    in box order applies each one-variable factor and each bijection box
    (perm, id) to the box its wire reaches: a one-variable factor keeps
    that box's rows whose value there it holds, and a bijection relabels
    that box's value through its map, moving it to the bijection's other
    wire (or, when that wire ends on the same box, keeps the rows that
    agree through the map).  The ceiling rule of a join holds: an
    absorption whose two factors hold more than the ceiling's variables
    together is skipped, and the box is left to the schedule.

    Then one greedy schedule on the multigraph of what is left: of the
    factor pairs linked by a wire, join the one with the narrowest result,
    ties to the earliest pair in factor order.  A join contracts the pair
    into one node, whose wire counts are the sums of theirs.  A join whose
    operands hold more than twice ``max_arity()`` distinct variables
    raises ``CapacityError``; the ceiling is read once per call.
    """
    ceiling = 2 * max_arity()
    ports = d.ports                     # port -> its variable
    protected = {("l", port) for port, _ in d.legs}

    # A variable is a wire (two ports) or a leg (one port): at most two
    # factors hold it, and one two factors share dies with their join.  So
    # a pair's join is as wide as its two factors less twice its wire count.
    box_id = {name: i for i, (name, _) in enumerate(d.boxes)}
    links = {i: {} for i in range(len(d.boxes))}  # i -> {j: wires i to j}
    looped = set()                  # boxes with a wire to themselves
    ends = [None] * len(d.wires)    # wire -> the two factors holding it
    for w, ((a, _), (b, _)) in enumerate(d.wires):
        i, j = box_id[a], box_id[b]
        if i == j:
            looped.add(i)
        else:
            links[i][j] = links[j][i] = links[i].get(j, 0) + 1
            ends[w] = [i, j]

    # factors by id; ids grow, so id order is the factor order
    factors = {}
    for i, (name, gen) in enumerate(d.boxes):
        vars = [ports[name, s] for s in _SLOTS[gen.tag]]
        rows = _box_rows(gen)
        if i in looped:
            # wires from the box to itself: keep the rows that agree at both
            # ends of each, then sum them out, since no other factor holds them
            loops = [(vars.index(v), k) for k, v in enumerate(vars)
                     if vars.index(v) < k]
            keep = [k for k, v in enumerate(vars) if vars.count(v) == 1]
            project = _projection(keep)
            rows = {project(r) for r in rows
                    if all(r[a] == r[b] for a, b in loops)}
            vars = [vars[k] for k in keep]
        factors[i] = _Factor(vars, rows)
    if not factors:
        return rel.scalar(True)

    # absorb the one-variable factors and the bijections into the factor
    # their wire reaches, which is edited in place; its rows are rebuilt,
    # as box rows are shared
    for i, (_, gen) in enumerate(d.boxes):
        f = factors.get(i)
        if f is None:
            continue
        n = len(f.vars)
        if n == 1:
            k = 0
        elif n == 2 and gen.tag in ("perm", "identity"):    # a bijection
            k = 0 if f.vars[0][0] == "w" else 1     # through its first wire
        else:
            continue
        v = f.vars[k]
        if v[0] != "w":                 # a leg
            continue
        e = ends[v[1]]
        j = e[0] + e[1] - i             # the wire's other factor
        g = factors[j]
        vars = g.vars
        u = f.vars[1 - k] if n == 2 else None
        if len(vars) + (u is not None and u not in vars) > ceiling:
            continue
        p = vars.index(v)
        if n == 1:
            g.rows = {r[:p] + r[p + 1:] for r in g.rows
                      if r[p:p + 1] in f.rows}
            del vars[p]
        else:
            to = dict(f.rows) if k == 0 else {b: a for a, b in f.rows}
            if u in vars:               # both its wires end on g
                q = vars.index(u)
                keep = [m for m in range(len(vars)) if m != p and m != q]
                project = _projection(keep)
                g.rows = {project(r) for r in g.rows if to[r[p]] == r[q]}
                g.vars = [vars[m] for m in keep]
            else:
                g.rows = {r[:p] + (to[r[p]],) + r[p + 1:] for r in g.rows}
                vars[p] = u
                if u[0] == "w":         # its other wire reaches a third box
                    eu = ends[u[1]]
                    m = eu[0] + eu[1] - i
                    eu[:] = j, m
                    del links[m][i]
                    links[j][m] = links[m][j] = links[j].get(m, 0) + 1
        del factors[i], links[i], links[j][i]
    ids = count(len(d.boxes))

    # (width of the join, i, j), i < j, for factors linked by a wire.  A
    # join's node is new and a factor changes only by being joined, so an
    # entry is current while both its factors are: skip the others.
    heap = sorted((len(factors[i].vars) + len(factors[j].vars) - 2 * n, i, j)
                  for i, row in links.items() for j, n in row.items() if i < j)

    while heap:
        _, i, j = heapq.heappop(heap)
        if i not in factors or j not in factors:
            continue
        f1, f2 = factors.pop(i), factors.pop(j)
        row, row_j = links.pop(i), links.pop(j)
        # the pair's own wires die in the join; j's row is merged into
        # i's, which becomes the new factor's row
        if len(f1.vars) + len(f2.vars) - row.pop(j) > ceiling:
            raise CapacityError("contraction intermediate exceeds arity "
                                "ceiling")
        del row_j[i]
        new = next(ids)
        f = factors[new] = _join(f1, f2)
        for m in row:
            del links[m][i]
        for m, n in row_j.items():
            del links[m][j]
            row[m] = row.get(m, 0) + n
        links[new] = row
        width = len(f.vars)
        for m, n in row.items():
            links[m][new] = n
            heapq.heappush(heap, (len(factors[m].vars) + width - 2 * n,
                                  m, new))
    final, *rest = factors.values()
    for f in rest:               # disconnected remainder: tensor it together
        if len(final.vars) + len(f.vars) > ceiling:
            raise CapacityError("contraction intermediate exceeds arity "
                                "ceiling")
        final = _join(final, f)
    if set(final.vars) != protected:
        raise RuntimeError("internal variables were not eliminated: %s"
                           % sorted(set(final.vars) - protected))
    pos = {v: i for i, v in enumerate(final.vars)}
    in_pos = [pos["l", p] for p, dr in d.legs if dr == "in"]
    out_pos = [pos["l", p] for p, dr in d.legs if dr == "out"]
    base = BASE[d.theory]
    dom, cod = Space(base, len(in_pos)), Space(base, len(out_pos))
    ins, outs, rows = _projection(in_pos), _projection(out_pos), final.rows
    return Relation(dom, cod, frozenset(zip(map(ins, rows), map(outs, rows))))


# ---------------------------------------------------------------------------
# Rewriting: leg bending (map-state duality) and Sigma normalisation.


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
    sigma = None                     # the Sigma generator, made when needed

    def add_box(stem, gen):
        """Add a box named ``<stem><k>`` with the lowest unused k."""
        k = free.get(stem, 0)
        new = "%s%d" % (stem, k)
        while new in names:
            k += 1
            new = "%s%d" % (stem, k)
        free[stem] = k + 1
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

    # factor unphased permutations through Sigma; every Sigma box of the
    # result is made here, and the list keeps them in box order
    sigmas = []
    for name, gen in d.boxes:
        if gen.tag != "perm" or gen.perm.is_phased:
            continue
        del boxes[name]
        chain = []
        for f in sigma_decompose(gen.perm):
            if f == SIGMA:
                sigma = sigma or GeneratorId("perm", SPEK, SIGMA)
                chain.append(add_box("_s", sigma))
                sigmas.append(chain[-1])
            else:
                chain.append(add_box("_p", GeneratorId("perm", SPEK, f)))
        reattach((name, "in"), (chain[0], "in"))
        reattach((name, "1"), (chain[-1], "1"))
        for left, right in zip(chain, chain[1:]):
            add_wire((left, "1"), (right, "in"))

    # pad Sigma boxes so both neighbours are phased
    is_sigma = set(sigmas)
    for name in sigmas:
        for slot in ("in", "1"):
            other = holder((name, slot))[1]
            if other is None or other[0] in is_sigma:
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

# the tags of the boxes that are phased whatever they carry
_PHASED_TAGS = ("delta", "delta_dagger", "epsilon", "epsilon_dagger",
                "identity")


def zone_decompose(d: Diagram) -> ZoneDecomposition:
    """Split a Spek diagram into maximal phased zones linked by Sigma.

    One scan classifies each box of the normal form as Sigma or phased,
    with its swap bits (bit 0 (1): it restricts to the swap on the {1,2}
    ({3,4}) plane); one over the wires joins phased neighbours and finds
    each Sigma box's ends.
    """
    nd = sigma_normalize(d)
    parent, swap_bits, sigmas = {}, {}, []
    for name, (tag, _, perm) in nd.boxes:
        if tag == "perm" and perm == SIGMA:
            sigmas.append(name)
            continue
        if tag == "perm" and perm.is_phased:
            bits = ((perm.half_restriction("12") == Z2_SWAP)
                    | (perm.half_restriction("34") == Z2_SWAP) << 1)
        elif tag in _PHASED_TAGS:
            bits = 0
        else:
            raise RuntimeError("Sigma normalisation left unphased box %s"
                               % name)
        parent[name] = name
        swap_bits[name] = bits

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
    zone_of, zone_boxes, zone_legs, swaps = {}, [], [], []
    for k, (port, _) in enumerate(nd.legs):
        root = find(port[0])
        if root not in zone_of:
            zone_of[root] = len(zone_legs)
            zone_boxes.append([])
            zone_legs.append([])
            swaps.append(0)
        zone_legs[zone_of[root]].append(k)
    for name, bits in swap_bits.items():
        root = find(name)
        if root not in zone_of:
            zone_of[root] = len(zone_legs)
            zone_boxes.append([])
            zone_legs.append(())
            swaps.append(0)
        z = zone_of[root]
        zone_boxes[z].append(name)
        swaps[z] ^= bits

    links = []
    odd = [0] * len(zone_legs)     # zone -> the zones linked to it oddly often
    for name in sigmas:
        ends = sigma_ends.get((name, "in")), sigma_ends.get((name, "1"))
        if None in ends:
            raise RuntimeError("Sigma box %s does not end in phased boxes"
                               % name)
        a, b = sorted([zone_of[find(ends[0])], zone_of[find(ends[1])]])
        links.append((a, b))
        if a != b:
            odd[a] ^= 1 << b
            odd[b] ^= 1 << a

    zones, parity = [], []
    for i, (boxes, legs, f) in enumerate(zip(zone_boxes, zone_legs, swaps)):
        f12, f34 = f & 1, f >> 1
        slope = (f12 ^ f34 ^ odd[i].bit_count()) & 1
        parity.append((odd[i] | slope << i, 1 ^ f12))
        zones.append(Zone(tuple(boxes), tuple(legs)))
    reorder = tuple(k for legs in zone_legs for k in legs)
    return ZoneDecomposition(nd, tuple(zones), tuple(links), reorder,
                             tuple(parity))
