"""String diagrams over the theory generators: DSL, evaluation, bending, zones.

A diagram is a set of generator boxes, wires between box ports, and an
ordered list of open legs.  Ports are written ``<box>.<slot>`` where input
slots are named ``in``, ``in2``, ... and output slots ``1``, ``2``, ...
Wires are direction-free: the induced compact structure of the theories is
the plain diagonal, so a wire always means equality of the two port values.
The port index, which says what each port is attached to, is the cached
property ``Diagram.ports``: built, and the diagram checked, on first access,
then read by evaluation and every rewriting pass.  Evaluation reduces a wire
from a box to itself when it builds that box's factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import count
from operator import itemgetter
from typing import Dict, Tuple

from . import relations as rel
from .generators import (ARITIES, GeneratorId, HALFSPEK, MSPEK, SPEK,
                         parse_generator_name, resolve)
from .permutations import SIGMA, sigma_decompose
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


@dataclass(frozen=True)
class Diagram:
    theory: str = SPEK
    boxes: Tuple[Tuple[str, GeneratorId], ...] = ()
    wires: Tuple[Tuple[Port, Port], ...] = ()
    legs: Tuple[Tuple[Port, str], ...] = ()      # (port, "in"|"out"), ordered

    @cached_property
    def box_map(self) -> Dict[str, GeneratorId]:
        """Box id -> generator (shared: do not modify)."""
        return dict(self.boxes)

    @cached_property
    def ports(self) -> Dict[Port, tuple]:
        """The port index: what each port is attached to, ``("wire", i,
        other)`` or ``("leg", k)`` (shared: do not modify).  Built, and the
        diagram checked, on first access."""
        index = {}
        box_map = self.box_map
        if len(box_map) != len(self.boxes):
            raise DiagramError("duplicate box id")
        for name, gen in self.boxes:
            if "." in name:
                raise DiagramError("box id %r may not contain '.'" % name)
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
            touch(a, "wire", ("wire", i, b))
            touch(b, "wire", ("wire", i, a))
        for k, (port, _) in enumerate(self.legs):
            touch(port, "leg", ("leg", k))
        for name, gen in self.boxes:
            for slot in slots(gen):
                if (name, slot) not in index:
                    raise DiagramError("dangling port %s.%s" % (name, slot))
        return index

    @property
    def base_space(self) -> Space:
        return rel.II if self.theory == HALFSPEK else rel.IV

    def n_inputs(self):
        return sum(1 for _, d in self.legs if d == "in")

    def n_outputs(self):
        return sum(1 for _, d in self.legs if d == "out")

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


def evaluate(d: Diagram, rng=None) -> Relation:
    """The relation a diagram denotes; independent of contraction order.

    Greedy schedule: of the factor pairs sharing a variable, join the one
    with the narrowest result, ties to the earliest pair in factor order
    (``rng`` picks among all candidates instead).  A join whose operands
    hold more than twice ``max_arity()`` distinct variables raises
    ``CapacityError``; the ceiling is read once per call.
    """
    ceiling = 2 * max_arity()
    # variables: ("w", i) for wire i, ("l", k) for leg k
    port_var = {port: (kind[0][0], kind[1]) for port, kind in d.ports.items()}
    protected = {("l", k) for k in range(len(d.legs))}

    # factors by id; ids grow, so id order is the factor order
    factors = {}
    for name, gen in d.boxes:
        vars = [port_var[name, s] for s in slots(gen)]
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
    # factors hold it, and one two factors share dies with their join (its
    # holders entry is never read again).
    holders = {}                 # variable -> ids of the factors holding it
    for i, f in factors.items():
        for v in f.vars:
            holders.setdefault(v, set()).add(i)

    widths = {}                  # (i, j), i < j, sharing a variable -> width

    def score(i, j):
        vi, vj = factors[i].vars, factors[j].vars
        widths[i, j] = len(vi) + len(vj) - 2 * sum(v in vj for v in vi)

    for held in holders.values():
        if len(held) == 2:
            score(*sorted(held))

    while widths:
        if rng is None:
            _, i, j = min((w, i, j) for (i, j), w in widths.items())
        else:
            _, i, j = rng.choice(sorted((w, i, j)
                                        for (i, j), w in widths.items()))
        fi, fj = factors.pop(i), factors.pop(j)
        gone = [v for v in fi.vars if v in fj.vars]
        f = join(fi, fj, len(gone))
        new = next(ids)
        factors[new] = f
        for pair in [p for p in widths if i in p or j in p]:
            del widths[pair]
        for v in f.vars:
            held = holders[v]
            held.discard(i)
            held.discard(j)
            held.add(new)
        for m in {m for v in f.vars for m in holders[v]} - {new}:
            score(m, new)
    final, *rest = factors.values()
    for f in rest:               # disconnected remainder: tensor it together
        final = join(final, f, 0)
    if set(final.vars) != protected:
        raise RuntimeError("internal variables were not eliminated: %s"
                           % sorted(set(final.vars) - protected))
    pos = {v: i for i, v in enumerate(final.vars)}
    in_pos = [pos["l", k] for k, (_, dr) in enumerate(d.legs) if dr == "in"]
    out_pos = [pos["l", k] for k, (_, dr) in enumerate(d.legs) if dr == "out"]
    base = d.base_space.base
    dom = Space(base, len(in_pos)) if in_pos else rel.I
    cod = Space(base, len(out_pos)) if out_pos else rel.I
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


class _Builder:
    """Mutable companion of Diagram used by the rewriting passes.

    Every edit keeps the port index (as in ``Diagram.ports``) up to date.
    A removed wire or leg leaves a ``None`` hole until ``finish``, so the
    positions the index holds stay valid.
    """

    def __init__(self, d: Diagram):
        self.theory = d.theory
        self.box_map = dict(d.box_map)     # in box order
        self.wires = list(d.wires)
        self.legs = list(d.legs)
        self.index = dict(d.ports)
        self._names = set(self.box_map)    # removed names are not reused
        self._next = {}                    # stem -> lowest suffix maybe free

    def add_box(self, stem, gen):
        """Add a box named ``<stem><k>`` with the lowest unused k."""
        k = self._next.get(stem, 0)
        while "%s%d" % (stem, k) in self._names:
            k += 1
        self._next[stem] = k + 1
        name = "%s%d" % (stem, k)
        self._names.add(name)
        self.box_map[name] = gen
        return name

    def add_wire(self, a, b):
        self.index[a] = ("wire", len(self.wires), b)
        self.index[b] = ("wire", len(self.wires), a)
        self.wires.append((a, b))

    def remove_wire(self, i):
        for port in self.wires[i]:
            del self.index[port]
        self.wires[i] = None

    def add_leg(self, port, direction):
        self.index[port] = ("leg", len(self.legs))
        self.legs.append((port, direction))

    def reattach(self, port, new_port):
        """Move whatever was attached at ``port`` onto ``new_port``."""
        kind = self.index.pop(port)
        self.index[new_port] = kind
        if kind[0] == "wire":
            _, i, other = kind
            self.wires[i] = (other, new_port)
            self.index[other] = ("wire", i, new_port)
        else:
            i = kind[1]
            self.legs[i] = (new_port, self.legs[i][1])

    def bend(self, k):
        """Turn open leg k around; the bent leg is appended to the legs."""
        port, direction = self.legs[k]
        self.legs[k] = None                # port is wired up below
        if direction == "in":
            u = self.add_box("_cup", GeneratorId("epsilon_dagger", self.theory))
            v = self.add_box("_cupd", GeneratorId("delta", self.theory))
            self.add_wire((u, "1"), (v, "in"))
            self.add_wire((v, "1"), port)
            self.add_leg((v, "2"), "out")
        else:
            w = self.add_box("_capd", GeneratorId("delta_dagger", self.theory))
            e = self.add_box("_cap", GeneratorId("epsilon", self.theory))
            self.add_wire(port, (w, "in"))
            self.add_wire((w, "1"), (e, "in"))
            self.add_leg((w, "in2"), "in")

    def finish(self) -> Diagram:
        return Diagram(self.theory, tuple(self.box_map.items()),
                       tuple([w for w in self.wires if w is not None]),
                       tuple([lg for lg in self.legs if lg is not None])
                       ).validate()


def bend_leg(d: Diagram, leg_index: int) -> Diagram:
    """Turn open leg ``leg_index`` (0-based) from input to output or back.

    The bent leg is re-attached at the end of the leg list, through the unit
    (delta after eps+) or counit (delta+ into eps) of the induced compact
    structure.
    """
    b = _Builder(d)
    if not 0 <= leg_index < len(d.legs):
        raise DiagramError("no open leg %d" % leg_index)
    b.bend(leg_index)
    return b.finish()


def as_state(d: Diagram) -> Diagram:
    """Bend every input leg so the diagram denotes a state.

    The result is kept on ``d``, as the port index is:
    every field is immutable, so a later call bends nothing.
    """
    state = d.__dict__.get("_state")
    if state is not None:
        return state
    ins = [k for k, (_, dr) in enumerate(d.legs) if dr == "in"]
    if not ins:
        return d
    b = _Builder(d)
    for k in ins:
        b.bend(k)
    state = b.finish()
    object.__setattr__(d, "_state", state)
    return state


def sigma_normalize(d: Diagram) -> Diagram:
    """Rewrite so every box is phased or the single unphased permutation Sigma.

    Swap boxes are dissolved into crossing wires, unphased permutations are
    factored through Sigma, and identity spacers are inserted so each Sigma
    box touches phased boxes on both sides.
    """
    d.validate()
    if d.theory != SPEK:
        raise DiagramError("zone decomposition applies to Spek diagrams only")
    b = _Builder(d)

    # dissolve swap boxes into crossing connections
    for name, gen in d.boxes:
        if gen.tag != "swap":
            continue
        del b.box_map[name]
        for src, dst in (("in", "2"), ("in2", "1")):
            spacer = b.add_box("_x", GeneratorId("identity", SPEK))
            b.reattach((name, src), (spacer, "in"))
            b.reattach((name, dst), (spacer, "1"))

    # factor unphased permutations through Sigma
    for name, gen in d.boxes:
        if gen.tag != "perm" or gen.perm.is_phased:
            continue
        del b.box_map[name]
        factors = sigma_decompose(gen.perm)
        chain = [b.add_box("_s" if f == SIGMA else "_p",
                           GeneratorId("perm", SPEK, f)) for f in factors]
        b.reattach((name, "in"), (chain[0], "in"))
        b.reattach((name, "1"), (chain[-1], "1"))
        for left, right in zip(chain, chain[1:]):
            b.add_wire((left, "1"), (right, "in"))

    # pad Sigma boxes so both neighbours are phased
    for name, gen in list(b.box_map.items()):
        if not _is_sigma(gen):
            continue
        for slot in ("in", "1"):
            kind = b.index[name, slot]
            if kind[0] == "leg" or _is_sigma(b.box_map[kind[2][0]]):
                spacer = b.add_box("_i", GeneratorId("identity", SPEK))
                b.reattach((name, slot), (spacer, "in"))
                b.add_wire((spacer, "1"), (name, slot))
    return b.finish()


@dataclass(frozen=True)
class Zone:
    boxes: Tuple[str, ...]
    legs: Tuple[int, ...]          # 0-based open-leg indices, in leg order

    @property
    def is_internal(self):
        return not self.legs


@dataclass(frozen=True)
class ZoneDecomposition:
    diagram: Diagram               # the Sigma-normalised diagram
    zones: Tuple[Zone, ...]
    links: Tuple[Tuple[int, int], ...]   # one (zone, zone) entry per Sigma box
    leg_reorder: Tuple[int, ...]   # canonical order: original leg indices

    @property
    def external_zones(self):
        return tuple(i for i, z in enumerate(self.zones) if not z.is_internal)

    @property
    def internal_zones(self):
        return tuple(i for i, z in enumerate(self.zones) if z.is_internal)

    @cached_property
    def _odd_links(self):
        odd = {}
        for a, b in self.links:
            if a != b:
                odd.setdefault(a, set()).symmetric_difference_update({b})
                odd.setdefault(b, set()).symmetric_difference_update({a})
        return odd

    def adjacency(self, i):
        """Zones linked to zone i an odd number of times (self-links drop out)."""
        return set(self._odd_links.get(i, ()))


def zone_decompose(d: Diagram) -> ZoneDecomposition:
    """Split a Spek diagram into maximal phased zones linked by Sigma."""
    nd = sigma_normalize(d)
    box_map = nd.box_map
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

    for (ab, _), (bb, _) in nd.wires:
        if ab in parent and bb in parent:
            parent[find(ab)] = find(bb)

    roots = sorted({find(name) for name in phased})
    comp_of = {name: find(name) for name in phased}
    zone_boxes = {r: [] for r in roots}     # each in box order
    for name, _ in nd.boxes:
        if name in comp_of:
            zone_boxes[comp_of[name]].append(name)

    zone_legs = {r: [] for r in roots}
    for k, (port, _) in enumerate(nd.legs):
        zone_legs[comp_of[port[0]]].append(k)

    box_order = {name: i for i, (name, _) in enumerate(nd.boxes)}
    external = sorted((r for r in roots if zone_legs[r]),
                      key=lambda r: min(zone_legs[r]))
    internal = sorted((r for r in roots if not zone_legs[r]),
                      key=lambda r: box_order[zone_boxes[r][0]])
    ordering = external + internal
    zone_index = {r: i for i, r in enumerate(ordering)}

    links = []
    ports = nd.ports
    for name, gen in nd.boxes:
        if not _is_sigma(gen):
            continue
        ends = []
        for slot in ("in", "1"):
            kind = ports[name, slot]
            if kind[0] != "wire":
                raise RuntimeError("Sigma box %s ends in an open leg" % name)
            ends.append(zone_index[comp_of[kind[2][0]]])
        links.append(tuple(sorted(ends)))

    zones = tuple(Zone(tuple(zone_boxes[r]), tuple(zone_legs[r]))
                  for r in ordering)
    reorder = tuple(k for z in zones for k in z.legs)
    return ZoneDecomposition(nd, zones, tuple(links), reorder)


def internalize_normal_form(d: Diagram) -> Diagram:
    """Give every internal zone a delta leg capped by eps (same relation)."""
    zd = zone_decompose(d)
    b = _Builder(zd.diagram)
    for i in zd.internal_zones:
        # the zone's least wire, in the order of the wire tuples
        touching = []
        for name in zd.zones[i].boxes:
            for slot in slots(b.box_map[name]):
                kind = b.index[name, slot]
                if kind[0] == "wire":
                    touching.append(kind[1])
        if not touching:
            raise RuntimeError("internal zone %d touches no wire" % i)
        target = min(touching, key=b.wires.__getitem__)
        pa, pb = b.wires[target]
        b.remove_wire(target)
        dd = b.add_box("_nfd", GeneratorId("delta", SPEK))
        cap = b.add_box("_nfe", GeneratorId("epsilon", SPEK))
        b.add_wire(pa, (dd, "in"))
        b.add_wire((dd, "1"), pb)
        b.add_wire((dd, "2"), (cap, "in"))
    return b.finish()
