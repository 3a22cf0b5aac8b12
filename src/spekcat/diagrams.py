"""String diagrams over the theory generators: DSL, evaluation, bending, zones.

A diagram is a set of generator boxes, wires between box ports, and an
ordered list of open legs.  Ports are written ``<box>.<slot>`` where input
slots are named ``in``, ``in2``, ... and output slots ``1``, ``2``, ...
Wires are direction-free: the induced compact structure of the theories is
the plain diagonal, so a wire always means equality of the two port values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from . import relations as rel
from .generators import (GeneratorId, HALFSPEK, MSPEK, SPEK, arity,
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


def slots(gen: GeneratorId) -> List[str]:
    n_in, n_out = arity(gen)
    ins = ["in"] + ["in%d" % k for k in range(2, n_in + 1)] if n_in else []
    return ins + [str(k) for k in range(1, n_out + 1)]


@dataclass(frozen=True)
class Diagram:
    theory: str = SPEK
    boxes: Tuple[Tuple[str, GeneratorId], ...] = ()
    wires: Tuple[Tuple[Port, Port], ...] = ()
    legs: Tuple[Tuple[Port, str], ...] = ()      # (port, "in"|"out"), ordered

    @property
    def box_map(self) -> Dict[str, GeneratorId]:
        return dict(self.boxes)

    @property
    def base_space(self) -> Space:
        return rel.II if self.theory == HALFSPEK else rel.IV

    def n_inputs(self):
        return sum(1 for _, d in self.legs if d == "in")

    def n_outputs(self):
        return sum(1 for _, d in self.legs if d == "out")

    def validate(self):
        seen_ports = {}
        box_map = self.box_map
        if len(box_map) != len(self.boxes):
            raise DiagramError("duplicate box id")
        for name, gen in self.boxes:
            if "." in name:
                raise DiagramError("box id %r may not contain '.'" % name)
            if gen.theory != self.theory:
                raise DiagramError("box %s uses theory %s in a %s diagram"
                                   % (name, gen.theory, self.theory))

        def touch(port, where):
            box, slot = port
            if box not in box_map:
                raise DiagramError("unknown box %r in %s" % (box, where))
            if slot not in slots(box_map[box]):
                raise DiagramError("box %r has no slot %r" % (box, slot))
            if port in seen_ports:
                raise DiagramError("port %s.%s used more than once" % port)
            seen_ports[port] = where

        for a, b in self.wires:
            if a == b:
                raise DiagramError("wire from port %s.%s to itself" % a)
            touch(a, "wire")
            touch(b, "wire")
        for port, _ in self.legs:
            touch(port, "leg")
        for name, gen in self.boxes:
            for slot in slots(gen):
                if (name, slot) not in seen_ports:
                    raise DiagramError("dangling port %s.%s" % (name, slot))
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
        self.vars = list(vars)
        self.rows = set(rows)
        self._collapse_repeats()

    def _collapse_repeats(self):
        while True:
            dup = None
            for i, v in enumerate(self.vars):
                j = self.vars.index(v)
                if j != i:
                    dup = (j, i)
                    break
            if dup is None:
                return
            j, i = dup
            self.rows = {r[:i] + r[i + 1:] for r in self.rows if r[i] == r[j]}
            del self.vars[i]

    def drop(self, vars_to_drop):
        keep = [i for i, v in enumerate(self.vars) if v not in vars_to_drop]
        self.vars = [self.vars[i] for i in keep]
        self.rows = {tuple(r[i] for i in keep) for r in self.rows}


def _join(f1: _Factor, f2: _Factor) -> _Factor:
    shared = [v for v in f1.vars if v in f2.vars]
    if len(f1.vars) + len(f2.vars) - len(shared) > 2 * max_arity():
        raise CapacityError("contraction intermediate exceeds arity ceiling")
    i1 = [f1.vars.index(v) for v in shared]
    i2 = [f2.vars.index(v) for v in shared]
    rest2 = [i for i in range(len(f2.vars)) if f2.vars[i] not in shared]
    index = {}
    for r in f2.rows:
        index.setdefault(tuple(r[i] for i in i2), []).append(
            tuple(r[i] for i in rest2))
    rows = set()
    for r in f1.rows:
        for tail in index.get(tuple(r[i] for i in i1), ()):
            rows.add(r + tail)
    return _Factor(f1.vars + [f2.vars[i] for i in rest2], rows)


def evaluate(d: Diagram, rng=None) -> Relation:
    """The relation a diagram denotes; independent of contraction order.

    Greedy schedule: of the factor pairs sharing a variable, join the one
    with the narrowest result, ties to the earliest pair in factor order
    (``rng`` picks among all candidates instead).
    """
    d.validate()
    port_var = {}
    for w, (a, b) in enumerate(d.wires):
        port_var[a] = port_var[b] = ("w", w)
    for k, (port, _) in enumerate(d.legs):
        port_var[port] = ("l", k)
    protected = {("l", k) for k in range(len(d.legs))}

    # factors by id; ids grow, so id order is the factor order
    factors = {}
    for name, gen in d.boxes:
        r = resolve(gen)
        ports = [(name, s) for s in slots(gen)]
        factors[len(factors)] = _Factor([port_var[p] for p in ports],
                                        (a + b for a, b in r.pairs))
    if not factors:
        return rel.scalar(True)

    # A variable is a wire (two ports) or a leg (one port): at most two
    # factors hold it, and a variable two factors share dies with their join.
    holders = {}                 # variable -> ids of the factors holding it
    for i, f in factors.items():
        for v in f.vars:
            holders.setdefault(v, set()).add(i)
    for v, ids in list(holders.items()):
        if len(ids) == 1 and v not in protected:
            factors[min(ids)].drop({v})
            del holders[v]

    widths = {}                  # (i, j), i < j, sharing a variable -> width

    def score(i, j):
        vi, vj = factors[i].vars, factors[j].vars
        widths[i, j] = len(vi) + len(vj) - 2 * sum(v in vj for v in vi)

    for ids in holders.values():
        if len(ids) == 2:
            score(*sorted(ids))

    while widths:
        if rng is None:
            _, i, j = min((w, i, j) for (i, j), w in widths.items())
        else:
            _, i, j = rng.choice(sorted((w, i, j)
                                        for (i, j), w in widths.items()))
        new = max(factors) + 1
        fi, fj = factors.pop(i), factors.pop(j)
        gone = {v for v in fi.vars if v in fj.vars}
        f = _join(fi, fj)
        f.drop(gone)
        factors[new] = f
        for pair in [p for p in widths if i in p or j in p]:
            del widths[pair]
        for v in gone:
            del holders[v]
        for v in f.vars:
            holders[v] -= {i, j}
            holders[v].add(new)
        for m in {m for v in f.vars for m in holders[v]} - {new}:
            score(m, new)
    final, *rest = factors.values()
    for f in rest:               # disconnected remainder: tensor it together
        final = _join(final, f)
    if set(final.vars) != protected:
        raise RuntimeError("internal variables were not eliminated: %s"
                           % sorted(set(final.vars) - protected))
    in_vars = [("l", k) for k, (_, dr) in enumerate(d.legs) if dr == "in"]
    out_vars = [("l", k) for k, (_, dr) in enumerate(d.legs) if dr == "out"]
    pos = {v: i for i, v in enumerate(final.vars)}
    base = d.base_space.base
    dom = Space(base, len(in_vars)) if in_vars else rel.I
    cod = Space(base, len(out_vars)) if out_vars else rel.I
    pairs = frozenset((tuple(r[pos[v]] for v in in_vars),
                       tuple(r[pos[v]] for v in out_vars))
                      for r in final.rows)
    return Relation(dom, cod, pairs)


# ---------------------------------------------------------------------------
# Leg bending (map-state duality).


def _fresh(box_map, stem):
    for k in itertools.count():
        name = "%s%d" % (stem, k)
        if name not in box_map:
            return name


def bend_leg(d: Diagram, leg_index: int) -> Diagram:
    """Turn open leg ``leg_index`` (0-based) from input to output or back.

    The bent leg is re-attached at the end of the leg list, through the unit
    (delta after eps+) or counit (delta+ into eps) of the induced compact
    structure.
    """
    d.validate()
    if not 0 <= leg_index < len(d.legs):
        raise DiagramError("no open leg %d" % leg_index)
    box_map = d.box_map
    port, direction = d.legs[leg_index]
    boxes = list(d.boxes)
    wires = list(d.wires)
    legs = [lg for k, lg in enumerate(d.legs) if k != leg_index]
    if direction == "in":
        u = _fresh(box_map, "_cup")
        v = _fresh(box_map, "_cupd")
        boxes += [(u, GeneratorId("epsilon_dagger", d.theory)),
                  (v, GeneratorId("delta", d.theory))]
        wires += [((u, "1"), (v, "in")), ((v, "1"), port)]
        legs.append(((v, "2"), "out"))
    else:
        w = _fresh(box_map, "_capd")
        e = _fresh(box_map, "_cap")
        boxes += [(w, GeneratorId("delta_dagger", d.theory)),
                  (e, GeneratorId("epsilon", d.theory))]
        wires += [(port, (w, "in")), ((w, "1"), (e, "in"))]
        legs.append(((w, "in2"), "in"))
    return Diagram(d.theory, tuple(boxes), tuple(wires), tuple(legs)).validate()


def as_state(d: Diagram) -> Diagram:
    """Bend every input leg so the diagram denotes a state."""
    while any(dr == "in" for _, dr in d.legs):
        k = next(k for k, (_, dr) in enumerate(d.legs) if dr == "in")
        d = bend_leg(d, k)
    return d


# ---------------------------------------------------------------------------
# Sigma normalisation and zone decomposition.


def _is_sigma(gen: GeneratorId) -> bool:
    return gen.tag == "perm" and gen.perm == SIGMA


def _is_phased_box(gen: GeneratorId) -> bool:
    if gen.tag == "perm":
        return gen.perm.is_phased
    return gen.tag in ("delta", "delta_dagger", "epsilon", "epsilon_dagger",
                       "identity")


class _Builder:
    """Mutable companion of Diagram used by the rewriting passes."""

    def __init__(self, d: Diagram):
        self.theory = d.theory
        self.boxes = list(d.boxes)
        self.wires = list(d.wires)
        self.legs = list(d.legs)
        self._names = {name for name, _ in self.boxes}

    def fresh(self, stem):
        for k in itertools.count():
            name = "%s%d" % (stem, k)
            if name not in self._names:
                self._names.add(name)
                return name

    def add_box(self, stem, gen):
        name = self.fresh(stem)
        self.boxes.append((name, gen))
        return name

    def attachment(self, port):
        """What a port is connected to: ('wire', idx, other) or ('leg', idx)."""
        for i, (a, b) in enumerate(self.wires):
            if a == port:
                return ("wire", i, b)
            if b == port:
                return ("wire", i, a)
        for i, (p, _) in enumerate(self.legs):
            if p == port:
                return ("leg", i)
        raise DiagramError("port %s.%s is not attached" % port)

    def reattach(self, port, new_port):
        """Move whatever was attached at ``port`` onto ``new_port``."""
        kind = self.attachment(port)
        if kind[0] == "wire":
            i, other = kind[1], kind[2]
            self.wires[i] = (other, new_port)
        else:
            i = kind[1]
            self.legs[i] = (new_port, self.legs[i][1])

    def finish(self) -> Diagram:
        return Diagram(self.theory, tuple(self.boxes), tuple(self.wires),
                       tuple(self.legs)).validate()


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
    for name, gen in list(b.boxes):
        if gen.tag != "swap":
            continue
        b.boxes.remove((name, gen))
        for src, dst in ((("in"), ("2")), (("in2"), ("1"))):
            spacer = b.add_box("_x", GeneratorId("identity", SPEK))
            b.reattach((name, src), (spacer, "in"))
            b.reattach((name, dst), (spacer, "1"))

    # factor unphased permutations through Sigma
    for name, gen in list(b.boxes):
        if gen.tag != "perm" or gen.perm.is_phased:
            continue
        b.boxes.remove((name, gen))
        factors = sigma_decompose(gen.perm)
        chain = [b.add_box("_s" if f == SIGMA else "_p",
                           GeneratorId("perm", SPEK, f)) for f in factors]
        b.reattach((name, "in"), (chain[0], "in"))
        b.reattach((name, "1"), (chain[-1], "1"))
        for left, right in zip(chain, chain[1:]):
            b.wires.append(((left, "1"), (right, "in")))

    # pad Sigma boxes so both neighbours are phased
    box_map = dict(b.boxes)
    for name, gen in list(b.boxes):
        if not _is_sigma(gen):
            continue
        for slot in ("in", "1"):
            kind = b.attachment((name, slot))
            needs_pad = kind[0] == "leg" or _is_sigma(box_map[kind[2][0]])
            if needs_pad:
                spacer = b.add_box("_i", GeneratorId("identity", SPEK))
                b.reattach((name, slot), (spacer, "in"))
                b.wires.append(((spacer, "1"), (name, slot)))
                box_map = dict(b.boxes)
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

    def adjacency(self, i):
        """Zones linked to zone i an odd number of times (self-links drop out)."""
        count = {}
        for a, zb in self.links:
            if a == i and zb != i:
                count[zb] = count.get(zb, 0) + 1
            elif zb == i and a != i:
                count[a] = count.get(a, 0) + 1
        return {j for j, c in count.items() if c % 2}


def zone_decompose(d: Diagram) -> ZoneDecomposition:
    """Split a Spek diagram into maximal phased zones linked by Sigma."""
    nd = sigma_normalize(d)
    box_map = nd.box_map
    phased = [name for name, gen in nd.boxes if not _is_sigma(gen)]
    for name in phased:
        assert _is_phased_box(box_map[name])

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
    zone_boxes = {r: [] for r in roots}
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
                      key=lambda r: min(box_order[n] for n in zone_boxes[r]))
    ordering = external + internal
    zone_index = {r: i for i, r in enumerate(ordering)}

    links = []
    for name, gen in nd.boxes:
        if not _is_sigma(gen):
            continue
        ends = []
        b = _Builder(nd)
        for slot in ("in", "1"):
            kind = b.attachment((name, slot))
            assert kind[0] == "wire"
            ends.append(zone_index[comp_of[kind[2][0]]])
        links.append(tuple(sorted(ends)))

    zones = tuple(Zone(tuple(sorted(zone_boxes[r], key=box_order.get)),
                       tuple(zone_legs[r])) for r in ordering)
    reorder = tuple(k for z in zones for k in z.legs)
    return ZoneDecomposition(nd, zones, tuple(links), reorder)


def internalize_normal_form(d: Diagram) -> Diagram:
    """Give every internal zone a delta leg capped by eps (same relation)."""
    zd = zone_decompose(d)
    b = _Builder(zd.diagram)
    for i in zd.internal_zones:
        members = set(zd.zones[i].boxes)
        target = None
        for (pa, pb) in sorted(b.wires):
            if pa[0] in members or pb[0] in members:
                target = (pa, pb)
                break
        assert target is not None, "internal zone must touch a wire"
        pa, pb = target
        b.wires.remove(target)
        dd = b.add_box("_nfd", GeneratorId("delta", SPEK))
        cap = b.add_box("_nfe", GeneratorId("epsilon", SPEK))
        b.wires += [(pa, (dd, "in")), ((dd, "1"), pb), ((dd, "2"), (cap, "in"))]
    return b.finish()
